"""Block-stacked denoiser: forward pass, hand-written gradients,
training loop and the checkpoint format."""

import hashlib
import math
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import block_vectors, run_python
from turnpoint.conditioning import block_split, compose_single, unconditioned
from turnpoint.diffusion import build_schedule, forward_noise, sample
from turnpoint.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    MAX_PARAMS,
    AdamState,
    CheckpointError,
    DenoiserModel,
    NeuralDenoiser,
    TrainConfig,
    SlotTable,
    TrainingError,
    _param_count,
    forward,
    init_model,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    timestep_embedding,
    train,
)


def tiny_model(seed=0):
    return init_model(4, hidden=3, n_blocks=2, t_emb_dim=2, cond_width=1, seed=seed)


def batch_inputs(model, n=5, seed=1, n_steps=10):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((n, model.dim))
    eps = rng.standard_normal((n, model.dim))
    t = rng.integers(0, n_steps, n)
    conds = rng.standard_normal((n, model.cond_dim))
    block_conds = np.repeat(conds[:, None, :], model.n_blocks, axis=1)
    return z0, t, eps, block_conds


# ---------------------------------------------------------------------------
# timestep embedding


def test_timestep_embedding_t0():
    emb = timestep_embedding(0, 8)
    np.testing.assert_array_equal(emb[:4], 0.0)  # sines of zero
    np.testing.assert_array_equal(emb[4:], 1.0)  # cosines of zero


def test_timestep_embedding_batch_shape():
    emb = timestep_embedding(np.array([0, 1, 2]), 6)
    assert emb.shape == (3, 6)
    np.testing.assert_allclose(np.sin(1.0), emb[1, 0])


def test_timestep_embedding_dim_validation():
    with pytest.raises(ValueError):
        timestep_embedding(0, 7)
    with pytest.raises(ValueError):
        timestep_embedding(0, 0)


# ---------------------------------------------------------------------------
# model construction and forward


def test_init_model_shapes_and_zero_output():
    m = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=0)
    assert m.n_blocks == 3
    assert m.cond_dim == 6
    assert m.block_input_dim == 5 + 4 + 6
    assert m.w_in.shape == (5, 6)
    assert m.blocks[0].w1.shape == (5, 15)
    np.testing.assert_array_equal(m.w_out, 0.0)
    np.testing.assert_array_equal(m.b_out, 0.0)
    names = [name for name, _ in m.parameters()]
    assert names[:2] == ["w_in", "b_in"]
    assert names[-2:] == ["w_out", "b_out"]
    assert "blocks.2.b2" in names


def test_parameters_are_views_of_one_flat_vector():
    m = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=0)
    named, offset = dict(m.parameters()), 0
    for name, param in named.items():  # consecutive, in checkpoint order
        assert np.shares_memory(param, m.flat[offset : offset + param.size]), name
        if name.endswith(".w1"):
            assert m.block_start(int(name.split(".")[1])) == offset
        offset += param.size
    assert offset == m.flat.size
    attrs = {"w_in": m.w_in, "b_in": m.b_in, "w_out": m.w_out, "b_out": m.b_out}
    for j, blk in enumerate(m.blocks):
        attrs.update({f"blocks.{j}.{k}": getattr(blk, k) for k in ("w1", "b1", "w2", "b2")})
    assert sorted(attrs) == sorted(named)
    for name, view in attrs.items():
        assert view.shape == named[name].shape
        assert np.shares_memory(view, named[name]), name
    m.flat[:] = 7.0  # writing the vector writes every named tensor
    assert all(np.all(p == 7.0) for p in attrs.values())


def test_model_too_large_to_hold_is_refused_at_once():
    # in a child capped at 2 GiB, which a layout built before the size
    # check would fill
    proc = run_python(
        "import time\n"
        "from turnpoint.neural import init_model\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    init_model(96, n_blocks=2**64)\n"
        "except ValueError as exc:\n"
        "    print(time.perf_counter() - start, exc)\n",
        memory_cap=2 << 30,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert message.endswith(f"parameters, more than {MAX_PARAMS}\n")


def test_init_model_seed_determinism():
    a, b = tiny_model(seed=4), tiny_model(seed=4)
    for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa, pb)
    c = tiny_model(seed=5)
    assert any(
        not np.array_equal(pa, pc)
        for (_, pa), (_, pc) in zip(a.parameters(), c.parameters())
    )


def test_fresh_model_predicts_zero():
    m = tiny_model()
    sched = build_schedule(10)
    cond = compose_single([0.7])
    assign = block_split(1.0, m.n_blocks, cond, cond)
    out = forward(m, np.ones(4), 3, sched, block_vectors(assign))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_forward_validation():
    m = tiny_model()
    sched = build_schedule(10)
    cond, wide = compose_single([0.7]), compose_single([0.7, 0.1])
    assign = block_split(1.0, m.n_blocks, cond, cond)
    with pytest.raises(ValueError):
        forward(m, np.ones(5), 3, sched, block_vectors(assign))
    with pytest.raises(ValueError):
        forward(m, np.ones(4), 10, sched, block_vectors(assign))
    for wrong in (block_split(1.0, 3, cond, cond), block_split(1.0, 2, wide, wide)):
        with pytest.raises(ValueError):
            forward(m, np.ones(4), 3, sched, block_vectors(wrong))


def test_forward_depends_on_block_conditions():
    m = tiny_model()
    rng = np.random.default_rng(8)
    m.w_out[...] = rng.standard_normal(m.w_out.shape)
    sched = build_schedule(10)
    plus, minus = compose_single([0.7]), compose_single([-0.7])
    a = forward(m, np.ones(4), 3, sched, block_vectors(block_split(1.0, 2, plus, plus)))
    b = forward(m, np.ones(4), 3, sched, block_vectors(block_split(1.0, 2, minus, minus)))
    c = forward(m, np.ones(4), 3, sched, block_vectors(block_split(0.5, 2, plus, minus)))
    assert not np.array_equal(a, b)
    assert not np.array_equal(c, a) and not np.array_equal(c, b)


def test_forward_pairs_each_row_with_its_own_assignment():
    m = init_model(4, hidden=3, n_blocks=4, t_emb_dim=2, cond_width=1, seed=0)
    rng = np.random.default_rng(9)
    m.w_out[...] = rng.standard_normal(m.w_out.shape)
    sched = build_schedule(10)
    a, b = compose_single([0.7]), compose_single([-0.7])
    assigns = [block_split(x, m.n_blocks, a, b) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
    z = np.repeat(rng.standard_normal((1, 4)), len(assigns), axis=0)
    stacked = np.stack([block_vectors(a) for a in assigns])
    rows = np.stack([forward(m, zi, 3, sched, block_vectors(ai)) for zi, ai in zip(z, assigns)])
    assert len({r.tobytes() for r in rows}) == len(assigns)  # every assignment matters
    np.testing.assert_allclose(forward(m, z, 3, sched, stacked), rows, rtol=1e-12, atol=1e-14)
    den = NeuralDenoiser(m, sched)
    slots = np.array([[int(assign.conds[s] is b) for s in assign.slots[0]] for assign in assigns])
    got = den.predict_eps(z, 3, den.prepare([a, b]), slots)
    np.testing.assert_allclose(got, rows, rtol=1e-12, atol=1e-14)
    for wrong in (stacked[:-1], np.concatenate([stacked, stacked[:1]])):
        with pytest.raises(ValueError, match="block assignments for 5 latents"):
            forward(m, z, 3, sched, wrong)


def test_forward_condition_shape_rule():
    m = init_model(4, hidden=3, n_blocks=8, t_emb_dim=2, cond_width=1, seed=0)
    m.w_out[...] = np.random.default_rng(2).standard_normal(m.w_out.shape)
    sched = build_schedule(10)
    z = np.random.default_rng(3).standard_normal((3, 4))
    stack = block_vectors(block_split(0.5, 8, compose_single([0.7]), compose_single([-0.7])))
    want = forward(m, z, 3, sched, np.stack([stack] * 3))
    assert forward(m, z, 3, sched, stack).tobytes() == want.tobytes()
    cond = compose_single([0.7])
    uniform = block_vectors(block_split(1.0, 8, cond, cond))
    assert forward(m, z, 3, sched, uniform[0]).tobytes() == (
        forward(m, z, 3, sched, uniform).tobytes()
    )
    bad = [
        stack[:1],  # a one-block stack must not broadcast onto 8 blocks
        stack[:, :-1],  # a wrong condition width
        np.concatenate([stack[0], [0.0]]),
        np.stack([stack[:1]] * 3),
        stack[None, None],
        np.float64(0.7),
    ]
    for conds in bad:
        with pytest.raises(ValueError, match="block conditions have shape"):
            forward(m, z, 3, sched, conds)
    with pytest.raises(ValueError, match="2 block assignments for 3 latents"):
        forward(m, z, 3, sched, np.stack([stack] * 2))


def random_model(seed=3):
    """A model whose every parameter is random, so each one shows in the output."""
    m = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=seed)
    m.flat[...] = 0.5 * np.random.default_rng(seed).standard_normal(m.flat.shape)
    return m


def reference_forward(model, z, t, block_conds):
    """The unsplit block body ``tanh(u @ w1.T + b1)`` with ``u = [h, t_emb, c_j]``.

    z (n, dim), t one step or one per row, block_conds (n, n_blocks,
    cond_dim).  Returns (eps, per-block (u, s), final hidden state).
    """
    temb = timestep_embedding(np.broadcast_to(t, len(z)), model.t_emb_dim)
    h = z @ model.w_in.T + model.b_in
    cache = []
    for j, blk in enumerate(model.blocks):
        u = np.concatenate([h, temb, block_conds[:, j, :]], axis=1)
        s = np.tanh(u @ blk.w1.T + blk.b1)
        cache.append((u, s))
        h = h + s @ blk.w2.T + blk.b2
    return h @ model.w_out.T + model.b_out, cache, h


def reference_loss_and_grads(model, z0, t, eps, block_conds, sched):
    """Backpropagation through :func:`reference_forward`."""
    z_t = forward_noise(z0, t, eps, sched)
    pred, cache, h_last = reference_forward(model, z_t, t, block_conds)
    resid = pred - eps
    grad = np.zeros_like(model.flat)
    g = model.views(grad)
    d_pred = (2.0 / resid.size) * resid
    g["w_out"][...] = d_pred.T @ h_last
    g["b_out"][...] = d_pred.sum(axis=0)
    dh = d_pred @ model.w_out
    for j in range(model.n_blocks - 1, -1, -1):
        blk = model.blocks[j]
        u, s = cache[j]
        g[f"blocks.{j}.w2"][...] = dh.T @ s
        g[f"blocks.{j}.b2"][...] = dh.sum(axis=0)
        da = (dh @ blk.w2) * (1.0 - s * s)
        g[f"blocks.{j}.w1"][...] = da.T @ u
        g[f"blocks.{j}.b1"][...] = da.sum(axis=0)
        dh = dh + (da @ blk.w1)[:, : model.hidden]
    g["w_in"][...] = dh.T @ z_t
    g["b_in"][...] = dh.sum(axis=0)
    return float(np.mean(resid * resid)), grad


def test_block_column_views_split_w1():
    m = random_model()
    for blk in m.blocks:
        assert np.shares_memory(blk.w_h, blk.w1) and np.shares_memory(blk.w_c, blk.w1)
        np.testing.assert_array_equal(np.concatenate([blk.w_h, blk.w_t, blk.w_c], axis=1), blk.w1)
    assert (m.blocks[0].w_h.shape, m.blocks[0].w_t.shape, m.blocks[0].w_c.shape) == (
        (5, 5), (5, 4), (5, 6)
    )


def test_forward_matches_unsplit_reference():
    m = random_model()
    sched = build_schedule(10)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((4, m.dim))
    per_row = rng.standard_normal((4, m.n_blocks, m.cond_dim))
    stack, vector = per_row[0], per_row[0, 0]
    cases = [
        (z[0], stack, stack[None]),  # one row
        (z, stack, np.stack([stack] * 4)),  # a shared stack
        (z, per_row, per_row),  # one stack per row
        (z, vector, np.broadcast_to(vector, per_row.shape)),  # one vector for everything
    ]
    for latents, conds, full in cases:
        want, _, _ = reference_forward(m, latents.reshape(-1, m.dim), 7, full)
        got = forward(m, latents, 7, sched, conds)
        np.testing.assert_allclose(got.reshape(want.shape), want, rtol=1e-12)


def test_forward_rejects_slots_for_other_rows():
    m = random_model()
    sched = build_schedule(10)
    table = SlotTable(m, np.ones((2, m.cond_dim)), sched.n_steps)
    assert table.terms.shape == (m.n_blocks, 2, m.hidden)
    with pytest.raises(ValueError, match="slots for 3 rows, 2 latents"):
        forward(m, np.ones((2, m.dim)), 3, sched, table, [0, 1, 1])
    with pytest.raises(ValueError, match="slots for 3 rows, 2 latents"):
        forward(m, np.ones((2, m.dim)), 3, sched, table, np.zeros((3, m.n_blocks), dtype=int))


# ---------------------------------------------------------------------------
# loss and gradients


def test_loss_and_grads_match_unsplit_reference():
    m = random_model()
    sched = build_schedule(10)
    z0, t, eps, _ = batch_inputs(m, n=6)
    block_conds = np.random.default_rng(5).standard_normal((6, m.n_blocks, m.cond_dim))
    loss, grad = loss_and_grads(m, z0, t, eps, block_conds, sched)
    want_loss, want_grad = reference_loss_and_grads(m, z0, t, eps, block_conds, sched)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 20])
def test_block_shared_conditions_equal_their_repeat_bit_for_bit(n):
    # train passes (n, cond_dim); the explicit per-block repeat is the reference
    m = random_model()
    sched = build_schedule(10)
    z0, t, eps, _ = batch_inputs(m, n=n)
    conds = np.random.default_rng(5).standard_normal((n, m.cond_dim))
    repeat = np.repeat(conds[:, None, :], m.n_blocks, axis=1)
    loss, grad = loss_and_grads(m, z0, t, eps, conds, sched)
    want_loss, want_grad = loss_and_grads(m, z0, t, eps, repeat, sched)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_loss_and_grads_rejects_conditions_of_other_widths():
    m = random_model()
    sched = build_schedule(10)
    z0, t, eps, block_conds = batch_inputs(m, n=4)
    with pytest.raises(ValueError, match="block conditions must have shape"):
        loss_and_grads(m, z0, t, eps, block_conds[:, 0, :-1], sched)
    with pytest.raises(ValueError, match="block conditions must have shape"):
        loss_and_grads(m, z0, t, eps, block_conds[:3], sched)


def test_forward_leaves_a_tables_terms_unchanged():
    # the time terms are added into a fold and a gather a forward pass owns
    m = random_model()
    sched = build_schedule(10)
    z = np.random.default_rng(4).standard_normal((3, m.dim))
    vectors = np.random.default_rng(5).standard_normal((2, m.cond_dim))
    table = SlotTable(m, vectors, sched.n_steps)
    terms, time_terms = table.terms.copy(), table.time_terms.copy()
    slots = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]])  # (rows, n_blocks)
    first = forward(m, z, 7, sched, table, slots)
    assert table.terms.tobytes() == terms.tobytes()
    assert table.time_terms.tobytes() == time_terms.tobytes()
    forward(m, z, 2, sched, table, slots)
    assert forward(m, z, 7, sched, table, slots).tobytes() == first.tobytes()
    assert forward(m, z, 7, sched, table, slots).tobytes() == first.tobytes()
    raw = forward(m, z, 7, sched, vectors[slots])
    assert raw.tobytes() == first.tobytes()


def test_one_table_serves_interleaved_and_guided_calls():
    # each call folds its own step, so no call depends on the one before
    m = random_model()
    sched = build_schedule(10)
    z = np.random.default_rng(4).standard_normal((3, m.dim))
    vectors = np.random.default_rng(5).standard_normal((3, m.cond_dim))
    table = SlotTable(m, vectors, sched.n_steps)

    def fresh(t, slots):
        return forward(m, z, t, sched, SlotTable(m, vectors, sched.n_steps), slots).tobytes()

    slots = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]])  # (rows, n_blocks)
    for down, up in zip(range(9, -1, -1), range(10)):
        for t, s in ((down, slots), (up, slots[:, 0])):
            assert forward(m, z, t, sched, table, s).tobytes() == fresh(t, s)
    uncond = np.full(3, 2)
    for t in (6, 6, 0):
        for s in (slots, uncond):
            assert forward(m, z, t, sched, table, s).tobytes() == fresh(t, s)


def test_loss_matches_manual_mse():
    m = tiny_model()
    rng = np.random.default_rng(3)
    m.w_out[...] = rng.standard_normal(m.w_out.shape) * 0.3
    sched = build_schedule(10)
    z0, t, eps, block_conds = batch_inputs(m)
    loss, _ = loss_and_grads(m, z0, t, eps, block_conds, sched)
    # recompute independently: noise forward, run the unsplit net, average
    z_t = forward_noise(z0, t, eps, sched)
    pred, _, _ = reference_forward(m, z_t, t, block_conds)
    want = float(np.mean((pred - eps) ** 2))
    assert loss == pytest.approx(want, rel=1e-12)


def test_gradients_match_finite_differences_spot_check():
    m = tiny_model()
    rng = np.random.default_rng(9)
    m.w_out[...] = rng.standard_normal(m.w_out.shape) * 0.5
    m.b_out[...] = rng.standard_normal(m.b_out.shape) * 0.1
    sched = build_schedule(10)
    z0, t, eps, block_conds = batch_inputs(m, n=4)
    _, grad = loss_and_grads(m, z0, t, eps, block_conds, sched)
    grads = m.views(grad)
    h = 1e-6
    for name, param in m.parameters():
        if name not in ("w_in", "blocks.0.w1", "blocks.1.w2", "w_out", "b_in"):
            continue
        flat = param.reshape(-1)
        for ix in (0, flat.size // 2, flat.size - 1):
            orig = flat[ix]
            flat[ix] = orig + h
            lp, _ = loss_and_grads(m, z0, t, eps, block_conds, sched)
            flat[ix] = orig - h
            lm, _ = loss_and_grads(m, z0, t, eps, block_conds, sched)
            flat[ix] = orig
            fd = (lp - lm) / (2 * h)
            got = grads[name].reshape(-1)[ix]
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-9), (name, ix)


def test_loss_and_grads_shape_validation():
    m = tiny_model()
    sched = build_schedule(10)
    z0, t, eps, block_conds = batch_inputs(m)
    with pytest.raises(ValueError):
        loss_and_grads(m, z0[:, :2], t, eps[:, :2], block_conds, sched)
    with pytest.raises(ValueError):
        loss_and_grads(m, z0, t, eps, block_conds[:, :1, :], sched)
    with pytest.raises(ValueError):
        loss_and_grads(m, z0[:0], t[:0], eps[:0], block_conds[:0], sched)


def test_non_finite_loss_raises():
    m = tiny_model()
    sched = build_schedule(10)
    z0, t, eps, block_conds = batch_inputs(m)
    rng = np.random.default_rng(1)
    m.w_out[...] = rng.standard_normal(m.w_out.shape)
    z0[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError):
            loss_and_grads(m, z0, t, eps, block_conds, sched)


def test_loss_and_grads_hands_over_each_block_once_it_is_final():
    # at each call the caller may overwrite the block's parameters and
    # gradient and everything above them: the backward reads neither again
    m = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    sched = build_schedule(10)
    z0, t, eps, block_conds = batch_inputs(m, n=6)
    loss, want = loss_and_grads(m, z0, t, eps, block_conds, sched)
    seen = []

    def ready(j, at_loss, grad):
        start = m.block_start(j)
        seen.append((j, at_loss, grad[start:].copy()))
        m.flat[start:] = np.nan
        grad[start:] = np.nan

    _, grad = loss_and_grads(m, z0, t, eps, block_conds, sched, ready=ready)
    assert [j for j, _, _ in seen] == [2, 1, 0]
    for j, at_loss, part in seen:
        assert at_loss == loss
        # the previous call overwrote what follows block j
        own = None if j == m.n_blocks - 1 else m.block_start(j + 1) - m.block_start(j)
        assert part[:own].tobytes() == want[m.block_start(j):][:own].tobytes()
    first = m.block_start(0)
    assert grad[:first].tobytes() == want[:first].tobytes()
    assert np.isnan(grad[first:]).all()


# ---------------------------------------------------------------------------
# training loop


def gaussian_task(dim, cond_dim, mean=1.5):
    vec = np.zeros(cond_dim)
    vec[0] = 1.0

    def draw(rng, n):
        z0 = mean + 0.3 * rng.standard_normal((n, dim))
        return z0, np.tile(vec, (n, 1))

    return draw


def test_train_reduces_loss_and_is_deterministic():
    sched = build_schedule(10)
    cfg = TrainConfig(steps=400, batch_size=32, seed=6)

    def run():
        m = tiny_model(seed=2)
        return train(m, gaussian_task(m.dim, m.cond_dim), cfg, sched)

    model_a, trace_a = run()
    model_b, trace_b = run()
    assert trace_a == trace_b
    for (_, pa), (_, pb) in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(pa, pb)
    steps = [s for s, _ in trace_a]
    assert steps == [0, 100, 200, 300]
    assert trace_a[-1][1] < 0.9 * trace_a[0][1]


def test_train_records_gradient_norms_at_trace_steps(monkeypatch):
    # at 128 rows the other steps begin their update inside the backward
    # pass, from the middle block up, and the update overwrites the
    # gradient, so a step that records a norm must not; here each begun
    # update is done before the backward goes on
    sched = build_schedule(10)
    starts = []
    begin = AdamState.begin

    def begin_and_finish(self, model, grad, cfg, helper, start):
        begun = begin(self, model, grad, cfg, helper, start)
        begun[1].result(timeout=10)
        starts.append(start)
        return begun

    monkeypatch.setattr(AdamState, "begin", begin_and_finish)
    for batch_size in (8, 128):
        cfg = TrainConfig(steps=201, batch_size=batch_size, seed=6)
        norms, want = [], []
        starts.clear()
        m = tiny_model(seed=2)
        draw = gaussian_task(m.dim, m.cond_dim)
        _, trace = train(m, draw, cfg, sched, grad_norms=norms)
        ref, _ = reference_train(tiny_model(seed=2), draw, cfg, sched, grad_norms=want)
        assert len(norms) == len(trace) == 3
        handed_off = cfg.steps - len(trace) if batch_size >= 96 else 0
        assert starts == [m.block_start(m.n_blocks // 2)] * handed_off
        assert norms == want
        assert all(math.isfinite(n) and n > 0 for n in norms)
        assert m.flat.tobytes() == ref.flat.tobytes()


def reference_train(model, draw, cfg, sched, grad_norms=None):
    """The training loop written out: every block gets the example's
    condition as an explicit (n, n_blocks, cond_dim) repeat."""
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState(model)
    trace = []
    for step in range(cfg.steps):
        z0, conds = draw(rng, cfg.batch_size)
        t = rng.integers(0, sched.n_steps, size=len(z0))
        eps = rng.standard_normal(z0.shape)
        block_conds = np.repeat(conds[:, None, :], model.n_blocks, axis=1)
        loss, grad = loss_and_grads(model, z0, t, eps, block_conds, sched)
        if step % 100 == 0:
            trace.append((step, loss))
            if grad_norms is not None:
                grad_norms.append(float(np.linalg.norm(grad)))
        adam.update(model, grad, cfg)
    return model, trace


# 128 rows reach the update that begins inside the backward pass
@pytest.mark.parametrize("batch_size", [5, 24, 128])
def test_train_equals_the_reference_loop_bit_for_bit(batch_size):
    sched = build_schedule(12)
    cfg = TrainConfig(steps=201, batch_size=batch_size, seed=4)
    rng = np.random.default_rng(7)
    m = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    means = rng.standard_normal((4, m.dim))
    vectors = rng.standard_normal((4, m.cond_dim))

    def draw(rng, n):
        pick = rng.integers(0, 4, size=n)
        return means[pick] + 0.3 * rng.standard_normal((n, m.dim)), vectors[pick]

    ref = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    ref, want = reference_train(ref, draw, cfg, sched)
    got_model, got = train(m, draw, cfg, sched)
    assert [step for step, _ in got] == [0, 100, 200]
    assert np.array([loss for _, loss in got]).tobytes() == np.array(
        [loss for _, loss in want]).tobytes()
    assert got_model.flat.tobytes() == ref.flat.tobytes()


def test_train_equals_the_reference_loop_under_frequent_thread_switches():
    # the helper and the caller share the generator's order and the Adam
    # arrays' ranges, at 128 rows some begun inside the backward pass;
    # switching threads every microsecond must not move a bit
    sched = build_schedule(12)
    for batch_size, steps in ((24, 60), (128, 201)):
        cfg = TrainConfig(steps=steps, batch_size=batch_size, seed=5)
        models = [init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=3)
                  for _ in range(2)]
        draw = gaussian_task(models[0].dim, models[0].cond_dim)
        ref, want = reference_train(models[0], draw, cfg, sched)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got_model, got = train(models[1], draw, cfg, sched)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert got_model.flat.tobytes() == ref.flat.tobytes()


def test_train_divergence_abort():
    sched = build_schedule(10)
    m = tiny_model()

    def absurd(rng, n):
        return np.full((n, m.dim), 1e7), np.zeros((n, m.cond_dim))

    with pytest.raises(TrainingError, match="diverged"):
        train(m, absurd, TrainConfig(steps=10, batch_size=4), sched)


def test_a_diverging_step_updates_nothing():
    # at 128 rows a step's update begins inside its backward pass, so the
    # loss must be checked before that
    sched = build_schedule(12)
    k = 3
    cfg = TrainConfig(steps=10, batch_size=128, seed=4)
    task = gaussian_task(6, 6)
    calls = []

    def draw(rng, n):
        calls.append(n)
        z0, conds = task(rng, n)
        return (np.full_like(z0, 1e7) if len(calls) == k + 1 else z0), conds

    def model():
        return init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)

    m = model()
    with pytest.raises(TrainingError, match=f"diverged at step {k}"):
        train(m, draw, cfg, sched)
    ref, _ = reference_train(model(), task, replace(cfg, steps=k), sched)
    assert m.flat.tobytes() == ref.flat.tobytes()


def test_train_rejects_bad_condition_shape():
    sched = build_schedule(10)
    m = tiny_model()

    def wrong(rng, n):
        return rng.standard_normal((n, m.dim)), rng.standard_normal((n, m.cond_dim + 1))

    with pytest.raises(ValueError, match="data sampler"):
        train(m, wrong, TrainConfig(steps=1, batch_size=4), sched)


@pytest.mark.parametrize("steps", [0, 1, 7])
def test_train_calls_the_sampler_once_per_step_in_step_order(steps):
    sched = build_schedule(10)
    m = tiny_model()
    task = gaussian_task(m.dim, m.cond_dim)
    seen = []

    def draw(rng, n):
        seen.append(rng.bit_generator.state)
        return task(rng, n)

    train(m, draw, TrainConfig(steps=steps, batch_size=4, seed=3), sched)
    # the generator's state at each call of the serial loop, which draws
    # a step's batch, then its steps, then its noise
    rng = np.random.default_rng(3)
    want = []
    for _ in range(steps):
        want.append(rng.bit_generator.state)
        z0, _ = task(rng, 4)
        rng.integers(0, sched.n_steps, size=4)
        rng.standard_normal(z0.shape)
    assert seen == want


@pytest.mark.parametrize("failure, error, match", [
    (None, None, None),
    ("sampler", RuntimeError, "sampler failed"),
    ("divergence", TrainingError, "diverged at step 2"),
    ("shape", ValueError, "data sampler"),
])
def test_train_leaves_no_thread_running(failure, error, match):
    sched = build_schedule(10)
    m = tiny_model()
    task = gaussian_task(m.dim, m.cond_dim)
    calls = []

    def draw(rng, n):
        calls.append(n)
        z0, conds = task(rng, n)
        if len(calls) >= 3:  # step 2 on
            if failure == "sampler":
                raise RuntimeError("sampler failed")
            if failure == "divergence":
                z0 = np.full_like(z0, 1e7)
            if failure == "shape":
                conds = conds[:, 1:]
        return z0, conds

    # at 128 rows each step's update begins inside its backward pass
    for batch_size in (4, 128):
        calls.clear()
        cfg = TrainConfig(steps=10, batch_size=batch_size)
        before = set(threading.enumerate())
        if error is None:
            train(tiny_model(), draw, cfg, sched)
        else:
            with pytest.raises(error, match=match):
                train(tiny_model(), draw, cfg, sched)
        assert set(threading.enumerate()) == before


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            TrainConfig(learning_rate=bad)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    assert {f.name for f in fields(TrainConfig)} == {"learning_rate", "batch_size", "steps", "seed"}


@pytest.mark.parametrize("name", ["batch_size", "steps", "seed"])
@pytest.mark.parametrize("value", [True, 2.0, 6.5, "3"])
def test_train_config_refuses_a_count_that_is_not_an_integer(name, value):
    # True would train at batch 1 or for one step, and 6.5 is no count
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        TrainConfig(**{name: value})


def test_train_config_refuses_a_boolean_learning_rate():
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0, got True"):
        TrainConfig(learning_rate=True)
    assert TrainConfig(batch_size=np.int64(4), steps=np.int64(2)).batch_size == 4


@pytest.mark.parametrize("name", ["dim", "hidden", "n_blocks", "t_emb_dim", "cond_width"])
@pytest.mark.parametrize("value", [True, 6.0, 6.5, "6"])
def test_model_refuses_a_dimension_that_is_not_an_integer(name, value):
    # init_model(96, hidden=6.5) used to build hidden 6, and hidden=True hidden 1
    dims = dict(dim=12, hidden=6, n_blocks=2, t_emb_dim=4, cond_width=2)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        init_model(**{**dims, name: value})
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        DenoiserModel(**{**dims, name: value})


def test_model_reads_numpy_integer_dimensions_as_ints():
    model = init_model(np.int64(12), hidden=np.int32(6), n_blocks=2, t_emb_dim=4, cond_width=2)
    assert type(model.dim) is int and type(model.hidden) is int
    assert model.flat.size == _param_count(12, 6, 2, 4, 2)


def _per_tensor_adam(model, m, v, grads, cfg, step):
    """Reference: the per-tensor Adam loop that the flat update replaced."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for name, param in model.parameters():
        g = grads[name]
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * g * g
        param -= cfg.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)


@pytest.mark.parametrize("cfg", [TrainConfig(), TrainConfig(3e-2)])
def test_adam_update_equals_per_tensor_reference(cfg):
    model = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    ref = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    m = {name: np.zeros_like(p) for name, p in ref.parameters()}
    v = {name: np.zeros_like(p) for name, p in ref.parameters()}
    adam = AdamState(model)
    rng = np.random.default_rng(8)
    for step in range(1, 5):
        grad = rng.standard_normal(model.flat.shape) * 10.0 ** rng.integers(-6, 3)
        grad[rng.random(grad.size) < 0.1] = 0.0
        _per_tensor_adam(ref, m, v, ref.views(grad.copy()), cfg, step)
        adam.update(model, grad, cfg)
        assert adam.step == step
        assert model.flat.tobytes() == ref.flat.tobytes()
        assert adam.m.tobytes() == b"".join(a.tobytes() for a in m.values())
        assert adam.v.tobytes() == b"".join(a.tobytes() for a in v.values())


def test_adam_update_with_a_helper_equals_the_serial_update():
    # an odd length, so that the helper's half is one element shorter.
    # begun_at: None, or the block from which begin() hands the update to
    # the helper (3, past the last block, hands over the output projection
    # alone); busy: the helper is held until the update returns, so that
    # the calling thread takes back every range the helper has not started
    serial = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    split = init_model(6, hidden=5, n_blocks=3, t_emb_dim=4, cond_width=2, seed=2)
    assert split.flat.size % 2 == 1
    adam_serial, adam_split = AdamState(serial), AdamState(split)
    cfg = TrainConfig(3e-2)
    rng = np.random.default_rng(8)
    cases = [(begun_at, busy) for begun_at in (None, 0, 1, 3) for busy in (False, True)]
    with ThreadPoolExecutor(max_workers=1) as helper:
        for begun_at, busy in cases:
            grad = rng.standard_normal(split.flat.shape) * 10.0 ** rng.integers(-6, 3)
            adam_serial.update(serial, grad.copy(), cfg)
            held = threading.Event()
            holder = helper.submit(held.wait, 10) if busy else None
            begun = None
            if begun_at is not None:
                begun = adam_split.begin(split, grad, cfg, helper, split.block_start(begun_at))
            adam_split.update(split, grad, cfg, helper, begun)
            held.set()
            if busy:
                assert holder.result(timeout=10)
                assert begun is None or begun[1].cancelled()
            assert split.flat.tobytes() == serial.flat.tobytes()
            assert adam_split.m.tobytes() == adam_serial.m.tobytes()
            assert adam_split.v.tobytes() == adam_serial.v.tobytes()


def test_adam_update_makes_no_parameter_sized_temporary():
    model = init_model(32, hidden=32, n_blocks=4, t_emb_dim=4, cond_width=3, seed=0)
    adam = AdamState(model)
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    adam.update(model, rng.standard_normal(model.flat.shape), cfg)
    grad = rng.standard_normal(model.flat.shape)
    tracemalloc.start()
    try:
        adam.update(model, grad, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.flat.nbytes, (peak, model.flat.nbytes)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_bytes_equal_per_tensor_writer(tmp_path):
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=11)
    m.flat += np.random.default_rng(12).standard_normal(m.flat.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    # reference: the header, then each tensor as little-endian float64 in order
    want = struct.pack("<6sIIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 6, 4, 3, 2, 2)
    want += b"".join(np.asarray(p, dtype="<f8").tobytes() for _, p in m.parameters())
    assert path.read_bytes() == want
    assert load_checkpoint(path).flat.tobytes() == m.flat.tobytes()


def test_init_checkpoint_bytes_are_fixed(tmp_path):
    # the digest of this checkpoint before w1 was read as column views
    path = tmp_path / "init.ckpt"
    save_checkpoint(init_model(12, hidden=8, n_blocks=3, t_emb_dim=4, cond_width=2, seed=21), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1f9bb0d32918f970198dca0e1fdbb6eb54fd4965b1ae5aaebc29266a0858ebcc"
    )


def test_checkpoint_roundtrip(tmp_path):
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=11)
    rng = np.random.default_rng(12)
    for _, p in m.parameters():
        p += rng.standard_normal(p.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert (back.dim, back.hidden, back.n_blocks) == (6, 4, 3)
    assert (back.t_emb_dim, back.cond_width) == (2, 2)
    for (na, pa), (nb, pb) in zip(m.parameters(), back.parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)


def test_checkpoint_header_starts_with_magic(tmp_path):
    m = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    assert path.read_bytes()[:6] == CHECKPOINT_MAGIC


def test_checkpoint_corruption_errors(tmp_path):
    m = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    blob = path.read_bytes()

    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="too short"):
        load_checkpoint(short)

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"NOTCKP" + blob[6:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(blob[:6] + b"\x63\x00\x00\x00" + blob[10:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad_version)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError, match="truncated parameter data"):
        load_checkpoint(truncated)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(padded)


@pytest.mark.parametrize("dims", [(36, 40_000, 2, 4, 7), (2**32 - 1,) * 5])
def test_checkpoint_header_cannot_ask_for_more_than_the_body(tmp_path, dims):
    # hidden 40 000 asks for 191 GiB; the body is checked before anything
    # of that size is allocated
    path = tmp_path / "huge.ckpt"
    header = struct.pack("<6sIIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *dims)
    path.write_bytes(header + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated parameter data: 64 of"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("t_emb_dim", [0, 3])
def test_t_emb_dim_must_be_even_and_at_least_2(tmp_path, t_emb_dim):
    with pytest.raises(ValueError, match="t_emb_dim must be even and >= 2"):
        init_model(6, hidden=4, n_blocks=3, t_emb_dim=t_emb_dim, cond_width=2)
    # a header whose body has the right size for its dimensions
    dims = (6, 4, 3, t_emb_dim, 2)
    path = tmp_path / "odd.ckpt"
    header = struct.pack("<6sIIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *dims)
    path.write_bytes(header + b"\x00" * (8 * _param_count(*dims)))
    with pytest.raises(CheckpointError, match="invalid header dimensions: t_emb_dim"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# sampler-facing wrapper


def test_neural_denoiser_uniform_equals_blocks():
    m = tiny_model()
    rng = np.random.default_rng(3)
    m.w_out[...] = rng.standard_normal(m.w_out.shape)
    sched = build_schedule(10)
    den = NeuralDenoiser(m, sched)
    cond = compose_single([0.4])
    z = rng.standard_normal((3, 4))
    prepared = den.prepare([compose_single([-0.4]), cond])
    a = den.predict_eps(z, 5, prepared, np.ones(3, dtype=np.intp))
    b = den.predict_eps(z, 5, prepared, np.ones((3, m.n_blocks), dtype=np.intp))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, forward(m, z, 5, sched, cond.vector), rtol=1e-12, atol=1e-14)
    assert den.dim == 4 and den.n_blocks == m.n_blocks


def test_neural_denoiser_predict_eps_equals_uniform_forward():
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=1)
    rng = np.random.default_rng(6)
    m.w_out[...] = rng.standard_normal(m.w_out.shape)
    sched = build_schedule(10)
    den = NeuralDenoiser(m, sched)
    cond = compose_single([0.4, -0.2])
    vectors = block_vectors(block_split(1.0, m.n_blocks, cond, cond))
    prepared = den.prepare([cond])
    for z in (rng.standard_normal((1, 6)), rng.standard_normal((4, 6))):
        got = den.predict_eps(z, 5, prepared, np.zeros(len(z), dtype=np.intp))
        assert got.tobytes() == forward(m, z, 5, sched, vectors).tobytes()


def test_neural_denoiser_predict_eps_equals_forward_across_the_small_matrix_threshold():
    # below 19 rows OpenBLAS rounds products with the copied (in, out)
    # operands differently from products with transposed views, so both
    # paths must run with the copies.  Each row has a condition of its own,
    # so both project as many condition rows: a one-row projection rounds
    # differently from a projection of several (one-row products go to gemv).
    # Every step of the schedule runs with one slot per row, then one per row
    # and block, then the last slot for every row: the step's time term is
    # folded in once, read thrice.  The second table's last slot is the
    # unconditioned one, which a guided step reads after the others.
    m = init_model(12, hidden=64, n_blocks=8, t_emb_dim=16, cond_width=7, seed=4)
    rng = np.random.default_rng(9)
    m.flat[...] += 0.05 * rng.standard_normal(m.flat.shape)
    sched = build_schedule(50)
    den = NeuralDenoiser(m, sched)
    for rows in (1, 18, 19, 132):
        conds = [compose_single(list(rng.standard_normal(7))) for _ in range(rows)]
        per_row = rng.permutation(rows)
        per_block = np.stack([rng.permutation(rows) for _ in range(m.n_blocks)], axis=1)
        last = np.full(rows, rows - 1)
        for guided in (False, True):
            if guided:
                conds[-1] = unconditioned(7)
            vectors = np.stack([c.vector for c in conds])
            table = den.prepare(conds)
            for t in range(sched.n_steps - 1, -1, -1):
                z = rng.standard_normal((rows, m.dim))
                for slots in (per_row, per_block, last):
                    got = den.predict_eps(z, t, table, slots)
                    raw = np.broadcast_to(vectors[slots].reshape(rows, -1, m.cond_dim),
                                          (rows, m.n_blocks, m.cond_dim))
                    want = forward(m, z, t, sched, raw)
                    assert got.tobytes() == want.tobytes(), (rows, guided, t, slots.shape)


def test_sample_leaves_the_prepared_table_unchanged(tmp_path):
    m = init_model(6, hidden=8, n_blocks=4, t_emb_dim=4, cond_width=2, seed=3)
    m.flat[...] += 0.1 * np.random.default_rng(3).standard_normal(m.flat.shape)
    save_checkpoint(m, tmp_path / "model.ckpt")
    m = load_checkpoint(tmp_path / "model.ckpt")
    den = NeuralDenoiser(m, build_schedule(20))
    a, b = compose_single([0.4, -0.2]), compose_single([-1.0, 0.3])
    plans = [block_split(x, m.n_blocks, a, b) for x in (0.0, 0.5, 1.0)]
    tables = []
    prepare = den.prepare

    def recorded(conds):
        table = prepare(conds)
        w_in, b_in, blocks, w_out, b_out = table._ops
        arrays = [table.terms, w_in, b_in, *(w for block in blocks for w in block),
                  w_out, b_out, table.time_terms]
        tables.append((table, arrays, [x.tobytes() for x in arrays]))
        return table

    den.prepare = recorded
    for guidance_scale in (1.0, 3.0):
        out = sample(den, plans, [1, 2, 1], guidance_scale=guidance_scale)
        assert np.isfinite(out).all()
    assert len(tables) == 2
    for table, arrays, before in tables:
        assert [x.tobytes() for x in arrays] == before


def test_forward_rejects_a_step_outside_the_schedule_or_the_table():
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=1)
    sched = build_schedule(10)
    den = NeuralDenoiser(m, sched)
    table = den.prepare([compose_single([0.4, -0.2]), compose_single([-1.0, 0.3])])
    z = np.random.default_rng(2).standard_normal((2, m.dim))
    for t in (-1, sched.n_steps):
        with pytest.raises(ValueError, match="outside"):
            den.predict_eps(z, t, table, [0, 1])
    short = SlotTable(m, np.ones((2, m.cond_dim)), 5)
    with pytest.raises(ValueError, match=r"step index 7 outside \[0, 5\)"):
        forward(m, z, 7, sched, short, [0, 1])


@pytest.mark.parametrize("t", [2.5, np.float64(2.0), True, np.True_])
def test_forward_rejects_a_step_that_is_not_an_integer(t):
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=1)
    sched = build_schedule(10)
    table = SlotTable(m, compose_single([0.4, -0.2]).vector[None], sched.n_steps)
    z = np.zeros((2, m.dim))
    with pytest.raises(ValueError, match="is not an integer"):
        forward(m, z, t, sched, table, [0, 0])
    with pytest.raises(ValueError, match="is not an integer"):
        forward(m, z, t, sched, np.ones(m.cond_dim))


def test_forward_numpy_integer_step_equals_python_int():
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=1)
    sched = build_schedule(10)
    vectors = np.stack([compose_single([0.4, -0.2]).vector, compose_single([-1.0, 0.3]).vector])
    z = np.random.default_rng(2).standard_normal((2, m.dim))
    table = SlotTable(m, vectors, sched.n_steps)
    for t in (0, 6):
        want = forward(m, z, t, sched, table, [0, 1]).tobytes()
        assert forward(m, z, np.int64(t), sched, table, [0, 1]).tobytes() == want
        want = forward(m, z, t, sched, vectors[1]).tobytes()
        assert forward(m, z, np.int64(t), sched, vectors[1]).tobytes() == want


def test_prepared_state_is_a_snapshot_of_the_model():
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=1)
    rng = np.random.default_rng(6)
    m.flat[...] += rng.standard_normal(m.flat.shape)
    sched = build_schedule(10)
    den = NeuralDenoiser(m, sched)
    conds = [compose_single([0.4, -0.2]), compose_single([-1.0, 0.3])]
    prepared = den.prepare(conds)
    z = rng.standard_normal((5, 6))
    slots = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 1], [0, 1, 0]])
    want = den.predict_eps(z, 4, prepared, slots)
    m.flat[...] = rng.standard_normal(m.flat.shape)
    assert den.predict_eps(z, 4, prepared, slots).tobytes() == want.tobytes()
    assert den.predict_eps(z, 4, den.prepare(conds), slots).tobytes() != want.tobytes()


def test_neural_denoiser_answers_each_row_under_its_slot():
    m = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=2, seed=2)
    rng = np.random.default_rng(8)
    m.w_out[...] = rng.standard_normal(m.w_out.shape)
    sched = build_schedule(10)
    den = NeuralDenoiser(m, sched)
    conds = [compose_single([0.4, -0.2]), compose_single([-1.0, 0.3]), compose_single([0.0, 2.0])]
    slots = np.array([2, 0, 0, 1, 2, 1, 0])
    z = rng.standard_normal((len(slots), 6))
    prepared = den.prepare(conds)
    assert prepared.terms.shape == (m.n_blocks, len(conds), m.hidden)
    got = den.predict_eps(z, 7, prepared, slots)
    for row, slot in enumerate(slots):
        want = forward(m, z[row], 7, sched, conds[slot].vector)
        np.testing.assert_allclose(got[row], want, rtol=1e-12, atol=1e-14)
