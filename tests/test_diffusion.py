"""Forward noising, the reverse update rule, and the sampler loop."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import block_vectors, chain_counts
from turnpoint.conditioning import (
    ConditionPlan,
    block_split,
    compose_single,
    constant_schedule,
    step_switch,
)
from turnpoint import diffusion
from turnpoint.analytic import AnalyticDenoiser
from turnpoint.harness import backend_for_record
from turnpoint.diffusion import (
    DenoiserBackend,
    NoiseSchedule,
    ancestral_step,
    build_schedule,
    forward_noise,
    sample,
    step_coefficients,
)
from turnpoint.neural import NeuralDenoiser, forward, init_model
from turnpoint.worldgen import condition_of, generate_suite, suite_training_pairs


class LinearBackend:
    """Minimal backend with eps_hat = a * z + b, recording every query."""

    def __init__(self, sched, dim=6, a=0.0, b=0.0):
        self.noise_schedule = sched
        self.dim = dim
        self.a = a
        self.b = b
        self.calls = []
        self.rows = []  # rows of every predict_eps call

    def eps_for(self, z, t, cond):
        self.calls.append((int(t), cond))
        return self.a * np.asarray(z) + self.b

    def prepare(self, conds):
        return list(conds)

    def predict_eps(self, z, t, conds, slots):
        # one eps_for query per condition in play, so the recorded calls
        # read as a per-condition log
        self.rows.append(len(z))
        eps = np.empty_like(z)
        for slot in sorted(set(slots.tolist())):
            rows = np.flatnonzero(slots == slot)
            eps[rows] = self.eps_for(z[rows], t, conds[slot])
        return eps


# ---------------------------------------------------------------------------
# schedules


def test_build_schedule_linear_betas():
    sched = build_schedule(50)
    assert sched.n_steps == 50
    assert sched.beta[0] == pytest.approx(1e-4)
    assert sched.beta[-1] == pytest.approx(0.02)
    np.testing.assert_allclose(sched.alpha, 1.0 - sched.beta)
    np.testing.assert_allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta))


def test_build_schedule_single_step():
    sched = build_schedule(1)
    np.testing.assert_array_equal(sched.beta, [1e-4])
    np.testing.assert_array_equal(sched.alpha_bar, [1.0 - 1e-4])


def test_build_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(0)
    with pytest.raises(ValueError):
        build_schedule(10, beta_min=0.0)
    with pytest.raises(ValueError):
        build_schedule(10, beta_min=0.5, beta_max=0.1)
    with pytest.raises(ValueError):
        build_schedule(10, beta_max=1.0)


def test_noise_schedule_range_checks():
    good = build_schedule(5)
    with pytest.raises(ValueError):
        NoiseSchedule(good.beta * 0.0, good.alpha, good.alpha_bar)
    with pytest.raises(ValueError):
        NoiseSchedule(good.beta, good.alpha, good.alpha_bar[::-1].copy())
    with pytest.raises(ValueError):
        NoiseSchedule(good.beta[:3], good.alpha, good.alpha_bar)
    with pytest.raises(ValueError):
        good.beta[0] = 0.5  # arrays are frozen


@pytest.mark.parametrize("beta_max", [0.02, 0.3])
@pytest.mark.parametrize("n_steps", [1, 2, 50, 1000])
def test_tabled_coefficients_equal_the_numpy_scalar_expressions(n_steps, beta_max):
    sched = build_schedule(n_steps, 1e-4, beta_max)
    got = np.array(sched.coef)
    want = np.empty_like(got)
    for t in range(n_steps):
        beta, alpha, a_bar = sched.beta[t], sched.alpha[t], sched.alpha_bar[t]
        want[:, t] = (
            a_bar, np.sqrt(a_bar), np.sqrt(1.0 - a_bar), beta / np.sqrt(1.0 - a_bar),
            np.sqrt(alpha), np.sqrt(beta),
        )
    assert all(type(value) is float for column in sched.coef for value in column)
    assert got.shape == (6, n_steps)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# forward_noise


def test_forward_noise_closed_form():
    sched = build_schedule(10)
    z0 = np.array([1.0, -2.0, 3.0])
    eps = np.array([0.5, 0.5, -0.5])
    got = forward_noise(z0, 4, eps, sched)
    a = sched.alpha_bar[4]
    np.testing.assert_allclose(got, np.sqrt(a) * z0 + np.sqrt(1 - a) * eps)


def test_forward_noise_batch_with_per_row_t():
    sched = build_schedule(20)
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal((5, 4))
    eps = rng.standard_normal((5, 4))
    t = np.array([0, 3, 7, 7, 19])
    got = forward_noise(z0, t, eps, sched)
    for i in range(5):
        np.testing.assert_array_equal(got[i], forward_noise(z0[i], int(t[i]), eps[i], sched))


def test_forward_noise_limits_via_injected_schedule():
    # limit values are outside what a real schedule permits, so inject a
    # bare namespace; forward_noise only reads the tabled coefficients
    z0 = np.array([1.0, 2.0])
    eps = np.array([-1.0, 1.0])

    def injected(alpha_bar):
        beta = np.array([0.5])
        with np.errstate(divide="ignore"):  # beta / sqrt(1 - 1.0), unused here
            coef = step_coefficients(beta, 1.0 - beta, np.array([alpha_bar]))
        return SimpleNamespace(beta=beta, alpha_bar=np.array([alpha_bar]), coef=coef)

    clean = injected(1.0)
    np.testing.assert_array_equal(forward_noise(z0, 0, eps, clean), z0)
    noisy = injected(1e-300)
    np.testing.assert_allclose(forward_noise(z0, 0, eps, noisy), eps, atol=1e-12)


def test_forward_noise_errors():
    sched = build_schedule(5)
    with pytest.raises(ValueError):
        forward_noise(np.zeros(3), 5, np.zeros(3), sched)
    with pytest.raises(ValueError):
        forward_noise(np.zeros(3), -1, np.zeros(3), sched)
    with pytest.raises(ValueError):
        forward_noise(np.zeros(3), 0, np.zeros(4), sched)


# ---------------------------------------------------------------------------
# ancestral_step


def test_single_step_schedule_roundtrip():
    # with N=1 the reverse mean inverts the forward map exactly when fed
    # the true noise: beta = 1 - alpha makes the eps coefficient vanish
    sched = build_schedule(1)
    rng = np.random.default_rng(21)
    for _ in range(100):
        z0 = rng.standard_normal(8)
        eps = rng.standard_normal(8)
        z1 = forward_noise(z0, 0, eps, sched)
        back = ancestral_step(z1, 0, eps, sched, np.zeros(8))
        np.testing.assert_allclose(back, z0, atol=1e-12)


def test_ancestral_step_t0_ignores_noise():
    sched = build_schedule(4)
    z = np.array([1.0, -1.0])
    eps = np.array([0.2, 0.3])
    a = ancestral_step(z, 0, eps, sched, np.full(2, 100.0))
    b = ancestral_step(z, 0, eps, sched, np.zeros(2))
    np.testing.assert_array_equal(a, b)


def test_ancestral_step_adds_sigma_beta_noise():
    sched = build_schedule(4)
    z = np.zeros(3)
    eps = np.zeros(3)
    noise = np.array([1.0, -2.0, 0.5])
    with_noise = ancestral_step(z, 2, eps, sched, noise)
    without = ancestral_step(z, 2, eps, sched, np.zeros(3))
    np.testing.assert_allclose(with_noise - without, np.sqrt(sched.beta[2]) * noise)


def test_ancestral_step_identity_in_zero_beta_limit():
    # beta -> 0 freezes the chain: mean = z_t and no noise is injected
    arrays = dict(
        beta=np.array([0.5, 0.0]),
        alpha=np.array([0.5, 1.0]),
        alpha_bar=np.array([0.5, 0.5]),
    )
    frozen = SimpleNamespace(**arrays, coef=step_coefficients(**arrays))
    z = np.array([3.0, -4.0])
    got = ancestral_step(z, 1, np.array([1.0, 1.0]), frozen, np.array([9.0, 9.0]))
    np.testing.assert_array_equal(got, z)


@pytest.mark.parametrize("t", [0, 7])
def test_ancestral_step_equals_the_posterior_formula_and_keeps_its_inputs(t):
    sched = build_schedule(10)
    rng = np.random.default_rng(2)
    z, eps, noise = (rng.standard_normal((19, 6)) for _ in range(3))
    inputs = [a.copy() for a in (z, eps, noise)]
    coef = sched.beta[t] / np.sqrt(1.0 - sched.alpha_bar[t])
    want = (z - coef * eps) / np.sqrt(sched.alpha[t])
    if t:
        want = want + np.sqrt(sched.beta[t]) * noise
    assert ancestral_step(z, t, eps, sched, noise).tobytes() == want.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip((z, eps, noise), inputs))


def _numpy_scalar_ancestral_step(z_t, t, eps_hat, sched, noise):
    # the update with its coefficients computed as numpy scalars at every call
    beta = sched.beta[t]
    out = eps_hat * (beta / np.sqrt(1.0 - sched.alpha_bar[t]))
    np.subtract(z_t, out, out=out)
    out /= np.sqrt(sched.alpha[t])
    if t:
        out += np.sqrt(beta) * noise
    return out


@pytest.mark.parametrize("beta_max", [0.02, 0.3])
def test_ancestral_step_equals_numpy_scalar_coefficients(beta_max):
    sched = build_schedule(50, 1e-4, beta_max)
    rng = np.random.default_rng(9)
    z, eps, noise = (rng.standard_normal((33, 96)) for _ in range(3))
    for t in range(sched.n_steps):
        want = _numpy_scalar_ancestral_step(z, t, eps, sched, noise)
        assert ancestral_step(z, t, eps, sched, noise).tobytes() == want.tobytes()


def test_ancestral_step_shape_errors():
    sched = build_schedule(3)
    with pytest.raises(ValueError):
        ancestral_step(np.zeros(2), 0, np.zeros(3), sched, np.zeros(2))
    with pytest.raises(ValueError):
        ancestral_step(np.zeros(2), 3, np.zeros(2), sched, np.zeros(2))


@pytest.mark.parametrize("t", [-1, 3])
def test_ancestral_step_rejects_steps_outside_the_schedule(t):
    sched = build_schedule(3)
    with pytest.raises(ValueError, match=rf"step index {t} outside \[0, 3\)"):
        ancestral_step(np.zeros(2), t, np.zeros(2), sched, np.zeros(2))


@pytest.mark.parametrize("t", [2.5, np.float64(2.0), True, np.True_])
def test_ancestral_step_rejects_a_step_that_is_not_an_integer(t):
    sched = build_schedule(3)
    with pytest.raises(ValueError, match="is not an integer"):
        ancestral_step(np.zeros(2), t, np.zeros(2), sched, np.zeros(2))
    with pytest.raises(ValueError, match="is not an integer"):
        forward_noise(np.zeros(2), t, np.zeros(2), sched)
    with pytest.raises(ValueError, match="is not an integer"):
        forward_noise(np.zeros((2, 2)), np.full(2, t), np.zeros((2, 2)), sched)


def test_ancestral_step_numpy_integer_step_equals_python_int():
    sched = build_schedule(10)
    z, eps, noise = np.random.default_rng(4).standard_normal((3, 5, 6))
    for t in (0, 7):
        want = ancestral_step(z, t, eps, sched, noise).tobytes()
        assert ancestral_step(z, np.int64(t), eps, sched, noise).tobytes() == want
        want = forward_noise(z, t, eps, sched).tobytes()
        assert forward_noise(z, np.int64(t), eps, sched).tobytes() == want
    # per-row steps gather the bytes each row gets from its Python int
    steps = [0, 7, 9, 7, 3]
    got = forward_noise(z, np.array(steps, dtype=np.int64), eps, sched)
    for row, t in enumerate(steps):
        assert got[row].tobytes() == forward_noise(z[row], t, eps[row], sched).tobytes()


# ---------------------------------------------------------------------------
# sample


def test_sample_deterministic_and_shaped():
    sched = build_schedule(10)
    backend = LinearBackend(sched)
    schedule = constant_schedule(10, compose_single([1.0]))
    a = sample(backend, [schedule], [5])[0]
    b = sample(backend, [schedule], [5])[0]
    assert a.shape == (backend.dim,)
    np.testing.assert_array_equal(a, b)
    c = sample(backend, [schedule], [6])[0]
    assert not np.array_equal(a, c)


def test_sample_visits_conditions_in_schedule_order():
    sched = build_schedule(10)
    backend = LinearBackend(sched)
    c1, c2 = compose_single([1.0]), compose_single([2.0])
    schedule = step_switch(0.3, 10, c1, c2)
    sample(backend, [schedule], [0])
    ts = [t for t, _ in backend.calls]
    conds = [c for _, c in backend.calls]
    assert ts == list(range(9, -1, -1))  # noisiest step first
    assert conds == [c1] * 3 + [c2] * 7


def test_sample_batches_rows_by_active_condition():
    sched = build_schedule(10)
    backend = LinearBackend(sched, a=0.1, b=0.2)
    c1, c2 = compose_single([1.0]), compose_single([2.0])
    schedules = [step_switch(x, 10, c1, c2) for x in (0.0, 0.3, 1.0, 0.3)]
    seeds = [1, 2, 3, 4]
    batch = sample(backend, schedules, seeds)
    assert batch.shape == (4, backend.dim)
    assert len(backend.calls) == 20  # one call per condition in play per step
    alone = [
        sample(LinearBackend(sched, a=0.1, b=0.2), [s], [seed])[0]
        for s, seed in zip(schedules, seeds)
    ]
    np.testing.assert_array_equal(batch, np.stack(alone))


def test_sample_noise_streams_match_per_step_draws():
    # reference: the start point, then one (rows, dim) draw per iteration,
    # each row from its own generator; the batch's noise (the start point
    # and n_steps - 1 noise draws) fills the buffer more than twice, the
    # last time partly
    sched = build_schedule(50)
    dim, rows = 96, 256
    assert rows * dim * 8 * sched.n_steps > 2 * diffusion.NOISE_BUFFER_BYTES
    c1, c2 = compose_single([1.0]), compose_single([2.0])
    schedules = [step_switch(i / rows, sched.n_steps, c1, c2) for i in range(rows)]
    seeds = [1000 + 7 * i for i in range(rows)]

    def draw(gens):
        return np.stack([gen.standard_normal(dim) for gen in gens])

    backend = LinearBackend(sched, dim=dim, a=0.1, b=0.2)
    gens = [np.random.default_rng(seed) for seed in seeds]
    z = draw(gens)
    for i in range(sched.n_steps):
        t = sched.n_steps - 1 - i
        eps = backend.a * z + backend.b
        z = ancestral_step(z, t, eps, sched, draw(gens))
    got = sample(backend, schedules, seeds)
    assert got.tobytes() == z.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "dim",
    [192, 191, 256],
    # ids kept from an earlier two-thread fill, which split the rows at 768
    # floats a row: 192 and 191 floats put a 4-iteration row on either side,
    # and at 256 floats a buffer row is 8 KiB
    ids=["split", "one_thread", "page_rows"],
)
def test_chain_draws_match_per_step_draws(monkeypatch, rows, dim):
    # distinct seeds, as sample passes them; chunks of 4 iterations (4, 4, 3)
    seeds = [31, 36, 41, 46, 51, 56, 61][:rows]
    count = 11
    monkeypatch.setattr(diffusion, "NOISE_BUFFER_BYTES", rows * dim * 8 * 4)
    gens = [np.random.default_rng(seed) for seed in seeds]
    want = [np.stack([gen.standard_normal(dim) for gen in gens]) for _ in range(count)]
    got = [draw.copy() for draw in diffusion._chain_draws(seeds, dim, count)]
    assert np.stack(got).tobytes() == np.stack(want).tobytes()


def test_sample_draws_one_stream_per_distinct_seed(monkeypatch):
    # seeds repeat non-adjacently; the start point and 10 noise draws of
    # the 3 distinct seeds fill in chunks of 4 iterations (4, 4, 3)
    sched = build_schedule(11)
    plan = constant_schedule(11, compose_single([1.0]))
    seeds = [31, 36, 31, 41, 36, 46, 31]
    alone = [sample(LinearBackend(sched, a=0.1, b=0.2), [plan], [seed])[0] for seed in seeds]
    monkeypatch.setattr(diffusion, "NOISE_BUFFER_BYTES", 3 * 6 * 8 * 4)
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    batch = sample(LinearBackend(sched, a=0.1, b=0.2), [plan] * len(seeds), seeds)
    assert sorted(made) == sorted(set(seeds))  # one generator per distinct seed
    assert batch.tobytes() == np.stack(alone).tobytes()
    assert batch[0].tobytes() == batch[2].tobytes() == batch[6].tobytes()
    assert batch[1].tobytes() == batch[4].tobytes()


def test_rows_sharing_a_seed_match_each_row_alone():
    sched = build_schedule(10)
    c1, c2 = compose_single([1.0]), compose_single([2.0])
    schedules = [step_switch(x, 10, c1, c2) for x in (0.0, 0.3, 1.0, 0.6)]
    seeds = [5, 9, 5, 5]
    batch = sample(LinearBackend(sched, a=0.1, b=0.2), schedules, seeds)
    alone = [
        sample(LinearBackend(sched, a=0.1, b=0.2), [s], [seed])[0]
        for s, seed in zip(schedules, seeds)
    ]
    assert batch.tobytes() == np.stack(alone).tobytes()


def test_analytic_rows_sharing_seeds_match_each_row_alone():
    # real mixture tables: event1 -> event2 switches on the one-component
    # path, and a concat -> event2 switch on the two-component mixture path;
    # a prompt's ratios share a seed, so x = 0 splits from its prompt's
    # chain at iteration 0 and x = 1 never splits from it
    sched = build_schedule(12)
    records = [r for r in generate_suite(0) if r.view == "third"][:3]
    backend = backend_for_record(
        suite_training_pairs(records, 8, 0.5), sched, 8 * records[0].frame_dim
    )
    plans, seeds = [], []
    for p, record in enumerate(records):
        e1, e2, both = (condition_of(record, w) for w in ("event1", "event2", "concat"))
        for repeat in range(2):
            plans += [step_switch(x, sched.n_steps, e1, e2) for x in (0.0, 0.25, 0.5, 1.0)]
            plans.append(step_switch(0.5, sched.n_steps, both, e2))
            seeds += [100 + 10 * p + repeat] * 5
    rows = []
    real = backend.predict_eps

    def recorded(z, t, tables, slots):
        rows.append(len(z))
        return real(z, t, tables, slots)

    backend.predict_eps = recorded
    batch = sample(backend, plans, seeds)
    assert rows == chain_counts(plans, seeds, sched.n_steps)
    assert sum(rows) < len(plans) * sched.n_steps
    backend.predict_eps = real
    alone = [sample(backend, [plan], [seed])[0] for plan, seed in zip(plans, seeds)]
    assert batch.tobytes() == np.stack(alone).tobytes()


@pytest.mark.parametrize("backend_kind", ["analytic", "checkpoint"])
def test_shared_plan_objects_index_and_sample_as_rebuilt_plans(backend_kind):
    # a sweep gives every repeat of a (prompt, x) one plan object, and the
    # slot index remaps each distinct object once: rebuilding each row's
    # plan as its own object changes neither the index nor a sample bit
    sched = build_schedule(10)
    records = [r for r in generate_suite(1) if r.view == "third"][:3]
    if backend_kind == "analytic":
        backend = backend_for_record(suite_training_pairs(records, 6, 0.5), sched, 36)
    else:
        model = init_model(36, hidden=8, n_blocks=4, t_emb_dim=4, cond_width=7, seed=3)
        backend = NeuralDenoiser(model, sched)
    plans, seeds = [], []
    for p, record in enumerate(records):
        e1, e2 = condition_of(record, "event1"), condition_of(record, "event2")
        per_x = [step_switch(x, sched.n_steps, e2, e1) for x in (0.0, 0.3, 1.0)]
        if backend_kind == "checkpoint":
            per_x += [block_split(x, 4, e1, e2) for x in (0.25, 0.5)]
        for repeat in range(3):
            plans += per_x
            seeds += [10 * p + repeat] * len(per_x)
    rebuilt = [ConditionPlan(plan.conds, plan.slots, plan.split_index) for plan in plans]
    n_blocks = getattr(backend, "n_blocks", None)
    shared_conds, shared_index = diffusion._condition_index(plans, sched.n_steps, n_blocks)
    own_conds, own_index = diffusion._condition_index(rebuilt, sched.n_steps, n_blocks)
    assert [c.key() for c in shared_conds] == [c.key() for c in own_conds]
    assert shared_index.shape == own_index.shape
    assert shared_index.tobytes() == own_index.tobytes()
    latents = sample(backend, plans, seeds)
    assert latents.shape == (len(plans), 36)
    assert latents.tobytes() == sample(backend, rebuilt, seeds).tobytes()


@pytest.mark.parametrize("guidance_scale", [1.0, 2.0])
def test_checkpoint_duplicate_block_plans_match_each_row_alone(guidance_scale):
    # floor(8x) repeats at x = 0.0/0.1 and 0.5/0.6, so each seed's 11 rows
    # are 9 chains.  The reference samples each row as its own chain in a
    # 19-row call: OpenBLAS rounds a one-row product differently from the
    # same row in a product of 19 or more rows.
    sched = build_schedule(8)
    model = init_model(12, hidden=16, n_blocks=8, t_emb_dim=4, cond_width=1, seed=0)
    model.flat[...] = np.random.default_rng(5).standard_normal(model.flat.shape) * 0.3
    den = NeuralDenoiser(model, sched)
    c1, c2 = compose_single([0.7]), compose_single([-0.7])
    grid = [i / 10 for i in range(11)]
    plans = [block_split(x, model.n_blocks, c1, c2) for _ in range(3) for x in grid]
    seeds = [seed for seed in (7, 8, 9) for _ in grid]
    assert chain_counts(plans, seeds, sched.n_steps) == [27] * sched.n_steps
    batch = sample(den, plans, seeds, guidance_scale)
    fillers = list(range(100, 118))
    alone = [
        sample(den, [plan] + plans[:18], [seed] + fillers, guidance_scale)[0]
        for plan, seed in zip(plans, seeds)
    ]
    assert batch.tobytes() == np.stack(alone).tobytes()


class BlockLinearBackend(LinearBackend):
    """eps_hat = a * z + the sum over blocks of (block + 1) * the block's
    condition value: rows are computed independently, elementwise."""

    n_blocks = 8

    def predict_eps(self, z, t, conds, slots):
        self.rows.append(len(z))
        values = np.array([c.vector[0] for c in conds])[slots]
        if values.ndim == 1:  # a step plan's rows, one slot for every block
            values = np.repeat(values[:, None], self.n_blocks, axis=1)
        eps = self.a * z
        for block in range(self.n_blocks):
            eps += (block + 1) * values[:, block, None]
        return eps


def _void_key_chain_counts(plans, seeds, n_steps, n_blocks):
    # the chains at each iteration, split by ranking each row's
    # (chain, slots) as one void byte key
    _, index = diffusion._condition_index(plans, n_steps, n_blocks)
    by_row = index.reshape(n_steps, len(plans), -1)
    chain_of_row = np.unique(seeds, return_inverse=True)[1]
    counts = []
    for i in range(n_steps):
        keys = np.column_stack([chain_of_row, by_row[i]])
        keys = keys.view(np.dtype((np.void, keys.strides[0])))[:, 0]
        _, chain_of_row = np.unique(keys, return_inverse=True)
        counts.append(int(chain_of_row.max()) + 1)
    return counts


def test_mixed_step_and_block_plans_with_many_conditions_split_without_overflow():
    # 8-block plans over 256 conditions: a key of chain and eight slots,
    # not compacted per column, would reach chain * 2**64 and, wrapped,
    # merge rows of different seeds whose slots agree
    sched = build_schedule(6)
    conds = [compose_single([0.01 * k]) for k in range(256)]
    order = np.random.default_rng(8).permutation(len(conds))
    plans, seeds = [], []
    for p in range(40):
        picked = order[np.arange(8 * p, 8 * p + 8) % len(conds)]
        block = ConditionPlan([conds[k] for k in picked], np.arange(8)[None, :])
        shared = ConditionPlan([conds[k] for k in picked[:2]], [[0, 0, 0, 0, 1, 1, 1, 1]])
        step = step_switch(p / 40, sched.n_steps, conds[picked[0]], conds[picked[1]])
        plans += [block, shared, step, step, block, block]
        seeds += [p % 7, p % 7, p % 7, 100 + p, p % 7, 200 + p]
    backend = BlockLinearBackend(sched, a=0.1)
    batch = sample(backend, plans, seeds)
    n_conds = len(diffusion._condition_index(plans, sched.n_steps, 8)[0])
    assert n_conds == 256 and max(backend.rows) * n_conds**8 > 2**63
    counts = _void_key_chain_counts(plans, seeds, sched.n_steps, 8)
    assert backend.rows == counts == chain_counts(plans, seeds, sched.n_steps)
    alone = [
        sample(BlockLinearBackend(sched, a=0.1), [plan], [seed])[0]
        for plan, seed in zip(plans, seeds)
    ]
    assert batch.tobytes() == np.stack(alone).tobytes()


def test_rows_with_equal_plans_and_different_seeds_are_never_merged():
    sched = build_schedule(6)
    plans = [constant_schedule(6, compose_single([1.0]))] * 4
    backend = LinearBackend(sched, a=0.1, b=0.2)
    apart = sample(backend, plans, [1, 2, 3, 4])
    assert backend.rows == [4] * 6
    assert len({row.tobytes() for row in apart}) == 4
    backend = LinearBackend(sched, a=0.1, b=0.2)
    shared = sample(backend, plans, [1, 1, 1, 1])
    assert backend.rows == [1] * 6
    assert shared.tobytes() == np.stack([apart[0]] * 4).tobytes()


@pytest.mark.parametrize("guidance_scale", [1.0, 2.0])
def test_backend_predicts_one_row_per_chain_at_every_step(guidance_scale):
    sched = build_schedule(10)
    c1, c2, c3 = (compose_single([v]) for v in (1.0, 2.0, 3.0))
    plans = [
        step_switch(0.0, 10, c1, c2),
        step_switch(0.3, 10, c1, c2),
        step_switch(0.6, 10, c1, c2),
        step_switch(1.0, 10, c1, c2),
        step_switch(0.3, 10, c1, c3),
        step_switch(0.3, 10, c1, c2),
        step_switch(0.6, 10, c1, c2),
        constant_schedule(10, c1),
    ]
    seeds = [5, 5, 5, 5, 5, 6, 6, 6]
    backend = LinearBackend(sched, a=0.1, b=0.2)
    batch = sample(backend, plans, seeds, guidance_scale)
    counts = chain_counts(plans, seeds, sched.n_steps)
    assert counts == [3] * 3 + [6] * 3 + [8] * 4
    per_step = 2 if guidance_scale != 1.0 else 1  # the unconditioned prediction too
    assert backend.rows == [c for c in counts for _ in range(per_step)]
    alone = [
        sample(LinearBackend(sched, a=0.1, b=0.2), [plan], [seed], guidance_scale)[0]
        for plan, seed in zip(plans, seeds)
    ]
    assert batch.tobytes() == np.stack(alone).tobytes()


def test_sample_with_a_single_step():
    # the start point goes straight through the deterministic t = 0 update
    sched = build_schedule(1)
    backend = LinearBackend(sched, a=0.1, b=0.2)
    plans = [constant_schedule(1, compose_single([1.0]))] * 2
    got = sample(backend, plans, [8, 9])
    z = np.stack([np.random.default_rng(seed).standard_normal(backend.dim) for seed in (8, 9)])
    want = ancestral_step(z, 0, backend.a * z + backend.b, sched, np.zeros_like(z))
    assert got.tobytes() == want.tobytes()


def test_sample_propagates_a_backend_error():
    sched = build_schedule(50)
    backend = LinearBackend(sched, dim=96)
    calls = []

    def failing(z, t, conds, slots):
        calls.append(t)
        if len(calls) == 3:
            raise RuntimeError("backend failed")
        return np.zeros_like(z)

    backend.predict_eps = failing
    plans = [constant_schedule(50, compose_single([1.0]))] * 4
    with pytest.raises(RuntimeError, match="backend failed"):
        sample(backend, plans, [1, 2, 1, 3])
    assert calls == [49, 48, 47]


def test_sample_rejects_malformed_batches():
    sched = build_schedule(4)
    backend = LinearBackend(sched)
    schedule = constant_schedule(4, compose_single([1.0]))
    with pytest.raises(ValueError, match="at least one chain"):
        sample(backend, [], [])
    with pytest.raises(ValueError, match="seeds"):
        sample(backend, [schedule, schedule], [0])


def test_sample_rejects_mixed_condition_widths():
    sched = build_schedule(4)
    model = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=1, seed=0)
    narrow, wide = compose_single([1.0]), compose_single([1.0, 2.0])
    for backend, plans in (
        (AnalyticDenoiser(sched, 6),
         [constant_schedule(4, narrow), constant_schedule(4, wide)]),
        (NeuralDenoiser(model, sched),
         [block_split(1.0, 3, narrow, narrow), constant_schedule(4, wide)]),
    ):
        with pytest.raises(ValueError, match="condition slot widths 1 and 2"):
            sample(backend, plans, [0, 1])


def test_sample_output_independent_of_condition_payload():
    # the backend below ignores conditioning entirely, so the drawn noise
    # stream (and hence the output) must not depend on the schedule values
    sched = build_schedule(8)
    backend = LinearBackend(sched, a=0.1, b=0.2)
    s1 = constant_schedule(8, compose_single([1.0, 2.0]))
    s2 = step_switch(0.5, 8, compose_single([-3.0, 0.0]), compose_single([9.0, 9.0]))
    a = sample(backend, [s1], [3])[0]
    b = sample(backend, [s2], [3])[0]
    np.testing.assert_array_equal(a, b)


def test_sample_step_count_mismatches():
    sched = build_schedule(6)
    backend = LinearBackend(sched)
    schedule = constant_schedule(5, compose_single([1.0]))
    with pytest.raises(ValueError):
        sample(backend, [schedule], [0])  # backend has 6 steps
    with pytest.raises(ValueError):
        sample(backend, [constant_schedule(7, compose_single([1.0]))], [0])  # and 7


def test_sample_block_assignment_needs_block_backend():
    sched = build_schedule(4)
    cond = compose_single([1.0])
    assign = block_split(1.0, 3, cond, cond)
    with pytest.raises(
        ValueError,
        match="block-structured denoiser backend with 3 blocks; this backend has none",
    ):
        sample(LinearBackend(sched), [assign], [0])


def test_sample_block_assignment_needs_as_many_blocks_as_the_backend():
    sched = build_schedule(4)
    model = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=1, seed=0)
    den = NeuralDenoiser(model, sched)
    c = compose_single([1.0])
    with pytest.raises(
        ValueError,
        match="block-structured denoiser backend with 4 blocks; this backend has 3",
    ):
        sample(den, [block_split(1.0, 3, c, c), block_split(1.0, 4, c, c)], [0, 1])


def test_both_backends_are_denoiser_backends():
    sched = build_schedule(4)
    model = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=1, seed=0)
    assert isinstance(AnalyticDenoiser(sched, 6), DenoiserBackend)
    assert isinstance(NeuralDenoiser(model, sched), DenoiserBackend)


def test_sample_block_assignments_equal_per_row_forward():
    # reference: the sampler's draws, with each row's prediction from its
    # own forward pass on its assignment's block vectors
    sched = build_schedule(8)
    model = init_model(6, hidden=4, n_blocks=4, t_emb_dim=2, cond_width=1, seed=0)
    model.w_out[...] = np.random.default_rng(5).standard_normal(model.w_out.shape)
    den = NeuralDenoiser(model, sched)
    c1, c2 = compose_single([0.7]), compose_single([-0.7])
    assigns = [block_split(x, model.n_blocks, c1, c2) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
    seeds = [11, 12, 13, 14, 15]
    gens = [np.random.default_rng(seed) for seed in seeds]
    z = np.stack([gen.standard_normal(den.dim) for gen in gens])
    for i in range(sched.n_steps):
        t = sched.n_steps - 1 - i
        eps = np.stack([forward(model, zr, t, sched, block_vectors(a)) for zr, a in zip(z, assigns)])
        noise = np.stack([gen.standard_normal(den.dim) for gen in gens])
        z = ancestral_step(z, t, eps, sched, noise)
    got = sample(den, assigns, seeds)
    assert len({row.tobytes() for row in got}) == len(assigns)
    np.testing.assert_allclose(got, z.reshape(got.shape), rtol=1e-12, atol=1e-12)


def _checkpoint_backend(n_steps):
    sched = build_schedule(n_steps)
    model = init_model(6, hidden=4, n_blocks=4, t_emb_dim=2, cond_width=1, seed=0)
    model.w_out[...] = np.random.default_rng(5).standard_normal(model.w_out.shape)
    return NeuralDenoiser(model, sched)


def test_sample_mixes_step_and_block_plans_on_a_checkpoint():
    den = _checkpoint_backend(8)
    c1, c2 = compose_single([0.7]), compose_single([-0.7])
    plans = [
        block_split(0.5, den.n_blocks, c1, c2),
        step_switch(0.5, den.noise_schedule.n_steps, c1, c2),
        block_split(1.0, den.n_blocks, c2, c2),
        step_switch(0.25, den.noise_schedule.n_steps, c2, c1),
    ]
    seeds = [21, 22, 23, 24]
    got = sample(den, plans, seeds)
    alone = np.concatenate([sample(den, [plan], [seed]) for plan, seed in zip(plans, seeds)])
    assert len({row.tobytes() for row in got}) == len(plans)
    np.testing.assert_allclose(got, alone, rtol=1e-12, atol=1e-12)


def test_sample_step_by_block_plan_equals_per_step_forward():
    # reference: the sampler's draws, with each step's prediction from a
    # forward pass on that step's row of block conditions
    den = _checkpoint_backend(8)
    model, sched = den.model, den.noise_schedule
    conds = (compose_single([0.7]), compose_single([-0.7]), compose_single([0.2]))
    slots = np.zeros((sched.n_steps, model.n_blocks), dtype=np.intp)
    slots[:3, 2:] = 1  # blocks 2 and 3 change condition after three steps,
    slots[5:, :1] = 2  # block 0 after five
    plan = ConditionPlan(conds, slots)
    seed = 31
    gen = np.random.default_rng(seed)
    z = gen.standard_normal(den.dim)
    for i in range(sched.n_steps):
        t = sched.n_steps - 1 - i
        vectors = np.stack([conds[s].vector for s in plan.slots[i]])
        z = ancestral_step(z, t, forward(model, z, t, sched, vectors), sched,
                           gen.standard_normal(den.dim))
    (got,) = sample(den, [plan], [seed])
    np.testing.assert_allclose(got, z.reshape(got.shape), rtol=1e-12, atol=1e-12)
    # every condition the grid names reaches the output
    for s in range(len(conds)):
        other = ConditionPlan(conds, np.where(slots == s, (s + 1) % len(conds), slots))
        assert not np.array_equal(sample(den, [other], [seed]), got[None])


def test_guidance_disabled_at_scale_one():
    sched = build_schedule(5)
    backend = LinearBackend(sched)
    schedule = constant_schedule(5, compose_single([1.0]))
    sample(backend, [schedule], [0], guidance_scale=1.0)
    assert all(cond.flag1 == 1 for _, cond in backend.calls)
    assert len(backend.calls) == 5


def test_guidance_combination_formula():
    sched = build_schedule(5)
    cond = compose_single([1.0])

    class SplitBackend(LinearBackend):
        def eps_for(self, z, t, c):
            # conditioned and unconditioned branches predict different
            # constants so the mix is directly checkable
            return np.full(np.shape(z), 2.0 if c.flag1 else 0.5)

    w = 3.0

    class MixedBackend(LinearBackend):
        def eps_for(self, z, t, c):
            return np.full(np.shape(z), 0.5 + w * (2.0 - 0.5))

    schedule = constant_schedule(5, cond)
    a = sample(SplitBackend(sched), [schedule], [1], guidance_scale=w)[0]
    b = sample(MixedBackend(sched), [schedule], [1])[0]
    np.testing.assert_allclose(a, b)


def test_sample_rejects_bad_guidance_scale():
    sched = build_schedule(3)
    schedule = constant_schedule(3, compose_single([1.0]))
    for scale in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="guidance_scale"):
            sample(LinearBackend(sched), [schedule], [0], guidance_scale=scale)


@pytest.mark.parametrize("guidance_scale", [1.0, 2.0])
def test_sample_builds_no_block_assignment_on_a_checkpoint(monkeypatch, guidance_scale):
    sched = build_schedule(6)
    model = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=1, seed=0)
    model.w_out[...] = np.random.default_rng(5).standard_normal(model.w_out.shape)
    den = NeuralDenoiser(model, sched)
    c1, c2 = compose_single([0.7]), compose_single([-0.7])
    ratios = (0.0, 0.5, 1.0)
    batches = [
        [block_split(x, model.n_blocks, c1, c2) for x in ratios],
        [step_switch(x, sched.n_steps, c1, c2) for x in ratios],
    ]
    built = []
    real = ConditionPlan.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(ConditionPlan, "__post_init__", counted)
    for conditioning in batches:
        out = sample(den, conditioning, [1, 2, 3], guidance_scale=guidance_scale)
        assert out.shape == (3, model.dim) and np.isfinite(out).all()
    assert built == []


@pytest.mark.parametrize("guidance_scale", [1.0, 2.0])
def test_sample_projects_block_conditions_once_per_call(monkeypatch, guidance_scale):
    import turnpoint.neural as neural

    sched = build_schedule(50)
    model = init_model(6, hidden=4, n_blocks=3, t_emb_dim=2, cond_width=1, seed=0)
    model.w_out[...] = np.random.default_rng(5).standard_normal(model.w_out.shape)
    den = NeuralDenoiser(model, sched)
    c1, c2 = compose_single([0.7]), compose_single([-0.7])
    conditioning = [block_split(x, model.n_blocks, c1, c2) for x in (0.0, 0.5, 1.0)]
    calls = []
    real = neural._project

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(neural, "_project", counted)
    tables = []
    real_forward = neural.forward

    def recorded(*args):
        tables.append(args[4])
        return real_forward(*args)

    monkeypatch.setattr(neural, "forward", recorded)
    out = sample(den, conditioning, [1, 2, 3], guidance_scale=guidance_scale)
    assert np.isfinite(out).all()
    assert len(calls) == 1  # the unconditioned slot too, when guided
    # every step runs with the one set of weight copies that call made
    assert len(tables) == sched.n_steps * (2 if guidance_scale != 1.0 else 1)
    assert all(table is tables[0] for table in tables)
    w_in, b_in, blocks, w_out, b_out = tables[0]._ops
    operands = [w_in, b_in, *(a for block in blocks for a in block), w_out, b_out]
    assert not any(np.shares_memory(a, model.flat) for a in operands)
