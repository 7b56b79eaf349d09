"""Acceptance gate: ten end-to-end checks over the whole workbench.

Each test prints exactly one ``criterion N: PASS/FAIL`` line with the
measured numbers (use ``pytest -s tests/test_acceptance.py`` to see the
lines for passing runs too).
"""

import csv
import math
import time
from decimal import ROUND_FLOOR, Decimal

import numpy as np
from scipy.stats import spearmanr

from helpers import block_vectors
from turnpoint.analytic import (
    GaussianMixture,
    diffused_mixture,
    log_density,
    predict_eps as analytic_eps,
)
from turnpoint.cli import main
from turnpoint.conditioning import (
    block_split,
    compose_single,
    constant_schedule,
    step_switch,
)
from turnpoint.diffusion import ancestral_step, build_schedule, sample
from turnpoint.harness import (
    RUNS_CSV_COLUMNS,
    SweepConfig,
    aggregate,
    backend_for_record,
    run_sweep,
)
from turnpoint.neural import (
    NeuralDenoiser,
    TrainConfig,
    forward,
    init_model,
    loss_and_grads,
    train,
)
from turnpoint.worldgen import (
    TABLE_COUNTS,
    EventParams,
    PromptRecord,
    condition_of,
    generate_suite,
    mixture_data_sampler,
    read_suite,
    suite_training_pairs,
    validate_suite,
    write_suite,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _randomized_model(dim, cond_width, seed, hidden=16, n_blocks=4, t_emb_dim=4):
    """A denoiser with non-degenerate weights everywhere (fresh models
    predict exactly zero, which would make equality checks vacuous)."""
    model = init_model(
        dim, hidden=hidden, n_blocks=n_blocks, t_emb_dim=t_emb_dim,
        cond_width=cond_width, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    for _, param in model.parameters():
        param[...] = 0.1 * rng.standard_normal(param.shape)
    return model


def test_criterion_01_step_switch_endpoints_match_constant_conditioning():
    t0 = time.perf_counter()
    n_steps, frames = 50, 6
    sched = build_schedule(n_steps)
    records = generate_suite(0)
    rng = np.random.default_rng(505)
    chosen = [records[i] for i in rng.choice(len(records), size=20, replace=False)]
    frame_dim = 2 + 2 * records[0].feature_dim
    model = _randomized_model(
        frames * frame_dim, cond_width=3 + 2 * records[0].feature_dim, seed=31
    )
    neural = NeuralDenoiser(model, sched)
    checked, all_equal = 0, True
    for record in chosen:
        seed = int(rng.integers(2**31))
        c1 = condition_of(record, "event1")
        c2 = condition_of(record, "event2")
        analytic = backend_for_record(
            suite_training_pairs([record], frames, 0.5), sched, frames * frame_dim
        )
        for backend in (analytic, neural):
            (lo,) = sample(backend, [step_switch(0.0, n_steps, c1, c2)], [seed])
            (lo_ref,) = sample(backend, [constant_schedule(n_steps, c2)], [seed])
            (hi,) = sample(backend, [step_switch(1.0, n_steps, c1, c2)], [seed])
            (hi_ref,) = sample(backend, [constant_schedule(n_steps, c1)], [seed])
            all_equal &= np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)
            checked += 1
    dt = time.perf_counter() - t0
    _verdict(
        1,
        all_equal and dt < 10.0,
        f"{checked} prompt/backend combinations bit-identical at x in {{0,1}} "
        f"({dt:.1f}s)",
    )


def test_criterion_02_block_split_endpoints_match_uniform_conditioning():
    t0 = time.perf_counter()
    sched = build_schedule(50)
    model = _randomized_model(10, cond_width=3, seed=7, hidden=12, n_blocks=5)
    rng = np.random.default_rng(99)
    all_equal = True
    for _ in range(100):
        z = rng.standard_normal(10)
        t = int(rng.integers(0, 50))
        ca = compose_single(rng.standard_normal(3))
        cb = compose_single(rng.standard_normal(3))
        lo = forward(model, z, t, sched, block_vectors(block_split(0.0, 5, ca, cb)))
        lo_ref = forward(model, z, t, sched, block_vectors(block_split(1.0, 5, cb, cb)))
        hi = forward(model, z, t, sched, block_vectors(block_split(1.0, 5, ca, cb)))
        hi_ref = forward(model, z, t, sched, block_vectors(block_split(1.0, 5, ca, ca)))
        all_equal &= np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)
    dt = time.perf_counter() - t0
    _verdict(
        2,
        all_equal and dt < 5.0,
        f"100 random forward passes bit-identical at x in {{0,1}} ({dt:.1f}s)",
    )


def test_criterion_03_switch_index_tables():
    def decimal_floor(x: float, n: int) -> int:
        scaled = Decimal(str(float(x))) * n
        return int(scaled.to_integral_value(rounding=ROUND_FLOOR))

    grid = [i / 10 for i in range(11)]
    ca, cb = compose_single([0.3]), compose_single([-0.3])
    ks = [step_switch(x, 50, ca, cb).split_index for x in grid]
    bs = [block_split(x, 8, ca, cb).split_index for x in grid]
    want_k = [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    want_b = [0, 0, 1, 2, 3, 4, 4, 5, 6, 7, 8]
    oracle_k = [decimal_floor(x, 50) for x in grid]
    oracle_b = [decimal_floor(x, 8) for x in grid]
    ok = ks == want_k == oracle_k and bs == want_b == oracle_b
    _verdict(3, ok, f"k(N=50)={ks} b(B=8)={bs} match the exact-floor oracle")


def test_criterion_04_analytic_eps_matches_numerical_score():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    sched = build_schedule(50)
    h, worst = 1e-5, 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.2, 1.0, k)
        mixture = GaussianMixture(
            weights / weights.sum(),
            rng.normal(0.0, 2.0, (k, dim)),
            rng.uniform(0.3, 2.0, (k, dim)),
        )
        t = int(rng.integers(0, 50))
        z = rng.normal(0.0, 2.0, dim)
        got = analytic_eps(z, t, mixture, sched)
        mix_t = diffused_mixture(mixture, t, sched)
        grad = np.empty(dim)
        for j in range(dim):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            grad[j] = (log_density(zp, mix_t) - log_density(zm, mix_t)) / (2 * h)
        want = -math.sqrt(1.0 - sched.alpha_bar[t]) * grad
        rel = np.abs(got - want) / np.maximum(
            np.maximum(np.abs(got), np.abs(want)), 1e-8
        )
        worst = max(worst, float(rel.max()))
    dt = time.perf_counter() - t0
    _verdict(
        4,
        worst < 1e-5 and dt < 10.0,
        f"worst relative error {worst:.2e} over 200 random triples ({dt:.1f}s)",
    )


def test_criterion_05_every_gradient_tensor_passes_finite_differences():
    t0 = time.perf_counter()
    sched = build_schedule(50)
    model = init_model(6, hidden=8, n_blocks=2, t_emb_dim=4, cond_width=2, seed=3)
    rng = np.random.default_rng(9)
    model.w_out[...] = 0.3 * rng.standard_normal(model.w_out.shape)
    model.b_out[...] = 0.1 * rng.standard_normal(model.b_out.shape)
    n = 5
    z0 = rng.standard_normal((n, 6))
    eps = rng.standard_normal((n, 6))
    t = rng.integers(0, 50, n)
    conds = rng.standard_normal((n, model.cond_dim))
    block_conds = np.repeat(conds[:, None, :], model.n_blocks, axis=1)
    _, grad = loss_and_grads(model, z0, t, eps, block_conds, sched)
    grads = model.views(grad)
    h, worst = 1e-6, 0.0
    for name, param in model.parameters():
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = param[ix]
            param[ix] = orig + h
            lp, _ = loss_and_grads(model, z0, t, eps, block_conds, sched)
            param[ix] = orig - h
            lm, _ = loss_and_grads(model, z0, t, eps, block_conds, sched)
            param[ix] = orig
            fd[ix] = (lp - lm) / (2 * h)
            it.iternext()
        rel = np.abs(fd - grads[name]) / np.maximum(
            np.maximum(np.abs(fd), np.abs(grads[name])), 1e-8
        )
        worst = max(worst, float(rel.max()))
    dt = time.perf_counter() - t0
    _verdict(
        5,
        worst < 1e-4 and dt < 30.0,
        f"worst relative error {worst:.2e} across all parameter tensors ({dt:.1f}s)",
    )


def _separated_general_prompts(n=50, seed=2024):
    """General-category prompt pairs whose directions differ by at least
    a quarter turn, so the two events are geometrically distinguishable."""
    two_pi = 2.0 * math.pi
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        theta1 = rng.uniform(0.0, two_pi)
        gap = rng.uniform(math.pi / 2, math.pi)
        theta2 = (theta1 + gap * rng.choice([-1.0, 1.0])) % two_pi
        identity = rng.standard_normal(2)
        background = rng.standard_normal(2)
        identity /= np.linalg.norm(identity)
        background /= np.linalg.norm(background)
        e1 = EventParams(theta1, float(rng.uniform(0.5, 1.5)), identity, background)
        e2 = EventParams(theta2, float(rng.uniform(0.5, 1.5)), identity, background)
        records.append(PromptRecord(f"sep-{i:03d}", "General", "third", (e1, e2)))
    return records


def test_criterion_06_event2_alignment_decreases_with_x(tmp_path):
    t0 = time.perf_counter()
    cfg = SweepConfig(
        mode="step_switch",
        repeats=4,
        n_steps=100,
        out_dir=str(tmp_path),
        sigma=0.5,
        frames=16,
        workers=1,
    )
    rows = aggregate(run_sweep(cfg, records=_separated_general_prompts()))
    xs = sorted({row.x for row in rows})
    means = []
    for x in xs:
        grp = [row for row in rows if row.x == x]
        means.append(
            sum(row.stats["ta2"][0] * row.n for row in grp)
            / sum(row.n for row in grp)
        )
    rho = float(spearmanr(xs, means).statistic)
    gap = means[0] - means[-1]
    dt = time.perf_counter() - t0
    _verdict(
        6,
        rho <= -0.9 and gap >= 0.3 and dt < 300.0,
        f"spearman rho={rho:.3f} (<= -0.9), ta2(0)-ta2(1)={gap:.3f} (>= 0.3) "
        f"over 2200 runs ({dt:.0f}s)",
    )


def test_criterion_07_ancestral_sampling_recovers_gaussian_moments():
    t0 = time.perf_counter()
    n_steps, frames, sigma, n_chains = 500, 8, 0.5, 10_000
    e1 = EventParams(0.7, 1.2, np.array([0.6, -0.8]), np.array([0.3, 0.95]))
    e2 = EventParams(3.5, 0.9, np.array([0.6, -0.8]), np.array([0.3, 0.95]))
    record = PromptRecord("p", "General", "third", (e1, e2))
    sched = build_schedule(n_steps)
    backend = backend_for_record(
        suite_training_pairs([record], frames, sigma), sched, frames * record.frame_dim
    )
    cond = condition_of(record, "event1")
    target = backend.mixture_for(cond)  # single component for one event
    rng = np.random.default_rng(77)
    z = rng.standard_normal((n_chains, backend.dim))
    prepared, slots = backend.prepare([cond]), np.zeros(n_chains, dtype=np.intp)
    for i in range(n_steps):
        t = n_steps - 1 - i
        eps_hat = backend.predict_eps(z, t, prepared, slots)
        z = ancestral_step(z, t, eps_hat, sched, rng.standard_normal(z.shape))
    mean_err = float(np.abs(z.mean(axis=0) - target.means[0]).max())
    var_ratio = z.var(axis=0) / target.variances[0]
    lo, hi = float(var_ratio.min()), float(var_ratio.max())
    dt = time.perf_counter() - t0
    _verdict(
        7,
        mean_err < 0.05 and 0.9 < lo and hi < 1.1 and dt < 120.0,
        f"max mean error {mean_err:.4f} (< 0.05), variance ratios in "
        f"[{lo:.3f}, {hi:.3f}] (within 10%) over {n_chains} chains ({dt:.0f}s)",
    )


def test_criterion_08_trained_denoiser_approaches_oracle_mse():
    t0 = time.perf_counter()
    frames, sigma, n_steps = 8, 0.5, 50
    e1 = EventParams(0.7, 1.2, np.array([0.6, -0.8]), np.array([0.3, 0.95]))
    e2 = EventParams(3.5, 0.9, np.array([0.6, -0.8]), np.array([0.3, 0.95]))
    record = PromptRecord("p", "General", "third", (e1, e2))
    sched = build_schedule(n_steps)
    pairs = suite_training_pairs([record], frames, sigma)[:2]  # event1, event2
    sampler = mixture_data_sampler(pairs)
    model = init_model(
        frames * 6, hidden=64, n_blocks=8, t_emb_dim=16, cond_width=7, seed=1
    )
    model, _ = train(model, sampler, TrainConfig(steps=4000, seed=5), sched)

    rng = np.random.default_rng(999)
    n_eval = 4096
    z0, conds = sampler(rng, n_eval)
    t = rng.integers(0, n_steps, size=n_eval)
    eps = rng.standard_normal(z0.shape)
    from turnpoint.diffusion import forward_noise

    z_t = forward_noise(z0, t, eps, sched)
    model_mse, _ = loss_and_grads(model, z0, t, eps, conds, sched)

    oracle_pred = np.empty_like(eps)
    mixtures = {cond.key(): mixture for cond, mixture in pairs}
    groups: dict[tuple, list[int]] = {}
    for i in range(n_eval):
        groups.setdefault((conds[i].tobytes(), int(t[i])), []).append(i)
    for (cond_bytes, ti), idx in groups.items():
        oracle_pred[idx] = analytic_eps(z_t[idx], ti, mixtures[cond_bytes], sched)
    oracle_mse = float(np.mean((oracle_pred - eps) ** 2))
    ratio = model_mse / oracle_mse
    dt = time.perf_counter() - t0
    _verdict(
        8,
        ratio <= 1.1 and dt < 600.0,
        f"held-out MSE {model_mse:.4f} vs oracle {oracle_mse:.4f}, "
        f"ratio {ratio:.3f} (<= 1.1) ({dt:.0f}s)",
    )


def test_criterion_09_suite_composition_and_pairing(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "suite.jsonl"
    code = main(["suite", "gen", "--seed", "0", "--out", str(path), "--strict-table1"])
    records = read_suite(path)
    counts: dict[str, int] = {}
    for record in records:
        counts[record.category] = counts.get(record.category, 0) + 1
    report = validate_suite(records, strict_counts=True)
    pairs: dict[str, list] = {}
    for record in records:
        if record.pair_id is not None:
            pairs.setdefault(record.pair_id, []).append(record)
    pairing_ok = bool(pairs) and all(
        len(members) == 2
        and {m.view for m in members} == {"first", "third"}
        and members[0].events == members[1].events
        for members in pairs.values()
    )
    dt = time.perf_counter() - t0
    ok = (
        code == 0
        and counts == dict(TABLE_COUNTS)
        and len(records) == sum(TABLE_COUNTS.values())
        and report.ok
        and not report.violations
        and pairing_ok
        and dt < 1.0
    )
    _verdict(
        9,
        ok,
        f"counts {counts} (total {len(records)}), {len(report.violations)} "
        f"violations, {len(pairs)} view pairs intact ({dt:.2f}s)",
    )


def test_criterion_10_sweeps_are_deterministic_and_schema_stable(tmp_path):
    suite_path = tmp_path / "suite.jsonl"
    write_suite(generate_suite(0)[:3], suite_path)

    def invoke(sub):
        out_dir = tmp_path / sub
        code = main(
            ["sweep", "--suite", str(suite_path), "--grid", "0,0.5,1",
             "--repeats", "2", "--n-steps", "5", "--frames", "8",
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        with open(out_dir / "runs.csv", newline="") as fh:
            return list(csv.reader(fh))

    first, second = invoke("a"), invoke("b")
    timing_col = RUNS_CSV_COLUMNS.index("wall_time_ms")
    stripped_first = [row[:timing_col] + row[timing_col + 1:] for row in first]
    stripped_second = [row[:timing_col] + row[timing_col + 1:] for row in second]
    header_ok = first[0] == list(RUNS_CSV_COLUMNS) == second[0]
    ok = header_ok and stripped_first == stripped_second and len(first) == 1 + 18
    _verdict(
        10,
        ok,
        f"two invocations, {len(first) - 1} rows byte-identical outside the "
        f"timing column; header matches the {len(RUNS_CSV_COLUMNS)}-column schema",
    )
