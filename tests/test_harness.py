"""Sweep harness: seed derivation, config loading, the runs.csv schema,
job planning/execution and aggregation."""

import csv
import dataclasses
import hashlib
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from turnpoint.conditioning import constant_schedule
from turnpoint.diffusion import MAX_STEPS, build_schedule, sample
from turnpoint.harness import (
    METRIC_FIELDS,
    RUNS_CSV_COLUMNS,
    PROMPTS_PER_BATCH,
    ConfigurationError,
    RunRecord,
    SweepConfig,
    _plan_jobs,
    aggregate,
    backend_for_record,
    derive_seed,
    fnv1a64,
    load_sweep_config,
    read_runs_csv,
    run_sweep,
    sample_runs,
    score_runs,
    write_runs_csv,
)
from turnpoint.metrics import MetricsRecord, evaluate
from turnpoint.neural import init_model, save_checkpoint
from turnpoint.worldgen import (
    EventParams,
    PromptRecord,
    condition_of,
    generate_suite,
    suite_training_pairs,
)


def small_cfg(tmp_path, **kw):
    kw.setdefault("grid", (0.0, 1.0))
    kw.setdefault("repeats", 1)
    kw.setdefault("n_steps", 5)
    kw.setdefault("frames", 8)
    kw.setdefault("out_dir", str(tmp_path / "out"))
    return SweepConfig(**kw)


def small_checkpoint(path, cond_width=7):
    """An untrained checkpoint for 8-frame trajectories of 2-feature prompts."""
    model = init_model(8 * 6, hidden=4, n_blocks=2, t_emb_dim=4, cond_width=cond_width)
    save_checkpoint(model, path)
    return model


def random_checkpoint(path) -> str:
    """A :func:`small_checkpoint` with random weights, as a fresh model
    predicts eps = 0; returns its path."""
    model = small_checkpoint(path)
    model.flat[...] = 0.3 * np.random.default_rng(4).standard_normal(model.flat.shape)
    save_checkpoint(model, path)
    return str(path)


def metrics_with(ta1=0.5, turning_frame=3):
    return MetricsRecord(
        ta1=ta1, ta2=0.6, ta_mean=(ta1 + 0.6) / 2, ic=0.9, bc=0.8,
        turning_frame=turning_frame, occupancy2=0.4,
    )


def record_with(run_id="r0", x=0.5, category="General", metrics="default",
                setting=None, mode="step_switch", error=None):
    if metrics == "default":
        metrics = metrics_with()
    return RunRecord(
        run_id=run_id, mode=mode, category=category, prompt_id="p1",
        view="third", x=x, setting=setting, seed=7, metrics=metrics,
        wall_time_ms=12, error=error,
    )


# ---------------------------------------------------------------------------
# seeds


class TestSeedDerivation:
    def test_fnv1a64_reference_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_derive_seed_matches_documented_key(self):
        want = fnv1a64(b"11|mo-003|2|0")
        assert derive_seed(11, "mo-003", 2) == want
        assert derive_seed(11, "mo-003", 2, 0) == want

    def test_derive_seed_sensitivity(self):
        base = derive_seed(1, "p", 0)
        assert derive_seed(2, "p", 0) != base
        assert derive_seed(1, "q", 0) != base
        assert derive_seed(1, "p", 1) != base
        assert derive_seed(1, "p", 0, 3) != base


# ---------------------------------------------------------------------------
# configuration


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.grid == tuple(i / 10 for i in range(11))
        assert cfg.repeats == 3 and cfg.workers == 1
        assert cfg.backend == "analytic"

    @pytest.mark.parametrize(
        "kw",
        [
            {"mode": "both"},
            {"grid": ()},
            {"grid": (0.0, 1.5)},
            {"grid": (0.5, 0.5)},
            {"grid": (0.8, 0.2)},
            {"repeats": 0},
            {"workers": 0},
            {"mode": "block_split"},  # analytic backend cannot split blocks
            {"frames": 3},
            {"sigma": -1.0},
            {"sigma": 1e200},  # its square, the data variance, overflows
            {"w_mix": float("nan")},
            {"w_mix": float("inf")},
            {"guidance_scale": 2.0},  # the analytic backend has no unconditioned model
            {"guidance_scale": -1.0, "backend": "model.ckpt"},
            {"guidance_scale": float("nan"), "backend": "model.ckpt"},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigurationError):
            SweepConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [{"suite": 7}, {"suite": b"suite.jsonl"}, {"suite": ""}, {"out_dir": 3},
         {"out_dir": None}, {"backend": 1}, {"backend": None}, {"backend": ""}],
    )
    def test_rejects_a_path_that_is_not_a_string(self, kw):
        (name, value), = kw.items()
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be a non-empty path string, got {value!r}"):
            SweepConfig(**kw)

    def test_block_split_allowed_with_checkpoint(self):
        cfg = SweepConfig(mode="block_split", backend="model.ckpt")
        assert cfg.backend == "model.ckpt"

    def test_holds_its_noise_schedule(self):
        cfg = SweepConfig(n_steps=7, beta_min=1e-3, beta_max=0.05)
        want = build_schedule(7, 1e-3, 0.05)
        assert cfg.noise_schedule.alpha_bar.tobytes() == want.alpha_bar.tobytes()
        assert "noise_schedule" not in repr(cfg)

    @pytest.mark.parametrize("n_steps", [MAX_STEPS + 1, 2**40, 2**63])
    def test_refuses_a_schedule_too_long_to_build(self, n_steps):
        # refused before anything is allocated: 2**40 steps would ask for
        # 8 TiB, and 2**63 lies beyond numpy's index range
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError,
                               match=rf"n_steps must lie in \[1, {MAX_STEPS}\], got {n_steps}"):
                SweepConfig(n_steps=n_steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    def test_builds_the_longest_schedule(self):
        cfg = SweepConfig(n_steps=MAX_STEPS, beta_min=1e-4, beta_max=1e-4)
        assert cfg.noise_schedule.n_steps == MAX_STEPS

    @pytest.mark.parametrize("change", [{"n_steps": 20}, {"beta_max": 0.3}])
    def test_replace_rebuilds_the_schedule(self, change):
        cfg = dataclasses.replace(SweepConfig(), **change)
        want = build_schedule(cfg.n_steps, cfg.beta_min, cfg.beta_max)
        for name in ("beta", "alpha", "alpha_bar"):
            got = getattr(cfg.noise_schedule, name)
            assert got.tobytes() == getattr(want, name).tobytes()
        assert cfg.noise_schedule.beta[-1] == cfg.beta_max
        assert len(cfg.noise_schedule.beta) == cfg.n_steps

    def test_schedule_is_not_a_setting(self):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(SweepConfig(), noise_schedule=build_schedule(5))
        with pytest.raises(ConfigurationError, match="noise_schedule"):
            load_sweep_config(None, noise_schedule=build_schedule(5))

    def test_equal_configs_compare_and_hash_equal(self):
        a = SweepConfig(mode="qualitative", grid=[0, 0.5, 1], repeats=2.0)
        b = SweepConfig(mode="qualitative", grid=(0.0, 0.5, 1.0), repeats=2)
        assert a.noise_schedule is not b.noise_schedule
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(b, n_steps=20)


class TestLoadSweepConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "step_switch", "repeats": 5, "sigma": 0.25}')
        cfg = load_sweep_config(str(path), repeats=2, workers=None)
        assert cfg.repeats == 2  # override wins
        assert cfg.sigma == 0.25  # file value kept
        assert cfg.workers == 1  # None override ignored

    def test_no_file(self):
        cfg = load_sweep_config(None, repeats=4)
        assert cfg.repeats == 4

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"repaets": 5}')
        with pytest.raises(ConfigurationError, match="repaets"):
            load_sweep_config(str(path))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_sweep_config(str(path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="key-value object"):
            load_sweep_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_sweep_config(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# runs.csv


class TestRunsCsv:
    def test_roundtrip(self, tmp_path):
        records = [
            record_with("a", x=0.1 + 0.2),
            record_with("b", metrics=metrics_with(turning_frame=None)),
            record_with("c", metrics=None, error="ValueError: boom"),
            record_with("d", setting=3, mode="qualitative"),
        ]
        path = tmp_path / "runs.csv"
        write_runs_csv(records, path)
        back = read_runs_csv(path)
        assert len(back) == 4
        # the error text is diagnostic only and is not persisted
        for orig, rec in zip(records, back):
            assert rec == orig._replace(error=None)
        assert back[0].x == 0.1 + 0.2  # repr round-trips exactly
        assert back[2].metrics is None

    def test_header_written_exactly(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_runs_csv([], path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == list(RUNS_CSV_COLUMNS)
        assert len(header) == 16

    def test_failed_run_has_empty_metric_cells(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_runs_csv([record_with(metrics=None)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][8:15] == [""] * 7

    def test_row_bytes(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_runs_csv([
            record_with("a", metrics=None, error="ValueError: boom"),
            record_with("b", x=0.1 + 0.2, metrics=metrics_with(turning_frame=None)),
            record_with("c", setting=3, mode="qualitative", metrics=metrics_with(ta1=0.25)),
        ], path)
        assert path.read_bytes().split(b"\r\n")[1:] == [
            b"a,step_switch,General,p1,third,0.5,,7,,,,,,,,12",
            b"b,step_switch,General,p1,third,0.30000000000000004,,7,0.5,0.6,0.55,0.9,0.8,,0.4,12",
            b"c,qualitative,General,p1,third,0.5,3,7,0.25,0.6,0.425,0.9,0.8,3,0.4,12",
            b"",
        ]

    def test_row_bytes_equal_csv_writer_and_round_trip(self, tmp_path):
        # awkward strings in every string column, each encoded once and
        # reused; None metrics and turning frames, settings 1-4, 64-bit seeds
        awkward = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " leading", "plain", ""]
        floats = [1e-05, 1e16, -0.0, 0.1 + 0.2, 1.0]
        records = []
        for i in range(28):
            text = awkward[i % len(awkward)]
            metrics = None if i % 9 == 4 else MetricsRecord(
                ta1=floats[i % 5], ta2=floats[(i + 1) % 5], ta_mean=0.5, ic=floats[(i + 2) % 5],
                bc=-0.0, turning_frame=None if i % 3 else i, occupancy2=floats[(i + 3) % 5],
            )
            records.append(RunRecord(
                run_id=f"qualitative-{text}-x{i:02d}", mode="qualitative",
                category=awkward[(i + 1) % len(awkward)], prompt_id=text,
                view=awkward[(i + 2) % len(awkward)], x=floats[i % 5],
                setting=None if i % 5 == 0 else 1 + i % 4, seed=2**64 - 1 - i,
                metrics=metrics, wall_time_ms=i,
            ))
        path = tmp_path / "runs.csv"
        write_runs_csv(records, path)
        with open(tmp_path / "reference.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RUNS_CSV_COLUMNS)
            for rec in records:
                m = rec.metrics
                values = [None] * 7 if m is None else [getattr(m, f) for f in METRIC_FIELDS]
                writer.writerow([
                    rec.run_id, rec.mode, rec.category, rec.prompt_id, rec.view, rec.x,
                    rec.setting, rec.seed, *values, rec.wall_time_ms,
                ])
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert [repr(rec) for rec in read_runs_csv(path)] == [repr(rec) for rec in records]

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("run_id,mode\nx,y\n")
        with pytest.raises(ValueError, match="header"):
            read_runs_csv(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(",".join(RUNS_CSV_COLUMNS) + "\na,b,c\n")
        with pytest.raises(ValueError, match="malformed"):
            read_runs_csv(path)


# ---------------------------------------------------------------------------
# planning and workers


def repeat_of(run) -> int:
    """The repeat index in a planned run's id, ``...-r{repeat}[-s{setting}]``."""
    return int(run.run_id.rsplit("-r", 1)[1].split("-")[0])


class TestPlanning:
    def test_job_grid(self):
        records = generate_suite(0)[:2]
        cfg = SweepConfig(grid=(0.0, 0.5, 1.0), repeats=2)
        jobs = _plan_jobs(cfg, records)
        assert len(jobs) == 2 * 3 * 2
        first = jobs[0]
        assert first.run_id == f"step_switch-{records[0].id}-x00-r0"
        assert first.seed == derive_seed(0, records[0].id, 0, 0)
        assert jobs[-1].x == 1.0 and repeat_of(jobs[-1]) == 1
        for base_seed in (0, -1, 2**70):
            for mode in ("step_switch", "qualitative"):
                plan = _plan_jobs(dataclasses.replace(cfg, mode=mode, base_seed=base_seed), records)
                assert len(plan) == len(jobs) * (4 if mode == "qualitative" else 1)
                seeds = {}
                for job in plan:
                    assert job.seed == derive_seed(
                        base_seed, job.prompt_id, repeat_of(job), job.setting or 0
                    )
                    seeds.setdefault((job.prompt_id, repeat_of(job), job.setting), set()).add(job.seed)
                # a prompt's ratios share one seed; prompts, repeats and
                # settings do not
                assert all(len(group) == 1 for group in seeds.values())
                assert len(set.union(*seeds.values())) == len(seeds)

    def test_planned_runs_have_no_outcome_and_pickle(self):
        records = generate_suite(0)[:2]
        cfg = SweepConfig(mode="qualitative", grid=(0.0, 1.0), repeats=1)
        runs = _plan_jobs(cfg, records)
        assert all(type(run) is RunRecord for run in runs)
        assert {(run.metrics, run.wall_time_ms, run.error) for run in runs} == {(None, 0, None)}
        assert [(run.mode, run.category, run.view) for run in runs] == [
            (cfg.mode, r.category, r.view) for r in records for _ in range(8)
        ]
        assert pickle.loads(pickle.dumps(runs)) == runs

    def test_qualitative_expands_settings(self):
        records = generate_suite(0)[:1]
        cfg = SweepConfig(mode="qualitative", grid=(0.5,), repeats=1)
        jobs = _plan_jobs(cfg, records)
        assert [j.setting for j in jobs] == [1, 2, 3, 4]
        assert jobs[2].run_id.endswith("-x00-r0-s3")
        assert len({j.seed for j in jobs}) == 4


# ---------------------------------------------------------------------------
# sweep execution


class TestRunSweep:
    def test_small_sweep_end_to_end(self, tmp_path):
        records = generate_suite(0)[:2]
        cfg = small_cfg(tmp_path)
        out = run_sweep(cfg, records=records)
        assert len(out) == 4  # 2 prompts x 2 ratios x 1 repeat
        assert all(r.metrics is not None and r.error is None for r in out)
        back = read_runs_csv(tmp_path / "out" / "runs.csv")
        assert [r.run_id for r in back] == [r.run_id for r in out]
        assert [r.metrics for r in back] == [r.metrics for r in out]

    def test_x_zero_equals_constant_second_condition(self, tmp_path):
        record = generate_suite(0)[0]
        cfg = small_cfg(tmp_path, grid=(0.0,))
        (run,) = run_sweep(cfg, records=[record])

        sched = build_schedule(cfg.n_steps, cfg.beta_min, cfg.beta_max)
        pairs = suite_training_pairs([record], cfg.frames, cfg.sigma, cfg.w_mix)
        backend = backend_for_record(pairs, sched, cfg.frames * record.frame_dim)
        schedule = constant_schedule(cfg.n_steps, condition_of(record, "event2"))
        (latent,) = sample(backend, [schedule], [run.seed])
        traj = latent.reshape(cfg.frames, record.frame_dim)
        want = evaluate(traj, record.events[0], record.events[1])
        assert run.metrics == want

    def test_failed_runs_recorded_not_fatal(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("metric exploded")

        monkeypatch.setattr("turnpoint.harness.evaluate", boom)
        records = generate_suite(0)[:1]
        cfg = small_cfg(tmp_path, grid=(0.5,))
        (run,) = run_sweep(cfg, records=records)
        assert run.metrics is None
        assert run.error == "RuntimeError: metric exploded"
        back = read_runs_csv(tmp_path / "out" / "runs.csv")
        assert back[0].metrics is None

    def test_rejects_duplicate_prompt_ids(self, tmp_path):
        record = generate_suite(0)[0]
        cfg = small_cfg(tmp_path)
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_sweep(cfg, records=[record, record])

    def test_rejects_empty_suite(self, tmp_path):
        with pytest.raises(ConfigurationError, match="empty"):
            run_sweep(small_cfg(tmp_path), records=[])

    def test_missing_checkpoint_path(self, tmp_path):
        cfg = small_cfg(tmp_path, backend=str(tmp_path / "ghost.ckpt"))
        with pytest.raises(ConfigurationError, match="checkpoint not found"):
            run_sweep(cfg, records=generate_suite(0)[:1])

    def test_rejects_checkpoint_of_other_condition_width(self, tmp_path):
        path = tmp_path / "narrow.ckpt"
        small_checkpoint(path, cond_width=5)  # the suite's 2 features need 7
        cfg = small_cfg(tmp_path, backend=str(path))
        with pytest.raises(ConfigurationError, match="condition width 5"):
            run_sweep(cfg, records=generate_suite(0)[:2])

    def test_checkpoint_rejects_mixed_feature_dims(self, tmp_path):
        path = tmp_path / "model.ckpt"
        small_checkpoint(path)
        event = EventParams(0.5, 1.0, [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
        odd = PromptRecord("odd-000", "General", "third", (event, event))
        cfg = small_cfg(tmp_path, backend=str(path))
        with pytest.raises(ConfigurationError, match="one feature dimension"):
            run_sweep(cfg, records=[generate_suite(0)[0], odd])

    def test_non_finite_trajectory_is_a_failed_run(self, tmp_path):
        path = tmp_path / "nan.ckpt"
        model = small_checkpoint(path)
        model.b_out[:] = np.nan
        save_checkpoint(model, path)
        cfg = small_cfg(tmp_path, backend=str(path))
        out = run_sweep(cfg, records=generate_suite(0)[:1])
        assert [r.metrics for r in out] == [None, None]
        assert all("not finite" in r.error for r in out)
        back = read_runs_csv(tmp_path / "out" / "runs.csv")
        assert [r.metrics for r in back] == [None, None]

    @pytest.mark.parametrize("mode", ["step_switch", "qualitative"])
    def test_batch_equals_rows_sampled_alone(self, tmp_path, mode):
        record = generate_suite(0)[0]
        cfg = small_cfg(tmp_path, mode=mode, grid=(0.0, 0.3, 1.0), repeats=2)
        runs, records_by_id = _plan_jobs(cfg, [record]), {record.id: record}
        batch = sample_runs(cfg, None, runs, records_by_id)
        alone = [sample_runs(cfg, None, [run], records_by_id)[0] for run in runs]
        assert batch.tobytes() == np.stack(alone).tobytes()
        out = run_sweep(cfg, records=[record])
        assert [r.metrics for r in out] == [evaluate(traj, *record.events) for traj in alone]

    @pytest.mark.parametrize("backend", ["analytic", "checkpoint"])
    def test_sample_runs_returns_trajectories(self, tmp_path, backend):
        # the sampler returns (rows, dim) latents; sample_runs reads each
        # as cfg.frames frames
        record = generate_suite(0)[0]
        model = small_checkpoint(tmp_path / "model.ckpt") if backend == "checkpoint" else None
        cfg = small_cfg(tmp_path, grid=(0.0, 0.5, 1.0))
        runs = _plan_jobs(cfg, [record])
        trajs = sample_runs(cfg, model, runs, {record.id: record})
        assert trajs.shape == (len(runs), cfg.frames, record.frame_dim)

    def test_multi_ratio_checkpoint_parallel_matches_serial(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = small_checkpoint(path)
        rng = np.random.default_rng(4)
        for _, param in model.parameters():  # a fresh model predicts eps = 0
            param[...] = 0.3 * rng.standard_normal(param.shape)
        save_checkpoint(model, path)
        records = generate_suite(0)[:3]
        kw = dict(mode="block_split", backend=str(path), grid=(0.0, 0.5, 1.0), repeats=2)
        serial = run_sweep(small_cfg(tmp_path / "s", **kw), records=records)
        parallel = run_sweep(small_cfg(tmp_path / "p", workers=2, **kw), records=records)
        strip = lambda r: r._replace(wall_time_ms=0)
        assert all(r.metrics is not None for r in serial)
        assert len({r.metrics.ta1 for r in serial}) > 1
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]

    def test_sampling_error_fails_its_whole_batch(self, tmp_path, monkeypatch):
        # a batch is PROMPTS_PER_BATCH prompts: all of them fail with the
        # backend of one, and the next batch is sampled as usual
        records = generate_suite(0)[: PROMPTS_PER_BATCH + 1]
        real = backend_for_record
        first_cond = condition_of(records[0], "event1").key()

        def flaky(pairs, *args):
            if any(cond.key() == first_cond for cond, _ in pairs):
                raise RuntimeError("backend exploded")
            return real(pairs, *args)

        monkeypatch.setattr("turnpoint.harness.backend_for_record", flaky)
        out = run_sweep(small_cfg(tmp_path, grid=(0.0, 0.5, 1.0)), records=records)
        failed = {r.prompt_id for r in out if r.error == "RuntimeError: backend exploded"}
        assert failed == {r.id for r in records[:PROMPTS_PER_BATCH]}
        assert all(r.metrics is None for r in out if r.prompt_id in failed)
        last = [r for r in out if r.prompt_id == records[-1].id]
        assert len(last) == 3
        assert all(r.metrics is not None and r.error is None for r in last)

    def test_scoring_errors_fail_only_their_own_run(self, tmp_path, monkeypatch):
        import turnpoint.harness as harness

        real_sample, real_evaluate = harness.sample, harness.evaluate
        calls = []

        def one_nan_row(*args):
            latents = real_sample(*args)
            latents[1, 0] = np.nan
            return latents

        def batch_and_row_2_fail(*args):
            # call 1 scores rows 0 and 2 together; then row 0, then row 2, alone
            calls.append(args)
            if len(calls) in (1, 3):
                raise RuntimeError("metric exploded")
            return real_evaluate(*args)

        monkeypatch.setattr(harness, "sample", one_nan_row)
        monkeypatch.setattr(harness, "evaluate", batch_and_row_2_fail)
        out = run_sweep(small_cfg(tmp_path, grid=(0.0, 0.5, 1.0)),
                        records=generate_suite(0)[:1])
        assert out[0].error is None and out[0].metrics is not None
        assert out[1].metrics is None and "not finite" in out[1].error
        assert out[2].metrics is None and out[2].error == "RuntimeError: metric exploded"
        back = read_runs_csv(tmp_path / "out" / "runs.csv")
        assert [r.metrics is None for r in back] == [False, True, True]

    def test_parallel_matches_serial(self, tmp_path):
        records = generate_suite(0)[:1]
        serial = run_sweep(
            small_cfg(tmp_path / "s", n_steps=3, frames=4), records=records
        )
        parallel = run_sweep(
            small_cfg(tmp_path / "p", n_steps=3, frames=4, workers=2), records=records
        )
        strip = lambda r: r._replace(wall_time_ms=0)
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]


    def test_qualitative_parallel_matches_serial(self, tmp_path):
        # planned runs, the config and its schedule go through the pool
        records = generate_suite(0)[:3]
        kw = dict(mode="qualitative", grid=(0.0, 0.5), n_steps=4, frames=4)
        serial = run_sweep(small_cfg(tmp_path / "s", **kw), records=records)
        parallel = run_sweep(small_cfg(tmp_path / "p", workers=2, **kw), records=records)
        strip = lambda r: r._replace(wall_time_ms=0)
        assert len(serial) == 3 * 2 * 4
        assert all(r.metrics is not None for r in serial)
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]
        assert (tmp_path / "s" / "out" / "runs.csv").read_bytes().count(b"\r\n") == 1 + 24


class TestScoreRuns:
    def test_scores_finite_rows_and_fails_the_rest(self, tmp_path):
        records = generate_suite(0)[:3]
        cfg = small_cfg(tmp_path)
        runs = _plan_jobs(cfg, records)[::2]  # one run per prompt
        trajs = sample_runs(cfg, None, runs, {r.id: r for r in records})
        trajs[1, 2, 0] = np.inf
        scored = score_runs(trajs, records)
        assert scored[0] == evaluate(trajs[0], *records[0].events)
        assert scored[2] == evaluate(trajs[2], *records[2].events)
        assert type(scored[1]) is FloatingPointError
        assert str(scored[1]) == "the sampled trajectory is not finite"


class TestAnalyticGroups:
    """An analytic sweep samples PROMPTS_PER_BATCH consecutive prompts per
    batch, one backend and one sample call per view."""

    @staticmethod
    def egoexo_batch():
        # the last General prompts, then both views of the first EgoExo pairs
        records = generate_suite(0)
        first = next(i for i, r in enumerate(records) if r.category == "EgoExo")
        return records[first - 3 : first + 4]

    @pytest.mark.parametrize("mode", ["step_switch", "qualitative"])
    def test_batch_equals_prompts_sampled_alone(self, tmp_path, mode):
        records = self.egoexo_batch()
        assert {r.view for r in records} == {"first", "third"}
        cfg = small_cfg(tmp_path, mode=mode, grid=(0.0, 0.6, 1.0), repeats=2)
        records_by_id = {r.id: r for r in records}
        batch = sample_runs(cfg, None, _plan_jobs(cfg, records), records_by_id)
        alone = [sample_runs(cfg, None, _plan_jobs(cfg, [r]), records_by_id) for r in records]
        assert batch.tobytes() == np.concatenate(alone).tobytes()

    def test_one_sample_call_per_view(self, tmp_path, monkeypatch):
        import turnpoint.harness as harness

        records = self.egoexo_batch()
        real, rows = harness.sample, []

        def counted(backend, conditioning, seeds, *args):
            rows.append(len(seeds))
            return real(backend, conditioning, seeds, *args)

        monkeypatch.setattr(harness, "sample", counted)
        out = run_sweep(small_cfg(tmp_path), records=records)
        first_view = sum(r.view == "first" for r in records)
        assert sorted(rows) == sorted([2 * first_view, 2 * (len(records) - first_view)])
        assert [r.prompt_id for r in out[::2]] == [r.id for r in records]
        assert all(r.metrics is not None for r in out)

    def test_a_new_frame_dimension_starts_a_batch(self, tmp_path):
        event = EventParams(0.5, 1.0, [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
        odd = PromptRecord("odd-000", "General", "third", (event, event))
        suite = generate_suite(0)
        records = [suite[0], suite[1], odd, suite[2]]
        out = run_sweep(small_cfg(tmp_path), records=records)
        assert all(r.metrics is not None and r.error is None for r in out)
        alone = [run_sweep(small_cfg(tmp_path / r.id), records=[r]) for r in records]
        strip = lambda r: r._replace(wall_time_ms=0)
        assert [strip(r) for r in out] == [strip(r) for runs in alone for r in runs]


class TestCheckpointGroups:
    """A checkpoint sweep samples PROMPTS_PER_BATCH consecutive prompts per batch."""

    @pytest.fixture
    def sweep(self, tmp_path):
        path = random_checkpoint(tmp_path / "model.ckpt")
        records = generate_suite(0)[: PROMPTS_PER_BATCH + 1]

        def run(name, records=records, **kw):
            cfg = small_cfg(tmp_path / name, mode="block_split", backend=path, **kw)
            return run_sweep(cfg, records=records)

        return records, run

    def test_parallel_matches_serial_across_groups(self, sweep):
        _, run = sweep
        serial, parallel = run("s"), run("p", workers=2)
        strip = lambda r: r._replace(wall_time_ms=0)
        assert all(r.metrics is not None for r in serial)
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]

    def test_one_sample_call_per_group(self, sweep, monkeypatch):
        import turnpoint.harness as harness

        records, run = sweep
        real, rows = harness.sample, []

        def counted(backend, conditioning, seeds, *args):
            rows.append(len(seeds))
            return real(backend, conditioning, seeds, *args)

        monkeypatch.setattr(harness, "sample", counted)
        out = run("s")
        assert len(rows) == math.ceil(len(records) / PROMPTS_PER_BATCH) == 2
        assert rows == [2 * PROMPTS_PER_BATCH, 2]  # two ratios per prompt
        assert [r.prompt_id for r in out[::2]] == [r.id for r in records]

    def test_both_views_of_an_egoexo_pair_are_one_sample_call(self, sweep, monkeypatch):
        import turnpoint.harness as harness

        _, run = sweep
        records = TestAnalyticGroups.egoexo_batch()
        assert {r.view for r in records} == {"first", "third"}
        real, rows = harness.sample, []

        def counted(backend, conditioning, seeds, *args):
            rows.append(len(seeds))
            return real(backend, conditioning, seeds, *args)

        monkeypatch.setattr(harness, "sample", counted)
        out = run("s", records=records)
        assert rows == [2 * len(records)]
        assert [r.prompt_id for r in out[::2]] == [r.id for r in records]
        assert all(r.metrics is not None for r in out)

    def test_sampling_error_fails_only_its_group(self, sweep, monkeypatch):
        import turnpoint.harness as harness

        records, run = sweep
        real, calls = harness.sample, []

        def first_group_fails(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("group exploded")
            return real(*args)

        monkeypatch.setattr(harness, "sample", first_group_fails)
        out = run("s")
        failed = {r.prompt_id for r in out if r.error == "RuntimeError: group exploded"}
        assert failed == {r.id for r in records[:PROMPTS_PER_BATCH]}
        assert all(r.metrics is None for r in out if r.prompt_id in failed)
        last = [r for r in out if r.prompt_id == records[-1].id]
        assert len(last) == 2
        assert all(r.metrics is not None and r.error is None for r in last)


class TestBatchPairs:
    """A batch reads its prompts' conditions, and the analytic backends
    their mixtures, from one ``suite_training_pairs`` call, on a batch that
    holds both views of EgoExo pairs."""

    # SHA-256 of each sweep's runs.csv without its wall_time_ms column, as
    # written when every view built its own pairs and conditions
    RUNS_SHA256 = {
        "step_switch": "179723b001eb3fecc562b2c448e15212cdec44666a643da076bdb29bc2a13e74",
        "block_split": "541aed44019d39bc56d8ea891684bfb09782462ae7454f2cd2cda99758bebbaf",
    }

    @pytest.fixture(params=["analytic", "checkpoint"])
    def cfg(self, request, tmp_path):
        kw = dict(grid=(0.0, 0.6, 1.0), repeats=2)
        if request.param == "checkpoint":
            kw.update(mode="block_split", backend=random_checkpoint(tmp_path / "model.ckpt"))
        return small_cfg(tmp_path, **kw)

    def test_one_pair_table_per_batch(self, cfg, monkeypatch):
        import turnpoint.harness as harness

        records = TestAnalyticGroups.egoexo_batch()
        real, calls = harness.suite_training_pairs, []

        def counted(batch, *args):
            batch = list(batch)
            calls.append([r.id for r in batch])
            return real(batch, *args)

        monkeypatch.setattr(harness, "suite_training_pairs", counted)
        out = run_sweep(cfg, records=records)
        assert calls == [[r.id for r in records]]
        assert all(r.metrics is not None for r in out)

    def test_runs_csv_bytes_are_pinned(self, cfg):
        run_sweep(cfg, records=TestAnalyticGroups.egoexo_batch())
        lines = (Path(cfg.out_dir) / "runs.csv").read_bytes().split(b"\r\n")
        stripped = b"\r\n".join(line.rpartition(b",")[0] for line in lines)
        assert hashlib.sha256(stripped).hexdigest() == self.RUNS_SHA256[cfg.mode]


# ---------------------------------------------------------------------------
# aggregation


class TestAggregate:
    def test_mean_and_population_std(self):
        rows = aggregate(
            [
                record_with("a", metrics=metrics_with(ta1=0.2)),
                record_with("b", metrics=metrics_with(ta1=0.8)),
            ]
        )
        assert len(rows) == 1
        row = rows[0]
        assert (row.mode, row.category, row.x, row.setting) == (
            "step_switch", "General", 0.5, None,
        )
        assert row.n == 2
        mean, std = row.stats["ta1"]
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(0.3)  # population, not sample, std

    def test_permutation_invariant(self):
        records = [
            record_with("a", x=0.2, metrics=metrics_with(ta1=0.1)),
            record_with("b", x=0.2, metrics=metrics_with(ta1=0.9)),
            record_with("c", x=0.8, category="ComplexPlot"),
        ]
        assert aggregate(records) == aggregate(records[::-1])

    def test_failed_runs_skipped(self):
        rows = aggregate(
            [
                record_with("a"),
                record_with("b", metrics=None, error="ValueError: x"),
            ]
        )
        assert rows[0].n == 1

    def test_turning_frame_none_handling(self):
        all_none = aggregate(
            [
                record_with("a", metrics=metrics_with(turning_frame=None)),
                record_with("b", metrics=metrics_with(turning_frame=None)),
            ]
        )
        assert all_none[0].stats["turning_frame"] is None
        mixed = aggregate(
            [
                record_with("a", metrics=metrics_with(turning_frame=None)),
                record_with("b", metrics=metrics_with(turning_frame=7)),
            ]
        )
        assert mixed[0].stats["turning_frame"] == (7.0, 0.0)

    def test_sorted_output_keys(self):
        records = [
            record_with("a", x=0.9),
            record_with("b", x=0.1),
            record_with("c", x=0.1, category="ComplexPlot"),
            record_with("d", x=0.5, mode="qualitative", setting=2),
            record_with("e", x=0.5, mode="qualitative", setting=1),
        ]
        keys = [(r.mode, r.category, r.x, r.setting) for r in aggregate(records)]
        assert keys == sorted(
            keys, key=lambda k: (k[0], k[1], k[2], k[3] if k[3] is not None else -1)
        )

    def test_stats_equal_each_group_reduced_alone(self):
        # group sizes 1, 7, 9 and 129 cross numpy's 8-wide unrolled sum and
        # its 128-element pairwise block; the last group keeps 7 of its 9
        # turning frames, so it shares a length with the group of 7
        rng = np.random.default_rng(3)
        records = []
        for x, size in ((0.1, 1), (0.2, 7), (0.3, 9), (0.4, 129), (0.5, 9)):
            for i in range(size):
                values = (rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3, 6)).tolist()
                frame = None if x == 0.5 and i in (0, 4) else int(rng.integers(16))
                metrics = MetricsRecord(*values[:5], turning_frame=frame, occupancy2=values[5])
                records.append(record_with(f"r{x}-{i:03d}", x=x, metrics=metrics))
        records.append(record_with("r0.2-failed", x=0.2, metrics=None, error="ValueError: x"))
        rows = aggregate([records[i] for i in rng.permutation(len(records))])
        assert [row.n for row in rows] == [1, 7, 9, 129, 9]
        for row in rows:
            members = sorted(
                (r for r in records if r.x == row.x and r.metrics is not None),
                key=lambda r: r.run_id,
            )
            for metric in METRIC_FIELDS:
                values = [getattr(r.metrics, metric) for r in members]
                alone = np.asarray([v for v in values if v is not None], dtype=np.float64)
                mean, std = row.stats[metric]
                assert type(mean) is float and type(std) is float
                assert mean == alone.mean() and std == alone.std()

    def test_stats_cover_all_metric_fields(self):
        rows = aggregate([record_with("a")])
        assert set(rows[0].stats) == set(METRIC_FIELDS)
