"""End-to-end command-line coverage: exit codes and on-disk artifacts
for every subcommand."""

import csv
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from turnpoint.cli import main
from turnpoint.harness import (
    RUNS_CSV_COLUMNS,
    SweepConfig,
    read_runs_csv,
    run_sweep,
    write_runs_csv,
)
from turnpoint.metrics import MetricsRecord
from turnpoint.neural import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    _param_count,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from turnpoint.worldgen import EventParams, PromptRecord, generate_suite, read_suite, write_suite

METRIC_KEYS = set(MetricsRecord.__dataclass_fields__)


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    path = tmp_path_factory.mktemp("suite") / "small.jsonl"
    write_suite(generate_suite(0)[:3], path)
    return str(path)


def _suite_with_second_record(path, change) -> str:
    """The small suite's three records, the second one's events rebuilt by
    ``change(event)``, written to ``path``."""
    records = generate_suite(0)[:3]
    r = records[1]
    records[1] = PromptRecord(r.id, r.category, r.view, tuple(map(change, r.events)))
    write_suite(records, path)
    return str(path)


@pytest.fixture(scope="module")
def mixed_dim_suite(tmp_path_factory):
    """The second record has 3 appearance features, the others 2."""
    return _suite_with_second_record(
        tmp_path_factory.mktemp("suite") / "mixed.jsonl",
        lambda e: EventParams(e.direction, e.speed, [*e.identity, 0.0], [*e.background, 0.0]),
    )


@pytest.fixture(scope="module")
def overflow_suite(tmp_path_factory):
    """The second (third-view) record's events move 1e308 a frame, so
    their summed positions overflow to infinity."""
    return _suite_with_second_record(
        tmp_path_factory.mktemp("suite") / "overflow.jsonl",
        lambda e: EventParams(e.direction, 1e308, e.identity, e.background),
    )


def run_quietly(argv):
    """``main(argv)`` and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, caught


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, small_suite):
    root = tmp_path_factory.mktemp("train")
    cfg = root / "train.json"
    cfg.write_text(
        json.dumps(
            {
                "suite": small_suite,
                "frames": 6,
                "hidden": 8,
                "n_blocks": 2,
                "t_emb_dim": 4,
                "diffusion_steps": 6,
                "steps": 60,
                "batch_size": 16,
            }
        )
    )
    out = root / "model.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return str(out)


# ---------------------------------------------------------------------------
# usage errors


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["suite", "gen", "--seed", "0"])
        assert err.value.code == 1

    def test_ratio_out_of_range(self, small_suite, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                ["sample", "--prompt-id", "x", "--suite", small_suite,
                 "--mode", "step", "--x", "1.5", "--backend", "analytic",
                 "--seed", "0", "--out", str(tmp_path)]
            )
        assert err.value.code == 1

    def test_bad_mode_choice(self, small_suite, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                ["sample", "--prompt-id", "x", "--suite", small_suite,
                 "--mode", "sideways", "--x", "0.5", "--backend", "analytic",
                 "--seed", "0", "--out", str(tmp_path)]
            )
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["suite_gen", "sweep", "sample"])
    def test_negative_seed_flag_exits_1(self, small_suite, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "suite_gen": ["suite", "gen", "--seed", "-1", "--out", str(out)],
            "sweep": ["sweep", "--suite-seed", "-1", "--out-dir", str(out)],
            "sample": sample_args(small_suite, out, read_suite(small_suite)[0].id, seed=-1),
        }[command]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "train"])
    def test_negative_seed_in_config_exits_1(self, small_suite, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        out = tmp_path / "out"
        if command == "sweep":
            cfg.write_text(json.dumps({"suite_seed": -1, "out_dir": str(out)}))
            argv = ["sweep", "--config", str(cfg)]
        else:
            cfg.write_text(json.dumps({"suite": small_suite, "steps": 1, "seed": -1}))
            argv = ["train", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# ---------------------------------------------------------------------------
# suite


class TestSuiteCommands:
    def test_gen_then_validate(self, tmp_path, capsys):
        path = tmp_path / "suite.jsonl"
        assert main(["suite", "gen", "--seed", "3", "--out", str(path)]) == 0
        assert len(read_suite(path)) == 350
        assert main(["suite", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "350" in out

    def test_gen_strict_counts(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        code = main(
            ["suite", "gen", "--seed", "0", "--out", str(path), "--strict-table1"]
        )
        assert code == 0

    def test_validate_invalid_file(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"not": "a prompt"}\n')
        assert main(["suite", "validate", str(path)]) == 1

    def test_validate_missing_file(self, tmp_path):
        assert main(["suite", "validate", str(tmp_path / "ghost.jsonl")]) == 1

    @pytest.mark.parametrize("kind", ["not_utf8", "directory", "numeric_id"])
    def test_validate_unusable_file_exits_1(self, tmp_path, capsys, kind):
        path = tmp_path / "suite.jsonl"
        if kind == "not_utf8":
            path.write_bytes(b"\xff\xfe{}\n")
        elif kind == "directory":
            path.mkdir()
        else:
            write_suite(generate_suite(0)[:1], path)
            obj = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps({**obj, "id": 5}) + "\n", encoding="utf-8")
        assert main(["suite", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        if kind == "numeric_id":
            assert "id must be a string" in captured.out
        else:
            assert captured.err.startswith("error: cannot read suite file")
            assert captured.err.count("\n") == 1

    def test_gen_into_missing_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "suite.jsonl"
        assert main(["suite", "gen", "--seed", "0", "--out", str(out)]) == 1
        assert "output directory not found" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gen_onto_a_directory_exits_1_before_generating(self, tmp_path, monkeypatch,
                                                            capsys):
        import turnpoint.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("suite generated")

        monkeypatch.setattr(cli, "generate_suite", fail)
        out = tmp_path / "suite.jsonl"
        out.mkdir()
        assert main(["suite", "gen", "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: output path is a directory: {out}\n"
        assert list(out.iterdir()) == []

    def test_validate_detects_pair_violation(self, tmp_path, capsys):
        records = generate_suite(0)
        broken = [r for r in records if r.pair_id is None][:2]
        path = tmp_path / "ok.jsonl"
        write_suite(broken, path)
        assert main(["suite", "validate", str(path)]) == 0  # no pairs, no breakage
        capsys.readouterr()


# ---------------------------------------------------------------------------
# train


class TestTrain:
    def test_checkpoint_written(self, tiny_checkpoint):
        model = load_checkpoint(tiny_checkpoint)
        assert model.n_blocks == 2
        # suite events carry 2 appearance features -> 6 numbers per frame
        assert model.dim == 6 * (2 + 2 * 2)
        log = json.loads(Path(tiny_checkpoint).with_name("train_log.json").read_text())
        assert set(log) == {"steps", "train_s", "steps_per_s", "draw_s", "loss_and_grads_s",
                            "adam_s", "trace"}
        assert log["steps"] == 60
        assert math.isfinite(log["train_s"]) and log["train_s"] > 0
        assert log["steps_per_s"] == pytest.approx(60 / log["train_s"])
        # (step, loss, grad_norm) every 100 steps
        assert [step for step, _, _ in log["trace"]] == [0]
        assert all(math.isfinite(loss) for _, loss, _ in log["trace"])

    def test_log_says_where_the_time_went(self, tiny_checkpoint):
        log = json.loads(Path(tiny_checkpoint).with_name("train_log.json").read_text())
        parts = [log[key] for key in ("draw_s", "loss_and_grads_s", "adam_s")]
        assert all(part > 0 for part in parts)
        assert sum(parts) == pytest.approx(log["train_s"], rel=0.05)

    def test_log_records_gradient_norms(self, tiny_checkpoint):
        log = json.loads(Path(tiny_checkpoint).with_name("train_log.json").read_text())
        norms = [norm for _, _, norm in log["trace"]]
        assert norms and all(math.isfinite(norm) and norm > 0 for norm in norms)

    def test_non_string_suite_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": 10**6, "steps": 3}))  # no open descriptor
        out = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: suite must be a non-empty path string, got 1000000\n"
        )
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"hiden": 8}')
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1

    def test_conditions_key_is_unknown(self, tmp_path, small_suite, capsys):
        # a checkpoint is trained on all three conditions a sweep queries
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"suite": small_suite, "conditions": ["event3"]}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "unknown config keys: ['conditions']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", [{"learning_rate": float("nan")}, {"eps": 0}], ids=["nan_rate", "zero_eps"]
    )
    def test_bad_optimizer_setting_exits_1(self, tmp_path, small_suite, bad, capsys):
        # Adam would run and save non-finite parameters
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps({"suite": small_suite, "frames": 6, "hidden": 8, "n_blocks": 2,
                        "diffusion_steps": 6, "steps": 1, "batch_size": 4, **bad})
        )
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert f"{next(iter(bad))} must be finite and > 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize(
        "key, value",
        [("frames", 6.5), ("steps", 2.9), ("batch_size", True), ("hidden", 8.5),
         ("diffusion_steps", "6"), ("seed", False), ("init_seed", 0.5)],
    )
    def test_non_integral_count_in_config_exits_1(self, small_suite, tmp_path, capsys,
                                                  key, value):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "frames": 6, "hidden": 8,
                                   "n_blocks": 2, "diffusion_steps": 6, "steps": 2,
                                   "batch_size": 4, key: value}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", True), ("eps", True), ("beta1", "a"), ("beta2", False),
         ("ema_decay", True), ("sigma", True), ("w_mix", "0.5"), ("beta_max", True)],
    )
    def test_non_numeric_real_in_config_exits_1(self, small_suite, tmp_path, capsys, key,
                                                value):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "frames": 6, "hidden": 8,
                                   "n_blocks": 2, "diffusion_steps": 6, "steps": 2,
                                   "batch_size": 4, key: value}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    def test_real_beyond_the_float_range_exits_1(self, small_suite, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "frames": 6, "hidden": 8,
                                   "diffusion_steps": 6, "steps": 2, "learning_rate": 10**400}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "int too large to convert to float" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    def test_integral_float_counts_read_as_ints(self, small_suite, tmp_path):
        counts = {"frames": 6, "hidden": 8, "n_blocks": 2, "t_emb_dim": 4,
                  "diffusion_steps": 6, "steps": 3, "batch_size": 4, "seed": 1,
                  "init_seed": 2}
        blobs = []
        for name, values in (("ints", counts), ("floats", {k: float(v) for k, v in counts.items()})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"suite": small_suite, **values}))
            (tmp_path / name).mkdir()
            out = tmp_path / name / "m.ckpt"
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["train", "--config", str(tmp_path / "none.json"),
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert code == 1

    def test_nan_w_mix_exits_1(self, tmp_path, small_suite, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"suite": small_suite, "frames": 6, "hidden": 8,
                                   "diffusion_steps": 6, "steps": 1, "w_mix": float("nan")}))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "w_mix must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_suite_with_duplicate_ids_exits_1(self, tmp_path, capsys):
        suite = tmp_path / "dup.jsonl"
        record = generate_suite(0)[0]
        write_suite([record, record], suite)
        code, _ = self.train_on(str(suite), tmp_path)
        assert code == 1
        assert "duplicate ids" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def train_on(self, suite, tmp_path, **extra):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": suite, "frames": 6, "hidden": 8,
                                   "diffusion_steps": 6, "steps": 2, "batch_size": 4, **extra}))
        return run_quietly(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_integer_sigma_trains(self, small_suite, tmp_path, sigma):
        code, _ = self.train_on(small_suite, tmp_path, sigma=sigma)
        assert code == 0
        assert load_checkpoint(str(tmp_path / "m.ckpt")).dim == 36

    def test_suite_mixing_feature_dimensions_exits_1(self, mixed_dim_suite, tmp_path, capsys):
        code, caught = self.train_on(mixed_dim_suite, tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "error: all mixtures must share one dimension\n"
        assert not caught
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    def test_overflowing_positions_exit_1_with_the_error_alone(self, overflow_suite, tmp_path,
                                                                capsys):
        code, caught = self.train_on(overflow_suite, tmp_path)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: mixture parameters contain non-finite values\n"
        assert not caught  # numpy's overflow warning is not printed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    def test_missing_out_directory_exits_1_before_training(self, tmp_path, small_suite,
                                                            monkeypatch, capsys):
        import turnpoint.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", fail)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "steps": 3}))
        out = tmp_path / "missing" / "model.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "checkpoint directory not found" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_onto_a_directory_exits_1_before_training(self, tmp_path, small_suite,
                                                          monkeypatch, capsys):
        import turnpoint.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", fail)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "steps": 3}))
        out = tmp_path / "model.ckpt"
        out.mkdir()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: checkpoint path is a directory: {out}\n"
        assert list(out.iterdir()) == []

    def test_log_onto_a_directory_exits_1_before_training(self, tmp_path, small_suite,
                                                          monkeypatch, capsys):
        import turnpoint.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", fail)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "steps": 3}))
        log = tmp_path / "train_log.json"
        log.mkdir()
        out = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: training log path is a directory: {log}\n"
        assert not out.exists() and list(log.iterdir()) == []

    @pytest.mark.parametrize("t_emb_dim", [15, 0, -2])
    def test_bad_t_emb_dim_exits_1(self, tmp_path, small_suite, capsys, t_emb_dim):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"suite": small_suite, "t_emb_dim": t_emb_dim, "steps": 3}))
        out = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: t_emb_dim must be even and >= 2, got {t_emb_dim}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]


# ---------------------------------------------------------------------------
# sample


def sample_args(small_suite, out, prompt_id, mode="step", backend="analytic",
                seed=11, **extra):
    args = [
        "sample", "--prompt-id", prompt_id, "--suite", small_suite,
        "--mode", mode, "--x", "0.5", "--backend", backend,
        "--seed", str(seed), "--out", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestSample:
    def test_step_mode_outputs(self, small_suite, tmp_path):
        prompt = read_suite(small_suite)[0].id
        code = main(
            sample_args(small_suite, tmp_path, prompt, n_steps=5, frames=8)
        )
        assert code == 0
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["frame", "pos_x", "pos_y"]
        assert rows[0][3] == "identity_0" and "background_0" in rows[0]
        assert len(rows) == 1 + 8
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["prompt_id"] == prompt
        assert payload["mode"] == "step" and payload["x"] == 0.5
        assert set(payload["metrics"]) == METRIC_KEYS

    def test_block_mode_needs_checkpoint(self, small_suite, tmp_path):
        prompt = read_suite(small_suite)[0].id
        code = main(sample_args(small_suite, tmp_path, prompt, mode="block"))
        assert code == 1

    def test_block_mode_with_checkpoint(self, small_suite, tiny_checkpoint, tmp_path):
        prompt = read_suite(small_suite)[1].id
        code = main(
            sample_args(
                small_suite, tmp_path, prompt, mode="block",
                backend=tiny_checkpoint, n_steps=6,
            )
        )
        assert code == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["frames"] == 6  # inferred from the checkpoint

    def test_frames_the_checkpoint_does_not_match_exit_1(self, small_suite, tiny_checkpoint,
                                                          tmp_path, capsys):
        # sample checks --frames against a 6-frame checkpoint as sweep does
        prompt = read_suite(small_suite)[1].id
        sample = sample_args(small_suite, tmp_path / "sample", prompt, mode="block",
                             backend=tiny_checkpoint, n_steps=6, frames=16)
        sweep = ["sweep", "--suite", small_suite, "--mode", "block_split",
                 "--backend", tiny_checkpoint, "--grid", "0.5", "--repeats", "1",
                 "--n-steps", "6", "--frames", "16", "--out-dir", str(tmp_path / "sweep")]
        errors = []
        for argv in (sample, sweep):
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "checkpoint dimension 36 does not match 16 x 6 trajectories" in errors[0]
        assert not (tmp_path / "sample").exists()

    @pytest.mark.parametrize(
        "mode, sweep_mode, checkpoint",
        [("step", "step_switch", False), ("block", "block_split", True)],
    )
    def test_matches_sweep_row(self, small_suite, tiny_checkpoint, tmp_path,
                               mode, sweep_mode, checkpoint):
        backend = tiny_checkpoint if checkpoint else "analytic"
        assert main(
            ["sweep", "--suite", small_suite, "--mode", sweep_mode, "--grid", "0.5",
             "--repeats", "1", "--n-steps", "6", "--frames", "6",
             "--backend", backend, "--out-dir", str(tmp_path / "sweep")]
        ) == 0
        row = read_runs_csv(tmp_path / "sweep" / "runs.csv")[1]
        code = main(
            sample_args(small_suite, tmp_path / "sample", row.prompt_id, mode=mode,
                        backend=backend, seed=row.seed, n_steps=6, frames=6)
        )
        assert code == 0
        payload = json.loads((tmp_path / "sample" / "metrics.json").read_text())
        assert MetricsRecord(**payload["metrics"]) == row.metrics

    def test_non_finite_checkpoint_exits_2(self, small_suite, tiny_checkpoint, tmp_path,
                                           capsys):
        model = load_checkpoint(tiny_checkpoint)
        model.w_out[:] = float("nan")
        path = tmp_path / "nan.ckpt"
        save_checkpoint(model, path)
        prompt = read_suite(small_suite)[0].id
        code = main(
            sample_args(small_suite, tmp_path / "out", prompt, mode="block",
                        backend=str(path), n_steps=6)
        )
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_step_sample_exits_2_with_the_scorer_error(
        self, small_suite, tiny_checkpoint, tmp_path, capsys
    ):
        model = load_checkpoint(tiny_checkpoint)
        model.b_out[:] = float("nan")
        path = tmp_path / "nan.ckpt"
        save_checkpoint(model, path)
        prompt = read_suite(small_suite)[1].id
        code = main(sample_args(small_suite, tmp_path / "out", prompt, backend=str(path),
                                n_steps=6))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: FloatingPointError: the sampled trajectory is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_analytic_sample_bytes_are_pinned(self, small_suite, tmp_path):
        # recorded when sample still had a scorer of its own, apart from
        # the sweep's; the shared run path must not move a byte
        prompt = read_suite(small_suite)[0].id
        assert main(sample_args(small_suite, tmp_path, prompt, n_steps=5, frames=8)) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trajectory.csv", "metrics.json")
        }
        assert digests == {
            "trajectory.csv": "bcf19710d17211737702fffb7e54ad07fd9fe467747fc030db6eda8d620530fe",
            "metrics.json": "b0b8c8769c2e11198a0c9abdb23e1b2d605d262d317e592045ac5284a66fd03c",
        }

    def test_default_flags_take_sweep_config_defaults(self, small_suite, tmp_path):
        prompt = read_suite(small_suite)[0].id
        assert main(sample_args(small_suite, tmp_path, prompt)) == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["n_steps"] == SweepConfig.n_steps
        assert payload["frames"] == SweepConfig.frames
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + SweepConfig.frames

    def test_unknown_prompt_id(self, small_suite, tmp_path):
        code = main(sample_args(small_suite, tmp_path, "nope-999", n_steps=5))
        assert code == 1

    def test_deterministic_given_seed(self, small_suite, tmp_path):
        prompt = read_suite(small_suite)[0].id
        for sub in ("a", "b"):
            code = main(
                sample_args(
                    small_suite, tmp_path / sub, prompt, n_steps=5, frames=8
                )
            )
            assert code == 0
        assert (tmp_path / "a" / "trajectory.csv").read_text() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_text()


# ---------------------------------------------------------------------------
# sweep + report


class TestSweepAndReport:
    def test_sweep_writes_runs_and_report(self, small_suite, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            ["sweep", "--suite", small_suite, "--grid", "0,1", "--repeats", "1",
             "--n-steps", "4", "--frames", "8", "--out-dir", str(out_dir)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "6 runs; results in" in printed  # failure count shown only if > 0
        with open(out_dir / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(RUNS_CSV_COLUMNS)
        assert len(rows) == 1 + 6
        assert (out_dir / "aggregates.csv").exists()
        assert (out_dir / "summary.md").exists()

    def test_sweep_on_a_suite_directory_exits_1(self, tmp_path, capsys):
        suite = tmp_path / "suite.jsonl"
        suite.mkdir()
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--suite", str(suite), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read suite file {suite}: ")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_sweep_config_file_with_flag_override(self, small_suite, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {"suite": small_suite, "grid": [0.0, 1.0], "repeats": 2,
                 "n_steps": 4, "frames": 8, "out_dir": str(tmp_path / "ignored")}
            )
        )
        out_dir = tmp_path / "actual"
        code = main(
            ["sweep", "--config", str(cfg), "--repeats", "1",
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        with open(out_dir / "runs.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 6  # repeats=1 override won

    def test_block_split_sweep_through_checkpoint(self, small_suite, tiny_checkpoint,
                                                  tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            ["sweep", "--suite", small_suite, "--mode", "block_split",
             "--backend", tiny_checkpoint, "--grid", "0,0.5,1", "--repeats", "1",
             "--n-steps", "6", "--frames", "6", "--out-dir", str(out_dir)]
        )
        assert code == 0
        assert "9 runs; results in" in capsys.readouterr().out  # no failures
        runs = read_runs_csv(out_dir / "runs.csv")
        assert [r.x for r in runs] == [0.0, 0.5, 1.0] * 3
        assert all(r.metrics is not None for r in runs)

    def test_sweep_whose_every_run_fails_exits_2(self, small_suite, tiny_checkpoint,
                                                 tmp_path, capsys):
        model = load_checkpoint(tiny_checkpoint)
        model.w_out[:] = float("nan")
        path = tmp_path / "nan.ckpt"
        save_checkpoint(model, path)
        out_dir = tmp_path / "sweep"
        code = main(
            ["sweep", "--suite", small_suite, "--mode", "block_split",
             "--backend", str(path), "--grid", "0,1", "--repeats", "1",
             "--n-steps", "6", "--frames", "6", "--out-dir", str(out_dir)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "6 runs (6 failed)" in captured.out
        assert "not finite" in captured.err
        runs = read_runs_csv(out_dir / "runs.csv")
        assert len(runs) == 6 and all(r.metrics is None for r in runs)
        assert (out_dir / "aggregates.csv").exists()
        assert (out_dir / "summary.md").exists()

    def test_analytic_sweep_over_overflowing_suite_fails_every_run_and_exits_2(
        self, overflow_suite, tmp_path, capsys
    ):
        # the suite's three prompts are one batch, whose analytic backend
        # cannot be built, so every run records that error
        argv = ["sweep", "--suite", overflow_suite, "--grid", "0,1", "--repeats", "1",
                "--n-steps", "6", "--frames", "6"]
        message = "ValueError: mixture parameters contain non-finite values"
        code, caught = run_quietly([*argv, "--out-dir", str(tmp_path / "sweep")])
        assert code == 2
        captured = capsys.readouterr()
        assert "6 runs (6 failed)" in captured.out
        assert captured.err == f"error: every run failed; the first: {message}\n"
        assert not caught
        runs = read_runs_csv(tmp_path / "sweep" / "runs.csv")
        assert len(runs) == 6 and all(r.metrics is None for r in runs)
        cfg = SweepConfig(grid=(0.0, 1.0), repeats=1, n_steps=6, frames=6,
                          out_dir=str(tmp_path / "again"))
        assert [r.error for r in run_sweep(cfg, read_suite(overflow_suite))] == [message] * 6

    def test_checkpoint_of_other_condition_width_exits_1(self, small_suite, tmp_path):
        path = tmp_path / "narrow.ckpt"
        # 6 frames of 2-feature prompts, but a condition slot for 1 feature
        save_checkpoint(init_model(36, hidden=4, n_blocks=2, t_emb_dim=4, cond_width=5), path)
        sweep = ["sweep", "--suite", small_suite, "--mode", "block_split",
                 "--backend", str(path), "--grid", "0,1", "--repeats", "1",
                 "--n-steps", "6", "--frames", "6", "--out-dir", str(tmp_path / "s")]
        assert main(sweep) == 1
        prompt = read_suite(small_suite)[0].id
        sample = sample_args(small_suite, tmp_path / "o", prompt, mode="block",
                             backend=str(path), n_steps=6)
        assert main(sample) == 1

    @pytest.mark.parametrize("content", [None, '{"id": 1}\n'], ids=["missing", "malformed"])
    def test_bad_suite_file_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "suite.jsonl"
        if content is not None:
            path.write_text(content)
        code = main(["sweep", "--suite", str(path), "--n-steps", "3",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 1
        assert "suite" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_corrupt_checkpoint_exits_1(self, small_suite, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_text("garbage\n")
        sweep = ["sweep", "--suite", small_suite, "--mode", "block_split",
                 "--backend", str(path), "--grid", "0,1", "--repeats", "1",
                 "--n-steps", "6", "--frames", "6", "--out-dir", str(tmp_path / "s")]
        assert main(sweep) == 1
        assert "checkpoint header" in capsys.readouterr().err
        prompt = read_suite(small_suite)[0].id
        sample = sample_args(small_suite, tmp_path / "o", prompt, mode="block",
                             backend=str(path), n_steps=6)
        assert main(sample) == 1
        assert "checkpoint header" in capsys.readouterr().err

    def test_checkpoint_header_asking_for_too_much_memory_exits_1(self, small_suite,
                                                                  tmp_path, capsys):
        # hidden 40 000 over a 64-byte body: refused before 191 GiB are allocated
        path = tmp_path / "bad.ckpt"
        dims = (36, 40_000, 2, 4, 7)
        path.write_bytes(struct.pack("<6sIIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *dims)
                         + b"\x00" * 64)
        code = main(["sweep", "--suite", small_suite, "--mode", "block_split",
                     "--backend", str(path), "--grid", "0,1", "--repeats", "1",
                     "--n-steps", "6", "--frames", "6", "--out-dir", str(tmp_path / "s")])
        assert code == 1
        assert "cannot load checkpoint: truncated parameter data" in capsys.readouterr().err

    def test_checkpoint_header_with_an_odd_t_emb_dim_exits_1(self, small_suite, tmp_path,
                                                             capsys):
        # the body has the size the header asks for, so only t_emb_dim is wrong
        path = tmp_path / "odd.ckpt"
        dims = (36, 8, 2, 3, 7)
        path.write_bytes(struct.pack("<6sIIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *dims)
                         + b"\x00" * (8 * _param_count(*dims)))
        message = "cannot load checkpoint: invalid header dimensions: t_emb_dim must be even"
        code = main(["sweep", "--suite", small_suite, "--mode", "block_split",
                     "--backend", str(path), "--grid", "0,1", "--repeats", "1",
                     "--n-steps", "6", "--frames", "6", "--out-dir", str(tmp_path / "s")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        prompt = read_suite(small_suite)[0].id
        sample = sample_args(small_suite, tmp_path / "o", prompt, mode="block",
                             backend=str(path), n_steps=6)
        assert main(sample) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["-1", "nan"])
    def test_bad_guidance_scale_exits_1(self, small_suite, tiny_checkpoint, tmp_path,
                                        capsys, scale):
        code = main(["sweep", "--suite", small_suite, "--backend", tiny_checkpoint,
                     f"--guidance-scale={scale}", "--grid", "0,1", "--repeats", "1",
                     "--n-steps", "6", "--frames", "6", "--out-dir", str(tmp_path / "s")])
        assert code == 1
        assert "guidance_scale" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_nan_w_mix_exits_1(self, small_suite, tmp_path, capsys):
        code = main(["sweep", "--suite", small_suite, "--grid", "0,1", "--repeats", "1",
                     "--w-mix", "nan", "--n-steps", "4", "--frames", "8",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 1
        assert "w_mix must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_noise_schedule_key_exits_1(self, small_suite, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        out_dir = tmp_path / "s"
        cfg.write_text(json.dumps({"suite": small_suite, "out_dir": str(out_dir),
                                   "noise_schedule": [0.01, 0.02]}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "unknown config keys: ['noise_schedule']" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        # 10**6 is no open file descriptor, which a sweep would read
        "key, value",
        [("suite", 10**6), ("suite", ["a.jsonl"]), ("out_dir", 3), ("backend", 10**6),
         ("backend", 0.5)],
    )
    def test_non_string_path_in_config_exits_1(self, small_suite, tmp_path, capsys, key,
                                               value):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"suite": small_suite, "grid": [0.0], "repeats": 1,
                                   "n_steps": 4, "frames": 8,
                                   "out_dir": str(tmp_path / "s"), key: value}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} must be a non-empty path string, got {value!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]

    def test_suite_given_as_an_open_file_descriptor_exits_1(self, small_suite, tmp_path):
        # in a child process, which a sweep that read and closed the
        # descriptor would leave in disorder instead of this one
        fd = os.open(small_suite, os.O_RDONLY)
        try:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({"suite": fd, "grid": [0.0], "repeats": 1,
                                       "n_steps": 4, "frames": 8,
                                       "out_dir": str(tmp_path / "s")}))
            proc = subprocess.run(
                [sys.executable, "-m", "turnpoint", "sweep", "--config", str(cfg)],
                capture_output=True, text=True, pass_fds=(fd,),
            )
        finally:
            os.close(fd)
        assert proc.returncode == 1
        assert proc.stderr == f"error: suite must be a non-empty path string, got {fd}\n"
        assert not (tmp_path / "s").exists()

    def test_sweep_bad_config(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"grid": [0.9, 0.1]}')
        assert main(["sweep", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("frames", 8.5), ("repeats", 1.5), ("n_steps", 10.5), ("workers", True),
         ("suite_seed", 0.5), ("base_seed", False), ("frames", "8")],
    )
    def test_non_integral_count_in_config_exits_1(self, small_suite, tmp_path, capsys,
                                                  key, value):
        cfg = tmp_path / "sweep.json"
        out_dir = tmp_path / "s"
        cfg.write_text(json.dumps({"suite": small_suite, "grid": [0.0, 1.0], "repeats": 1,
                                   "n_steps": 4, "frames": 8, "out_dir": str(out_dir),
                                   key: value}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("w_mix", True), ("guidance_scale", True), ("sigma", "a"), ("sigma", False),
         ("beta_max", True), ("beta_min", None)],
    )
    def test_non_numeric_real_in_config_exits_1(self, small_suite, tmp_path, capsys, key,
                                                value):
        cfg = tmp_path / "sweep.json"
        out_dir = tmp_path / "s"
        cfg.write_text(json.dumps({"suite": small_suite, "grid": [0.0, 1.0], "repeats": 1,
                                   "n_steps": 4, "frames": 8, "out_dir": str(out_dir),
                                   key: value}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("grid", "0.5", "grid must be a list of ratios"),
         ("beta_max", "x", "invalid noise schedule"),
         ("beta_min", "1e-4", "invalid noise schedule")],
    )
    def test_mistyped_config_value_exits_1(self, small_suite, tmp_path, capsys, key, value,
                                           message):
        cfg = tmp_path / "sweep.json"
        out_dir = tmp_path / "s"
        cfg.write_text(json.dumps({"suite": small_suite, "grid": [0.0, 1.0], "repeats": 1,
                                   "n_steps": 4, "frames": 8, "out_dir": str(out_dir),
                                   key: value}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_integral_float_counts_read_as_ints(self, small_suite, tmp_path):
        counts = {"repeats": 1, "n_steps": 4, "frames": 8, "workers": 1, "suite_seed": 0,
                  "base_seed": 3}
        runs = []
        for name, values in (("ints", counts), ("floats", {k: float(v) for k, v in counts.items()})):
            cfg = tmp_path / f"{name}.json"
            out_dir = tmp_path / name
            cfg.write_text(json.dumps({"suite": small_suite, "grid": [0.0, 1.0],
                                       "out_dir": str(out_dir), **values}))
            assert main(["sweep", "--config", str(cfg)]) == 0
            runs.append([(r.run_id, r.seed, r.metrics) for r in read_runs_csv(out_dir / "runs.csv")])
        assert len(runs[0]) == 6 and runs[0] == runs[1]

    def test_report_from_runs(self, small_suite, tmp_path):
        sweep_dir = tmp_path / "sweep"
        assert (
            main(
                ["sweep", "--suite", small_suite, "--grid", "0,1",
                 "--repeats", "1", "--n-steps", "4", "--frames", "8",
                 "--out-dir", str(sweep_dir)]
            )
            == 0
        )
        report_dir = tmp_path / "report"
        code = main(
            ["report", "--runs", str(sweep_dir / "runs.csv"),
             "--out", str(report_dir)]
        )
        assert code == 0
        assert (report_dir / "aggregates.csv").exists()
        assert (report_dir / "summary.md").exists()

    def test_report_missing_runs(self, tmp_path):
        code = main(
            ["report", "--runs", str(tmp_path / "none.csv"),
             "--out", str(tmp_path / "r")]
        )
        assert code == 1

    def test_report_malformed_runs(self, tmp_path):
        bad = tmp_path / "runs.csv"
        bad.write_text("run_id,of,the,wrong,shape\n")
        code = main(
            ["report", "--runs", str(bad), "--out", str(tmp_path / "r")]
        )
        assert code == 1


# ---------------------------------------------------------------------------
# paths that cannot serve


class TestPathMistakes:
    """An output path that cannot be a directory, a runs path that is a
    directory and a checkpoint path that is a directory each exit 1 before
    any work is done."""

    @staticmethod
    def forbid(monkeypatch, *names):
        import turnpoint.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("work started")

        for name in names:
            monkeypatch.setattr(cli, name, fail)

    @staticmethod
    def a_file(tmp_path):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        return path

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_sweep_out_dir(self, small_suite, tmp_path, monkeypatch, capsys, below):
        self.forbid(monkeypatch, "run_sweep")
        taken = self.a_file(tmp_path)
        out_dir = taken / "sweep" if below else taken
        assert main(["sweep", "--suite", small_suite, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: output path is not a directory: {taken}\n"
        assert taken.read_text() == "keep\n"

    def test_sample_out(self, small_suite, tmp_path, monkeypatch, capsys):
        self.forbid(monkeypatch, "sample_runs")
        taken = self.a_file(tmp_path)
        prompt = read_suite(small_suite)[0].id
        assert main(sample_args(small_suite, taken, prompt, n_steps=4, frames=8)) == 1
        assert capsys.readouterr().err == f"error: output path is not a directory: {taken}\n"
        assert taken.read_text() == "keep\n"

    def test_report_out(self, tmp_path, monkeypatch, capsys):
        self.forbid(monkeypatch, "read_runs_csv", "emit_report")
        runs = tmp_path / "runs.csv"
        write_runs_csv([], runs)
        taken = self.a_file(tmp_path)
        assert main(["report", "--runs", str(runs), "--out", str(taken)]) == 1
        assert capsys.readouterr().err == f"error: output path is not a directory: {taken}\n"
        assert taken.read_text() == "keep\n"

    def test_report_runs_directory(self, tmp_path, monkeypatch, capsys):
        self.forbid(monkeypatch, "emit_report")
        runs = tmp_path / "runs.csv"
        runs.mkdir()
        out = tmp_path / "report"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read runs file {runs}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_backend_directory(self, small_suite, tmp_path, monkeypatch, capsys, command):
        self.forbid(monkeypatch, "sample_runs")
        backend = tmp_path / "model.ckpt"
        backend.mkdir()
        out = tmp_path / "out"
        if command == "sample":
            argv = sample_args(small_suite, out, read_suite(small_suite)[0].id,
                               mode="block", backend=str(backend))
        else:
            argv = ["sweep", "--suite", small_suite, "--mode", "block_split",
                    "--backend", str(backend), "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load checkpoint: ") and str(backend) in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestOverflowingSigma:
    """A sigma whose square, the data variance, overflows exits 1 before
    any work is done."""

    @pytest.mark.parametrize("command", ["sweep", "sample", "train"])
    def test_exits_1_before_any_work(self, small_suite, tmp_path, monkeypatch, capsys,
                                     command):
        TestPathMistakes.forbid(
            monkeypatch, "run_sweep", "sample_runs", "suite_training_pairs", "train"
        )
        out = tmp_path / "out"
        if command == "sweep":
            argv = ["sweep", "--suite", small_suite, "--sigma", "1e200", "--out-dir", str(out)]
        elif command == "sample":
            argv = sample_args(small_suite, out, read_suite(small_suite)[0].id, sigma="1e200")
        else:
            cfg = tmp_path / "train.json"
            cfg.write_text(json.dumps({"suite": small_suite, "sigma": 1e200}))
            argv = ["train", "--config", str(cfg), "--out", str(out / "model.ckpt")]
            out.mkdir()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: sigma must be >= 0 with a finite square\n"
        assert not out.exists() or list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# entry points

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _console_scripts():
    """The ``[project.scripts]`` table of the repo's ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


class TestEntryPoints:
    def test_module_invocation_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "turnpoint"], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_console_script_help(self):
        # Runs the declared entry point the way the installer's generated
        # wrapper does, so no install is needed.
        target = _console_scripts()["turnpoint"]
        assert target == "turnpoint.cli:main"
        module, attr = target.split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {attr}; sys.exit({attr}())",
             "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "suite" in proc.stdout and "sweep" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("turnpoint") is None,
        reason="turnpoint console script not installed",
    )
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            [shutil.which("turnpoint"), "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "suite" in proc.stdout and "sweep" in proc.stdout
