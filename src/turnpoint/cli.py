"""Command-line entry points.

Subcommands: ``suite gen`` / ``suite validate``, ``train``, ``sample``,
``sweep`` and ``report``.  Exit codes: 0 on success, 1 on usage or
configuration errors (including invalid suites), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from .harness import (
    ConfigurationError,
    RunRecord,
    SweepConfig,
    _count,
    _real,
    aggregate,
    load_config,
    load_suite,
    load_sweep_config,
    open_checkpoint,
    read_runs_csv,
    read_suite_checked,
    run_sweep,
    sample_runs,
    score_runs,
)
from .neural import TrainConfig, init_model, save_checkpoint, train
from .report import emit_report
from .worldgen import (
    generate_suite,
    mixture_data_sampler,
    suite_training_pairs,
    validate_suite,
    write_suite,
)

__all__ = ["main", "build_parser"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2 for
    runtime failures, so route usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"ratio must lie in [0, 1], got {text}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:  # numpy generators take non-negative seeds only
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text}")
    return value


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated numbers, got {text!r}")


def _require_directory_of(path: str, what: str) -> None:
    """Fail at startup unless ``path`` can be written as a file: its
    directory exists and the path itself is not a directory."""
    if os.path.isdir(path):
        raise ConfigurationError(f"{what} path is a directory: {path}")
    directory = os.path.dirname(path)
    if not os.path.isdir(directory or "."):
        raise ConfigurationError(f"{what} directory not found: {directory}")


def _require_directory(path: str, what: str) -> None:
    """Fail at startup unless ``path`` is a directory or can be made one:
    the nearest of it and its ancestors that exists is a directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigurationError(f"{what} path is not a directory: {existing}")


# ---------------------------------------------------------------------------
# suite gen / suite validate

def _cmd_suite_gen(args) -> int:
    _require_directory_of(args.out, "output")
    records = generate_suite(args.seed)
    report = validate_suite(records, strict_counts=args.strict_table1)
    if not report.ok:  # would mean the generator itself is broken
        for line in report.lines():
            print(line, file=sys.stderr)
        return 2
    write_suite(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_suite_validate(args) -> int:
    if not os.path.exists(args.file):
        raise ConfigurationError(f"suite file not found: {args.file}")
    try:
        report = validate_suite(args.file, strict_counts=args.strict_table1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read suite file {args.file}: {exc}") from exc
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# train

# `train` config keys.  The data keys are the SweepConfig fields that a
# sweep through the checkpoint must match, so they take SweepConfig's
# defaults; the model keys take init_model's and the optimizer keys
# TrainConfig's.
_TRAIN_DATA_KEYS = ("suite", "suite_seed", "frames", "sigma", "w_mix", "beta_min", "beta_max")
_TRAIN_MODEL_KEYS = ("hidden", "n_blocks", "t_emb_dim")
_TRAIN_OPTIMIZER_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))
_TRAIN_KEYS = {
    *_TRAIN_DATA_KEYS, "diffusion_steps", *_TRAIN_MODEL_KEYS, "init_seed", *_TRAIN_OPTIMIZER_KEYS
}
# read as sweep counts and reals are (harness._count, _real): a count of
# 16.0 reads as 16, and 6.5 or true exits 1, as a real true or "a" does
_TRAIN_COUNT_KEYS = (
    "frames", "diffusion_steps", "hidden", "n_blocks", "t_emb_dim", "init_seed",
    "batch_size", "steps", "seed",
)
_TRAIN_REAL_KEYS = ("learning_rate", "beta1", "beta2", "eps", "ema_decay")


def _cmd_train(args) -> int:
    config = load_config(args.config, _TRAIN_KEYS)
    _require_directory_of(args.out, "checkpoint")
    log_path = os.path.join(os.path.dirname(args.out), "train_log.json")
    _require_directory_of(log_path, "training log")

    def given(keys) -> dict:
        return {key: config[key] for key in keys if key in config}

    try:
        config.update({key: _count(key, config[key]) for key in _TRAIN_COUNT_KEYS if key in config})
        for key in _TRAIN_REAL_KEYS:
            if key in config and not (key == "ema_decay" and config[key] is None):  # no EMA
                _real(key, config[key])
        steps = config.get("diffusion_steps", SweepConfig.n_steps)
        data = SweepConfig(n_steps=steps, **given(_TRAIN_DATA_KEYS))
        records = load_suite(data)
        sampler = mixture_data_sampler(
            suite_training_pairs(records, data.frames, data.sigma, data.w_mix)
        )
        model = init_model(
            data.frames * records[0].frame_dim,
            cond_width=records[0].cond_width,
            seed=config.get("init_seed", 0),
            **given(_TRAIN_MODEL_KEYS),
        )
        train_cfg = TrainConfig(**given(_TRAIN_OPTIMIZER_KEYS))
    except (TypeError, ValueError, OverflowError) as exc:  # a real of 10**400 overflows
        raise ConfigurationError(str(exc)) from exc

    start = time.perf_counter()
    grad_norms: list[float] = []
    timings: dict[str, float] = {}
    model, trace = train(model, sampler, train_cfg, data.noise_schedule,
                         grad_norms=grad_norms, timings=timings)
    seconds = time.perf_counter() - start
    save_checkpoint(model, args.out)
    steps_per_s = train_cfg.steps / seconds
    log = {
        "steps": train_cfg.steps,
        "train_s": seconds,
        "steps_per_s": steps_per_s,
        **timings,
        "trace": [[step, loss, norm] for (step, loss), norm in zip(trace, grad_norms)],
    }
    with open(log_path, "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=2, sort_keys=True)
    summary = f"trained {train_cfg.steps} steps in {seconds:.1f} s ({steps_per_s:.1f} steps/s)"
    if trace:
        summary += f": loss {trace[0][1]:.4f} -> {trace[-1][1]:.4f}"
    print(summary)
    print(f"wrote checkpoint to {args.out} and {log_path}")
    return 0


# ---------------------------------------------------------------------------
# sample

def _write_trajectory_csv(path: str, traj) -> None:
    n_frames, frame_dim = traj.shape
    d = (frame_dim - 2) // 2
    header = (
        ["frame", "pos_x", "pos_y"]
        + [f"identity_{i}" for i in range(d)]
        + [f"background_{i}" for i in range(d)]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for m in range(n_frames):
            writer.writerow([m] + [repr(float(v)) for v in traj[m]])


_SAMPLE_MODES = {"step": "step_switch", "block": "block_split"}


def _cmd_sample(args) -> int:
    _require_directory(args.out, "output")
    records = read_suite_checked(args.suite)
    record = next((r for r in records if r.id == args.prompt_id), None)
    if record is None:
        raise ConfigurationError(f"prompt id {args.prompt_id!r} not in {args.suite}")

    model = None
    frames = args.frames
    if args.backend != "analytic":
        model = open_checkpoint(args.backend, records, frames)
        if frames is None:
            frames = model.dim // record.frame_dim
    cfg = load_sweep_config(
        mode=_SAMPLE_MODES[args.mode],
        grid=(args.x,),
        backend=args.backend,
        n_steps=args.n_steps,
        frames=frames,
        sigma=args.sigma,
        w_mix=args.w_mix,
    )
    run = RunRecord(f"{cfg.mode}-{record.id}", cfg.mode, record.category, record.id,
                    record.view, args.x, None, args.seed)
    trajs = sample_runs(cfg, model, [run], {record.id: record})
    (metrics,) = score_runs(trajs, [record])
    if isinstance(metrics, Exception):
        raise metrics

    os.makedirs(args.out, exist_ok=True)
    _write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), trajs[0])
    payload = {
        "prompt_id": record.id,
        "category": record.category,
        "view": record.view,
        "mode": args.mode,
        "x": args.x,
        "backend": args.backend,
        "seed": args.seed,
        "n_steps": cfg.n_steps,
        "frames": cfg.frames,
        "metrics": dataclasses.asdict(metrics),
    }
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote trajectory.csv and metrics.json to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep / report

def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(
        args.config,
        mode=args.mode,
        grid=args.grid,
        backend=args.backend,
        suite=args.suite,
        suite_seed=args.suite_seed,
        repeats=args.repeats,
        base_seed=args.base_seed,
        out_dir=args.out_dir,
        workers=args.workers,
        n_steps=args.n_steps,
        frames=args.frames,
        sigma=args.sigma,
        w_mix=args.w_mix,
        guidance_scale=args.guidance_scale,
    )
    _require_directory(cfg.out_dir, "output")
    records = run_sweep(cfg)
    emit_report(aggregate(records), cfg.out_dir)
    failed = sum(1 for r in records if r.metrics is None)
    note = f" ({failed} failed)" if failed else ""
    print(f"{len(records)} runs{note}; results in {cfg.out_dir}")
    if failed == len(records):
        print(f"error: every run failed; the first: {records[0].error}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    if not os.path.exists(args.runs):
        raise ConfigurationError(f"runs file not found: {args.runs}")
    _require_directory(args.out, "output")
    try:
        records = read_runs_csv(args.runs)
    except OSError as exc:
        raise ConfigurationError(f"cannot read runs file {args.runs}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    emit_report(aggregate(records), args.out)
    print(f"report for {len(records)} runs written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="turnpoint",
        description="Conditional-diffusion probing workbench for dual-event prompts.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    suite = sub.add_parser("suite", help="generate or validate prompt suites")
    suite_sub = suite.add_subparsers(dest="suite_command", metavar="ACTION")

    gen = suite_sub.add_parser("gen", help="generate a suite file")
    gen.add_argument("--seed", type=_seed, required=True, help="generation seed")
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument(
        "--strict-table1",
        action="store_true",
        help="also pin the fixed per-category counts",
    )
    gen.set_defaults(func=_cmd_suite_gen)

    val = suite_sub.add_parser("validate", help="validate a suite file")
    val.add_argument("file", help="suite JSONL path")
    val.add_argument(
        "--strict-table1",
        action="store_true",
        help="also pin the fixed per-category counts",
    )
    val.set_defaults(func=_cmd_suite_validate)

    tr = sub.add_parser("train", help="train a denoiser and save a checkpoint")
    tr.add_argument("--config", required=True, help="JSON training config")
    tr.add_argument(
        "--out", required=True,
        help="checkpoint output path; train_log.json is written beside it",
    )
    tr.set_defaults(func=_cmd_train)

    sm = sub.add_parser("sample", help="sample one trajectory for a prompt")
    sm.add_argument("--prompt-id", required=True, help="record id inside the suite")
    sm.add_argument("--suite", required=True, help="suite JSONL path")
    sm.add_argument("--mode", choices=("step", "block"), required=True)
    sm.add_argument("--x", type=_ratio, required=True, help="split ratio in [0, 1]")
    sm.add_argument(
        "--backend",
        required=True,
        help="'analytic' or a checkpoint path",
    )
    sm.add_argument("--seed", type=_seed, required=True, help="sampler seed")
    sm.add_argument("--out", required=True, help="output directory")
    sm.add_argument("--n-steps", type=int, help="denoising steps")
    sm.add_argument(
        "--frames", type=int,
        help="frames per trajectory; a checkpoint backend's count by default, and it must match",
    )
    sm.add_argument("--sigma", type=float, help="data noise scale")
    sm.add_argument("--w-mix", type=float, help="concat mixture weight")
    sm.set_defaults(func=_cmd_sample)

    sw = sub.add_parser("sweep", help="run a sweep and write runs.csv plus a report")
    sw.add_argument("--config", help="JSON sweep config; flags override")
    sw.add_argument("--mode", choices=("step_switch", "block_split", "qualitative"))
    sw.add_argument("--grid", type=_grid, help="comma-separated split ratios")
    sw.add_argument("--backend", help="'analytic' or a checkpoint path")
    sw.add_argument("--suite", help="suite JSONL path")
    sw.add_argument("--suite-seed", type=_seed, help="seed when generating the suite")
    sw.add_argument("--repeats", type=int, help="repeats per (prompt, ratio)")
    sw.add_argument("--base-seed", type=int, help="base seed for run-seed derivation")
    sw.add_argument("--out-dir", help="output directory")
    sw.add_argument("--workers", type=int, help="parallel worker processes")
    sw.add_argument("--n-steps", type=int, help="denoising steps")
    sw.add_argument("--frames", type=int, help="frames per trajectory")
    sw.add_argument("--sigma", type=float, help="data noise scale")
    sw.add_argument("--w-mix", type=float, help="concat mixture weight")
    sw.add_argument("--guidance-scale", type=float, help="guidance strength")
    sw.set_defaults(func=_cmd_sweep)

    rp = sub.add_parser("report", help="aggregate a runs.csv into charts and a summary")
    rp.add_argument("--runs", required=True, help="runs.csv path")
    rp.add_argument("--out", required=True, help="output directory")
    rp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
