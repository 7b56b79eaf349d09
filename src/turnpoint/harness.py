"""Sweep harness: enumerate runs over a prompt suite and a ratio grid,
sample them in batches (optionally in parallel), and aggregate the
metrics.

A batch is the runs of ``PROMPTS_PER_BATCH`` consecutive prompts of one
frame dimension.  Its prompts' conditions and mixtures come from one
pair table, and its rows are sampled in one call per backend: a
checkpoint is one backend for the whole batch, and the analytic backend
is built per view, since the two views of an EgoExo pair share their
conditions but not their data.  Every run owns a seed derived by
hashing its prompt, repeat and setting, which its prompt's grid ratios
share, and the batches depend on suite order alone, so results are
independent of worker count and completion order; rows are written in
enumeration order and aggregation sorts before reducing.
"""

from __future__ import annotations

import csv
import json
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .analytic import AnalyticDenoiser
from .conditioning import (
    block_split,
    qualitative_settings,
    step_switch,
)
from .diffusion import NoiseSchedule, build_schedule, sample
from .metrics import MetricsRecord, evaluate
from .neural import CheckpointError, DenoiserModel, NeuralDenoiser, load_checkpoint
from .worldgen import (
    PromptRecord,
    generate_suite,
    read_suite,
    suite_training_pairs,
)

__all__ = [
    "MODES",
    "PROMPTS_PER_BATCH",
    "METRIC_FIELDS",
    "RUNS_CSV_COLUMNS",
    "ConfigurationError",
    "SweepConfig",
    "RunRecord",
    "AggregateRow",
    "CsvRows",
    "fnv1a64",
    "derive_seed",
    "load_config",
    "load_sweep_config",
    "read_suite_checked",
    "load_suite",
    "open_checkpoint",
    "backend_for_record",
    "sample_runs",
    "score_runs",
    "run_sweep",
    "write_runs_csv",
    "read_runs_csv",
    "aggregate",
]

MODES = ("step_switch", "block_split", "qualitative")
# Prompts sampled together in one batch.  Not a setting: a checkpoint
# sweep's rows depend on it in the last bits.  Analytic rows do not, as
# the analytic backend scores every row on its own.
PROMPTS_PER_BATCH = 16
METRIC_FIELDS = ("ta1", "ta2", "ta_mean", "ic", "bc", "turning_frame", "occupancy2")
RUNS_CSV_COLUMNS = (
    "run_id",
    "mode",
    "category",
    "prompt_id",
    "view",
    "x",
    "setting",
    "seed",
    "ta1",
    "ta2",
    "ta_mean",
    "ic",
    "bc",
    "turning_frame",
    "occupancy2",
    "wall_time_ms",
)


class ConfigurationError(ValueError):
    """Bad sweep/training configuration or startup input."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def derive_seed(
    base_seed: int, prompt_id: str, repeat_index: int, setting_index: int = 0
) -> int:
    """Stable per-run sampler seed.

    FNV-1a over the canonical byte string
    ``"{base_seed}|{prompt_id}|{repeat_index}|{setting_index}"`` (UTF-8);
    ``setting_index`` is 0 outside qualitative mode.  The grid ratio is not
    part of the key, so a prompt's runs at different ratios share their
    noise.
    """
    key = f"{base_seed}|{prompt_id}|{repeat_index}|{setting_index}"
    return fnv1a64(key.encode("utf-8"))


def _default_grid() -> tuple[float, ...]:
    return tuple(i / 10 for i in range(11))


_COUNT_FIELDS = ("suite_seed", "repeats", "base_seed", "workers", "n_steps", "frames")


def _count(name: str, value) -> int:
    """``value`` as an int; an integral float such as 16.0 reads as 16."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """``value``, refused unless it is a number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    mode: str = "step_switch"
    grid: tuple[float, ...] = field(default_factory=_default_grid)
    backend: str = "analytic"  # "analytic" or a checkpoint path
    suite: str | None = None  # suite file wins over suite_seed
    suite_seed: int = 0
    repeats: int = 3
    base_seed: int = 0
    out_dir: str = "sweep-out"
    workers: int = 1
    n_steps: int = 50
    guidance_scale: float = 1.0
    frames: int = 16
    sigma: float = 0.5
    w_mix: float = 0.5
    beta_min: float = 1e-4
    beta_max: float = 0.02
    # the schedule every run of this config samples with, built from
    # n_steps, beta_min and beta_max
    noise_schedule: NoiseSchedule = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            if isinstance(self.grid, str):  # would read as one ratio per character
                raise TypeError
            object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        except (TypeError, ValueError):
            raise ConfigurationError(f"grid must be a list of ratios, got {self.grid!r}") from None
        for name in _COUNT_FIELDS:
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("guidance_scale", "sigma", "w_mix"):  # the betas: with the schedule
            _real(name, getattr(self, name))
        for name in ("backend", "suite", "out_dir"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value) and not (name == "suite" and value is None):
                raise ConfigurationError(f"{name} must be a non-empty path string, got {value!r}")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.grid:
            raise ConfigurationError("grid must contain at least one ratio")
        for x in self.grid:
            if not (np.isfinite(x) and 0.0 <= x <= 1.0):
                raise ConfigurationError(f"grid ratios must lie in [0, 1], got {x}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigurationError("grid ratios must increase strictly")
        if self.suite_seed < 0:
            raise ConfigurationError("suite_seed must be non-negative")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be at least 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.mode == "block_split" and self.backend == "analytic":
            raise ConfigurationError(
                "block_split mode needs a block-structured (checkpoint) backend"
            )
        if not (np.isfinite(self.guidance_scale) and self.guidance_scale >= 0.0):
            raise ConfigurationError("guidance_scale must be finite and >= 0")
        if self.guidance_scale != 1.0 and self.backend == "analytic":
            raise ConfigurationError(
                "guidance_scale other than 1 needs a checkpoint backend: the "
                "analytic backend has no unconditioned distribution"
            )
        if self.frames < 4:
            raise ConfigurationError("frames must be at least 4 for the metrics")
        # the data variance is sigma squared, which must not overflow
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma * self.sigma)):
            raise ConfigurationError("sigma must be >= 0 with a finite square")
        if not np.isfinite(self.w_mix):  # a finite w_mix is clamped by worldgen
            raise ConfigurationError("w_mix must be finite")
        try:
            betas = (_real(name, getattr(self, name)) for name in ("beta_min", "beta_max"))
            sched = build_schedule(self.n_steps, *betas)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid noise schedule: {exc}") from exc
        object.__setattr__(self, "noise_schedule", sched)


_SWEEP_KEYS = {f.name for f in fields(SweepConfig) if f.init}


def load_config(path: str | None, keys, **overrides) -> dict:
    """Read a flat JSON config object and apply ``overrides`` on top.

    ``None``-valued overrides are ignored so CLI flags can pass through;
    keys outside ``keys`` are rejected.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a key-value object")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return data


def load_sweep_config(path: str | None = None, **overrides) -> SweepConfig:
    """Build a :class:`SweepConfig` from a JSON file plus overrides; the
    file's keys mirror the dataclass fields."""
    try:
        return SweepConfig(**load_config(path, _SWEEP_KEYS, **overrides))
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


class RunRecord(NamedTuple):
    """One run of a sweep.  :func:`_plan_jobs` plans it with the defaults
    below, and :func:`_execute_batch` fills in its outcome.  A tuple: one
    is built per run, and tuples build fastest."""

    run_id: str
    mode: str
    category: str
    prompt_id: str
    view: str
    x: float
    setting: int | None  # the qualitative setting (1-4); None in the other modes
    seed: int
    metrics: MetricsRecord | None = None
    wall_time_ms: int = 0
    error: str | None = None  # kept programmatic; the CSV schema has no status column


_metric_values = attrgetter(*METRIC_FIELDS)

_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_text(text: str) -> str:
    """``text`` as a csv cell, as ``csv.writer`` writes it under
    ``QUOTE_MINIMAL``: in double quotes, with its own doubled, when it
    holds a comma, a double quote, CR or LF."""
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


class CsvRows(dict):
    """The csv lines of a ``runs.csv`` or ``aggregates.csv`` file, with the
    bytes ``csv.writer`` writes for the same cells: a float as its
    ``repr``, an int as its ``str``, None as an empty cell and a string
    quoted under ``QUOTE_MINIMAL``.  The instance maps each distinct mode,
    category, prompt id and view to its cell, encoded once; a run id,
    distinct per run, is encoded with its row."""

    def __missing__(self, text: str) -> str:
        cell = self[text] = _csv_text(text)
        return cell

    @staticmethod
    def header(columns) -> str:
        return ",".join(map(_csv_text, columns)) + "\r\n"

    def run_line(self, rec: RunRecord) -> str:
        m, setting = rec.metrics, rec.setting
        if m is None:
            metrics = "," * (len(METRIC_FIELDS) - 1)
        else:
            frame = m.turning_frame
            metrics = (
                f"{m.ta1!r},{m.ta2!r},{m.ta_mean!r},{m.ic!r},{m.bc!r},"
                f"{'' if frame is None else frame},{m.occupancy2!r}"
            )
        return (
            f"{_csv_text(rec.run_id)},{self[rec.mode]},{self[rec.category]},"
            f"{self[rec.prompt_id]},{self[rec.view]},{rec.x!r},"
            f"{'' if setting is None else setting},{rec.seed},{metrics},{rec.wall_time_ms}\r\n"
        )

    def aggregate_line(self, row: AggregateRow) -> str:
        setting = row.setting
        stats = ",".join([
            "," if pair is None else f"{pair[0]!r},{pair[1]!r}"
            for pair in map(row.stats.get, METRIC_FIELDS)
        ])
        return (
            f"{self[row.mode]},{self[row.category]},{row.x!r},"
            f"{'' if setting is None else setting},{row.n},{stats}\r\n"
        )


def write_runs_csv(records, path) -> None:
    """Write ``records`` to ``path`` as ``runs.csv``, each row as soon as
    the iterable yields its record."""
    rows = CsvRows()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows.header(RUNS_CSV_COLUMNS))
        fh.writelines(map(rows.run_line, records))


def read_runs_csv(path) -> list[RunRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RUNS_CSV_COLUMNS):
            raise ValueError(f"unexpected runs.csv header in {path}")
        for row in reader:
            if len(row) != len(RUNS_CSV_COLUMNS):
                raise ValueError(f"malformed runs.csv row in {path}: {row}")
            metrics = None
            if "" not in row[8:13]:
                metrics = MetricsRecord(
                    *map(float, row[8:13]), int(row[13]) if row[13] else None, float(row[14])
                )
            records.append(RunRecord(
                *row[:5], float(row[5]), int(row[6]) if row[6] else None, int(row[7]),
                metrics, int(row[15]),
            ))
    return records


def read_suite_checked(path: str) -> list[PromptRecord]:
    """``read_suite`` with a missing, unreadable or malformed file reported
    as a :class:`ConfigurationError`."""
    if not os.path.exists(path):
        raise ConfigurationError(f"suite file not found: {path}")
    try:
        return read_suite(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read suite file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def load_suite(cfg: SweepConfig, records=None) -> list[PromptRecord]:
    """The prompt suite a sweep or a training run of ``cfg`` uses:
    ``records`` if given, else ``cfg.suite``'s file if set, else the suite
    generated from ``cfg.suite_seed``.  An empty suite or one with
    duplicate ids is a :class:`ConfigurationError`."""
    if records is None:
        if cfg.suite is not None:
            records = read_suite_checked(cfg.suite)
        else:
            records = generate_suite(cfg.suite_seed)
    records = list(records)
    if not records:
        raise ConfigurationError("the prompt suite is empty")
    if len({r.id for r in records}) != len(records):
        raise ConfigurationError("the prompt suite contains duplicate ids")
    return records


def backend_for_record(pairs, sched: NoiseSchedule, dim: int) -> AnalyticDenoiser:
    """Analytic backend of ``dim``-feature latents with ``pairs``,
    (condition, mixture) pairs of
    :func:`~turnpoint.worldgen.suite_training_pairs`, registered.  The
    pairs belong to one view: the two views of an EgoExo pair share their
    conditions but not their mixtures, which the backend refuses to hold
    at once."""
    backend = AnalyticDenoiser(sched, dim)
    for cond, mixture in pairs:
        backend.register(cond, mixture)
    return backend


def open_checkpoint(path: str, records, frames: int | None) -> DenoiserModel:
    """Load the checkpoint at ``path`` and check that it can denoise
    ``records``: one feature dimension across the suite, the matching
    condition width, and a dimension of ``frames`` frames, or of whole
    frames when ``frames`` is None."""
    if not os.path.exists(path):
        raise ConfigurationError(f"checkpoint not found: {path}")
    try:
        model = load_checkpoint(path)
    except (CheckpointError, OSError) as exc:
        raise ConfigurationError(f"cannot load checkpoint: {exc}") from exc
    feature_dims = sorted({r.feature_dim for r in records})
    if len(feature_dims) != 1:
        raise ConfigurationError(
            f"a checkpoint needs one feature dimension, the suite has {feature_dims}"
        )
    record = records[0]
    if model.cond_width != record.cond_width:
        raise ConfigurationError(
            f"checkpoint condition width {model.cond_width} does not match "
            f"{record.cond_width} for feature dimension {record.feature_dim}"
        )
    if model.dim % record.frame_dim != 0:
        raise ConfigurationError(
            f"checkpoint dimension {model.dim} is not a multiple of the "
            f"frame dimension {record.frame_dim}"
        )
    if frames is not None and model.dim != frames * record.frame_dim:
        raise ConfigurationError(
            f"checkpoint dimension {model.dim} does not match "
            f"{frames} x {record.frame_dim} trajectories"
        )
    return model


def sample_runs(cfg: SweepConfig, model, runs, records_by_id) -> np.ndarray:
    """Sample the trajectories of ``runs``, planned runs whose prompts,
    looked up in ``records_by_id``, share one frame dimension, as
    ``cfg.mode`` prescribes, in one call per backend: ``model`` or, when
    it is None, the analytic backend of each view's prompts.

    The prompts' conditions, and the analytic backends' mixtures, come
    from one :func:`~turnpoint.worldgen.suite_training_pairs` call; a
    run's ``setting`` picks the qualitative schedule (1-4).  Returns an
    array of shape ``(len(runs), cfg.frames, frame_dim)`` in the order of
    ``runs``.
    """
    records = {run.prompt_id: records_by_id[run.prompt_id] for run in runs}
    first = next(iter(records.values()))
    if any(record.frame_dim != first.frame_dim for record in records.values()):
        raise ValueError("a batch samples prompts of one frame dimension")
    pairs = suite_training_pairs(records.values(), cfg.frames, cfg.sigma, cfg.w_mix)
    conds, view_pairs = {}, {}
    for i, (prompt, record) in enumerate(records.items()):
        own = pairs[3 * i : 3 * i + 3]  # the event-1, event-2 and concat pairs
        conds[prompt] = [cond for cond, _ in own]
        view_pairs.setdefault(record.view, []).extend(own)

    def plans_at(prompt, x) -> list:
        single1, single2, both = conds[prompt]
        if cfg.mode == "step_switch":
            return [step_switch(x, cfg.n_steps, single1, single2)]
        if cfg.mode == "block_split":
            return [block_split(x, model.n_blocks, single1, single2)]
        return qualitative_settings(x, single1, single2, both, cfg.n_steps)

    keys = dict.fromkeys((run.prompt_id, run.x) for run in runs)
    by_key = {key: plans_at(*key) for key in keys}
    conditioning = [
        by_key[run.prompt_id, run.x][0 if run.setting is None else run.setting - 1]
        for run in runs
    ]
    sched, dim = cfg.noise_schedule, cfg.frames * first.frame_dim
    if model is None:
        backends = {view: backend_for_record(own, sched, dim)
                    for view, own in view_pairs.items()}
    else:  # one checkpoint denoises every view
        backends = dict.fromkeys(view_pairs, NeuralDenoiser(model, sched))
    groups: dict = {}
    for row, run in enumerate(runs):
        groups.setdefault(backends[run.view], []).append(row)
    latents = np.empty((len(runs), dim))
    for backend, rows in groups.items():
        latents[rows] = sample(
            backend, [conditioning[r] for r in rows], [runs[r].seed for r in rows],
            cfg.guidance_scale,
        )
    return latents.reshape(len(runs), cfg.frames, first.frame_dim)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def score_runs(trajs, records) -> list:
    """The metrics of each sampled trajectory of ``trajs`` against its
    prompt in ``records``, or the error that fails its run: a non-finite
    trajectory fails with ``FloatingPointError``, and the finite rows are
    scored in one ``evaluate`` call, or row by row when that call raises."""
    finite = np.isfinite(trajs).all(axis=(1, 2))
    scored = [FloatingPointError("the sampled trajectory is not finite")] * len(records)
    rows = np.flatnonzero(finite).tolist()
    if not rows:
        return scored
    try:
        e1s, e2s = zip(*(records[r].events for r in rows))
        batch = evaluate(trajs[rows], e1s, e2s)
    except Exception:  # rescored alone, so an error fails only its own run
        batch = []
        for r in rows:
            try:
                batch.append(evaluate(trajs[r], *records[r].events))
            except Exception as exc:
                batch.append(exc)
    for r, result in zip(rows, batch):
        scored[r] = result
    return scored


def _execute_batch(runs, cfg: SweepConfig, records_by_id, model) -> list[RunRecord]:
    """Sample and score ``runs``, the planned runs of a group of prompts,
    as one batch, and return them filled in.

    An error while sampling fails every run of the batch; an error while
    scoring fails only its own run, each scored against its own prompt.
    A run's wall time is its share of the batch's sampling time plus its
    share of the batch's scoring time.
    """
    start = time.perf_counter()
    try:
        trajs = sample_runs(cfg, model, runs, records_by_id)
    except Exception as exc:  # failed runs are recorded, not fatal
        scored = [exc] * len(runs)
    else:
        scored = score_runs(trajs, [records_by_id[run.prompt_id] for run in runs])
    wall_ms = int(round((time.perf_counter() - start) / len(runs) * 1000.0))
    return [
        run._replace(error=_error(result), wall_time_ms=wall_ms)
        if isinstance(result, Exception)
        else run._replace(metrics=result, wall_time_ms=wall_ms)
        for run, result in zip(runs, scored)
    ]


_WORKER_STATE: tuple | None = None


def _init_worker(*state) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_in_worker(runs) -> list[RunRecord]:
    return _execute_batch(runs, *_WORKER_STATE)


def _plan_jobs(cfg: SweepConfig, records) -> list[RunRecord]:
    """The runs of ``records`` in enumeration order, each seeded with
    :func:`derive_seed` once per (prompt, repeat, setting), a seed that
    serves every ratio of the grid."""
    settings = (1, 2, 3, 4) if cfg.mode == "qualitative" else (None,)
    draws = [(repeat, setting) for repeat in range(cfg.repeats) for setting in settings]
    runs = []
    for record in records:
        seeds = [
            derive_seed(cfg.base_seed, record.id, repeat, setting or 0)
            for repeat, setting in draws
        ]
        for x_index, x in enumerate(cfg.grid):
            for (repeat, setting), seed in zip(draws, seeds):
                run_id = f"{cfg.mode}-{record.id}-x{x_index:02d}-r{repeat}"
                if setting is not None:
                    run_id += f"-s{setting}"
                runs.append(RunRecord(
                    run_id, cfg.mode, record.category, record.id, record.view, x, setting, seed
                ))
    return runs


def _prompt_groups(records):
    """Runs of up to ``PROMPTS_PER_BATCH`` consecutive records that share
    one frame dimension."""
    group: list[PromptRecord] = []
    for record in records:
        if group and (
            len(group) == PROMPTS_PER_BATCH or record.frame_dim != group[0].frame_dim
        ):
            yield group
            group = []
        group.append(record)
    yield group


def run_sweep(cfg: SweepConfig, records=None) -> list[RunRecord]:
    """Execute the sweep and stream ``runs.csv`` under ``cfg.out_dir``.

    A batch, sampled in one worker, is the runs of up to
    ``PROMPTS_PER_BATCH`` consecutive prompts of one frame dimension.
    Returns the run records in enumeration order (prompt,
    then ratio, then repeat, then setting), which is also the CSV row
    order regardless of worker count.
    """
    records = load_suite(cfg, records)
    records_by_id = {r.id: r for r in records}
    model = None
    if cfg.backend != "analytic":
        model = open_checkpoint(cfg.backend, records, cfg.frames)

    batches = (_plan_jobs(cfg, group) for group in _prompt_groups(records))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "runs.csv")
    results: list[RunRecord] = []

    def kept(done):  # each batch's records, kept for the return value as written
        for batch in done:
            results.extend(batch)
            yield from batch

    if cfg.workers == 1:
        done = (_execute_batch(runs, cfg, records_by_id, model) for runs in batches)
        write_runs_csv(kept(done), out_path)
    else:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=_init_worker,
            initargs=(cfg, records_by_id, model),
        ) as pool:
            # map() yields in submission order, keeping output deterministic
            write_runs_csv(kept(pool.map(_run_in_worker, batches)), out_path)
    return results


@dataclass(frozen=True)
class AggregateRow:
    mode: str
    category: str
    x: float
    setting: int | None
    n: int
    stats: dict[str, tuple[float, float] | None]  # metric -> (mean, population std)


def aggregate(records) -> list[AggregateRow]:
    """Mean and population std per (mode, category, x, setting).

    Rows within a group are sorted by run id before reducing, so output
    is identical under any input permutation; failed runs are skipped, and
    so is a ``None`` value (a turning frame that was not found).  The value
    lists of one length, over every group and metric, are stacked and
    reduced in one ``mean``/``std`` call per length; numpy reduces each
    row of that array as it would the list alone, so every stat has the
    bits of its own group's reduction.
    """
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        if rec.metrics is None:
            continue
        key = (rec.mode, rec.category, rec.x, rec.setting)
        groups.setdefault(key, []).append(rec)
    rows = []
    by_length: dict[int, tuple[list, list]] = {}
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3] if k[3] is not None else -1)):
        members = sorted(groups[key], key=lambda r: r.run_id)
        stats: dict[str, tuple[float, float] | None] = dict.fromkeys(METRIC_FIELDS)
        for metric, column in zip(METRIC_FIELDS, zip(*(_metric_values(r.metrics) for r in members))):
            values = [v for v in column if v is not None]
            if values:
                slots, lists = by_length.setdefault(len(values), ([], []))
                slots.append((stats, metric))
                lists.append(values)
        mode, category, x, setting = key
        rows.append(AggregateRow(mode, category, x, setting, len(members), stats))
    for slots, lists in by_length.values():
        arr = np.array(lists, dtype=np.float64)
        for (stats, metric), mean, std in zip(
            slots, arr.mean(axis=1).tolist(), arr.std(axis=1).tolist()
        ):
            stats[metric] = (mean, std)
    return rows
