"""The benchmark's workloads: set-up, one timed unit of work, output checks.

Every input is generated from the workload seed.  The package is driven
only through its public functions, looked up at call time so that the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os
import time
from types import SimpleNamespace

import numpy as np

import turnpoint as tp
from turnpoint.worldgen import mixture_data_sampler, suite_training_pairs

__all__ = ["Checks", "Unit", "WORKLOADS", "runs_digest"]

# The `turnpoint sweep` and `turnpoint train` defaults.
FRAMES, SIGMA, W_MIX, N_STEPS = 16, 0.5, 0.5, 50
FULL_GRID = tuple(i / 10 for i in range(11))
TINY_GRID = (0.0, 0.5, 1.0)

# Lower limit on mean ta2 at x=0 minus mean ta2 at x=1 over every row of
# the analytic step sweep.  Fixed from the seed commit, where seeds 0-39
# gave gaps from 0.20 to 0.51 (median 0.35).  HumanIdentity prompts (one
# direction for both events) and mis-scored first-view EgoExo prompts
# pull it below the 0.3 of acceptance criterion 6.  The --tiny size has
# too few rows for this check, so it runs at full size only.
MIN_TA2_GAP = 0.1


@dataclasses.dataclass
class Unit:
    seconds: float
    ops: int
    failed: int


class Checks:
    """Output checks; each one counts as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def runs_digest(path: str) -> str:
    """SHA-256 of ``runs.csv`` with the ``wall_time_ms`` column left out."""
    digest = hashlib.sha256()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, column in enumerate(header) if column != "wall_time_ms"]
        for row in [header, *reader]:
            digest.update(("\x1f".join(row[i] for i in keep) + "\n").encode())
    return digest.hexdigest()


def _prompt_subset(records, rng: np.random.Generator, per_category: int):
    """``per_category`` prompts from each category; EgoExo contributes
    whole first/third-view pairs, so both views are always present."""
    groups: dict[tuple[str, str], list] = {}
    for record in records:
        key = (record.category, record.pair_id or record.id)
        groups.setdefault(key, []).append(record)
    chosen = []
    for category in sorted({category for category, _ in groups}):
        keys = sorted(key for key in groups if key[0] == category)
        for i in sorted(rng.choice(len(keys), size=per_category, replace=False)):
            chosen.extend(groups[keys[i]])
    return chosen


def _cond_width(records) -> int:
    return 3 + 2 * records[0].feature_dim  # one event slot, as `turnpoint train` builds it


def _dim(records) -> int:
    return FRAMES * (2 + 2 * records[0].feature_dim)


def _forward_flops_per_row(model) -> float:
    """Matmul flops (2 per multiply-add) of one forward row, from the shapes."""
    per_block = model.hidden * (model.block_input_dim + model.hidden)
    return 2.0 * (2 * model.dim * model.hidden + model.n_blocks * per_block)


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class SweepWorkload:
    """``run_sweep`` -> ``aggregate`` -> ``emit_report``, as `turnpoint sweep` does."""

    op_name = "runs_per_s"

    def __init__(self, name, mode, repeats, ckpt_steps=0, ta2_gap=False,
                 serial_parallel=False):
        self.name = name
        self.mode = mode
        self.repeats = repeats
        self.ckpt_steps = ckpt_steps  # > 0: sweep through a checkpoint trained in set-up
        self.ta2_gap = ta2_gap
        self.serial_parallel = serial_parallel

    def setup(self, seed: int, workdir: str, tiny: bool):
        records = tp.generate_suite(seed)
        prompts = _prompt_subset(records, np.random.default_rng(seed), 1 if tiny else 2)
        backend = "analytic"
        model = None
        if self.ckpt_steps:
            backend = os.path.join(workdir, "block.ckpt")
            model = tp.init_model(_dim(prompts), cond_width=_cond_width(prompts), seed=seed)
            draw = mixture_data_sampler(suite_training_pairs(prompts, FRAMES, SIGMA, W_MIX))
            cfg = tp.TrainConfig(steps=20 if tiny else self.ckpt_steps, batch_size=32, seed=seed)
            tp.train(model, draw, cfg, tp.build_schedule(N_STEPS))
            tp.save_checkpoint(model, backend)
            model = tp.load_checkpoint(backend)
        cfg = tp.SweepConfig(
            mode=self.mode,
            grid=TINY_GRID if tiny else FULL_GRID,
            backend=backend,
            repeats=1 if tiny else self.repeats,
            base_seed=seed,
            out_dir=os.path.join(workdir, "sweep"),
            workers=1,
            n_steps=N_STEPS,
            frames=FRAMES,
            sigma=SIGMA,
            w_mix=W_MIX,
        )
        return SimpleNamespace(
            cfg=cfg, prompts=prompts, model=model, workdir=workdir, tiny=tiny,
            report_dir=os.path.join(workdir, "report"), records=None, digest=None,
        )

    def unit(self, st) -> Unit:
        start = time.perf_counter()
        records = tp.run_sweep(st.cfg, st.prompts)
        tp.emit_report(tp.aggregate(records), st.report_dir)
        seconds = time.perf_counter() - start
        st.records = records
        return Unit(seconds, len(records), sum(r.error is not None for r in records))

    def check(self, st, checks: Checks) -> None:
        rows = [r for r in st.records if r.metrics is not None]
        finite = all(
            math.isfinite(value)
            for r in rows
            for value in dataclasses.asdict(r.metrics).values()
            if value is not None
        )
        checks.expect("metrics finite", finite and len(rows) == len(st.records),
                      f"{len(st.records) - len(rows)} runs without metrics")
        digest = runs_digest(os.path.join(st.cfg.out_dir, "runs.csv"))
        st.digest = st.digest or digest
        checks.expect("runs.csv identical across sweeps", digest == st.digest)
        if self.ta2_gap and not st.tiny:
            gap = _mean_ta2(rows, 0.0) - _mean_ta2(rows, 1.0)
            checks.expect("ta2 gap", gap >= MIN_TA2_GAP, f"{gap:.4f} < {MIN_TA2_GAP}")

    def finish(self, st, checks: Checks) -> None:
        """Untimed: a small slice swept with two workers must match one worker."""
        if not self.serial_parallel:
            return
        digests = []
        for workers in (1, 2):
            out_dir = os.path.join(st.workdir, f"workers-{workers}")
            cfg = dataclasses.replace(
                st.cfg, grid=TINY_GRID, repeats=1, workers=workers, out_dir=out_dir
            )
            tp.run_sweep(cfg, st.prompts[:4])
            digests.append(runs_digest(os.path.join(out_dir, "runs.csv")))
        checks.expect("serial equals parallel", digests[0] == digests[1])

    def instrument(self, st, tracer) -> None:
        pass

    def flops_per_row(self, st) -> float:
        return 0.0 if st.model is None else _forward_flops_per_row(st.model)

    def bytes_written(self, st) -> float:
        return float(_dir_bytes(st.cfg.out_dir) + _dir_bytes(st.report_dir))


def _mean_ta2(rows, x: float) -> float:
    values = [r.metrics.ta2 for r in rows if r.x == x]
    return sum(values) / len(values) if values else math.nan


class TrainWorkload:
    """``train`` -> ``save_checkpoint`` on the full suite's training mixture."""

    name = "train_denoiser"
    op_name = "train_steps_per_s"
    # The loss trace holds steps 0, 100 and 200.  On seeds 0-19 the loss
    # fell by at least 6% over 200 steps, but by as little as 4% over 100.
    steps = 201

    def setup(self, seed: int, workdir: str, tiny: bool):
        records = tp.generate_suite(seed)
        draw = mixture_data_sampler(suite_training_pairs(records, FRAMES, SIGMA, W_MIX))
        return SimpleNamespace(
            draw=draw,
            sched=tp.build_schedule(N_STEPS),
            cfg=tp.TrainConfig(batch_size=128, steps=self.steps, seed=seed),
            dim=_dim(records),
            cond_width=_cond_width(records),
            seed=seed,
            path=os.path.join(workdir, "train.ckpt"),
            trace=None,
            model=None,
        )

    def unit(self, st) -> Unit:
        model = tp.init_model(st.dim, cond_width=st.cond_width, seed=st.seed)
        start = time.perf_counter()
        model, trace = tp.train(model, st.draw, st.cfg, st.sched)
        tp.save_checkpoint(model, st.path)
        seconds = time.perf_counter() - start
        st.trace, st.model = trace, model
        return Unit(seconds, st.cfg.steps, 0)

    def check(self, st, checks: Checks) -> None:
        losses = [loss for _, loss in st.trace]
        checks.expect(
            "loss falls",
            len(losses) >= 2 and all(map(math.isfinite, losses)) and losses[-1] < losses[0],
            f"loss trace {losses}",
        )
        again = st.path + ".again"
        tp.save_checkpoint(tp.load_checkpoint(st.path), again)
        with open(st.path, "rb") as a, open(again, "rb") as b:
            checks.expect("checkpoint round-trip", a.read() == b.read())

    def finish(self, st, checks: Checks) -> None:
        pass

    def instrument(self, st, tracer) -> None:
        tracer.patch_attr(st, "draw", tracer.wrap("worldgen.data_draw", st.draw))

    def flops_per_row(self, st) -> float:
        return _forward_flops_per_row(st.model)

    def bytes_written(self, st) -> float:
        return 0.0


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("analytic_step_sweep", "step_switch", repeats=3,
                      ta2_gap=True, serial_parallel=True),
        SweepWorkload("checkpoint_block_sweep", "block_split", repeats=1, ckpt_steps=100),
        TrainWorkload(),
    )
}
