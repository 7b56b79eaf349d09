"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import turnpoint
from turnpoint.analytic import GaussianMixture

SRC = str(Path(turnpoint.__file__).resolve().parents[1])


def run_python(code: str, memory_cap: int | None = None) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports this checkout's
    package.  ``memory_cap`` caps its address space in bytes, so a call that
    grows without bound fails fast instead of filling the host's memory."""
    if memory_cap:
        limit = f"resource.setrlimit(resource.RLIMIT_AS, ({memory_cap},) * 2)"
        code = f"import resource\n{limit}\n{code}"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def single_gaussian(mean, variance) -> GaussianMixture:
    """One-component mixture; ``variance`` may be a scalar or a vector."""
    mean = np.asarray(mean, dtype=np.float64).ravel()
    var = np.broadcast_to(np.asarray(variance, dtype=np.float64), mean.shape)
    return GaussianMixture(np.array([1.0]), mean[None, :], var[None, :].copy())


def block_vectors(plan) -> np.ndarray:
    """The condition vector of each block of a block plan, stacked to
    ``(n_blocks, cond_dim)``: the block stack ``neural.forward`` takes."""
    return np.stack([plan.conds[s].vector for s in plan.slots[0]])


def chain_counts(plans, seeds, n_steps: int) -> list[int]:
    """The chains ``diffusion.sample`` keeps at each iteration: rows with
    equal seeds whose conditions agreed at every iteration so far, counted
    row by row from the plans' conditions."""
    prefixes = [(seed,) for seed in seeds]
    counts = []
    for i in range(n_steps):
        prefixes = [
            (*prefix, tuple(plan.conds[s].key() for s in plan.slots[min(i, len(plan.slots) - 1)]))
            for prefix, plan in zip(prefixes, plans)
        ]
        counts.append(len(set(prefixes)))
    return counts
