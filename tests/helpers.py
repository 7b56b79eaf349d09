"""Helpers shared by the test modules."""

import numpy as np

from turnpoint.analytic import GaussianMixture


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
