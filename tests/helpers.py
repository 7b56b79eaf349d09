"""Helpers shared by the test modules."""

import numpy as np


def block_vectors(plan) -> np.ndarray:
    """The condition vector of each block of a block plan, stacked to
    ``(n_blocks, cond_dim)``: the block stack ``neural.forward`` takes."""
    return np.stack([plan.conds[s].vector for s in plan.slots[0]])
