"""Event-condition embeddings and the two conditioning probes.

A condition is a fixed-width vector ``[slot1; slot2; flag1; flag2]``: two
event slots plus presence flags, with absent slots pinned to zero.  The
probes map a split ratio ``x`` onto conditioning over *time* (a step
schedule: which condition drives each denoising iteration) or over
*depth* (a block assignment: which condition each denoiser block sees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "ConditionEmbedding",
    "StepSchedule",
    "BlockAssignment",
    "compose_single",
    "compose_concat",
    "unconditioned",
    "constant_schedule",
    "step_switch",
    "condition_at",
    "block_split",
    "uniform_blocks",
    "qualitative_settings",
    "floor_index",
]


def floor_index(x: float, n: int) -> int:
    """Exact ``floor(x * n)`` for split ratios that are decimal literals.

    Grid ratios like 0.7 are decimals, but the float product ``0.7 * 50``
    lands just below 35 and would floor to 34.  Routing through the
    shortest-repr rational of ``x`` yields the mathematically intended
    index for every decimal grid value.
    """
    if not (0.0 <= float(x) <= 1.0):
        raise ValueError(f"split ratio must lie in [0, 1], got {x}")
    return math.floor(Fraction(str(float(x))) * n)


def _as_slot(values, width: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"condition slot must be a 1-d vector, got shape {arr.shape}")
    if width is not None and arr.shape[0] != width:
        raise ValueError(f"condition slot has dimension {arr.shape[0]}, expected {width}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("condition slot contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ConditionEmbedding:
    """Two event slots with presence flags; an absent slot is all-zero."""

    slot1: np.ndarray
    slot2: np.ndarray
    flag1: int
    flag2: int

    def __post_init__(self):
        if self.slot1.shape != self.slot2.shape:
            raise ValueError("condition slots differ in dimension")
        for flag, slot, name in (
            (self.flag1, self.slot1, "slot1"),
            (self.flag2, self.slot2, "slot2"),
        ):
            if flag not in (0, 1):
                raise ValueError(f"presence flags must be 0 or 1, got {flag}")
            if flag == 0 and np.any(slot != 0.0):
                raise ValueError(f"{name} must be all-zero when its flag is 0")

    @property
    def width(self) -> int:
        """Dimension of one event slot."""
        return self.slot1.shape[0]

    @property
    def vector(self) -> np.ndarray:
        """Full conditioning vector ``[slot1; slot2; flag1; flag2]``."""
        return np.concatenate(
            [self.slot1, self.slot2, [float(self.flag1), float(self.flag2)]]
        )

    def key(self) -> bytes:
        """Byte key for exact-value lookup and equality."""
        return self.vector.tobytes()

    def __eq__(self, other):
        if not isinstance(other, ConditionEmbedding):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):  # keep debug output short; slots can be long
        return (
            f"ConditionEmbedding(width={self.width}, "
            f"flags=({self.flag1}, {self.flag2}))"
        )


def compose_single(event: np.ndarray) -> ConditionEmbedding:
    """Condition naming one event: slot 1 filled, slot 2 absent."""
    slot = _as_slot(event)
    return ConditionEmbedding(slot, _as_slot(np.zeros(slot.shape[0])), 1, 0)


def compose_concat(first: np.ndarray, second: np.ndarray) -> ConditionEmbedding:
    """Condition naming both events in order, both flags set."""
    slot1 = _as_slot(first)
    slot2 = _as_slot(second, width=slot1.shape[0])
    return ConditionEmbedding(slot1, slot2, 1, 1)


def unconditioned(width: int) -> ConditionEmbedding:
    """The all-zero condition (both slots absent); guidance baseline."""
    zero = _as_slot(np.zeros(int(width)))
    return ConditionEmbedding(zero, zero, 0, 0)


@dataclass(frozen=True, eq=False)
class StepSchedule:
    """Per-iteration conditioning over ``n_steps`` denoising iterations.

    ``segments`` is a tuple of ``(start, end, condition)`` half-open
    rows partitioning ``[0, n_steps)``; iteration 0 denoises the noisiest
    step.  ``ratio`` and ``switch_index`` are populated by
    :func:`step_switch` and absent on hand-built schedules.
    """

    n_steps: int
    segments: tuple[tuple[int, int, ConditionEmbedding], ...]
    ratio: float | None = None
    switch_index: int | None = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("a schedule needs at least one step")
        if not self.segments:
            raise ValueError("a schedule needs at least one segment")
        width = self.segments[0][2].width
        cursor = 0
        for start, end, cond in self.segments:
            if start != cursor or end <= start:
                raise ValueError(
                    "segments must partition the iteration range in order "
                    f"without gaps or overlaps (got segment [{start}, {end}) "
                    f"at cursor {cursor})"
                )
            if cond.width != width:
                raise ValueError("segment conditions differ in slot width")
            cursor = end
        if cursor != self.n_steps:
            raise ValueError(
                f"segments cover {cursor} iterations, schedule has {self.n_steps}"
            )

    @property
    def width(self) -> int:
        return self.segments[0][2].width


def constant_schedule(n_steps: int, cond: ConditionEmbedding) -> StepSchedule:
    """One condition for every iteration."""
    return StepSchedule(n_steps, ((0, int(n_steps), cond),))


def step_switch(
    x: float,
    n_steps: int,
    cond_a: ConditionEmbedding,
    cond_b: ConditionEmbedding,
) -> StepSchedule:
    """Schedule conditioning iterations ``[0, k)`` on ``cond_a`` and
    ``[k, n_steps)`` on ``cond_b`` with ``k = floor(x * n_steps)``.

    ``x = 1`` therefore runs entirely on ``cond_a`` and ``x = 0``
    entirely on ``cond_b``; the endpoints collapse to one segment.
    """
    if cond_a.width != cond_b.width:
        raise ValueError("switch conditions differ in slot width")
    k = floor_index(x, n_steps)
    if k == 0:
        segments: tuple = ((0, n_steps, cond_b),)
    elif k == n_steps:
        segments = ((0, n_steps, cond_a),)
    else:
        segments = ((0, k, cond_a), (k, n_steps, cond_b))
    return StepSchedule(n_steps, segments, ratio=float(x), switch_index=k)


def condition_at(schedule: StepSchedule, iteration: int) -> ConditionEmbedding:
    """Condition driving denoising iteration ``iteration``."""
    if not 0 <= iteration < schedule.n_steps:
        raise ValueError(
            f"iteration {iteration} outside [0, {schedule.n_steps})"
        )
    for start, end, cond in schedule.segments:
        if start <= iteration < end:
            return cond
    raise AssertionError("unreachable: segments partition the range")


@dataclass(frozen=True, eq=False)
class BlockAssignment:
    """Per-block conditioning, fixed across all denoising steps."""

    n_blocks: int
    split_index: int
    per_block: tuple[ConditionEmbedding, ...]
    split_ratio: float

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("an assignment needs at least one block")
        if len(self.per_block) != self.n_blocks:
            raise ValueError(
                f"{len(self.per_block)} block conditions for {self.n_blocks} blocks"
            )
        if not 0 <= self.split_index <= self.n_blocks:
            raise ValueError("split index outside [0, n_blocks]")
        width = self.per_block[0].width
        if any(c.width != width for c in self.per_block):
            raise ValueError("block conditions differ in slot width")

    @property
    def width(self) -> int:
        return self.per_block[0].width

    @cached_property
    def vectors(self) -> np.ndarray:
        """Per-block condition vectors, shape ``(n_blocks, 2 * width + 2)``;
        read-only, built once per assignment."""
        stacked = np.stack([c.vector for c in self.per_block])
        stacked.flags.writeable = False
        return stacked


def block_split(
    x: float,
    n_blocks: int,
    cond_a: ConditionEmbedding,
    cond_b: ConditionEmbedding,
) -> BlockAssignment:
    """Give the first ``b = floor(x * n_blocks)`` blocks ``cond_a`` and
    the rest ``cond_b``; the assignment applies at every denoising step.

    Mirrors :func:`step_switch` endpoints: ``x = 1`` is all-``cond_a``,
    ``x = 0`` all-``cond_b``.
    """
    if cond_a.width != cond_b.width:
        raise ValueError("split conditions differ in slot width")
    b = floor_index(x, n_blocks)
    per_block = tuple(cond_a if j < b else cond_b for j in range(n_blocks))
    return BlockAssignment(int(n_blocks), b, per_block, float(x))


def uniform_blocks(cond: ConditionEmbedding, n_blocks: int) -> BlockAssignment:
    """Every block conditioned identically."""
    return BlockAssignment(int(n_blocks), int(n_blocks), (cond,) * int(n_blocks), 1.0)


def qualitative_settings(
    x: float,
    event1: np.ndarray,
    event2: np.ndarray,
    n_steps: int,
) -> list[StepSchedule]:
    """The four conditioning settings compared at one split ratio.

    1. both events concatenated throughout;
    2. event 1 switching to event 2;
    3. the concatenation switching to event 1 alone;
    4. event 1 switching to the concatenation.
    """
    single1 = compose_single(event1)
    single2 = compose_single(event2)
    both = compose_concat(event1, event2)
    return [
        constant_schedule(n_steps, both),
        step_switch(x, n_steps, single1, single2),
        step_switch(x, n_steps, both, single1),
        step_switch(x, n_steps, single1, both),
    ]
