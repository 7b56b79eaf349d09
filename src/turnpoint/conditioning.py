"""Event-condition embeddings and the two conditioning probes.

A condition is a fixed-width vector ``[slot1; slot2; flag1; flag2]``: two
event slots plus presence flags, with absent slots pinned to zero.  The
probes map a split ratio ``x`` onto a :class:`ConditionPlan` over *time*
(a step schedule: which condition drives each denoising iteration) or
over *depth* (a block assignment: which condition each denoiser block
sees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "ConditionEmbedding",
    "ConditionPlan",
    "compose_single",
    "compose_concat",
    "unconditioned",
    "constant_schedule",
    "step_switch",
    "block_split",
    "qualitative_settings",
    "floor_index",
]


@lru_cache(maxsize=1024)
def floor_index(x: float, n: int) -> int:
    """Exact ``floor(x * n)`` for split ratios that are decimal literals.

    Grid ratios like 0.7 are decimals, but the float product ``0.7 * 50``
    lands just below 35 and would floor to 34.  Routing through the
    shortest-repr rational of ``x`` yields the mathematically intended
    index for every decimal grid value.  Memoised, as a sweep asks for the
    same few grid values over and over; a rejected ratio is not cached.
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
        """Byte key for exact-value lookup and equality: ``vector.tobytes()``,
        computed on first use and kept.  The constructors below pass
        read-only slot copies, and :func:`_condition_view` read-only views,
        so the key cannot go stale."""
        key = self.__dict__.get("_key")
        if key is None:
            key = self.vector.tobytes()
            object.__setattr__(self, "_key", key)
        return key

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


def _condition_view(slot1, slot2, flag1: int, flag2: int) -> ConditionEmbedding:
    """A condition over read-only slots that are valid by construction,
    such as views into a stack of event embeddings, sharing them rather
    than copying and checking them again."""
    cond = object.__new__(ConditionEmbedding)
    cond.__dict__.update(slot1=slot1, slot2=slot2, flag1=flag1, flag2=flag2)
    return cond


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
class ConditionPlan:
    """Which condition drives each denoising iteration and denoiser block.

    ``slots`` is a read-only 2-d grid of indices into ``conds`` that the
    sampler broadcasts to ``(n_steps, n_blocks)``; iteration 0 denoises
    the noisiest step.  A step schedule is ``(n_steps, 1)`` and conditions
    every block alike; a block assignment is ``(1, n_blocks)`` and holds
    at every step.  ``conds`` lists the distinct conditions, of one slot
    width, in order of first use (iteration-major, then block).
    ``split_index`` is the ``floor(x * n)`` of the probe that built the
    plan, and None on hand-built and constant plans.
    """

    conds: tuple[ConditionEmbedding, ...]
    slots: np.ndarray
    split_index: int | None = None

    def __post_init__(self):
        conds = tuple(self.conds)
        slots = np.array(self.slots, dtype=np.intp)
        if not conds:
            raise ValueError("a plan needs at least one condition")
        if slots.ndim != 2 or slots.size == 0:
            raise ValueError(f"plan slots must be a non-empty 2-d grid, got shape {slots.shape}")
        if slots.view(np.uintp).max() >= len(conds):  # a negative slot reads as huge
            raise ValueError(f"plan slots must index its {len(conds)} conditions")
        if any(c.width != conds[0].width for c in conds):
            raise ValueError("plan conditions differ in slot width")
        slots.flags.writeable = False
        object.__setattr__(self, "conds", conds)
        object.__setattr__(self, "slots", slots)

    @property
    def width(self) -> int:
        """Slot width of the plan's conditions."""
        return self.conds[0].width


def _split(x: float, n: int, cond_a, cond_b, shape) -> ConditionPlan:
    """``cond_a`` on the first ``k = floor(x * n)`` of ``n`` positions and
    ``cond_b`` on the rest, as a plan with a slot grid of ``shape``; the
    endpoints keep only the condition they use."""
    if cond_a.width != cond_b.width:
        raise ValueError("split conditions differ in slot width")
    k = floor_index(x, n)
    conds = (cond_a, cond_b)[k == 0 : 1 + (k < n)]
    slots = np.zeros(int(n), dtype=np.intp)
    slots[k:] = len(conds) - 1
    return ConditionPlan(conds, slots.reshape(shape), k)


def constant_schedule(n_steps: int, cond: ConditionEmbedding) -> ConditionPlan:
    """One condition for every iteration."""
    return ConditionPlan((cond,), np.zeros((int(n_steps), 1), dtype=np.intp))


def step_switch(
    x: float,
    n_steps: int,
    cond_a: ConditionEmbedding,
    cond_b: ConditionEmbedding,
) -> ConditionPlan:
    """Schedule conditioning iterations ``[0, k)`` on ``cond_a`` and
    ``[k, n_steps)`` on ``cond_b`` with ``k = floor(x * n_steps)``.

    ``x = 1`` therefore runs entirely on ``cond_a`` and ``x = 0``
    entirely on ``cond_b``.
    """
    return _split(x, n_steps, cond_a, cond_b, (-1, 1))


def block_split(
    x: float,
    n_blocks: int,
    cond_a: ConditionEmbedding,
    cond_b: ConditionEmbedding,
) -> ConditionPlan:
    """Give the first ``b = floor(x * n_blocks)`` blocks ``cond_a`` and
    the rest ``cond_b``; the assignment applies at every denoising step.

    Mirrors :func:`step_switch` endpoints: ``x = 1`` is all-``cond_a``,
    ``x = 0`` all-``cond_b``.
    """
    return _split(x, n_blocks, cond_a, cond_b, (1, -1))


def qualitative_settings(
    x: float,
    single1: ConditionEmbedding,
    single2: ConditionEmbedding,
    both: ConditionEmbedding,
    n_steps: int,
) -> list[ConditionPlan]:
    """The four conditioning settings compared at one split ratio, given
    a prompt's event-1, event-2 and concatenated conditions.

    1. both events concatenated throughout;
    2. event 1 switching to event 2;
    3. the concatenation switching to event 1 alone;
    4. event 1 switching to the concatenation.
    """
    return [
        constant_schedule(n_steps, both),
        step_switch(x, n_steps, single1, single2),
        step_switch(x, n_steps, both, single1),
        step_switch(x, n_steps, single1, both),
    ]
