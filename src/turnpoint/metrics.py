"""Trajectory-level probes of which event a generation realized.

All scores live in [0, 1] via (1 + cos) / 2; degenerate comparisons
(zero vectors, zero-speed events) score an uninformative 0.5.  Metric
code is pure — it never draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .worldgen import EventParams

__all__ = ["MetricsRecord", "evaluate"]

_NORM_FLOOR = 1e-9


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    ta1: float
    ta2: float
    ta_mean: float
    ic: float
    bc: float
    turning_frame: int | None
    occupancy2: float


def _as_trajectories(traj) -> np.ndarray:
    """``traj`` as a ``(B, T, 2 + 2d)`` stack: a single ``(T, 2 + 2d)``
    trajectory becomes a stack of one."""
    arr = np.asarray(traj, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-1] < 4 or (arr.shape[-1] - 2) % 2 != 0:
        raise ValueError(
            f"trajectory must have shape (T, 2 + 2d) or (B, T, 2 + 2d), got {arr.shape}"
        )
    return arr if arr.ndim == 3 else arr[None]


def _per_row(event, rows: int) -> list[EventParams]:
    """One event for every row, or one event per row."""
    if isinstance(event, EventParams):
        return [event] * rows
    events = list(event)
    if len(events) != rows:
        raise ValueError(f"{len(events)} events for {rows} trajectories")
    return events


def _event_rows(events, fn) -> np.ndarray:
    """``fn(event)`` stacked over the rows, computed once per distinct event."""
    done: dict[int, object] = {}
    for event in events:
        if id(event) not in done:
            done[id(event)] = fn(event)
    return np.array([done[id(event)] for event in events], dtype=np.float64)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (B, w) x (B, w) -> (B,); one dot per row, bit-equal to np.dot of the rows
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _cos01(v1: np.ndarray, v2: np.ndarray, floor: float) -> np.ndarray:
    """(1 + cos) / 2 of each row pair of ``(B, w)`` arrays; 0.5 where either
    row's norm is below ``floor``."""
    v1, v2 = np.ascontiguousarray(v1), np.ascontiguousarray(v2)
    n1 = np.sqrt(_row_dot(v1, v1))
    n2 = np.sqrt(_row_dot(v2, v2))
    degenerate = (n1 < floor) | (n2 < floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.clip(_row_dot(v1, v2) / (n1 * n2), -1.0, 1.0)
    return np.where(degenerate, 0.5, 0.5 * (1.0 + c))


def _alignment(trajs: np.ndarray, e1s, e2s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-event drift alignment (ta1, ta2, ta_mean) of each row.

    Frame steps are grouped by the event that drives them (destination
    frame before floor(T/2) -> event 1) and each group's mean step is
    scored against its event's drift direction.
    """
    n_frames = trajs.shape[1]
    if n_frames < 4:
        raise ValueError("alignment needs at least 4 frames (2 per event segment)")
    split = n_frames // 2
    steps = np.diff(trajs[:, :, :2], axis=1)
    u1 = steps[:, : split - 1].mean(axis=1)
    u2 = steps[:, split - 1 :].mean(axis=1)
    ta1 = _cos01(u1, _event_rows(e1s, lambda e: e.drift), 1e-12)
    ta2 = _cos01(u2, _event_rows(e2s, lambda e: e.drift), 1e-12)
    return ta1, ta2, (ta1 + ta2) / 2.0


def _consistency(trajs: np.ndarray, channel: int) -> np.ndarray:
    """Similarity of channel group 0 (identity) or 1 (background) in each half."""
    n_frames, width = trajs.shape[1:]
    d = (width - 2) // 2
    cols = slice(2 + channel * d, 2 + (channel + 1) * d)
    early, late = trajs[:, n_frames // 4, cols], trajs[:, (3 * n_frames) // 4, cols]
    return _cos01(early, late, _NORM_FLOOR)


def _unit(event: EventParams) -> tuple[float, float]:
    return math.cos(event.direction), math.sin(event.direction)


def _turning(trajs: np.ndarray, e1s, e2s) -> tuple[list, np.ndarray]:
    """Best frame split of each row separating event-1-like from
    event-2-like motion.

    Each frame step is classified by the nearer event direction (ties go
    to event 1, matching the zero-step convention).  A row's split is the
    s in [0, T-1] minimizing misclassification when steps into frames
    before s are labeled event 1 and the rest event 2 — smallest s on
    ties — returned with the fraction of steps classified as event 2.
    None (with occupancy 0.5) when the two directions coincide.
    """
    n_frames = trajs.shape[1]
    u1 = _event_rows(e1s, _unit)
    u2 = _event_rows(e2s, _unit)
    cross = np.abs(u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0])
    coincident = (cross < _NORM_FLOOR) & (_row_dot(u1, u2) > 0.0)
    steps = np.diff(trajs[:, :, :2], axis=1)
    # norms cancel when comparing cosines against unit directions
    is2 = np.matmul(steps, u2[:, :, None])[..., 0] > np.matmul(steps, u1[:, :, None])[..., 0]
    occupancy2 = np.where(coincident, 0.5, is2.mean(axis=1))
    # cost[b, s] = steps of row b mislabeled by split s; argmin keeps the
    # first minimum
    labels = np.arange(1, n_frames) >= np.arange(n_frames)[:, None]
    cost = np.count_nonzero(labels != is2[:, None, :], axis=2)
    turn = [None if c else s for c, s in zip(coincident.tolist(), cost.argmin(axis=1).tolist())]
    return turn, occupancy2


def evaluate(traj, e1, e2):
    """All metrics for one generated trajectory ``(T, F)``, as a
    :class:`MetricsRecord`, or for a batch ``(B, T, F)``, as a list of
    records.  ``e1`` and ``e2`` are one event each, or for a batch one
    event per row; a row's record equals the one its trajectory gets
    alone."""
    single = np.ndim(traj) == 2
    trajs = _as_trajectories(traj)
    e1s, e2s = _per_row(e1, len(trajs)), _per_row(e2, len(trajs))
    ta1, ta2, ta_mean = _alignment(trajs, e1s, e2s)  # rejects fewer than 4 frames
    turn, occupancy2 = _turning(trajs, e1s, e2s)
    records = [
        MetricsRecord(*fields)
        for fields in zip(
            ta1.tolist(), ta2.tolist(), ta_mean.tolist(),
            _consistency(trajs, 0).tolist(), _consistency(trajs, 1).tolist(),
            turn, occupancy2.tolist(),
        )
    ]
    return records[0] if single else records
