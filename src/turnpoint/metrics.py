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

__all__ = [
    "MetricsRecord",
    "event_alignment",
    "identity_consistency",
    "background_consistency",
    "turning_frame",
    "evaluate",
]

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


def _as_trajectory(traj) -> np.ndarray:
    arr = np.asarray(traj, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 4 or (arr.shape[1] - 2) % 2 != 0:
        raise ValueError(
            f"trajectory must have shape (T, 2 + 2d), got {arr.shape}"
        )
    return arr


def _cos01(v1: np.ndarray, v2: np.ndarray, floor: float) -> float:
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 < floor or n2 < floor:
        return 0.5
    c = float(np.clip(np.dot(v1, v2) / (n1 * n2), -1.0, 1.0))
    return 0.5 * (1.0 + c)


def event_alignment(traj, e1: EventParams, e2: EventParams) -> tuple[float, float, float]:
    """Per-event drift alignment (ta1, ta2, ta_mean).

    Frame steps are grouped by the event that drives them (destination
    frame before floor(T/2) -> event 1) and each group's mean step is
    scored against its event's drift direction.
    """
    traj = _as_trajectory(traj)
    n_frames = traj.shape[0]
    if n_frames < 4:
        raise ValueError("alignment needs at least 4 frames (2 per event segment)")
    split = n_frames // 2
    steps = np.diff(traj[:, :2], axis=0)
    u1 = steps[: split - 1].mean(axis=0)
    u2 = steps[split - 1 :].mean(axis=0)
    ta1 = _cos01(u1, e1.drift, 1e-12)
    ta2 = _cos01(u2, e2.drift, 1e-12)
    return ta1, ta2, (ta1 + ta2) / 2.0


def _channel_consistency(traj, channel: int) -> float:
    """Similarity of channel group 0 (identity) or 1 (background) in each half."""
    traj = _as_trajectory(traj)
    n_frames, width = traj.shape
    d = (width - 2) // 2
    cols = slice(2 + channel * d, 2 + (channel + 1) * d)
    early, late = traj[n_frames // 4], traj[(3 * n_frames) // 4]
    return _cos01(early[cols], late[cols], _NORM_FLOOR)


def identity_consistency(traj) -> float:
    """Similarity of the identity channels sampled in each half."""
    return _channel_consistency(traj, 0)


def background_consistency(traj) -> float:
    """Similarity of the background channels sampled in each half."""
    return _channel_consistency(traj, 1)


def turning_frame(traj, e1: EventParams, e2: EventParams) -> tuple[int | None, float]:
    """Best frame split separating event-1-like from event-2-like motion.

    Each frame step is classified by the nearer event direction (ties go
    to event 1, matching the zero-step convention).  Returns the split
    s in [0, T-1] minimizing misclassification when steps into frames
    before s are labeled event 1 and the rest event 2 — smallest s on
    ties — together with the fraction of steps classified as event 2.
    None (with occupancy 0.5) when the two directions coincide.
    """
    traj = _as_trajectory(traj)
    n_frames = traj.shape[0]
    if n_frames < 2:
        raise ValueError("turning-frame search needs at least 2 frames")
    u1 = np.array([math.cos(e1.direction), math.sin(e1.direction)])
    u2 = np.array([math.cos(e2.direction), math.sin(e2.direction)])
    cross = abs(u1[0] * u2[1] - u1[1] * u2[0])
    if cross < _NORM_FLOOR and np.dot(u1, u2) > 0.0:
        return None, 0.5
    steps = np.diff(traj[:, :2], axis=0)
    # norms cancel when comparing cosines against unit directions
    is2 = steps @ u2 > steps @ u1
    occupancy2 = float(np.mean(is2))
    # cost[s] = steps mislabeled by split s; argmin keeps the first minimum
    splits = np.arange(n_frames)[:, None]
    cost = np.count_nonzero((np.arange(1, n_frames) >= splits) != is2, axis=1)
    return int(np.argmin(cost)), occupancy2


def evaluate(traj, e1: EventParams, e2: EventParams) -> MetricsRecord:
    """All metrics for one generated trajectory."""
    ta1, ta2, ta_mean = event_alignment(traj, e1, e2)
    turn, occupancy2 = turning_frame(traj, e1, e2)
    return MetricsRecord(
        ta1=ta1,
        ta2=ta2,
        ta_mean=ta_mean,
        ic=identity_consistency(traj),
        bc=background_consistency(traj),
        turning_frame=turn,
        occupancy2=occupancy2,
    )
