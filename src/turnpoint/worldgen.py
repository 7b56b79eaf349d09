"""Toy trajectory-video domain and the dual-event prompt suite.

A "video" is a T x F frame matrix, each frame laid out as
``[pos_x, pos_y, identity..., background...]`` with ``F = 2 + 2d``.
Dual-event semantics: frames before ``floor(T/2)`` belong to event 1 and
the rest to event 2, and the step into frame m is driven by the event
that owns frame m.  The first-person view stores heading-relative steps
instead of absolute positions; identity/background channels are
view-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .analytic import _check_mixture, _mixture_view
from .conditioning import ConditionEmbedding, _condition_view, compose_concat, compose_single

__all__ = [
    "VIEWS",
    "CATEGORIES",
    "TABLE_COUNTS",
    "EventParams",
    "PromptRecord",
    "SuiteReport",
    "embed_event",
    "blended_event",
    "mean_trajectory",
    "condition_of",
    "generate_suite",
    "write_suite",
    "read_suite",
    "validate_suite",
    "mixture_data_sampler",
    "suite_training_pairs",
]

VIEWS = ("first", "third")
CATEGORIES = ("General", "MotionOrder", "HumanIdentity", "ComplexPlot", "EgoExo")

# Fixed category sizes of the generated benchmark suite (total 350).
TABLE_COUNTS = {
    "General": 60,
    "MotionOrder": 98,
    "HumanIdentity": 32,
    "ComplexPlot": 60,
    "EgoExo": 100,
}

TWO_PI = 2.0 * math.pi


def _as_feature(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EventParams:
    """One event: heading (radians), speed (units/frame), identity and
    background feature vectors."""

    direction: float
    speed: float
    identity: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.direction) and 0.0 <= self.direction < TWO_PI):
            raise ValueError(f"direction must lie in [0, 2*pi), got {self.direction}")
        if not (np.isfinite(self.speed) and self.speed >= 0.0):
            raise ValueError(f"speed must be finite and >= 0, got {self.speed}")
        object.__setattr__(self, "identity", _as_feature(self.identity, "identity"))
        object.__setattr__(self, "background", _as_feature(self.background, "background"))
        if self.identity.shape != self.background.shape:
            raise ValueError("identity and background must share one dimension")

    @property
    def feature_dim(self) -> int:
        return self.identity.shape[0]

    @property
    def drift(self) -> np.ndarray:
        """Per-frame displacement vector speed * (cos, sin)."""
        return self.speed * np.array(
            [math.cos(self.direction), math.sin(self.direction)]
        )

    def __eq__(self, other):
        if not isinstance(other, EventParams):
            return NotImplemented
        return (
            self.direction == other.direction
            and self.speed == other.speed
            and np.array_equal(self.identity, other.identity)
            and np.array_equal(self.background, other.background)
        )

    def __hash__(self):
        return hash(
            (self.direction, self.speed, self.identity.tobytes(), self.background.tobytes())
        )


@dataclass(frozen=True, eq=False)
class PromptRecord:
    """One benchmark prompt: two ordered events plus bookkeeping."""

    id: str
    category: str
    view: str
    events: tuple[EventParams, EventParams]
    pair_id: str | None = None
    text: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be non-empty")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS}, got {self.view!r}")
        events = tuple(self.events)
        if len(events) != 2:
            raise ValueError("events must have length 2")
        if events[0].feature_dim != events[1].feature_dim:
            raise ValueError("events differ in feature dimension")
        object.__setattr__(self, "events", events)

    @property
    def feature_dim(self) -> int:
        return self.events[0].feature_dim

    @property
    def frame_dim(self) -> int:
        """Width of one trajectory frame: position (2), identity and background."""
        return 2 + 2 * self.feature_dim

    @property
    def cond_width(self) -> int:
        """Width of one condition slot, :func:`embed_event`'s output."""
        return 3 + 2 * self.feature_dim


def _check_events(directions, speeds, looks) -> None:
    """The checks of :class:`EventParams` on a stack of events:
    ``directions`` and ``speeds`` ``(n,)``, and ``looks`` ``(n, 2, d)``,
    each event's identity and background.  A stack that fails raises the
    error of its first event that fails, as constructing it would."""
    ok = (
        np.isfinite(directions) & (directions >= 0.0) & (directions < TWO_PI)
        & np.isfinite(speeds) & (speeds >= 0.0)
        & np.isfinite(looks).all(axis=(1, 2))
    )
    if not ok.all():
        r = int(np.argmin(ok))
        EventParams(float(directions[r]), float(speeds[r]), *looks[r])


def _event_view(direction: float, speed: float, identity, background) -> EventParams:
    """An event over read-only feature rows of a stack that
    :func:`_check_events` has passed, sharing them rather than copying and
    checking them again."""
    event = object.__new__(EventParams)
    event.__dict__.update(direction=direction, speed=speed, identity=identity, background=background)
    return event


def embed_event(event: EventParams) -> np.ndarray:
    """Event slot vector [cos(dir), sin(dir), speed, identity..., background...]."""
    return _event_table((event,))[0, :-2]


def _event_table(events) -> np.ndarray:
    """One row per event, all of one feature dimension: its
    :func:`embed_event` slot, then ``cos(-dir), sin(-dir)``, which rotate
    its drift into its first-person frame."""
    looks = np.array([(e.identity, e.background) for e in events])
    return _table_rows([e.direction for e in events], [e.speed for e in events], looks)


def _table_rows(directions, speeds, looks) -> np.ndarray:
    """:func:`_event_table` rows of events given as ``directions``,
    ``speeds`` and ``looks`` ``(n, 2, d)``.  Cosines and sines are taken by
    Python's ``math`` one event at a time, as :attr:`EventParams.drift`
    takes them."""
    table = np.empty((len(looks), 5 + looks[0].size))
    table[:, [0, 1, 2, -2, -1]] = [
        (math.cos(d), math.sin(d), s, math.cos(-d), math.sin(-d))
        for d, s in zip(directions, speeds)
    ]
    table[:, 3:-2] = looks.reshape(len(looks), -1)
    return table


def _trajectories(table, first, a, b, n_frames: int) -> np.ndarray:
    """Mean trajectories ``(rows, n_frames, 2 + 2d)`` of rows that run
    event ``a[r]`` of an :func:`_event_table`, then event ``b[r]`` from
    frame ``floor(n_frames / 2)``.

    ``first`` marks the events seen from the first view; a row's two
    events share one view.  Positions are copied and summed as
    :func:`mean_trajectory` describes, so a row has the same bytes in any
    batch.
    """
    if n_frames < 2:
        raise ValueError("a trajectory needs at least 2 frames")
    # each event's step: its drift speed * (cos, sin), and in the first
    # view that drift rotated by minus its heading
    dx, dy = table[:, 2] * table[:, 0], table[:, 2] * table[:, 1]
    c, s = table[:, -2], table[:, -1]
    steps = np.where(
        first[:, None], np.array([c * dx - s * dy, s * dx + c * dy]).T, np.array([dx, dy]).T
    )
    looks = table[:, 3:-2]
    first = first[a]
    split = n_frames // 2
    out = np.empty((len(first), n_frames, 2 + looks.shape[1]))
    out[:, :split, 2:] = looks[a, None]
    out[:, split:, 2:] = looks[b, None]
    # third-view frame m sums the steps into frames 1..m; first-view frame m
    # stores the step out of it, the step into frame m + 1, and the last
    # frame repeats the one before
    into = np.minimum(np.arange(n_frames) + first[:, None], n_frames - 1)
    out[:, :, :2] = np.where((into < split)[..., None], steps[a, None], steps[b, None])
    third = ~first
    out[third, 0, :2] = 0.0
    out[third, 1:, :2] = np.cumsum(out[third, 1:, :2], axis=1)
    return out


def mean_trajectory(
    e1: EventParams, e2: EventParams, n_frames: int, view: str = "third"
) -> np.ndarray:
    """Noiseless trajectory for event 1 then event 2, split at floor(T/2).

    Positions start at the origin and integrate the owning event's drift,
    so they are exactly piecewise linear in the frame index within each
    segment.  ``view='first'`` stores, per frame, the step out of that
    frame rotated by minus the driving event's heading (the last frame
    repeats the previous step); third-view positions are recoverable by
    rotating back and cumulatively summing.

    This is the one-row case of the array builder that
    :func:`suite_training_pairs` runs for its mixture means, so a
    trajectory has the same bytes whichever of them builds it.
    """
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")
    if e1.feature_dim != e2.feature_dim:
        raise ValueError("events differ in feature dimension")
    return _trajectories(_event_table((e1, e2)), np.full(2, view == "first"), [0], [1], n_frames)[0]


def condition_of(record: PromptRecord, which: str) -> ConditionEmbedding:
    """Condition embedding for one of ``event1``, ``event2`` or ``concat``."""
    e1, e2 = record.events
    if which == "event1":
        return compose_single(embed_event(e1))
    if which == "event2":
        return compose_single(embed_event(e2))
    if which == "concat":
        return compose_concat(embed_event(e1), embed_event(e2))
    raise ValueError(f"which must be 'event1', 'event2' or 'concat', got {which!r}")


def blended_event(e1: EventParams, e2: EventParams) -> EventParams:
    """Pseudo-event averaging both drifts and both appearance vectors.

    This is the one-row case of the blends that
    :func:`suite_training_pairs` builds from its event table, so a blend
    has the same bytes, and raises the same error, whichever builds it.
    """
    if e1.feature_dim != e2.feature_dim:
        raise ValueError("events differ in feature dimension")
    table = _event_table((e1, e2))
    directions, speeds, looks = _blends(table[:1], table[1:])
    looks.flags.writeable = False
    return _event_view(float(directions[0]), float(speeds[0]), *looks[0])


def _blends(one, two):
    """``(directions, speeds, looks)`` of the blended events of the
    :func:`_event_table` rows ``one[r]`` and ``two[r]``: the mean of their
    drifts, as heading and speed, and of their identity and background
    vectors, checked by :func:`_check_events`."""
    # a drift is speed * (cos, sin), as EventParams.drift takes it
    v = 0.5 * (one[:, 2:3] * one[:, :2] + two[:, 2:3] * two[:, :2])
    looks = (0.5 * (one[:, 3:-2] + two[:, 3:-2])).reshape(len(one), 2, -1)
    speeds = np.hypot(v[:, 0], v[:, 1])
    directions = np.array([
        math.atan2(y, x) % TWO_PI if s > 0.0 else 0.0
        for x, y, s in zip(*v.T.tolist(), speeds.tolist())
    ])
    _check_events(directions, speeds, looks)
    return directions, speeds, looks


# ---------------------------------------------------------------------------
# suite generation

# Standard uniforms per rng.random call.  A block holds the doubles that
# as many scalar draws would, so the size changes no value; one block
# covers the about 1700 draws of a suite.
_UNIFORM_BLOCK = 2048


def _uniforms(rng: np.random.Generator):
    """``uniform(lo, hi)`` returning what ``rng.uniform(lo, hi)`` would,
    value for value and in order, from blocks of ``rng.random``: numpy's
    uniform is ``lo + (hi - lo) * u`` of one standard uniform ``u``."""

    def draws():
        while True:
            yield from rng.random(_UNIFORM_BLOCK).tolist()

    u = draws()
    return lambda lo, hi: lo + (hi - lo) * next(u)


def _unit(uniform) -> tuple[float, float]:
    phi = uniform(0.0, TWO_PI)
    return math.cos(phi), math.sin(phi)


def _distinct_angle(uniform, avoid: float) -> float:
    while True:
        theta = uniform(0.0, TWO_PI)
        gap = abs((theta - avoid + math.pi) % TWO_PI - math.pi)
        if gap > 1e-6:
            return theta


def _speed(uniform) -> float:
    return uniform(0.5, 1.5)


def _general_events(uniform):
    theta1 = uniform(0.0, TWO_PI)
    theta2 = _distinct_angle(uniform, theta1)
    identity, background = _unit(uniform), _unit(uniform)
    return (
        (theta1, _speed(uniform), identity, background),
        (theta2, _speed(uniform), identity, background),
    )


def generate_suite(seed: int) -> list[PromptRecord]:
    """Deterministic benchmark suite with the fixed category counts.

    Category recipes: General changes direction; MotionOrder turns left
    by pi/2 with everything else shared; HumanIdentity changes only the
    identity vector; ComplexPlot changes direction, identity and
    background; EgoExo emits each event pair twice (first/third view)
    under a shared pair id.

    Uniforms are drawn in blocks, with the values and order of one
    ``rng.uniform`` call each.  All events are checked once, as one
    stack, by the rules of :class:`EventParams`, and each event's
    identity and background are read-only rows of that stack.
    """
    uniform = _uniforms(np.random.default_rng(seed))
    # (record id, category, pair id, event 1, event 2), each event as
    # (direction, speed, identity, background)
    specs = []
    for i in range(TABLE_COUNTS["General"]):
        specs.append((f"general-{i:03d}", "General", None, *_general_events(uniform)))

    for i in range(TABLE_COUNTS["MotionOrder"]):
        theta1 = uniform(0.0, TWO_PI)
        speed = _speed(uniform)
        identity, background = _unit(uniform), _unit(uniform)
        specs.append((
            f"motionorder-{i:03d}", "MotionOrder", None,
            (theta1, speed, identity, background),
            ((theta1 + math.pi / 2.0) % TWO_PI, speed, identity, background),
        ))

    for i in range(TABLE_COUNTS["HumanIdentity"]):
        theta = uniform(0.0, TWO_PI)
        speed = _speed(uniform)
        id1 = _unit(uniform)
        id2 = _unit(uniform)
        while np.allclose(id1, id2):
            id2 = _unit(uniform)
        background = _unit(uniform)
        specs.append((
            f"humanidentity-{i:03d}", "HumanIdentity", None,
            (theta, speed, id1, background),
            (theta, speed, id2, background),
        ))

    for i in range(TABLE_COUNTS["ComplexPlot"]):
        theta1 = uniform(0.0, TWO_PI)
        theta2 = _distinct_angle(uniform, theta1)
        specs.append((
            f"complexplot-{i:03d}", "ComplexPlot", None,
            (theta1, _speed(uniform), _unit(uniform), _unit(uniform)),
            (theta2, _speed(uniform), _unit(uniform), _unit(uniform)),
        ))

    for i in range(TABLE_COUNTS["EgoExo"] // 2):
        pair_id = f"egoexo-{i:03d}"
        specs.append((pair_id, "EgoExo", pair_id, *_general_events(uniform)))

    directions, speeds, identities, backgrounds = zip(*(e for spec in specs for e in spec[3:]))
    looks = np.array([identities, backgrounds]).transpose(1, 0, 2)
    _check_events(np.array(directions), np.array(speeds), looks)
    looks.flags.writeable = False
    events = list(map(_event_view, directions, speeds, looks[:, 0], looks[:, 1]))
    records: list[PromptRecord] = []
    for k, (name, category, pair_id, _, _) in enumerate(specs):
        pair = events[2 * k : 2 * k + 2]
        if pair_id is None:
            records.append(PromptRecord(name, category, "third", pair))
        else:
            records.extend(
                PromptRecord(f"{name}-{view}", category, view, pair, pair_id=pair_id)
                for view in VIEWS
            )
    return records


# ---------------------------------------------------------------------------
# suite serialization: one self-contained JSON object per line (UTF-8)

def _record_to_dict(record: PromptRecord) -> dict:
    return {
        "id": record.id,
        "category": record.category,
        "view": record.view,
        "pair_id": record.pair_id,
        "events": [
            {
                "direction": e.direction,
                "speed": e.speed,
                "identity": list(e.identity),
                "background": list(e.background),
            }
            for e in record.events
        ],
        "text": record.text,
    }


def _record_from_dict(obj) -> PromptRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a key-value object")
    missing = {"id", "category", "view", "events"} - obj.keys()
    if missing:
        raise ValueError(f"record missing fields: {sorted(missing)}")
    for key in ("id", "pair_id"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise ValueError(f"{key} must be a string, got {type(obj[key]).__name__}")
    events_raw = obj["events"]
    if not isinstance(events_raw, list) or len(events_raw) != 2:
        raise ValueError("events must have length 2")
    events = []
    for e in events_raw:
        if not isinstance(e, dict):
            raise ValueError("each event must be a key-value object")
        ev_missing = {"direction", "speed", "identity", "background"} - e.keys()
        if ev_missing:
            raise ValueError(f"event missing fields: {sorted(ev_missing)}")
        events.append(
            EventParams(e["direction"], e["speed"], e["identity"], e["background"])
        )
    return PromptRecord(
        id=obj["id"],
        category=obj["category"],
        view=obj["view"],
        events=tuple(events),
        pair_id=obj.get("pair_id"),
        text=obj.get("text"),
    )


def write_suite(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(_record_to_dict(record), sort_keys=True))
            fh.write("\n")


def _parse_suite_lines(path):
    """Yield ``(lineno, record or the exception it raised)`` per non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                item = _record_from_dict(json.loads(line))
            except (ValueError, TypeError) as exc:
                item = exc
            yield lineno, item


def read_suite(path) -> list[PromptRecord]:
    """Strict parse; malformed lines raise with their line number."""
    records = []
    for lineno, item in _parse_suite_lines(path):
        if isinstance(item, Exception):
            raise ValueError(f"{path}: line {lineno}: {item}") from item
        records.append(item)
    return records


@dataclass(frozen=True)
class SuiteReport:
    """Validation outcome: empty ``violations`` means the suite is valid."""

    n_records: int
    violations: tuple[tuple[str | None, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return [f"OK: {self.n_records} records, no violations"]
        out = [f"{len(self.violations)} violation(s) in {self.n_records} record(s):"]
        out.extend(
            f"  {rid if rid is not None else '<suite>'}: {msg}"
            for rid, msg in self.violations
        )
        return out


def validate_suite(source, strict_counts: bool = False) -> SuiteReport:
    """Validate a suite given as records or as a file path.

    Per-record structural problems, duplicate ids and broken first/third
    pairing are reported as violations; ``strict_counts`` additionally
    pins the per-category sizes to :data:`TABLE_COUNTS`.
    """
    violations: list[tuple[str | None, str]] = []
    records: list[PromptRecord] = []
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        for lineno, item in _parse_suite_lines(source):
            if isinstance(item, json.JSONDecodeError):
                violations.append((None, f"line {lineno}: invalid JSON"))
            elif isinstance(item, Exception):
                violations.append((None, f"line {lineno}: {item}"))
            else:
                records.append(item)
    else:
        records = list(source)

    seen: set[str] = set()
    for record in records:
        if record.id in seen:
            violations.append((record.id, "duplicate record id"))
        seen.add(record.id)
        if record.category == "EgoExo" and record.pair_id is None:
            violations.append((record.id, "EgoExo record without pair_id"))
        if record.category != "EgoExo" and record.pair_id is not None:
            violations.append((record.id, "pair_id set on a non-EgoExo record"))

    pairs: dict[str, list[PromptRecord]] = {}
    for record in records:
        if record.category == "EgoExo" and record.pair_id is not None:
            pairs.setdefault(record.pair_id, []).append(record)
    for pair_id, members in sorted(pairs.items()):
        if len(members) != 2:
            violations.append((pair_id, f"pair has {len(members)} members, expected 2"))
            continue
        if {m.view for m in members} != set(VIEWS):
            violations.append((pair_id, "pair must contain one first and one third view"))
        if members[0].events != members[1].events:
            violations.append((pair_id, "paired records must share identical events"))

    if strict_counts:
        counts = {c: 0 for c in CATEGORIES}
        for record in records:
            counts[record.category] += 1
        for category, expected in TABLE_COUNTS.items():
            if counts[category] != expected:
                violations.append(
                    (None, f"category {category} has {counts[category]} records, expected {expected}")
                )
        total = sum(TABLE_COUNTS.values())
        if len(records) != total:
            violations.append((None, f"suite has {len(records)} records, expected {total}"))

    return SuiteReport(len(records), tuple(violations))


# ---------------------------------------------------------------------------
# training data

def mixture_data_sampler(pairs):
    """Training stream over ``[(condition, mixture), ...]`` pairs.

    Returns ``draw(rng, n) -> (z0, cond_vectors)``: picks a pair
    uniformly per example, then a component by its mixture weight, then
    the clean sample around that component's mean.  Every pair's
    components are stacked once here, so a draw is three random calls
    (pair, component, noise) and a gather, whatever pairs it picks.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (condition, mixture) pair")
    dim = pairs[0][1].dim
    if any(m.dim != dim for _, m in pairs):
        raise ValueError("all mixtures must share one dimension")
    conds = [c for c, _ in pairs]
    width = conds[0].width
    if any(c.width != width for c in conds):
        raise ValueError("all conditions must share one width")
    # row p is pair p's ConditionEmbedding.vector, built from stacked slots
    vectors = np.empty((len(conds), 2 * width + 2))
    vectors[:, :width] = np.stack([c.slot1 for c in conds])
    vectors[:, width:-2] = np.stack([c.slot2 for c in conds])
    vectors[:, -2] = [c.flag1 for c in conds]
    vectors[:, -1] = [c.flag2 for c in conds]
    mixtures = [m for _, m in pairs]
    means = np.concatenate([m.means for m in mixtures])
    sds = np.sqrt(np.concatenate([m.variances for m in mixtures]))
    counts = np.array([m.n_components for m in mixtures])
    starts = np.cumsum(counts) - counts
    # Row p holds pair p's cumulative weights.  Its last component and
    # the padding past it read +inf, so a uniform u in [0, 1) always
    # lands on one of the pair's own components despite rounding.
    slot = np.arange(counts.max())
    weights = np.zeros((len(mixtures), len(slot)))
    weights[slot < counts[:, None]] = np.concatenate([m.weights for m in mixtures])
    cum_weights = np.where(slot < counts[:, None] - 1, np.cumsum(weights, axis=1), np.inf)

    def draw(rng: np.random.Generator, n: int):
        idx = rng.integers(0, len(vectors), size=n)
        u = rng.random(n)
        noise = rng.standard_normal((n, dim))
        g = starts[idx] + (u[:, None] >= cum_weights[idx]).sum(axis=1)
        return means[g] + sds[g] * noise, vectors[idx]

    return draw


def suite_training_pairs(records, n_frames: int, sigma: float, w_mix: float = 0.5):
    """All (condition, mixture) pairs a sweep can query, for training.

    Each record gives its ``event1``, ``event2`` and ``concat`` pairs, in
    that order, each condition byte for byte as :func:`condition_of`
    builds it.  The data distribution a condition implies: ``event1`` and
    ``event2`` give an isotropic Gaussian of variance ``sigma**2`` around
    the single-event video, and ``concat`` a two-component mixture with
    weight ``w_mix`` on the event-1-then-event-2 video and the rest on the
    video of their :func:`blended_event`, as naming both events can come
    out as either reading.  ``w_mix`` is clamped to [0.01, 0.99] so
    neither component degenerates; ``sigma = 0`` yields point masses at
    the variance floor.  An error is one that building some record's
    pairs alone raises.  The records of one feature dimension are built
    in one pass: one :func:`_event_table` of their events, the rows of
    their blended events computed from it by the builder that
    :func:`blended_event` runs for one row, with the checks of
    :class:`EventParams` applied per row, and one call of the array
    builder of :func:`mean_trajectory` for all their mean trajectories.  The stacked weights, means and
    variances are checked there, once, by the checks of
    :class:`~turnpoint.analytic.GaussianMixture`, and each pair's
    condition slots and mixture arrays are read-only views into those
    stacks, not validated or copied again.  Numpy's overflow warnings are
    silenced: positions that overflow raise the non-finite error alone.
    """
    records = list(records)
    if not records:
        return []
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    w = min(max(float(w_mix), 0.01), 0.99)
    single, both = np.ones(1), np.array([w, 1.0 - w])
    single.flags.writeable = both.flags.writeable = False
    groups: dict[int, list[int]] = {}
    for r, record in enumerate(records):
        groups.setdefault(record.feature_dim, []).append(r)
    pairs: list = [None] * (3 * len(records))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in groups.values():
            group = [records[r] for r in rows]
            # record i's events 3i, 3i + 1 and 3i + 2: event 1, event 2 and
            # their blend; its four rows: event 1 alone, event 2 alone,
            # event 1 then event 2, and the blend alone
            events = _event_table([e for rec in group for e in rec.events]).reshape(len(group), 2, -1)
            blends = _table_rows(*_blends(events[:, 0], events[:, 1]))
            table = np.concatenate([events, blends[:, None]], axis=1).reshape(3 * len(group), -1)
            table.flags.writeable = False
            first = np.repeat([rec.view == "first" for rec in group], 3)
            at = 3 * np.arange(len(group))[:, None]
            a, b = (at + [0, 1, 0, 2]).ravel(), (at + [0, 1, 1, 2]).ravel()
            means = _trajectories(table, first, a, b, n_frames).reshape(len(group), 4, -1)
            variances = np.full(means.shape, sigma * sigma, dtype=np.float64)
            _check_mixture(single, means[:, :2, None], variances[:, :2, None])
            _check_mixture(both, means[:, 2:], variances[:, 2:])
            means.flags.writeable = variances.flags.writeable = False
            slots = table[:, :-2]
            absent = np.zeros(slots.shape[1])
            absent.flags.writeable = False
            for i, r in enumerate(rows):
                mu, var = means[i], variances[i]
                slot1, slot2 = slots[3 * i], slots[3 * i + 1]
                pairs[3 * r : 3 * r + 3] = (
                    (_condition_view(slot1, absent, 1, 0), _mixture_view(single, mu[:1], var[:1])),
                    (_condition_view(slot2, absent, 1, 0), _mixture_view(single, mu[1:2], var[1:2])),
                    (_condition_view(slot1, slot2, 1, 1), _mixture_view(both, mu[2:], var[2:])),
                )
    return pairs
