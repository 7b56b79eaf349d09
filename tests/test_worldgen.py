"""Toy trajectory domain, prompt suite generation and validation."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from helpers import single_gaussian
from turnpoint import worldgen
from turnpoint.analytic import GaussianMixture
from turnpoint.conditioning import ConditionEmbedding
from turnpoint.worldgen import (
    CATEGORIES,
    TABLE_COUNTS,
    EventParams,
    PromptRecord,
    blended_event,
    condition_of,
    embed_event,
    generate_suite,
    mean_trajectory,
    mixture_data_sampler,
    read_suite,
    suite_training_pairs,
    validate_suite,
    write_suite,
)


def ev(direction, speed=1.0, identity=(1.0, 0.0), background=(0.0, 1.0)):
    return EventParams(direction, speed, np.array(identity), np.array(background))


# ---------------------------------------------------------------------------
# events


def test_event_params_validation():
    with pytest.raises(ValueError):
        ev(-0.1)
    with pytest.raises(ValueError):
        ev(2 * math.pi)
    with pytest.raises(ValueError):
        ev(0.0, speed=-1.0)
    with pytest.raises(ValueError):
        EventParams(0.0, 1.0, np.ones(2), np.ones(3))


def test_event_drift():
    e = ev(math.pi / 2, speed=2.0)
    np.testing.assert_allclose(e.drift, [0.0, 2.0], atol=1e-12)


def test_embed_event_layout():
    e = ev(0.0, speed=1.5, identity=(0.2, 0.4), background=(0.6, 0.8))
    np.testing.assert_allclose(embed_event(e), [1.0, 0.0, 1.5, 0.2, 0.4, 0.6, 0.8])


def test_event_equality_by_value():
    assert ev(1.0) == ev(1.0)
    assert ev(1.0) != ev(1.0, speed=2.0)
    assert hash(ev(1.0)) == hash(ev(1.0))


# ---------------------------------------------------------------------------
# trajectories


def test_mean_trajectory_right_then_up():
    # unit speed along +x handing over to +y at the midpoint, four frames:
    # the walker takes one step right, then two steps up
    e1, e2 = ev(0.0), ev(math.pi / 2)
    traj = mean_trajectory(e1, e2, 4)
    np.testing.assert_allclose(
        traj[:, :2], [[0, 0], [1, 0], [1, 1], [1, 2]], atol=1e-12
    )
    # appearance channels follow the owning event
    np.testing.assert_array_equal(traj[0, 2:4], e1.identity)
    np.testing.assert_array_equal(traj[1, 2:4], e1.identity)
    np.testing.assert_array_equal(traj[2, 2:4], e2.identity)
    np.testing.assert_array_equal(traj[3, 2:4], e2.identity)


def test_mean_trajectory_piecewise_linear():
    rng = np.random.default_rng(4)
    for _ in range(25):
        t = int(rng.integers(4, 20))
        e1 = ev(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.1, 2)))
        e2 = ev(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.1, 2)))
        traj = mean_trajectory(e1, e2, t)
        split = t // 2
        steps = np.diff(traj[:, :2], axis=0)
        for m, step in enumerate(steps, start=1):
            want = e1.drift if m < split else e2.drift
            np.testing.assert_allclose(step, want, atol=1e-9)


def test_first_view_reconstructs_third_view():
    rng = np.random.default_rng(6)
    for _ in range(25):
        t = int(rng.integers(4, 16))
        e1 = ev(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.1, 2)))
        e2 = ev(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.1, 2)))
        third = mean_trajectory(e1, e2, t)
        first = mean_trajectory(e1, e2, t, view="first")
        split = t // 2
        # rotate the heading-relative steps back and integrate
        pos = np.zeros(2)
        for m in range(1, t):
            owner = e1 if m < split else e2
            c, s = math.cos(owner.direction), math.sin(owner.direction)
            step = first[m - 1, :2]
            pos = pos + np.array([c * step[0] - s * step[1], s * step[0] + c * step[1]])
            np.testing.assert_allclose(pos, third[m, :2], atol=1e-9)
        # appearance channels are view-independent
        np.testing.assert_array_equal(first[:, 2:], third[:, 2:])


def test_first_view_step_is_speed_forward():
    # in the mover's own frame each step points straight ahead
    e1, e2 = ev(1.1, speed=1.7), ev(4.0, speed=0.6)
    first = mean_trajectory(e1, e2, 8, view="first")
    for m in range(7):
        speed = 1.7 if (m + 1) < 4 else 0.6
        np.testing.assert_allclose(first[m, :2], [speed, 0.0], atol=1e-12)
    np.testing.assert_array_equal(first[7, :2], first[6, :2])  # last repeats


def test_mean_trajectory_validation():
    with pytest.raises(ValueError):
        mean_trajectory(ev(0.0), ev(1.0), 1)
    with pytest.raises(ValueError):
        mean_trajectory(ev(0.0), ev(1.0), 4, view="top")


def _per_frame_mean_trajectory(e1, e2, n_frames, view):
    """Reference: the per-frame loop that mean_trajectory replaced."""
    split = n_frames // 2
    d = e1.feature_dim
    frames = np.zeros((n_frames, 2 + 2 * d))

    def owner(m):
        return e1 if m < split else e2

    def rotate(vec, angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])

    steps = np.stack([owner(m).drift for m in range(1, n_frames)])
    for m in range(n_frames):
        frames[m, 2 : 2 + d] = owner(m).identity
        frames[m, 2 + d :] = owner(m).background
    if view == "third":
        frames[1:, :2] = np.cumsum(steps, axis=0)
    else:
        for m in range(n_frames - 1):
            frames[m, :2] = rotate(steps[m], -owner(m + 1).direction)
        frames[-1, :2] = frames[-2, :2]
    return frames


@pytest.mark.parametrize("view", ["third", "first"])
def test_mean_trajectory_equals_per_frame_reference(view):
    for record in generate_suite(0):
        e1, e2 = record.events
        mid = blended_event(e1, e2)
        for a, b in ((e1, e2), (e2, e1), (e1, e1), (mid, e2), (e1, mid)):
            for n_frames in (2, 3, 4, 16, 17):
                got = mean_trajectory(a, b, n_frames, view)
                want = _per_frame_mean_trajectory(a, b, n_frames, view)
                assert got.tobytes() == want.tobytes(), (record.id, n_frames)


# ---------------------------------------------------------------------------
# conditions and data distributions


def rec(e1, e2, view="third"):
    return PromptRecord("r0", "General", view, (e1, e2))


def test_condition_of_kinds():
    r = rec(ev(0.0), ev(1.0))
    c1 = condition_of(r, "event1")
    c2 = condition_of(r, "event2")
    cc = condition_of(r, "concat")
    assert (c1.flag1, c1.flag2) == (1, 0)
    np.testing.assert_array_equal(c1.slot1, embed_event(r.events[0]))
    np.testing.assert_array_equal(c2.slot1, embed_event(r.events[1]))
    np.testing.assert_array_equal(cc.slot1, embed_event(r.events[0]))
    np.testing.assert_array_equal(cc.slot2, embed_event(r.events[1]))
    assert len({c1.key(), c2.key(), cc.key()}) == 3
    with pytest.raises(ValueError):
        condition_of(r, "both")


def test_blended_event_averages_drift():
    e1, e2 = ev(0.0, speed=1.0), ev(math.pi / 2, speed=1.0)
    blend = blended_event(e1, e2)
    np.testing.assert_allclose(blend.drift, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(blend.identity, 0.5 * (e1.identity + e2.identity))


def test_blended_event_cancelling_drifts():
    e1, e2 = ev(0.0, speed=1.0), ev(math.pi, speed=1.0)
    blend = blended_event(e1, e2)
    assert blend.speed == pytest.approx(0.0, abs=1e-12)


def mixture_of(record, which, n_frames, sigma, w_mix=0.5):
    """The mixture of ``record``'s ``which`` training pair."""
    pairs = suite_training_pairs([record], n_frames, sigma, w_mix)
    return pairs[("event1", "event2", "concat").index(which)][1]


def test_training_pair_single_event_mean_is_single_event_video():
    r = rec(ev(0.3), ev(2.0))
    mix = mixture_of(r, "event1", 6, sigma=0.5)
    assert mix.n_components == 1
    e1 = r.events[0]
    np.testing.assert_array_equal(
        mix.means[0], mean_trajectory(e1, e1, 6).ravel()
    )
    np.testing.assert_allclose(mix.variances, 0.25)


def test_training_pair_concat_two_components():
    r = rec(ev(0.3), ev(2.0))
    mix = mixture_of(r, "concat", 6, sigma=0.5, w_mix=0.7)
    assert mix.n_components == 2
    np.testing.assert_allclose(mix.weights, [0.7, 0.3])
    e1, e2 = r.events
    np.testing.assert_array_equal(mix.means[0], mean_trajectory(e1, e2, 6).ravel())
    blend = blended_event(e1, e2)
    np.testing.assert_array_equal(
        mix.means[1], mean_trajectory(blend, blend, 6).ravel()
    )


def test_training_pair_clamps_mix_weight():
    r = rec(ev(0.3), ev(2.0))
    mix = mixture_of(r, "concat", 6, sigma=0.5, w_mix=1.0)
    np.testing.assert_allclose(mix.weights, [0.99, 0.01])


def test_training_pair_respects_view():
    r_first = PromptRecord("r1", "EgoExo", "first", (ev(0.3), ev(2.0)), pair_id="p")
    mix = mixture_of(r_first, "event2", 6, sigma=0.0)
    e2 = r_first.events[1]
    np.testing.assert_array_equal(
        mix.means[0], mean_trajectory(e2, e2, 6, view="first").ravel()
    )


# ---------------------------------------------------------------------------
# suite generation


def test_generate_suite_counts_and_determinism():
    a = generate_suite(0)
    b = generate_suite(0)
    c = generate_suite(1)
    assert len(a) == sum(TABLE_COUNTS.values())
    counts = {cat: 0 for cat in CATEGORIES}
    for r in a:
        counts[r.category] += 1
    assert counts == TABLE_COUNTS
    assert [r.id for r in a] == [r.id for r in b]
    assert all(x.events == y.events for x, y in zip(a, b))
    assert any(x.events != y.events for x, y in zip(a, c))


def test_generate_suite_category_recipes():
    suite = generate_suite(12)
    for r in suite:
        e1, e2 = r.events
        if r.category == "MotionOrder":
            gap = (e2.direction - e1.direction) % (2 * math.pi)
            assert gap == pytest.approx(math.pi / 2, abs=1e-9)
            assert e1.speed == e2.speed
            np.testing.assert_array_equal(e1.identity, e2.identity)
        elif r.category == "HumanIdentity":
            assert e1.direction == e2.direction and e1.speed == e2.speed
            assert not np.array_equal(e1.identity, e2.identity)
            np.testing.assert_array_equal(e1.background, e2.background)
        elif r.category == "General":
            assert e1.direction != e2.direction
            np.testing.assert_array_equal(e1.identity, e2.identity)
        elif r.category == "ComplexPlot":
            assert e1.direction != e2.direction
            assert not np.array_equal(e1.identity, e2.identity)
            assert not np.array_equal(e1.background, e2.background)


def test_generate_suite_egoexo_pairing():
    suite = generate_suite(12)
    pairs = {}
    for r in suite:
        if r.category == "EgoExo":
            assert r.pair_id is not None
            pairs.setdefault(r.pair_id, []).append(r)
        else:
            assert r.pair_id is None
    assert len(pairs) == TABLE_COUNTS["EgoExo"] // 2
    for members in pairs.values():
        assert sorted(m.view for m in members) == ["first", "third"]
        assert members[0].events == members[1].events


# write_suite bytes of generated suites, recorded before suites were drawn
# in uniform blocks and checked as one stack of events
SUITE_SHA256 = {
    0: "234b63dab2d8e4c359be2535be6edf1ffc99e26474932b45c6654256fe17f289",
    1: "cca177ecdbc91856b110e2a693bc3122c8cf1a3453143419ef08696ca566a484",
    12: "1b0cca2f87eb3fee24ff55396705cb7b96646ceed17fc5cf6f243546699c39c7",
}


def test_block_uniforms_equal_scalar_uniform_calls():
    # past two block refills, as retry loops may draw beyond one block
    bounds = [(0.0, 2 * math.pi), (0.5, 1.5), (-3.0, 7.25)] * 1500
    uniform = worldgen._uniforms(np.random.default_rng(7))
    rng = np.random.default_rng(7)
    assert [uniform(lo, hi) for lo, hi in bounds] == [rng.uniform(lo, hi) for lo, hi in bounds]


@pytest.mark.parametrize("seed", sorted(SUITE_SHA256))
def test_generate_suite_bytes_are_pinned(seed, tmp_path):
    path = tmp_path / "suite.jsonl"
    write_suite(generate_suite(seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_SHA256[seed]


def test_generated_and_blended_events_equal_constructed_events():
    suite = generate_suite(1)
    events = [e for r in suite for e in (*r.events, blended_event(*r.events))]
    for e in events:
        built = EventParams(e.direction, e.speed, e.identity, e.background)
        assert e == built and vars(e).keys() == vars(built).keys()
        assert type(e.direction) is type(e.speed) is float
        assert not (e.identity.flags.writeable or e.background.flags.writeable)


@pytest.mark.parametrize(
    "bad",
    [(math.nan, 1.0, 0.0, 0.0), (2 * math.pi, 1.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0),
     (1.0, math.inf, 0.0, 0.0), (-1.0, math.inf, 0.0, 0.0), (1.0, 1.0, math.nan, 0.0),
     (1.0, 1.0, 0.0, -math.inf), (1.0, 1.0, math.inf, math.nan)],
)
def test_event_stack_check_raises_what_the_first_bad_event_raises(bad):
    direction, speed, identity, background = bad
    with pytest.raises(ValueError) as built:
        EventParams(direction, speed, [identity], [background])
    rows = [(0.5, 1.0, 0.0, 0.0), bad, (math.nan, -1.0, math.nan, math.nan)]
    directions, speeds, identities, backgrounds = np.array(rows).T
    looks = np.stack([identities, backgrounds], axis=1)[:, :, None]
    with pytest.raises(ValueError, match=re.escape(str(built.value))):
        worldgen._check_events(directions, speeds, looks)


# ---------------------------------------------------------------------------
# serialization


def test_suite_roundtrip(tmp_path):
    suite = generate_suite(5)
    path = tmp_path / "suite.jsonl"
    write_suite(suite, path)
    back = read_suite(path)
    assert len(back) == len(suite)
    for x, y in zip(suite, back):
        assert (x.id, x.category, x.view, x.pair_id) == (y.id, y.category, y.view, y.pair_id)
        assert x.events == y.events


def test_read_suite_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(
        {
            "id": "a",
            "category": "General",
            "view": "third",
            "events": [
                {"direction": 0.0, "speed": 1.0, "identity": [1.0], "background": [1.0]},
                {"direction": 1.0, "speed": 1.0, "identity": [1.0], "background": [1.0]},
            ],
        }
    )
    path.write_text(good + "\n" + "{not json}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_suite(path)


def test_read_suite_rejects_wrong_event_count(tmp_path):
    path = tmp_path / "bad.jsonl"
    obj = {
        "id": "a",
        "category": "General",
        "view": "third",
        "events": [
            {"direction": 0.0, "speed": 1.0, "identity": [1.0], "background": [1.0]}
        ],
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="events must have length 2"):
        read_suite(path)


@pytest.mark.parametrize("key", ["id", "pair_id"])
def test_read_suite_rejects_non_string_ids(key, tmp_path):
    # a numeric id would pass, but `sample --prompt-id` compares strings
    path = tmp_path / "suite.jsonl"
    write_suite([r for r in generate_suite(0) if r.pair_id is not None][:1], path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[key] = 5
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"line 1: {key} must be a string, got int"):
        read_suite(path)
    assert validate_suite(path).violations == ((None, f"line 1: {key} must be a string, got int"),)


# ---------------------------------------------------------------------------
# validation


def test_validate_suite_ok_on_generated():
    report = validate_suite(generate_suite(3), strict_counts=True)
    assert report.ok
    assert report.n_records == sum(TABLE_COUNTS.values())
    assert report.lines()[0].startswith("OK")


def test_validate_suite_duplicate_ids():
    suite = generate_suite(3)
    dup = suite + [suite[0]]
    report = validate_suite(dup)
    assert not report.ok
    assert any("duplicate" in msg for _, msg in report.violations)


def test_validate_suite_pairing_violations():
    e1, e2 = ev(0.0), ev(1.0)
    lone = PromptRecord("x-first", "EgoExo", "first", (e1, e2), pair_id="x")
    report = validate_suite([lone])
    assert any("2" in msg for _, msg in report.violations)

    same_view = [
        PromptRecord("y-a", "EgoExo", "first", (e1, e2), pair_id="y"),
        PromptRecord("y-b", "EgoExo", "first", (e1, e2), pair_id="y"),
    ]
    report = validate_suite(same_view)
    assert any("view" in msg for _, msg in report.violations)

    different_events = [
        PromptRecord("z-a", "EgoExo", "first", (e1, e2), pair_id="z"),
        PromptRecord("z-b", "EgoExo", "third", (e1, ev(2.0)), pair_id="z"),
    ]
    report = validate_suite(different_events)
    assert any("identical events" in msg for _, msg in report.violations)


def test_validate_suite_pair_id_placement():
    e1, e2 = ev(0.0), ev(1.0)
    no_pair = PromptRecord("a", "EgoExo", "first", (e1, e2))
    stray = PromptRecord("b", "General", "third", (e1, e2), pair_id="oops")
    report = validate_suite([no_pair, stray])
    messages = [msg for _, msg in report.violations]
    assert any("without pair_id" in m for m in messages)
    assert any("non-EgoExo" in m for m in messages)


def test_validate_suite_strict_counts():
    short = [r for r in generate_suite(3) if r.category != "MotionOrder"]
    report = validate_suite(short, strict_counts=True)
    assert any("MotionOrder" in msg for _, msg in report.violations)
    # the same suite is fine without strict counts
    assert validate_suite(short).ok


def test_validate_suite_from_file_collects_bad_lines(tmp_path):
    path = tmp_path / "suite.jsonl"
    suite = generate_suite(3)
    write_suite(suite, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    report = validate_suite(path)
    assert not report.ok
    assert any("invalid JSON" in msg for _, msg in report.violations)


# ---------------------------------------------------------------------------
# training data plumbing


def _per_record_mean_trajectory(e1, e2, n_frames, view):
    """Reference: mean_trajectory as it was before the batched builder."""
    moves = []
    for e in (e1, e2):
        step = e.drift
        if view == "first":
            c, s = math.cos(-e.direction), math.sin(-e.direction)
            step = np.array([c * step[0] - s * step[1], s * step[0] + c * step[1]])
        moves.append(step)
    owned = (np.arange(n_frames) < n_frames // 2)[:, None]
    steps = np.where(owned[1:], moves[0], moves[1])
    frames = np.zeros((n_frames, 2 + 2 * e1.feature_dim))
    frames[:, 2:] = np.where(
        owned,
        np.concatenate([e1.identity, e1.background]),
        np.concatenate([e2.identity, e2.background]),
    )
    if view == "third":
        frames[1:, :2] = np.cumsum(steps, axis=0)
    else:
        frames[:-1, :2] = steps
        frames[-1, :2] = steps[-1]
    return frames


def _per_record_pairs(records, n_frames, sigma, w_mix):
    """Reference: the pairs built one record and one condition at a time."""
    pairs = []
    w = min(max(float(w_mix), 0.01), 0.99)
    for record in records:
        e1, e2 = record.events
        blend = blended_event(e1, e2)

        def flat(a, b):
            return _per_record_mean_trajectory(a, b, n_frames, record.view).ravel()

        means = np.stack([flat(e1, e2), flat(blend, blend)])
        pairs += [
            (condition_of(record, "event1"), single_gaussian(flat(e1, e1), sigma * sigma)),
            (condition_of(record, "event2"), single_gaussian(flat(e2, e2), sigma * sigma)),
            (
                condition_of(record, "concat"),
                GaussianMixture(np.array([w, 1.0 - w]), means, np.full_like(means, sigma * sigma)),
            ),
        ]
    return pairs


def _pair_bytes(pair):
    cond, mixture = pair
    arrays = (cond.slot1, cond.slot2, mixture.weights, mixture.means, mixture.variances)
    return (cond.key(), cond.flag1, cond.flag2, *((a.shape, a.tobytes()) for a in arrays))


def _mixed_dimension_records(seed):
    """Every fifth record of a suite, EgoExo pairs of both views among
    them, with 1, 2 or 3 appearance features in turn."""
    rng = np.random.default_rng(seed)
    records = []
    for i, r in enumerate(generate_suite(seed)[::5]):
        d = 1 + i % 3
        events = tuple(
            EventParams(e.direction, e.speed, rng.normal(size=d), rng.normal(size=d))
            for e in r.events
        )
        records.append(PromptRecord(r.id, r.category, r.view, events, pair_id=r.pair_id))
    return records


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_training_pairs_equal_per_record_construction(seed):
    suite = generate_suite(seed)
    assert {r.view for r in suite} == {"first", "third"}
    # every sigma and clamped w_mix pairing over the nine (seed, frames) cases
    for i, n_frames in enumerate((4, 5, 16), start=3 * seed):
        sigma, w_mix = (0.0, 0.5)[i % 2], (0.0, 0.5, 1.0)[i % 3]
        got = suite_training_pairs(suite, n_frames, sigma, w_mix)
        want = _per_record_pairs(suite, n_frames, sigma, w_mix)
        assert list(map(_pair_bytes, got)) == list(map(_pair_bytes, want)), (n_frames, sigma)
    # integer and single-precision sigmas give float64 variances, as the
    # mixture constructor casts them
    for sigma in (0, 1, np.float32(0.3)):
        got = suite_training_pairs(suite, 5, sigma, 0.5)
        want = _per_record_pairs(suite, 5, sigma, 0.5)
        assert list(map(_pair_bytes, got)) == list(map(_pair_bytes, want)), sigma


def test_suite_training_pairs_mixing_feature_dimensions_equal_per_record_construction():
    records = _mixed_dimension_records(4)
    assert {r.feature_dim for r in records} == {1, 2, 3}
    assert {r.view for r in records} == {"first", "third"}
    for sigma, w_mix in ((0.0, 1.0), (0.5, 0.3)):
        got = suite_training_pairs(records, 6, sigma, w_mix)
        want = _per_record_pairs(records, 6, sigma, w_mix)
        assert list(map(_pair_bytes, got)) == list(map(_pair_bytes, want))


def test_suite_training_pairs_are_read_only_views_of_shared_stacks():
    pairs = suite_training_pairs(generate_suite(0)[:4], 8, 0.5)
    bases = set()
    for cond, mixture in pairs:
        arrays = (cond.slot1, cond.slot2, mixture.weights, mixture.means, mixture.variances)
        assert not any(a.flags.writeable for a in arrays)
        bases.update(id(a.base) for a in (cond.slot1, mixture.means, mixture.variances))
    assert len(bases) == 3  # one stack each for the slots, the means and the variances


def test_suite_training_pairs_raise_what_per_record_construction_raises():
    big = 1e308
    overflow = rec(ev(0.0, speed=big), ev(1.0))  # third view: positions overflow
    drift_overflow = PromptRecord(  # first view: finite steps, the blend's speed overflows
        "r1", "EgoExo", "first", (ev(0.0, speed=big), ev(0.0, speed=big)), pair_id="p"
    )
    # headings 0.01 and 2 pi - 0.01 blend to a heading that rounds to 2 pi
    wraps = rec(ev(0.01), ev(2 * math.pi - 0.01))
    messages = {
        overflow: "mixture parameters contain non-finite values",
        drift_overflow: "speed must be finite and >= 0, got inf",
        wraps: r"direction must lie in \[0, 2\*pi\)",
    }
    for record, message in messages.items():
        with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
            _per_record_pairs([record], 6, 0.5, 0.5)
        with pytest.raises(ValueError, match=message):
            suite_training_pairs([rec(ev(0.5), ev(2.0)), record], 6, 0.5, 0.5)
    # several bad records raise the error of one of them
    with pytest.raises(ValueError, match="|".join(messages.values())):
        suite_training_pairs(list(messages), 6, 0.5, 0.5)
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        suite_training_pairs([rec(ev(0.5), ev(2.0))], 6, -1.0)


def test_pair_views_hold_the_fields_of_constructed_objects():
    # the views skip the constructors, so they must set every field the
    # dataclasses declare, and nothing else
    (cond, mixture), *_ = suite_training_pairs([rec(ev(0.5), ev(2.0))], 6, 0.5)
    built_cond = condition_of(rec(ev(0.5), ev(2.0)), "event1")
    built_mixture = single_gaussian([0.0, 1.0], 0.5)
    for view, built, cls in ((cond, built_cond, ConditionEmbedding),
                             (mixture, built_mixture, GaussianMixture)):
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(vars(view)) - {"_key"} == set(vars(built)) - {"_key"} == names


def test_mixture_data_sampler_shapes_and_determinism():
    r = rec(ev(0.2), ev(2.2))
    pairs = suite_training_pairs([r], n_frames=4, sigma=0.3)
    assert len(pairs) == 3
    draw = mixture_data_sampler(pairs)
    z0, conds = draw(np.random.default_rng(9), 32)
    assert z0.shape == (32, 4 * 6)
    assert conds.shape == (32, 2 * 7 + 2)
    z0b, condsb = draw(np.random.default_rng(9), 32)
    np.testing.assert_array_equal(z0, z0b)
    np.testing.assert_array_equal(conds, condsb)
    # every returned condition vector is one of the registered ones
    known = {c.key() for c, _ in pairs}
    for row in conds:
        assert row.tobytes() in known


def test_mixture_data_sampler_validation():
    with pytest.raises(ValueError):
        mixture_data_sampler([])
    r = rec(ev(0.2), ev(2.2))
    pairs_a = suite_training_pairs([r], n_frames=4, sigma=0.3)
    pairs_b = suite_training_pairs([r], n_frames=6, sigma=0.3)
    with pytest.raises(ValueError, match="all mixtures must share one dimension"):
        mixture_data_sampler([pairs_a[0], pairs_b[0]])
    # 3 frames of 2 + 2*3 numbers match 4 frames of 2 + 2*2, but the
    # condition widths differ (2*9 + 2 against 2*7 + 2)
    wide = ev(0.2, identity=(1.0, 0.0, 0.0), background=(0.0, 1.0, 0.0))
    pairs_c = suite_training_pairs([rec(wide, wide)], n_frames=3, sigma=0.3)
    assert pairs_c[0][1].dim == pairs_a[0][1].dim
    with pytest.raises(ValueError, match="all conditions must share one width"):
        mixture_data_sampler([pairs_a[0], pairs_c[0]])


def _sampler_conditions_equal_their_vectors(pairs, n):
    reference = np.stack([c.vector for c, _ in pairs])
    _, conds = mixture_data_sampler(pairs)(np.random.default_rng(3), n)
    idx = np.random.default_rng(3).integers(0, len(pairs), size=n)  # the draw's first call
    assert np.unique(idx).size == len(pairs)  # every row is compared
    assert conds.dtype == reference.dtype
    assert conds.tobytes() == reference[idx].tobytes()


def test_mixture_data_sampler_conditions_equal_a_full_suites_vectors():
    pairs = suite_training_pairs(generate_suite(11), n_frames=16, sigma=0.3)
    assert len(pairs) == 1050
    _sampler_conditions_equal_their_vectors(pairs, 20 * len(pairs))


def test_mixture_data_sampler_conditions_equal_hand_built_vectors():
    mixture = single_gaussian(np.zeros(2), 1.0)
    conds = [
        ConditionEmbedding(np.array([0.5, -1.25, 3.0]), np.array([-0.0, 0.0, -0.0]), 1, 0),
        ConditionEmbedding(np.array([1, 2, 3]), np.array([4, 5, 6]), 1, 1),  # int slots
        ConditionEmbedding(np.zeros(3), np.array([1e-300, -7.5, np.pi]), 0, True),
    ]
    _sampler_conditions_equal_their_vectors([(c, mixture) for c in conds], 64)


def test_mixture_data_sampler_distribution():
    # one-component event1/event2 pairs and two-component concat pairs,
    # the concat weight away from 1/2 so ignoring it shows
    records = [rec(ev(0.2), ev(2.2)), rec(ev(4.0, speed=0.5), ev(1.0, speed=1.5))]
    sigma, w_mix = 0.01, 0.2
    pairs = suite_training_pairs(records, n_frames=4, sigma=sigma, w_mix=w_mix)
    z0, conds = mixture_data_sampler(pairs)(np.random.default_rng(3), 60_000)
    # every component of every pair, tagged with its pair
    means = np.concatenate([m.means for _, m in pairs])
    owner = np.concatenate([np.full(m.n_components, p) for p, (_, m) in enumerate(pairs)])
    dist = np.stack([np.linalg.norm(z0 - mu, axis=1) for mu in means], axis=1)
    nearest = dist.argmin(axis=1)
    assert dist[np.arange(len(z0)), nearest].max() < 10 * sigma * math.sqrt(z0.shape[1])
    for p, (cond, mixture) in enumerate(pairs):
        rows = np.all(conds == cond.vector, axis=1)
        assert rows.sum() > 8_000
        # every draw lands on one of the pair's own components
        np.testing.assert_array_equal(owner[nearest[rows]], p)
        start = np.flatnonzero(owner == p)[0]
        share = np.bincount(nearest[rows] - start, minlength=mixture.n_components) / rows.sum()
        np.testing.assert_allclose(share, mixture.weights, atol=0.02)
        np.testing.assert_allclose(
            z0[rows].mean(axis=0), mixture.weights @ mixture.means, atol=0.02
        )
