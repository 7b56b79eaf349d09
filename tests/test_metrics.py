"""Trajectory metrics: alignment, consistency, turning-frame search."""

import math

import numpy as np
import pytest

from turnpoint.metrics import MetricsRecord, evaluate
from turnpoint.worldgen import EventParams, generate_suite, mean_trajectory


def ev(direction, speed=1.0, identity=(1.0, 0.0), background=(0.0, 1.0)):
    return EventParams(direction, speed, np.array(identity), np.array(background))


def alignment(traj, e1, e2):
    rec = evaluate(traj, e1, e2)
    return rec.ta1, rec.ta2, rec.ta_mean


def consistency(traj):
    """(ic, bc) of ``traj``, which no event changes."""
    rec = evaluate(traj, ev(0.0), ev(1.0))
    return rec.ic, rec.bc


def turning(traj, e1, e2):
    rec = evaluate(traj, e1, e2)
    return rec.turning_frame, rec.occupancy2


def cos01(a, b):
    return 0.5 * (1.0 + np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def naive_turning_frame(traj, e1, e2):
    """Slow reference implementation with explicit loops."""
    u1 = (math.cos(e1.direction), math.sin(e1.direction))
    u2 = (math.cos(e2.direction), math.sin(e2.direction))
    cross = abs(u1[0] * u2[1] - u1[1] * u2[0])
    dot = u1[0] * u2[0] + u1[1] * u2[1]
    if cross < 1e-9 and dot > 0.0:
        return None, 0.5
    n = len(traj)
    labels = []
    for m in range(1, n):
        sx = traj[m][0] - traj[m - 1][0]
        sy = traj[m][1] - traj[m - 1][1]
        labels.append((sx * u2[0] + sy * u2[1]) > (sx * u1[0] + sy * u1[1]))
    best_s, best_cost = None, None
    for s in range(n):
        cost = 0
        for m, lab in zip(range(1, n), labels):
            want2 = m >= s
            if want2 != lab:
                cost += 1
        if best_cost is None or cost < best_cost:
            best_s, best_cost = s, cost
    return best_s, sum(labels) / len(labels)


# ---------------------------------------------------------------------------
# event alignment


def test_noiseless_trajectory_aligns_perfectly():
    e1, e2 = ev(0.0), ev(math.pi / 2)
    traj = mean_trajectory(e1, e2, 16)
    ta1, ta2, ta_mean = alignment(traj, e1, e2)
    assert ta1 == pytest.approx(1.0, abs=1e-12)
    assert ta2 == pytest.approx(1.0, abs=1e-12)
    assert ta_mean == pytest.approx(1.0, abs=1e-12)


def test_swapped_events_score_low():
    e1, e2 = ev(0.0), ev(math.pi)
    traj = mean_trajectory(e2, e1, 16)  # generation realized the wrong order
    ta1, ta2, _ = alignment(traj, e1, e2)
    assert ta1 == pytest.approx(0.0, abs=1e-9)
    assert ta2 == pytest.approx(0.0, abs=1e-9)


def test_alignment_mean_is_arithmetic():
    rng = np.random.default_rng(2)
    e1, e2 = ev(0.3), ev(2.5)
    for _ in range(20):
        traj = mean_trajectory(e1, e2, 12) + 0.2 * rng.standard_normal((12, 6))
        ta1, ta2, ta_mean = alignment(traj, e1, e2)
        assert ta_mean == pytest.approx((ta1 + ta2) / 2)
        assert 0.0 <= ta1 <= 1.0 and 0.0 <= ta2 <= 1.0


def test_alignment_rotation_equivariance():
    # rotating the whole scene (events and positions) preserves scores
    rng = np.random.default_rng(14)
    for _ in range(20):
        d1, d2 = rng.uniform(0, 2 * math.pi, 2)
        phi = float(rng.uniform(0, 2 * math.pi))
        e1, e2 = ev(d1), ev(d2)
        traj = mean_trajectory(e1, e2, 10) + 0.1 * rng.standard_normal((10, 6))
        r1, r2 = ev((d1 + phi) % (2 * math.pi)), ev((d2 + phi) % (2 * math.pi))
        rot = traj.copy()
        c, s = math.cos(phi), math.sin(phi)
        rot[:, 0] = c * traj[:, 0] - s * traj[:, 1]
        rot[:, 1] = s * traj[:, 0] + c * traj[:, 1]
        a = alignment(traj, e1, e2)
        b = alignment(rot, r1, r2)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_static_trajectory_scores_half():
    traj = np.zeros((8, 6))
    ta1, ta2, ta_mean = alignment(traj, ev(0.0), ev(1.0))
    assert (ta1, ta2, ta_mean) == (0.5, 0.5, 0.5)


def test_zero_speed_event_scores_half():
    e1, e2 = ev(0.0, speed=0.0), ev(1.0)
    traj = mean_trajectory(ev(0.0), e2, 8)
    ta1, _, _ = alignment(traj, e1, e2)
    assert ta1 == 0.5


def test_alignment_needs_four_frames():
    with pytest.raises(ValueError):
        alignment(np.zeros((3, 6)), ev(0.0), ev(1.0))
    with pytest.raises(ValueError):
        alignment(np.zeros((4, 5)), ev(0.0), ev(1.0))


# ---------------------------------------------------------------------------
# identity / background consistency


def test_consistency_shared_appearance_is_one():
    e1, e2 = ev(0.0), ev(math.pi / 2)  # same identity and background
    ic, bc = consistency(mean_trajectory(e1, e2, 16))
    assert ic == pytest.approx(1.0)
    assert bc == pytest.approx(1.0)


def test_consistency_compares_quarter_frames():
    e1 = ev(0.0, identity=(1.0, 0.0))
    e2 = ev(math.pi / 2, identity=(0.0, 1.0))  # orthogonal identities
    # frames 4 and 12 fall in different event segments
    ic, bc = consistency(mean_trajectory(e1, e2, 16))
    assert ic == pytest.approx(0.5)
    assert bc == pytest.approx(1.0)


def test_consistency_opposite_background_scores_zero():
    e1 = ev(0.0, background=(0.0, 1.0))
    e2 = ev(1.0, background=(0.0, -1.0))
    _, bc = consistency(mean_trajectory(e1, e2, 16))
    assert bc == pytest.approx(0.0)


def test_consistency_zero_vector_guard():
    assert consistency(np.zeros((8, 6))) == (0.5, 0.5)


# ---------------------------------------------------------------------------
# turning frame


def test_turning_frame_noiseless_split():
    e1, e2 = ev(0.0), ev(math.pi / 2)
    traj = mean_trajectory(e1, e2, 16)
    turn, occupancy2 = turning(traj, e1, e2)
    assert turn == 8
    assert occupancy2 == pytest.approx(8 / 15)


def test_turning_frame_single_event_extremes():
    e1, e2 = ev(0.0), ev(math.pi / 2)
    only_e1 = mean_trajectory(e1, e1, 10)
    turn, occ = turning(only_e1, e1, e2)
    assert turn == 9 and occ == 0.0  # latest split: nothing looks like event 2
    only_e2 = mean_trajectory(e2, e2, 10)
    turn, occ = turning(only_e2, e1, e2)
    assert turn == 0 and occ == 1.0  # earliest split wins ties


def test_turning_frame_coincident_directions():
    e1, e2 = ev(1.0), ev(1.0, speed=2.0)
    traj = mean_trajectory(e1, e2, 8)
    assert turning(traj, e1, e2) == (None, 0.5)


def test_turning_frame_opposite_directions_still_defined():
    e1, e2 = ev(0.0), ev(math.pi)
    traj = mean_trajectory(e1, e2, 8)
    turn, occ = turning(traj, e1, e2)
    assert turn == 4
    assert occ == pytest.approx(4 / 7)  # destinations 4..7 out of 7 steps


def test_turning_frame_matches_naive_reference():
    rng = np.random.default_rng(19)
    for _ in range(100):
        t = int(rng.integers(4, 16))
        e1 = ev(float(rng.uniform(0, 2 * math.pi)))
        e2 = ev(float(rng.uniform(0, 2 * math.pi)))
        traj = mean_trajectory(e1, e2, t) + 0.4 * rng.standard_normal((t, 6))
        got = turning(traj, e1, e2)
        want = naive_turning_frame(traj.tolist(), e1, e2)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1])


def test_turning_frame_first_minimum_on_random_labels():
    # steps exactly along one event direction reproduce the drawn labels;
    # short trajectories, down to the 4 frames evaluate scores, leave
    # several splits at the minimum cost
    e1, e2 = ev(0.3), ev(2.1)
    unit = {
        False: (math.cos(e1.direction), math.sin(e1.direction)),
        True: (math.cos(e2.direction), math.sin(e2.direction)),
    }
    rng = np.random.default_rng(23)
    ties = 0
    for _ in range(300):
        n = int(rng.integers(4, 12))
        labels = [bool(v) for v in rng.random(n - 1) < rng.uniform(0.1, 0.9)]
        traj = np.zeros((n, 6))
        traj[1:, :2] = np.cumsum([unit[lab] for lab in labels], axis=0)
        costs = [
            sum((m >= s) != lab for m, lab in zip(range(1, n), labels))
            for s in range(n)
        ]
        ties += costs.count(min(costs)) > 1
        want = (costs.index(min(costs)), float(np.mean(labels)))
        assert turning(traj, e1, e2) == want
    assert ties > 0


def test_turning_frame_needs_two_frames():
    # the alignment's 4-frame check rejects a trajectory before the search
    for n_frames in (1, 2, 3):
        with pytest.raises(ValueError, match="at least 4 frames"):
            turning(np.zeros((n_frames, 6)), ev(0.0), ev(1.0))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_composes_the_parts():
    e1 = ev(0.2, identity=(1.0, 0.0), background=(0.4, 0.6))
    e2 = ev(2.2, identity=(0.0, 1.0), background=(0.4, 0.6))
    rng = np.random.default_rng(3)
    traj = mean_trajectory(e1, e2, 12) + 0.1 * rng.standard_normal((12, 6))
    rec = evaluate(traj, e1, e2)
    assert isinstance(rec, MetricsRecord)
    # each field against its definition, computed directly: steps into
    # frames 1..5 belong to event 1, and frames 3 and 9 are the quarters
    steps = np.diff(traj[:, :2], axis=0)
    ta1 = cos01(steps[:5].mean(axis=0), e1.drift)
    ta2 = cos01(steps[5:].mean(axis=0), e2.drift)
    assert (rec.ta1, rec.ta2, rec.ta_mean) == pytest.approx((ta1, ta2, (ta1 + ta2) / 2), abs=1e-12)
    assert rec.ic == pytest.approx(cos01(traj[3, 2:4], traj[9, 2:4]), abs=1e-12)
    assert rec.bc == pytest.approx(cos01(traj[3, 4:6], traj[9, 4:6]), abs=1e-12)
    turn, occ = naive_turning_frame(traj.tolist(), e1, e2)
    assert rec.turning_frame == turn
    assert rec.occupancy2 == pytest.approx(occ)


def test_evaluate_is_pure():
    e1, e2 = ev(0.0), ev(2.0)
    traj = mean_trajectory(e1, e2, 8)
    assert evaluate(traj, e1, e2) == evaluate(traj, e1, e2)


@pytest.mark.parametrize("suite_seed", [0, 1, 2])
def test_batched_evaluate_equals_one_trajectory_at_a_time(suite_seed):
    records = generate_suite(suite_seed)
    trajs, e1s, e2s = [], [], []
    for i, record in enumerate(records):
        e1, e2 = record.events
        noiseless = mean_trajectory(e1, e2, 16, record.view)
        rng = np.random.default_rng(1000 * suite_seed + i)
        noisy = noiseless + 0.5 * rng.standard_normal(noiseless.shape)
        blank = noisy.copy()
        blank[:, 2:] = 0.0  # identity and background channels all zero
        for traj in (noiseless, noisy, blank):
            trajs.append(traj)
            e1s.append(e1)
            e2s.append(e2)
    batch = evaluate(np.stack(trajs), e1s, e2s)
    alone = [evaluate(*args) for args in zip(trajs, e1s, e2s)]
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        for name in MetricsRecord.__dataclass_fields__:
            assert getattr(got, name) == getattr(want, name), name
    # the cases the comparison is meant to cover are all present
    assert {"first", "third"} <= {r.view for r in records}
    assert any(rec.turning_frame is None for rec in batch)
    assert all((rec.ic, rec.bc) == (0.5, 0.5) for rec in batch[2::3])


def test_batched_evaluate_takes_one_event_pair_for_every_row():
    e1, e2 = ev(0.4), ev(2.0)
    rng = np.random.default_rng(4)
    trajs = mean_trajectory(e1, e2, 10) + 0.3 * rng.standard_normal((5, 10, 6))
    assert evaluate(trajs, e1, e2) == [evaluate(traj, e1, e2) for traj in trajs]
    with pytest.raises(ValueError, match="events for 5 trajectories"):
        evaluate(trajs, [e1] * 4, e2)
    with pytest.raises(ValueError, match="shape"):
        evaluate(trajs[None], e1, e2)  # a stack of batches is not a batch
