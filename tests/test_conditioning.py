"""Conditioning probes: embeddings and condition plans (step schedules,
block assignments)."""

from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest

from turnpoint.conditioning import (
    ConditionEmbedding,
    ConditionPlan,
    block_split,
    compose_concat,
    compose_single,
    constant_schedule,
    floor_index,
    qualitative_settings,
    step_switch,
    unconditioned,
)


def decimal_floor(x: float, n: int) -> int:
    """Independent floor(x * n) oracle via exact decimal arithmetic."""
    product = Decimal(str(x)) * n
    return int(product.to_integral_value(rounding=ROUND_FLOOR))


def per_position(plan) -> list:
    """The condition at each step of a step plan or each block of a block plan."""
    return [plan.conds[s] for s in plan.slots.ravel()]


# ---------------------------------------------------------------------------
# floor_index


def test_switch_index_table_n50():
    # the delicate entries are 0.6 and 0.7, where the float product of the
    # grid value with 50 lands just below the integer
    got = [floor_index(i / 10, 50) for i in range(11)]
    assert got == [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50]


def test_block_index_table_b8():
    got = [floor_index(i / 10, 8) for i in range(11)]
    assert got == [0, 0, 1, 2, 3, 4, 4, 5, 6, 7, 8]


def test_floor_index_matches_decimal_oracle_on_fine_grid():
    floor_index.cache_clear()
    for n in (1, 3, 7, 8, 10, 16, 50, 100, 500, 1000):
        for i in range(101):
            x = i / 100
            assert floor_index(x, n) == decimal_floor(x, n), (x, n)
            assert floor_index(x, n) == decimal_floor(x, n), (x, n)  # memoised


def test_floor_index_random_decimals():
    rng = np.random.default_rng(7)
    for _ in range(500):
        # round-trip through a short decimal literal, like config values
        x = round(float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 5)))
        n = int(rng.integers(1, 1000))
        assert floor_index(x, n) == decimal_floor(x, n)


def test_floor_index_rejects_out_of_range():
    for bad in (-0.1, 1.1, float("nan")):
        for _ in range(2):  # a rejection is not memoised
            with pytest.raises(ValueError):
                floor_index(bad, 10)


# ---------------------------------------------------------------------------
# ConditionEmbedding


def test_vector_layout_and_width():
    cond = compose_concat([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(cond.vector, [1.0, 2.0, 3.0, 4.0, 1.0, 1.0])
    assert cond.width == 2


def test_single_condition_zeroes_second_slot():
    cond = compose_single([5.0, -1.0, 2.0])
    assert (cond.flag1, cond.flag2) == (1, 0)
    np.testing.assert_array_equal(cond.slot2, np.zeros(3))
    np.testing.assert_array_equal(cond.vector[:3], [5.0, -1.0, 2.0])


def test_unconditioned_is_all_zero():
    cond = unconditioned(4)
    assert (cond.flag1, cond.flag2) == (0, 0)
    np.testing.assert_array_equal(cond.vector, np.zeros(10))


def test_equality_and_hash_by_value():
    a = compose_concat([1.0, 2.0], [3.0, 4.0])
    b = compose_concat([1.0, 2.0], [3.0, 4.0])
    c = compose_concat([1.0, 2.0], [3.0, 5.0])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.key() == b.key() != c.key()
    assert a.key() == a.vector.tobytes() and a.key() is a.key()
    assert hash(a) == hash(a.vector.tobytes())


def test_presence_flags_disambiguate_zero_slots():
    # "event 1 alone" and "event 1 then a zero-embedded event" share the
    # same slot payload; only the flag bits keep their keys distinct
    single = compose_single([1.0, 2.0])
    both = ConditionEmbedding(single.slot1, single.slot2, 1, 1)
    assert single != both
    assert single.key() != both.key()
    np.testing.assert_array_equal(single.vector[:-2], both.vector[:-2])


def test_flag_validation():
    zero = np.zeros(2)
    with pytest.raises(ValueError):
        ConditionEmbedding(np.array([1.0, 0.0]), zero, 2, 0)
    with pytest.raises(ValueError):
        # flag says absent but the slot is non-zero
        ConditionEmbedding(zero, np.array([1.0, 0.0]), 0, 0)


def test_slot_width_mismatch_rejected():
    with pytest.raises(ValueError):
        compose_concat([1.0, 2.0], [1.0, 2.0, 3.0])


def test_slots_frozen_and_nonfinite_rejected():
    cond = compose_single([1.0, 2.0])
    with pytest.raises(ValueError):
        cond.slot1[0] = 9.0
    with pytest.raises(ValueError):
        compose_single([np.nan, 1.0])


def test_repr_stays_short():
    cond = compose_single(np.arange(200.0))
    assert len(repr(cond)) < 80


# ---------------------------------------------------------------------------
# ConditionPlan / constant_schedule / step_switch


def test_constant_schedule_single_segment():
    cond = compose_single([1.0])
    sched = constant_schedule(5, cond)
    assert sched.conds == (cond,)
    assert sched.slots.shape == (5, 1)
    assert per_position(sched) == [cond] * 5
    assert sched.split_index is None


def test_step_switch_interior_structure():
    a, b = compose_single([1.0]), compose_single([2.0])
    sched = step_switch(0.3, 50, a, b)
    assert sched.split_index == 15
    assert sched.conds == (a, b)
    np.testing.assert_array_equal(sched.slots, [[0]] * 15 + [[1]] * 35)
    assert sched.conds[sched.slots[14, 0]] == a
    assert sched.conds[sched.slots[15, 0]] == b


def test_step_switch_endpoints_collapse():
    a, b = compose_single([1.0]), compose_single([2.0])
    all_b = step_switch(0.0, 20, a, b)
    all_a = step_switch(1.0, 20, a, b)
    assert all_b.conds == (b,) and all_a.conds == (a,)
    # endpoint schedules are structurally identical to constant ones
    for plan, cond in ((all_b, b), (all_a, a)):
        const = constant_schedule(20, cond)
        assert plan.conds == const.conds
        np.testing.assert_array_equal(plan.slots, const.slots)


def test_step_switch_slots_match_floor_rule():
    rng = np.random.default_rng(11)
    a, b = compose_single([1.0, 0.0]), compose_single([0.0, 1.0])
    for _ in range(200):
        n = int(rng.integers(1, 120))
        x = round(float(rng.uniform(0.0, 1.0)), 3)
        sched = step_switch(x, n, a, b)
        k = decimal_floor(x, n)
        assert sched.slots.shape == (n, 1)
        assert per_position(sched) == [a if i < k else b for i in range(n)]


def test_step_switch_width_mismatch():
    with pytest.raises(ValueError):
        step_switch(0.5, 10, compose_single([1.0]), compose_single([1.0, 2.0]))


def test_plan_validation():
    a = compose_single([1.0])
    for bad in ([0, 0], [[[0]]], np.zeros((0, 1)), np.zeros((3, 0))):  # grid shape
        with pytest.raises(ValueError, match="non-empty 2-d grid"):
            ConditionPlan((a,), np.asarray(bad, dtype=np.intp))
    with pytest.raises(ValueError, match="differ in slot width"):
        ConditionPlan((a, compose_single([1.0, 2.0])), [[0], [1]])
    with pytest.raises(ValueError, match="at least one condition"):
        ConditionPlan((), [[0]])
    grid = np.zeros((2, 3), dtype=np.intp)
    plan = ConditionPlan([a], grid)
    grid[0, 0] = 5  # the plan holds its own read-only copy
    assert plan.conds == (a,) and not plan.slots.any()
    with pytest.raises(ValueError):
        plan.slots[0, 0] = 0


def test_plan_slot_range_errors():
    a, b = compose_single([1.0]), compose_single([2.0])
    for bad in (-1, 2):  # a slot outside the conditions
        with pytest.raises(ValueError, match="index its 2 conditions"):
            ConditionPlan((a, b), [[0], [1], [bad]])


def test_constructors_reject_an_empty_range():
    a = compose_single([1.0])
    for build in (lambda: step_switch(0.5, 0, a, a), lambda: block_split(0.5, 0, a, a),
                  lambda: constant_schedule(0, a)):
        with pytest.raises(ValueError):
            build()


# ---------------------------------------------------------------------------
# block_split


def test_block_split_table_pattern():
    a, b = compose_single([1.0]), compose_single([2.0])
    expected_b = [0, 0, 1, 2, 3, 4, 4, 5, 6, 7, 8]
    for i, want in zip(range(11), expected_b):
        assign = block_split(i / 10, 8, a, b)
        assert assign.split_index == want
        assert assign.slots.shape == (1, 8)
        pattern = tuple(c == a for c in per_position(assign))
        assert pattern == tuple(j < want for j in range(8))


def test_block_split_endpoints_uniform():
    a, b = compose_single([1.0]), compose_single([2.0])
    assert per_position(block_split(0.0, 6, a, b)) == [b] * 6
    assert per_position(block_split(1.0, 6, a, b)) == [a] * 6
    assert per_position(block_split(1.0, 6, a, a)) == [a] * 6
    assert block_split(0.0, 6, a, b).conds == (b,)
    assert block_split(1.0, 6, a, a).conds == (a,)


def test_block_assignment_validation():
    a = compose_single([1.0])
    with pytest.raises(ValueError):
        block_split(1.0, 0, a, a)
    with pytest.raises(ValueError, match="index its 1 conditions"):
        ConditionPlan((a,), [[0, 0, 1]])
    with pytest.raises(ValueError, match="differ in slot width"):
        ConditionPlan((a, compose_single([1.0, 2.0])), [[0, 1]])
    with pytest.raises(ValueError):  # checked at the endpoints too
        block_split(0.0, 4, a, compose_single([1.0, 2.0]))


def test_block_split_random_matches_floor_rule():
    rng = np.random.default_rng(13)
    a, b = compose_single([1.0]), compose_single([2.0])
    for _ in range(200):
        n = int(rng.integers(1, 40))
        x = round(float(rng.uniform(0.0, 1.0)), 3)
        assign = block_split(x, n, a, b)
        want = decimal_floor(x, n)
        assert assign.split_index == want
        assert sum(c == a for c in per_position(assign)) == want


# ---------------------------------------------------------------------------
# qualitative settings


def test_qualitative_settings_structure():
    e1 = np.array([1.0, 0.0, 0.5])
    e2 = np.array([0.0, 1.0, 0.5])
    single1, single2 = compose_single(e1), compose_single(e2)
    both = compose_concat(e1, e2)
    settings = qualitative_settings(0.5, single1, single2, both, 10)
    assert len(settings) == 4
    concat_always, s12, c1, s1c = settings
    assert per_position(concat_always) == [both] * 10
    assert per_position(s12) == [single1] * 5 + [single2] * 5
    assert per_position(c1) == [both] * 5 + [single1] * 5
    assert per_position(s1c) == [single1] * 5 + [both] * 5
    assert [len(s.conds) for s in settings] == [1, 2, 2, 2]


def test_qualitative_settings_share_step_count():
    e1, e2 = np.ones(3), np.zeros(3) + 2.0
    settings = qualitative_settings(
        0.3, compose_single(e1), compose_single(e2), compose_concat(e1, e2), 7
    )
    assert [s.slots.shape for s in settings] == [(7, 1)] * 4
