"""Tests for the Select policies, chiefly SR/G (Figure 9)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import (
    RandomPolicy,
    RankDepthPolicy,
    RoundRobinPolicy,
    SelectContext,
    SRGPolicy,
)
from repro.core.state import ScoreState
from repro.scoring.functions import Min
from repro.types import Access
from tests.conftest import mw_over


def make_ctx(ds1, target=2):
    mw = mw_over(ds1)
    state = ScoreState(mw, Min(2))
    return SelectContext(state=state, middleware=mw, target=target), mw, state


class TestSRGConstruction:
    def test_depth_range_validated(self):
        with pytest.raises(ValueError):
            SRGPolicy([0.5, 1.5])
        with pytest.raises(ValueError):
            SRGPolicy([-0.1])

    def test_schedule_must_be_permutation(self):
        with pytest.raises(ValueError):
            SRGPolicy([0.5, 0.5], schedule=[0, 0])
        with pytest.raises(ValueError):
            SRGPolicy([0.5, 0.5], schedule=[0, 2])

    def test_default_schedule_is_identity(self):
        assert SRGPolicy([0.5, 0.5]).schedule == (0, 1)

    def test_describe(self):
        text = SRGPolicy([0.25, 1.0], schedule=[1, 0]).describe()
        assert "0.25" in text and "p1,p0" in text


class TestSRGSortedRule:
    def test_sorted_taken_while_above_depth(self, ds1):
        ctx, mw, _ = make_ctx(ds1)
        policy = SRGPolicy([0.5, 0.5])
        alts = [Access.sorted(0), Access.random(0, 2)]
        assert policy.select(alts, ctx) == Access.sorted(0)

    def test_random_taken_once_depth_reached(self, ds1):
        ctx, mw, state = make_ctx(ds1)
        policy = SRGPolicy([0.9, 0.9])
        mw.sorted_access(0)  # l_0 = 0.7 <= 0.9: depth reached
        alts = [Access.sorted(0), Access.random(0, 2)]
        assert policy.select(alts, ctx) == Access.random(0, 2)

    def test_depth_one_disables_sorted(self, ds1):
        # delta = 1.0: l_i starts at exactly 1.0, never strictly above.
        ctx, _, _ = make_ctx(ds1)
        policy = SRGPolicy([1.0, 1.0])
        alts = [Access.sorted(0), Access.random(0, 2)]
        assert policy.select(alts, ctx) == Access.random(0, 2)

    def test_prefers_deepest_list(self, ds1):
        ctx, mw, _ = make_ctx(ds1)
        policy = SRGPolicy([0.0, 0.0])
        mw.sorted_access(0)  # l_0 = 0.7; l_1 still 1.0
        alts = [Access.sorted(0), Access.sorted(1)]
        assert policy.select(alts, ctx) == Access.sorted(1)

    def test_equal_depths_tie_break_lowest_index(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = SRGPolicy([0.0, 0.0])
        alts = [Access.sorted(1), Access.sorted(0)]
        assert policy.select(alts, ctx) == Access.sorted(0)


class TestSRGGlobalSchedule:
    def test_random_follows_schedule_order(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = SRGPolicy([1.0, 1.0], schedule=[1, 0])
        alts = [Access.random(0, 2), Access.random(1, 2)]
        assert policy.select(alts, ctx) == Access.random(1, 2)

    def test_identity_schedule(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = SRGPolicy([1.0, 1.0])
        alts = [Access.random(1, 2), Access.random(0, 2)]
        assert policy.select(alts, ctx) == Access.random(0, 2)


class TestSRGCompletenessFallbacks:
    def test_takes_sorted_beyond_depth_when_only_option(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = SRGPolicy([1.0, 1.0])  # depths forbid sorted...
        alts = [Access.sorted(0)]  # ...but nothing else exists
        assert policy.select(alts, ctx) == Access.sorted(0)

    def test_empty_alternatives_rejected(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        with pytest.raises(ValueError):
            SRGPolicy([0.5, 0.5]).select([], ctx)


class TestRoundRobinPolicy:
    def test_cycles_predicates(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = RoundRobinPolicy()
        alts = [Access.sorted(0), Access.sorted(1)]
        first = policy.select(alts, ctx)
        second = policy.select(alts, ctx)
        assert {first.predicate, second.predicate} == {0, 1}

    def test_reset_restarts_cycle(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = RoundRobinPolicy()
        alts = [Access.sorted(0), Access.sorted(1)]
        first = policy.select(alts, ctx)
        policy.reset()
        assert policy.select(alts, ctx) == first

    def test_falls_back_to_random(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = RoundRobinPolicy()
        alts = [Access.random(1, 2), Access.random(0, 2)]
        assert policy.select(alts, ctx) == Access.random(0, 2)


class TestRandomPolicy:
    def test_selects_member(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = RandomPolicy(seed=1)
        alts = [Access.sorted(0), Access.sorted(1), Access.random(0, 2)]
        for _ in range(20):
            assert policy.select(alts, ctx) in alts

    def test_reset_reproduces_sequence(self, ds1):
        ctx, _, _ = make_ctx(ds1)
        policy = RandomPolicy(seed=7)
        alts = [Access.sorted(0), Access.sorted(1)]
        first = [policy.select(alts, ctx) for _ in range(10)]
        policy.reset()
        second = [policy.select(alts, ctx) for _ in range(10)]
        assert first == second


class _Bounds:
    """A middleware stand-in: fixed ``l_i`` and depths, reads counted."""

    def __init__(self, limits, depths):
        self.limits = limits
        self.depths = depths
        self.reads = 0

    def last_seen(self, predicate):
        self.reads += 1
        return self.limits[predicate]

    def depth(self, predicate):
        return self.depths[predicate]


def _deepest(candidates, mw):
    return max(
        candidates, key=lambda acc: (mw.last_seen(acc.predicate), -acc.predicate)
    )


def _oracle(alternatives, mw, rank, open_list):
    """The comprehension form SR/G selects had before the one-pass loop."""
    sorted_cands = [acc for acc in alternatives if acc.is_sorted]
    below_depth = [acc for acc in sorted_cands if open_list(acc.predicate)]
    if below_depth:
        return _deepest(below_depth, mw)
    random_cands = [acc for acc in alternatives if acc.is_random]
    if random_cands:
        return min(random_cands, key=lambda acc: rank[acc.predicate])
    if sorted_cands:
        return _deepest(sorted_cands, mw)
    raise ValueError("alternatives must not be empty")


#: Few distinct values, so equal l_i (and l_i equal to a depth) are common.
_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0])


@st.composite
def select_cases(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    access = st.one_of(
        st.builds(Access.sorted, st.integers(0, m - 1)),
        st.builds(
            Access.random, st.integers(0, m - 1), st.integers(0, 3)
        ),
    )
    mix = draw(st.sampled_from(["mixed", "sorted-only", "random-only"]))
    alternatives = draw(st.lists(access, min_size=1, max_size=8))
    if mix == "sorted-only":
        alternatives = [Access.sorted(acc.predicate) for acc in alternatives]
    elif mix == "random-only":
        alternatives = [
            Access.random(acc.predicate, 0) if acc.is_sorted else acc
            for acc in alternatives
        ]
    return {
        "m": m,
        "alternatives": alternatives,
        "limits": draw(st.lists(_LEVELS, min_size=m, max_size=m)),
        "depths": draw(st.lists(_LEVELS, min_size=m, max_size=m)),
        "counts": draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
        "reached": draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
        "schedule": draw(st.permutations(range(m))),
    }


class TestOnePassSelect:
    """The one-pass SR/G loop against the comprehension form it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(select_cases())
    def test_srg_matches_the_comprehension_form(self, case):
        policy = SRGPolicy(case["depths"], case["schedule"])
        mw = _Bounds(case["limits"], case["reached"])
        ctx = SelectContext(state=None, middleware=mw, target=0)
        expected = _oracle(
            case["alternatives"],
            mw,
            policy._rank,
            lambda i: mw.last_seen(i) > policy.depths[i],
        )
        mw.reads = 0
        chosen = policy.select(case["alternatives"], ctx)
        assert chosen is expected
        sorted_cands = sum(acc.is_sorted for acc in case["alternatives"])
        assert mw.reads == sorted_cands

    @settings(max_examples=200, deadline=None)
    @given(select_cases())
    def test_rank_depth_matches_the_comprehension_form(self, case):
        policy = RankDepthPolicy(case["counts"], case["schedule"])
        mw = _Bounds(case["limits"], case["reached"])
        ctx = SelectContext(state=None, middleware=mw, target=0)
        expected = _oracle(
            case["alternatives"],
            mw,
            policy._rank,
            lambda i: mw.depth(i) < policy.depth_counts[i],
        )
        assert policy.select(case["alternatives"], ctx) is expected

    def test_empty_alternatives_still_rejected(self):
        mw = _Bounds([1.0], [0])
        ctx = SelectContext(state=None, middleware=mw, target=0)
        with pytest.raises(ValueError):
            RankDepthPolicy([1]).select([], ctx)
