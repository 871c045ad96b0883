"""Direct unit tests for BoundTracker, the baselines' shared machinery."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import CA, NRA, MPro, SRCombine, StreamCombine, Upper
from repro.algorithms.base import BoundTracker
from repro.core.tasks import UNSEEN
from repro.data.dataset import Dataset
from repro.exceptions import ReproError
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.scoring.functions import Min, Monotone
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from tests.conftest import mw_over


def make_tracker(ds1, k=1, **mw_kwargs):
    mw = mw_over(ds1, **mw_kwargs)
    return mw, BoundTracker(mw, Min(2), k)


class TestSeeding:
    def test_nwg_mode_starts_with_unseen_only(self, ds1):
        _, tracker = make_tracker(ds1)
        top = tracker.current_topk()
        assert top == [(UNSEEN, 1.0)]

    def test_universe_mode_seeds_everyone(self, ds1):
        mw = mw_over(ds1, no_wild_guesses=False)
        tracker = BoundTracker(mw, Min(2), 3)
        top = tracker.current_topk()
        assert [obj for obj, _ in top] == [2, 1, 0]  # oid tie-break


class TestRecordAndRank:
    def test_new_object_enters_heap(self, ds1):
        mw, tracker = make_tracker(ds1, k=2)
        obj, score = mw.sorted_access(0)  # u3 @ .7
        tracker.record(0, obj, score)
        top = tracker.current_topk()
        assert top[0] == (2, pytest.approx(0.7))
        assert top[1][0] == UNSEEN  # ties at .7, loses to the real object

    def test_current_topk_leaves_heap_intact(self, ds1):
        mw, tracker = make_tracker(ds1, k=2)
        obj, score = mw.sorted_access(0)
        tracker.record(0, obj, score)
        first = tracker.current_topk()
        second = tracker.current_topk()
        assert first == second

    def test_unseen_retires_when_all_seen(self, ds1):
        mw, tracker = make_tracker(ds1, k=5)
        while not mw.exhausted(0):
            obj, score = mw.sorted_access(0)
            tracker.record(0, obj, score)
        top = tracker.current_topk()
        assert UNSEEN not in [obj for obj, _ in top]
        assert len(top) == 3


class TestFinished:
    def test_not_finished_while_top_incomplete(self, ds1):
        mw, tracker = make_tracker(ds1)
        obj, score = mw.sorted_access(0)
        tracker.record(0, obj, score)
        assert tracker.finished() is None
        assert tracker.top_incomplete() == (2, pytest.approx(0.7))

    def test_finished_when_top_complete(self, ds1):
        mw, tracker = make_tracker(ds1)
        obj, score = mw.sorted_access(0)
        tracker.record(0, obj, score)
        tracker.record(1, obj, mw.random_access(1, obj))
        ranking = tracker.finished()
        assert ranking is not None
        assert ranking[0].obj == 2
        assert ranking[0].score == pytest.approx(0.7)

    def test_top_incomplete_reports_unseen(self, ds1):
        _, tracker = make_tracker(ds1)
        assert tracker.top_incomplete() == (UNSEEN, 1.0)


class TestPopPush:
    def test_pop_returns_current_best(self, ds1):
        mw, tracker = make_tracker(ds1)
        obj, score = mw.sorted_access(0)
        tracker.record(0, obj, score)
        popped = tracker.pop_top()
        assert popped == (2, pytest.approx(0.7))
        tracker.push(2)
        assert tracker.pop_top() == (2, pytest.approx(0.7))

    def test_pop_exhausts(self, ds1):
        mw = mw_over(ds1, no_wild_guesses=False)
        tracker = BoundTracker(mw, Min(2), 1)
        for _ in range(3):
            assert tracker.pop_top() is not None
        assert tracker.pop_top() is None


# ----------------------------------------------------------------------
# Baselines on the saturating index against the lazy heap
# ----------------------------------------------------------------------


def _compiled(text, m):
    query = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1")
    fn, _order = compile_expression(query.expr, ["a", "b", "c"][:m])
    return fn


BASELINES = [
    CA,
    NRA,
    lambda: NRA(exact_scores=False),
    MPro,
    Upper,
    StreamCombine,
    lambda: StreamCombine(exact_scores=False),
    SRCombine,
]


@st.composite
def baseline_cases(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=25))
    levels = draw(st.integers(min_value=2, max_value=5))
    grid = [i / (levels - 1) for i in range(levels)] + [-0.0]
    scores = draw(
        st.lists(
            st.lists(st.sampled_from(grid), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return {
        "scores": scores,
        "fn": draw(st.sampled_from(["Min", "min(a, 0.8*b)", "median(a, b)"])),
        "k": draw(st.integers(min_value=1, max_value=min(4, n))),
        "cr": draw(st.sampled_from([1.0, 3.0])),
        "no_wild_guesses": draw(st.booleans()),
        "algorithm": draw(st.integers(min_value=0, max_value=len(BASELINES) - 1)),
    }


def run_baseline(fn, case):
    data = Dataset(np.array(case["scores"], dtype=float))
    middleware = Middleware.over(
        data,
        CostModel.uniform(data.m, cs=1.0, cr=case["cr"]),
        no_wild_guesses=case["no_wild_guesses"],
        record_log=True,
        contracts=True,
    )
    try:
        result = BASELINES[case["algorithm"]]().run(middleware, fn, case["k"])
    except ReproError as exc:
        return type(exc).__name__
    stats = middleware.stats
    return {
        "ranking": [
            (entry.obj, struct.pack("<d", entry.score))
            for entry in result.ranking
        ],
        "sorted": stats.sorted_counts,
        "random": stats.random_counts,
        "log": list(stats.log),
    }


class TestSaturatingDifferential:
    """Min-shaped F ranks through the saturating index; the same callable
    wrapped in a plain ``Monotone`` (no ``min_terms``) through the lazy
    heap. Every baseline must behave identically on both."""

    @settings(max_examples=250, deadline=None)
    @given(baseline_cases())
    def test_baselines_match_the_lazy_heap(self, case):
        m = len(case["scores"][0])
        if case["fn"] == "Min":
            fn = Min(m)
        else:
            fn = _compiled(case["fn"], m)
        plain = Monotone(fn.evaluate, arity=m)
        # Stream- and SR-Combine read F's derivative; the wrapper borrows
        # it (Min's is closed-form), so only the bound index differs.
        plain.partial_derivative = fn.partial_derivative
        assert fn.min_terms is not None and plain.min_terms is None
        assert run_baseline(fn, case) == run_baseline(plain, case)
