"""Micro-behaviour tests: each baseline's *signature* mechanics.

Correctness is covered by the golden invariant; these tests pin the
behavioural fingerprints that make each algorithm what it is -- the
properties the paper's Section 8 unification argument talks about.
"""

import inspect

import pytest

from repro.algorithms.base import TopKAlgorithm
from repro.algorithms.ca import CA
from repro.algorithms.fa import FA
from repro.algorithms.mpro import MPro
from repro.algorithms.ta import TA
from repro.data.dataset import Dataset
from repro.data.generators import correlated, uniform
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.types import AccessType
from tests.conftest import library_classes, mw_over

#: Every concrete algorithm under ``repro``, found by walking the package.
CONCRETE_ALGORITHMS = [
    cls for cls in library_classes(TopKAlgorithm) if not inspect.isabstract(cls)
]


class TestAlgorithmNames:
    """Benchmark tables and comparisons key rows by ``name``: an algorithm
    that inherits its parent's label silently merges into that row."""

    @pytest.mark.parametrize(
        "cls", CONCRETE_ALGORITHMS, ids=lambda cls: cls.__name__
    )
    def test_name_set_in_own_class_body(self, cls):
        assert isinstance(vars(cls).get("name"), str), cls

    def test_names_are_distinct(self):
        names = [cls.name for cls in CONCRETE_ALGORITHMS]
        assert len(CONCRETE_ALGORITHMS) >= 11
        assert len(set(names)) == len(names), sorted(names)


class TestTAThresholdMechanics:
    def test_stops_exactly_when_kth_meets_threshold(self):
        """Replay TA's log: before the final round the k-th best evaluated
        score must be below the then-threshold, after it at or above."""
        data = uniform(200, 2, seed=31)
        fn = Avg(2)
        k = 5
        mw = mw_over(data, record_log=True)
        TA().run(mw, fn, k)
        log = mw.stats.log

        # Replay, tracking threshold and the k-th best exact score.
        replay = mw_over(data)
        from repro.core.state import ScoreState

        state = ScoreState(replay, fn)
        exact: list[float] = []
        threshold_history = []
        for access in log:
            if access.kind is AccessType.SORTED:
                obj, score = replay.sorted_access(access.predicate)
                state.record(access.predicate, obj, score)
            else:
                state.record(
                    access.predicate,
                    access.obj,
                    replay.random_access(access.predicate, access.obj),
                )
                if state.is_complete(access.obj):
                    exact.append(state.exact_score(access.obj))
            threshold = fn([replay.last_seen(i) for i in range(2)])
            kth = sorted(exact, reverse=True)[k - 1] if len(exact) >= k else None
            threshold_history.append((kth, threshold))
        final_kth, final_threshold = threshold_history[-1]
        assert final_kth is not None and final_kth >= final_threshold
        # The stop condition did not hold spuriously early: find the last
        # sorted access; before it, the condition must have been false.
        stop_markers = [
            kth is not None and kth >= threshold
            for kth, threshold in threshold_history
        ]
        first_true = stop_markers.index(True)
        assert not any(stop_markers[:first_true])


class TestFAIntersectionMechanics:
    def test_sorted_phase_ends_at_k_common_objects(self):
        data = uniform(150, 2, seed=32)
        k = 4
        mw = mw_over(data, record_log=True)
        FA().run(mw, Min(2), k)
        log = mw.stats.log
        # Split phases: FA is strictly sorted-then-random.
        kinds = [acc.kind for acc in log]
        split = kinds.index(AccessType.RANDOM) if AccessType.RANDOM in kinds else len(log)
        assert all(kind is AccessType.SORTED for kind in kinds[:split])
        assert all(kind is AccessType.RANDOM for kind in kinds[split:])
        # Replay the sorted phase: the intersection reaches k exactly at
        # the end (not before the final round).
        replay = mw_over(data)
        per_list: dict[int, set] = {0: set(), 1: set()}
        for access in log[:split]:
            obj, _ = replay.sorted_access(access.predicate)
            per_list[access.predicate].add(obj)
        assert len(per_list[0] & per_list[1]) >= k

    def test_equal_depth_sorted_phase(self):
        data = uniform(150, 2, seed=33)
        mw = mw_over(data)
        FA().run(mw, Min(2), 3)
        counts = mw.stats.sorted_counts
        assert abs(counts[0] - counts[1]) <= 1


class TestCACadence:
    def test_probe_phases_every_h_rounds(self):
        data = uniform(300, 2, seed=34)
        h = 4
        mw = mw_over(data, record_log=True)
        CA(h=h).run(mw, Min(2), 5)
        log = mw.stats.log
        # Count sorted accesses between consecutive probe bursts: must be
        # (a multiple of the list count times) h, i.e. >= h per burst gap.
        bursts = []
        run_length = 0
        for access in log:
            if access.kind is AccessType.SORTED:
                run_length += 1
            else:
                if run_length:
                    bursts.append(run_length)
                run_length = 0
        if bursts[1:-1]:
            # Interior gaps: h rounds x 2 lists of sorted accesses.
            assert all(gap >= h for gap in bursts[1:-1])

    def test_h_one_degenerates_toward_eager_probing(self):
        data = uniform(300, 2, seed=35)
        mw_eager = mw_over(data)
        CA(h=1).run(mw_eager, Min(2), 5)
        mw_lazy = mw_over(data)
        CA(h=10).run(mw_lazy, Min(2), 5)
        assert mw_eager.stats.total_random >= mw_lazy.stats.total_random


class TestMProConfirmationOrder:
    def test_answers_confirmed_best_first(self):
        data = uniform(120, 2, seed=36)
        mw = Middleware.over(
            data, CostModel.no_sorted(2), no_wild_guesses=False
        )
        result = MPro().run(mw, Min(2), 6)
        assert result.scores == sorted(result.scores, reverse=True)

    def test_schedule_prefix_probed_first(self):
        """Every object's first probe follows the global schedule head."""
        data = uniform(120, 2, seed=37)
        mw = Middleware.over(
            data, CostModel.no_sorted(2), no_wild_guesses=False, record_log=True
        )
        MPro(schedule=[1, 0]).run(mw, Min(2), 3)
        first_probe: dict[int, int] = {}
        for access in mw.stats.log:
            if access.obj not in first_probe:
                first_probe[access.obj] = access.predicate
        assert set(first_probe.values()) == {1}


class TestDominatedDataShortcuts:
    def test_perfectly_correlated_lists_are_cheap_for_everyone(self):
        data = correlated(300, 2, rho=1.0, seed=38)
        for algo in (TA(), FA(), CA()):
            mw = mw_over(data)
            algo.run(mw, Avg(2), 3)
            assert mw.stats.total_accesses < 100, algo.name

    def test_single_dominating_object(self):
        rows = [[0.1, 0.1]] * 50 + [[1.0, 1.0]]
        data = Dataset(rows)
        mw = mw_over(data)
        result = TA().run(mw, Min(2), 1)
        assert result.objects == [50]
        assert mw.stats.total_accesses <= 8
