"""Tests for bounded-concurrency execution (Section 9.1.1)."""

import numpy as np
import pytest

from repro.core.framework import FrameworkNC, FrameworkTG
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.data.generators import uniform
from repro.parallel.clock import VirtualClock
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from repro.sources.latency import NoisyLatency
from repro.sources.middleware import Middleware
from tests.conftest import assert_valid_topk, mw_over, score_multiset


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(2.5)
        clock.advance(0.0)
        assert clock.now == 2.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_wave_makespan(self):
        clock = VirtualClock()
        span = clock.run_wave([1.0, 3.0, 2.0], concurrency=4)
        assert span == 3.0
        assert clock.now == 3.0

    def test_wave_respects_concurrency(self):
        with pytest.raises(ValueError):
            VirtualClock().run_wave([1.0, 1.0], concurrency=1)

    def test_empty_wave(self):
        clock = VirtualClock()
        assert clock.run_wave([], concurrency=2) == 0.0


class TestExecutorCorrectness:
    @pytest.mark.parametrize("c", [1, 2, 4, 8])
    def test_exact_answer_at_any_concurrency(self, small_uniform, c):
        mw = mw_over(small_uniform)
        engine = FrameworkNC(
            mw, Min(2), 3, SRGPolicy([0.7, 0.7]), concurrency=c
        )
        outcome = engine.execute()
        assert_valid_topk(outcome.result, small_uniform, Min(2), 3)
        assert outcome.result.metadata["iterations"] == mw.stats.total_accesses

    def test_concurrency_validated(self, small_uniform):
        with pytest.raises(ValueError):
            FrameworkNC(
                mw_over(small_uniform), Min(2), 1, SRGPolicy([0.5, 0.5]),
                concurrency=0,
            )

    def test_k_exceeds_n_with_full_exhaustion(self, ds1):
        """Regression: after all objects are discovered, the retired
        UNSEEN entry must never become a wave target (it used to surface
        while the wave core popped the top-k, when k > n and lists
        exhausted)."""
        mw = mw_over(ds1)
        outcome = FrameworkNC(
            mw, Min(2), 10, SRGPolicy([0.0, 0.0]), concurrency=4
        ).execute()
        assert len(outcome.result.ranking) == 3
        oracle = ds1.topk(Min(2), 3)
        assert outcome.result.objects == [e.obj for e in oracle]

    def test_run_returns_query_result(self, small_uniform):
        mw = mw_over(small_uniform)
        result = FrameworkNC(
            mw, Avg(2), 2, SRGPolicy([0.5, 0.5]), concurrency=2
        ).run()
        assert_valid_topk(result, small_uniform, Avg(2), 2)


class TestShapeValidation:
    """What the wave core does not support raises at construction."""

    def test_tg_runs_sequentially_only(self, small_uniform):
        with pytest.raises(ValueError):
            FrameworkTG(
                mw_over(small_uniform), Min(2), 2, SRGPolicy([0.5, 0.5]),
                concurrency=2,
            )

    def test_theta_needs_the_sequential_core(self, small_uniform):
        with pytest.raises(ValueError):
            FrameworkNC(
                mw_over(small_uniform), Min(2), 2, SRGPolicy([0.5, 0.5]),
                theta=1.5, concurrency=2,
            )

    def test_observer_needs_the_sequential_core(self, small_uniform):
        with pytest.raises(ValueError):
            FrameworkNC(
                mw_over(small_uniform), Min(2), 2, SRGPolicy([0.5, 0.5]),
                observer=lambda step: None, concurrency=2,
            )


class TestElapsedVsCost:
    def test_c1_elapsed_equals_total_cost(self, small_uniform):
        """At c=1 with unit-cost latencies, elapsed == Eq. 1 total cost."""
        mw = mw_over(small_uniform)
        outcome = FrameworkNC(
            mw, Min(2), 3, SRGPolicy([0.6, 0.6]), concurrency=1
        ).execute()
        assert outcome.elapsed == pytest.approx(outcome.total_cost)
        assert outcome.waves == mw.stats.total_accesses

    def test_higher_concurrency_reduces_elapsed(self):
        data = uniform(400, 2, seed=3)
        elapsed = {}
        for c in (1, 4):
            mw = Middleware.over(data, CostModel.uniform(2))
            outcome = FrameworkNC(
                mw, Min(2), 10, SRGPolicy([0.6, 1.0]), concurrency=c
            ).execute()
            elapsed[c] = outcome.elapsed
        assert elapsed[4] < elapsed[1] * 0.75

    def test_default_mode_total_cost_equals_sequential(self):
        """speculation='none': every wave access is one the sequential
        policy issues, so the total cost matches the sequential plan's."""
        data = uniform(400, 2, seed=3)
        costs = {}
        for c in (1, 8):
            mw = Middleware.over(data, CostModel.uniform(2))
            outcome = FrameworkNC(
                mw, Min(2), 10, SRGPolicy([0.6, 0.6]), concurrency=c
            ).execute()
            costs[c] = outcome.total_cost
        assert costs[8] == pytest.approx(costs[1])

    def test_eager_mode_trades_cost_for_elapsed(self):
        """speculation='eager': lower elapsed than 'none' at the same c,
        at the price of extra total cost."""
        data = uniform(400, 2, seed=3)

        def run(mode):
            mw = Middleware.over(data, CostModel.uniform(2))
            return FrameworkNC(
                mw, Min(2), 10, SRGPolicy([0.6, 0.6]), concurrency=8,
                speculation=mode,
            ).execute()

        lazy, eager = run("none"), run("eager")
        assert eager.elapsed <= lazy.elapsed
        assert eager.total_cost >= lazy.total_cost
        assert_valid_topk(eager.result, data, Min(2), 10)

    def test_speculation_mode_validated(self, small_uniform):
        with pytest.raises(ValueError):
            FrameworkNC(
                mw_over(small_uniform), Min(2), 1, SRGPolicy([0.5, 0.5]),
                concurrency=2, speculation="wild",
            )

    def test_elapsed_bounded_below_by_cost_over_c(self, small_uniform):
        mw = mw_over(small_uniform)
        c = 4
        outcome = FrameworkNC(
            mw, Min(2), 3, SRGPolicy([0.6, 0.6]), concurrency=c
        ).execute()
        assert outcome.elapsed >= outcome.total_cost / c - 1e-9

    def test_noisy_latency_model(self, small_uniform):
        mw = mw_over(small_uniform)
        outcome = FrameworkNC(
            mw,
            Min(2),
            3,
            SRGPolicy([0.6, 0.6]),
            concurrency=4,
            latency_model=NoisyLatency(mw.cost_model, sigma=0.5, seed=2),
        ).execute()
        assert_valid_topk(outcome.result, small_uniform, Min(2), 3)
        assert outcome.elapsed > 0


class TestNoneModeCostParity:
    """The none-mode cost-parity counterexample, pinned (ROADMAP item).

    None mode only issues accesses the sequential policy would pick *for
    their targets*, but a wave works on every popped top-k target at once
    while the sequential engine works only on the heap top -- position
    1's outcome can prove position 2's access unnecessary after the wave
    has already paid for it. This minimal instance triggers exactly that,
    deterministically; it pins both the counterexample (so the old exact
    -parity claim can never silently return) and the bounded-overhead
    contract that replaced it.
    """

    ROWS = (0.0, 0.5, 0.0, 0.25, 0.0, 0.0)

    def _instance(self):
        dataset = Dataset(np.array(self.ROWS, dtype=float).reshape(3, 2))
        return dataset, Min(2), 2, SRGPolicy((0.0, 0.0))

    def test_reproducer_costs_exactly_one_extra_access(self):
        dataset, fn, k, policy = self._instance()
        mw_seq = Middleware.over(dataset, CostModel.uniform(2))
        seq = FrameworkNC(mw_seq, fn, k, policy).run()
        mw_par = Middleware.over(dataset, CostModel.uniform(2))
        outcome = FrameworkNC(
            mw_par, fn, k, SRGPolicy((0.0, 0.0)), concurrency=2
        ).execute()
        # The answers agree; the parallel run pays one extra ra_0(0) the
        # sequential engine proves unnecessary via object 0's probe.
        assert score_multiset(outcome.result.ranking) == score_multiset(
            seq.ranking
        )
        assert mw_seq.stats.total_cost() == 5.0
        assert outcome.total_cost == 6.0

    def test_reproducer_within_bounded_overhead(self):
        dataset, fn, k, policy = self._instance()
        mw_seq = Middleware.over(dataset, CostModel.uniform(2))
        FrameworkNC(mw_seq, fn, k, policy).run()
        mw_par = Middleware.over(dataset, CostModel.uniform(2))
        outcome = FrameworkNC(
            mw_par, fn, k, SRGPolicy((0.0, 0.0)), concurrency=2
        ).execute()
        slack = (min(2, 2) - 1) * 1.0 * outcome.waves
        assert outcome.total_cost <= mw_seq.stats.total_cost() + slack

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_reproducer_exact_at_k1_any_c(self, c):
        """Width-one waves (k == 1) keep exact cost parity at any c."""
        dataset, fn, _k, policy = self._instance()
        mw_seq = Middleware.over(dataset, CostModel.uniform(2))
        FrameworkNC(mw_seq, fn, 1, policy).run()
        mw_par = Middleware.over(dataset, CostModel.uniform(2))
        outcome = FrameworkNC(
            mw_par, fn, 1, SRGPolicy((0.0, 0.0)), concurrency=c
        ).execute()
        assert outcome.total_cost == mw_seq.stats.total_cost()


class TestWavePlanning:
    def test_waves_never_exceed_concurrency(self, small_uniform):
        """Each wave, as the core yields it and folds it, is well formed."""
        for speculation in ("none", "eager"):
            engine = FrameworkNC(
                mw_over(small_uniform), Min(2), 8, SRGPolicy([0.8, 0.8]),
                concurrency=3, speculation=speculation,
            )
            folded: list[list] = []
            perform = engine._perform

            def recording(target, access, perform=perform, folded=folded):
                folded[-1].append(access)
                return perform(target, access)

            engine._perform = recording
            yielded: list[int] = []
            waves = engine._waves()
            while True:
                try:
                    durations = next(waves)
                except StopIteration as done:
                    outcome = done.value
                    break
                yielded.append(len(durations))
                folded.append([])
            assert [len(wave) for wave in folded] == yielded
            assert len(folded) == outcome.waves
            for wave in folded:
                assert 1 <= len(wave) <= 3
                assert len(set(wave)) == len(wave), "no duplicate accesses"
                sorted_preds = [a.predicate for a in wave if a.is_sorted]
                assert len(sorted_preds) == len(set(sorted_preds)), (
                    "a sorted stream advances at most once per wave"
                )
            # Waves reach the bound in both modes, so the checks bite.
            assert max(yielded) == 3, speculation
            assert_valid_topk(outcome.result, small_uniform, Min(2), 8)

    def test_metadata_reports_waves(self, small_uniform):
        mw = mw_over(small_uniform)
        outcome = FrameworkNC(
            mw, Min(2), 2, SRGPolicy([0.5, 0.5]), concurrency=2
        ).execute()
        assert outcome.result.metadata["waves"] == outcome.waves
        assert outcome.result.metadata["concurrency"] == 2

    def test_zero_ra_scenario_parallelizes(self, small_uniform):
        """Example 2 costs: probes are free, so waves mix sorted + probes."""
        model = CostModel.uniform(2, cs=1.0, cr=0.0)
        mw = Middleware.over(small_uniform, model)
        outcome = FrameworkNC(
            mw, Min(2), 3, SRGPolicy([0.3, 1.0]), concurrency=4
        ).execute()
        assert_valid_topk(outcome.result, small_uniform, Min(2), 3)
