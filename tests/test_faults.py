"""Fault-tolerance layer: injector, retry policy, breaker, degradation.

Covers the contract of docs/FAULTS.md end to end: deterministic fault
injection with no inner-source side effects, charged retries with seeded
backoff, per-channel circuit breakers on a clockless attempt counter,
and NC-family graceful degradation to bound-only answers.
"""

import math
import random

import pytest

from repro.core.framework import FrameworkNC
from repro.core.policies import RoundRobinPolicy
from repro.data.generators import uniform
from repro.exceptions import (
    RetryExhaustedError,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.faults import (
    BreakerPolicy,
    BreakerState,
    chaos_middleware,
    CircuitBreaker,
    FaultInjectingSource,
    FaultProfile,
    faulty_sources_for,
    RetryPolicy,
)
from repro.obs import MetricsRegistry
from repro.parallel.executor import ParallelExecutor
from repro.scoring.functions import Min
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.simulated import sources_for
from repro.types import AccessType


def pred_sources(n=40, m=2, seed=3, **kwargs):
    data = uniform(n, m, seed=seed)
    return data, sources_for(data, **kwargs)


class TestFaultProfile:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(timeout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultProfile(transient_rate=0.7, timeout_rate=0.7)
        with pytest.raises(ValueError):
            FaultProfile(slowdown=0.5)
        with pytest.raises(ValueError):
            FaultProfile(fail_after=-1)

    def test_factories(self):
        assert FaultProfile.transient(0.3).transient_rate == 0.3
        assert FaultProfile.outage().dead


class TestFaultInjectingSource:
    def test_fault_free_wrapper_is_transparent(self):
        data, inner = pred_sources()
        wrapped = FaultInjectingSource(inner[0], predicate=0)
        plain = sources_for(data)[0]
        for _ in range(10):
            assert wrapped.sorted_access() == plain.sorted_access()
        assert wrapped.depth == plain.depth
        assert wrapped.last_seen == plain.last_seen
        assert wrapped.size == plain.size
        assert wrapped.last_duration == 1.0

    def test_same_seed_replays_same_fault_stream(self):
        def fates(seed):
            _, inner = pred_sources()
            src = FaultInjectingSource(
                inner[0], FaultProfile.transient(0.5), seed=seed, predicate=0
            )
            out = []
            for _ in range(30):
                try:
                    src.sorted_access()
                    out.append("ok")
                except TransientSourceError:
                    out.append("fail")
            return out

        assert fates(11) == fates(11)
        assert fates(11) != fates(12)

    def test_derive_rng_refactor_preserves_e19_fault_streams(self):
        # The injector and retry jitter now build their generators via
        # repro.determinism.derive_rng (RL102). For integer seeds that
        # is byte-identical to the old random.Random(seed) construction,
        # so E19-style fault runs recorded before the refactor replay
        # unchanged. Guard the equivalence explicitly.
        seed = 19
        expected = random.Random(seed)
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0], FaultProfile.transient(0.5), seed=seed, predicate=0
        )
        fates = []
        for _ in range(25):
            try:
                src.sorted_access()
                fates.append("ok")
            except TransientSourceError:
                fates.append("fail")
        replayed = [
            "fail" if expected.random() < 0.5 else "ok" for _ in range(25)
        ]
        assert fates == replayed
        # Retry jitter streams are equally seed-compatible.
        policy = RetryPolicy(seed=seed)
        assert policy.fresh_rng().random() == random.Random(seed).random()
        # And reset() rewinds onto the identical stream.
        src.reset()
        refates = []
        for _ in range(25):
            try:
                src.sorted_access()
                refates.append("ok")
            except TransientSourceError:
                refates.append("fail")
        assert refates == fates

    def test_failed_attempt_does_not_advance_cursor(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0], FaultProfile.transient(0.5), seed=1, predicate=0
        )
        delivered = []
        for _ in range(40):
            try:
                obj, score = src.sorted_access()
            except TransientSourceError:
                continue
            delivered.append(score)
        # The surviving accesses walk the sorted order with no gaps.
        assert delivered == sorted(delivered, reverse=True)
        assert src.depth == len(delivered)
        assert src.faults_injected == 40 - len(delivered)

    def test_dead_source_raises_unavailable(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(inner[0], FaultProfile.outage(), predicate=0)
        with pytest.raises(SourceUnavailableError):
            src.sorted_access()
        with pytest.raises(SourceUnavailableError):
            src.random_access(0)
        assert src.depth == 0

    def test_fail_after_kills_source_mid_query(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0], FaultProfile(fail_after=3), predicate=0
        )
        for _ in range(3):
            src.sorted_access()
        with pytest.raises(SourceUnavailableError):
            src.sorted_access()

    def test_per_access_type_profiles(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0], random_profile=FaultProfile.outage(), predicate=0
        )
        obj, _ = src.sorted_access()  # sorted channel healthy
        with pytest.raises(SourceUnavailableError):
            src.random_access(obj)

    def test_timeout_rate_raises_timeout(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0], FaultProfile(timeout_rate=1.0), predicate=0
        )
        with pytest.raises(SourceTimeoutError):
            src.sorted_access()

    def test_slow_response_beyond_deadline_times_out(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0],
            FaultProfile(slow_rate=1.0, slowdown=10.0),
            predicate=0,
        )
        src.set_deadline(5.0)  # base duration 1.0, slowed to 10.0
        with pytest.raises(SourceTimeoutError):
            src.sorted_access()
        src.set_deadline(None)
        _, _ = src.sorted_access()
        assert src.last_duration == 10.0

    def test_reset_rewinds_injection_stream(self):
        _, inner = pred_sources()
        src = FaultInjectingSource(
            inner[0], FaultProfile.transient(0.4), seed=9, predicate=0
        )

        def run():
            out = []
            for _ in range(20):
                try:
                    out.append(src.sorted_access())
                except TransientSourceError:
                    out.append(None)
            return out

        first = run()
        src.reset()
        assert run() == first
        assert src.faults_injected == first.count(None)

    def test_faulty_sources_for_builds_independent_streams(self):
        data = uniform(30, 3, seed=2)
        wrapped = faulty_sources_for(data, FaultProfile.transient(0.2), seed=4)
        assert len(wrapped) == 3
        assert [src.predicate for src in wrapped] == [0, 1, 2]
        seeds = {src._seed for src in wrapped}
        assert len(seeds) == 3


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0)
        rng = policy.fresh_rng()
        delays = [policy.backoff(r, rng) for r in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.25, seed=5)
        rng = policy.fresh_rng()
        delays = [policy.backoff(1, rng) for _ in range(100)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert delays == [
            policy.backoff(1, policy.fresh_rng())
            if i == 0
            else d
            for i, d in enumerate(delays)
        ]

    def test_backoff_requires_positive_retry(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0, random.Random(0))


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=3, cooldown=10))
        assert brk.state(0) is BreakerState.CLOSED
        assert not brk.record_failure(1)
        assert not brk.record_failure(2)
        assert brk.record_failure(3)
        assert brk.state(4) is BreakerState.OPEN
        assert not brk.allows(4)

    def test_success_clears_failure_streak(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=10))
        brk.record_failure(1)
        brk.record_success()
        assert not brk.record_failure(2)  # streak restarted
        assert brk.state(3) is BreakerState.CLOSED

    def test_healthy_only_when_closed_without_failures(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=3))
        assert brk.healthy
        serial = brk.signal.serial
        brk.record_success()  # what the middleware skips: a no-op
        assert brk.healthy and brk.signal.serial == serial
        brk.record_failure(1)
        assert not brk.healthy and brk.state(1) is BreakerState.CLOSED
        brk.record_failure(2)
        assert not brk.healthy and brk.state(2) is BreakerState.OPEN
        assert not brk.healthy and brk.state(5) is BreakerState.HALF_OPEN
        brk.record_success()
        assert brk.healthy and brk.state(5) is BreakerState.CLOSED

    def test_permanent_failure_opens_immediately(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=5, cooldown=10))
        assert brk.record_failure(1, permanent=True)
        assert brk.state(2) is BreakerState.OPEN

    def test_cooldown_elapses_into_half_open(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown=5))
        brk.record_failure(10)
        assert brk.state(14) is BreakerState.OPEN
        assert brk.state(15) is BreakerState.HALF_OPEN
        assert brk.allows(15)  # the probe attempt is let through

    def test_half_open_success_closes(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown=5))
        brk.record_failure(0)
        assert brk.state(5) is BreakerState.HALF_OPEN
        brk.record_success()
        assert brk.state(6) is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=3, cooldown=5))
        brk.record_failure(0, permanent=True)
        assert brk.state(5) is BreakerState.HALF_OPEN
        assert brk.record_failure(5)  # single trial failure re-opens
        assert brk.state(6) is BreakerState.OPEN

    def test_reset(self):
        brk = CircuitBreaker(BreakerPolicy(failure_threshold=1, cooldown=100))
        brk.record_failure(0)
        brk.reset()
        assert brk.state(1) is BreakerState.CLOSED


class TestMiddlewareRetries:
    def test_transient_faults_absorbed_and_charged(self):
        data = uniform(40, 2, seed=3)
        costs = CostModel.uniform(2, cs=1.0, cr=4.0)
        mw = chaos_middleware(
            data,
            costs,
            FaultProfile.transient(0.3),
            seed=8,
            retry_policy=RetryPolicy(max_attempts=10),
        )
        clean = Middleware.over(data, costs)
        got = [mw.sorted_access(0) for _ in range(15)]
        want = [clean.sorted_access(0) for _ in range(15)]
        assert got == want  # same deliveries despite faults
        assert mw.stats.total_retries > 0
        assert mw.stats.total_faults == mw.stats.total_retries
        # Every attempt is charged: cost = (deliveries + retries) * cs.
        assert mw.stats.total_cost() == (15 + mw.stats.total_retries) * 1.0
        assert mw.stats.backoff_time > 0.0
        snapshot = mw.stats.snapshot()
        assert snapshot["total_retries"] == mw.stats.total_retries

    def test_retry_exhaustion_raises_with_context(self):
        data = uniform(20, 2, seed=3)
        mw = chaos_middleware(
            data,
            CostModel.uniform(2),
            FaultProfile.transient(1.0),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RetryExhaustedError) as info:
            mw.sorted_access(1)
        assert info.value.attempts == 3
        assert info.value.predicate == 1
        # All three attempts were still charged.
        assert mw.stats.total_cost() == 3.0

    def test_open_breaker_refuses_uncharged(self):
        data = uniform(20, 2, seed=3)
        mw = chaos_middleware(
            data,
            CostModel.uniform(2),
            FaultProfile(dead=True),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with pytest.raises(SourceUnavailableError):
            mw.sorted_access(0)
        charged = mw.stats.total_cost()  # the one attempt that hit the source
        assert charged == 1.0
        assert mw.breaker_state(0, AccessType.SORTED) is BreakerState.OPEN
        assert not mw.access_allowed(0, AccessType.SORTED)
        with pytest.raises(SourceUnavailableError):
            mw.sorted_access(0)
        assert mw.stats.total_cost() == charged  # refusal cost nothing

    def test_breakers_are_per_channel(self):
        data, inner = pred_sources()
        wrapped = [
            FaultInjectingSource(
                inner[0], random_profile=FaultProfile.outage(), predicate=0
            ),
            inner[1],
        ]
        mw = Middleware(
            wrapped,
            CostModel.uniform(2),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        obj, _ = mw.sorted_access(1)
        with pytest.raises(SourceUnavailableError):
            mw.random_access(0, obj)
        # The dead random channel never blocks the healthy sorted stream.
        assert not mw.access_allowed(0, AccessType.RANDOM)
        assert mw.access_allowed(0, AccessType.SORTED)
        assert mw.sorted_access(0) is not None
        assert mw.degraded_predicates() == [0]

    def test_half_open_probe_recovers_a_healed_source(self):
        data, inner = pred_sources()
        injector = FaultInjectingSource(
            inner[0], FaultProfile(fail_after=0), predicate=0
        )
        mw = Middleware(
            [injector, inner[1]],
            CostModel.uniform(2),
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=3),
        )
        with pytest.raises(SourceUnavailableError):
            mw.sorted_access(0)
        assert not mw.access_allowed(0, AccessType.SORTED)
        # Other traffic moves the clockless "now" past the cooldown.
        for _ in range(4):
            mw.sorted_access(1)
        assert (
            mw.breaker_state(0, AccessType.SORTED) is BreakerState.HALF_OPEN
        )
        # Heal the source; the half-open probe closes the breaker.
        injector._sorted_profile = FaultProfile()
        assert mw.sorted_access(0) is not None
        assert mw.breaker_state(0, AccessType.SORTED) is BreakerState.CLOSED

    def test_timeout_policy_pushes_deadline_into_sources(self):
        data = uniform(20, 2, seed=3)
        mw = chaos_middleware(
            data,
            CostModel.uniform(2),
            FaultProfile(slow_rate=1.0, slowdown=10.0),
            retry_policy=RetryPolicy(max_attempts=2, timeout=5.0),
        )
        # Every attempt is slow beyond the deadline -> timeout -> exhaustion.
        with pytest.raises(RetryExhaustedError) as info:
            mw.sorted_access(0)
        assert isinstance(info.value.last_error, SourceTimeoutError)


class TestGracefulDegradation:
    def fn(self):
        return Min(2)

    def test_transient_chaos_preserves_exactness(self):
        data = uniform(150, 2, seed=11)
        costs = CostModel.uniform(2, cs=1.0, cr=5.0)
        clean = FrameworkNC(
            Middleware.over(data, costs), self.fn(), 5, RoundRobinPolicy()
        ).run()
        chaos = FrameworkNC(
            chaos_middleware(
                data,
                costs,
                FaultProfile.transient(0.1),
                seed=3,
                retry_policy=RetryPolicy(),
            ),
            self.fn(),
            5,
            RoundRobinPolicy(),
        ).run()
        assert chaos.objects == clean.objects
        assert chaos.scores == clean.scores
        assert not chaos.partial and chaos.is_exact
        assert chaos.total_cost() > clean.total_cost()  # retries were charged

    def degraded_middleware(self, metrics=None):
        data = uniform(150, 2, seed=11)
        costs = CostModel(cs=[1.0, math.inf], cr=[5.0, 5.0])
        inner = sources_for(
            data, sorted_capable=[True, False], random_capable=[True, True]
        )
        wrapped = [
            inner[0],
            FaultInjectingSource(
                inner[1],
                random_profile=FaultProfile.outage(),
                seed=5,
                predicate=1,
            ),
        ]
        return Middleware(
            wrapped,
            costs,
            retry_policy=RetryPolicy(max_attempts=2),
            metrics=metrics,
        )

    def assert_counted_partial(self, metrics, reason):
        # A degraded answer leaves one counted reason in the obs ledger,
        # not a flag only the caller ever sees.
        partials = {
            key: value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith("repro_partial_results_total")
        }
        assert partials == {
            f'repro_partial_results_total{{reason="{reason}"}}': 1.0
        }

    def test_dead_random_only_predicate_degrades_to_bounds(self):
        metrics = MetricsRegistry()
        mw = self.degraded_middleware(metrics)
        result = FrameworkNC(mw, self.fn(), 5, RoundRobinPolicy()).run()
        assert result.partial and not result.is_exact
        assert len(result.ranking) == 5
        assert set(result.uncertainty) == set(result.objects)
        for entry in result.ranking:
            lower, upper = result.score_interval(entry.obj)
            assert lower <= upper
            assert entry.score == lower  # reported at F_min
        assert result.metadata["degraded_predicates"] == [1]
        assert result.metadata["partial_reasons"]
        assert result.metadata["fault_events"]
        self.assert_counted_partial(metrics, "bound_only")

    def test_budget_degraded_answer_is_counted(self):
        metrics = MetricsRegistry()
        mw = Middleware.over(
            uniform(150, 2, seed=11),
            CostModel.uniform(2, cs=1.0, cr=5.0),
            budget=30.0,
            metrics=metrics,
        )
        result = FrameworkNC(
            mw, self.fn(), 5, RoundRobinPolicy(), degrade_on_budget=True
        ).run()
        assert result.partial and result.metadata["budget_exhausted"]
        self.assert_counted_partial(metrics, "budget")

    def test_parallel_executor_degrades_identically(self):
        mw = self.degraded_middleware()
        outcome = ParallelExecutor(
            mw, self.fn(), 5, RoundRobinPolicy(), concurrency=4
        ).execute()
        assert outcome.result.partial
        assert set(outcome.result.uncertainty) == set(outcome.result.objects)

    def test_all_sorted_sources_dead_abandons_discovery(self):
        data = uniform(60, 2, seed=4)
        wrapped = [
            FaultInjectingSource(
                src,
                sorted_profile=FaultProfile.outage(),
                seed=i,
                predicate=i,
            )
            for i, src in enumerate(sources_for(data))
        ]
        metrics = MetricsRegistry()
        mw = Middleware(
            wrapped,
            CostModel.uniform(2),
            retry_policy=RetryPolicy(max_attempts=2),
            metrics=metrics,
        )
        result = FrameworkNC(mw, self.fn(), 5, RoundRobinPolicy()).run()
        # Nothing was ever discoverable: empty but flagged, not an exception.
        assert result.partial
        assert result.ranking == []
        assert any(
            "abandoned" in reason
            for reason in result.metadata["partial_reasons"]
        )
        self.assert_counted_partial(metrics, "unseen_abandoned")

    def test_mid_query_death_yields_partial_not_crash(self):
        data = uniform(100, 2, seed=9)
        costs = CostModel(cs=[1.0, math.inf], cr=[5.0, 5.0])
        inner = sources_for(
            data, sorted_capable=[True, False], random_capable=[True, True]
        )
        wrapped = [
            inner[0],
            FaultInjectingSource(
                inner[1],
                random_profile=FaultProfile(fail_after=3),
                seed=2,
                predicate=1,
            ),
        ]
        mw = Middleware(wrapped, costs, retry_policy=RetryPolicy(max_attempts=2))
        result = FrameworkNC(mw, self.fn(), 5, RoundRobinPolicy()).run()
        assert result.partial
        assert result.uncertainty
        # The three probes that succeeded before death stay exact.
        exact = [o for o in result.objects if o not in result.uncertainty]
        for obj in exact:
            lo, hi = result.score_interval(obj)
            assert lo == hi
