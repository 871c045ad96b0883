"""Regression tests for the silently-degrading accounting paths.

Two bugs rode the pre-observability code, both of the "numbers quietly
wrong" kind:

1. ``QueryServer.stats()["degraded_predicates"]`` was evaluated at the
   stale between-sessions clock base, so a mid-query caller saw breaker
   cooldowns as still running after they had already elapsed;
2. :class:`CostMonitor` only observed *successful* access durations, so
   a source failing slowly on every attempt (timeouts burning the whole
   deadline) never registered as drift.

Each test here fails on the pre-fix code.
"""

import pytest

from repro.contracts import ContractChecker
from repro.data.generators import uniform
from repro.exceptions import RetryExhaustedError
from repro.faults import FaultProfile, RetryPolicy, chaos_middleware
from repro.faults.breaker import BreakerPolicy
from repro.service import QueryServer, ServerConfig
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.monitor import CostMonitor
from repro.types import AccessType


# ----------------------------------------------------------------------
# Bugfix 1: degraded_predicates at the live clock, not the stale base
# ----------------------------------------------------------------------


class _ProbingChecker(ContractChecker):
    """Samples ``server.stats()`` from inside a running query.

    ``observe_sorted`` fires on every delivered sorted access, i.e. while
    the session's middleware is live -- exactly the vantage point from
    which the old ``stats()`` reported stale breaker state.
    """

    def __init__(self):
        super().__init__()
        self.server = None
        self.probes = []

    def observe_sorted(self, predicate, score, last_seen):
        if self.server is not None:
            breaker = self.server.breakers[(1, AccessType.RANDOM)]
            self.probes.append(
                {
                    "degraded": self.server.stats()["degraded_predicates"],
                    # state(0) is OPEN iff the breaker is still tripped
                    # internally (cooldown not yet consumed by a trial).
                    "still_tripped": not breaker.allows(0),
                }
            )
        super().observe_sorted(predicate, score, last_seen)


class TestDegradedPredicatesLiveClock:
    def _server(self, checker):
        return QueryServer(
            CostModel.uniform(2),
            dataset=uniform(20, 2, seed=5),
            schema=("a", "b"),
            config=ServerConfig(
                breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=3),
                contracts=checker,
            ),
        )

    def test_mid_query_stats_sees_elapsed_cooldown(self):
        checker = _ProbingChecker()
        server = self._server(checker)
        checker.server = server
        # Predicate b's random channel tripped at clock 0 (prior outage
        # knowledge), cooldown of 3 recorded accesses.
        server.breakers[(1, AccessType.RANDOM)].record_failure(0)
        assert server.stats()["degraded_predicates"] == [1]

        # A query over predicate a alone charges sorted accesses; the
        # cooldown elapses on that clock while the breaker stays tripped.
        server.query("SELECT * FROM r ORDER BY a STOP AFTER 8")

        assert len(checker.probes) >= 4
        # Early probes (clock < cooldown) still report the predicate.
        assert checker.probes[0]["degraded"] == [1]
        # Once the *live* clock passes the cooldown the breaker offers a
        # half-open trial, so a mid-query stats() call must stop calling
        # the predicate degraded -- even though the breaker is still
        # tripped internally. The pre-fix stats() evaluated at the stale
        # between-sessions clock base (0), where the cooldown never
        # elapses, so no such probe existed: every still-tripped probe
        # kept reporting [1].
        elapsed = [
            p
            for p in checker.probes
            if p["still_tripped"] and p["degraded"] == []
        ]
        assert elapsed, "no mid-query probe saw the cooldown elapse"
        # And after the half-open trial succeeds the predicate stays
        # healthy for good.
        assert checker.probes[-1]["degraded"] == []

    def test_server_agrees_with_middleware_helper(self):
        checker = ContractChecker()
        server = self._server(checker)
        server.query("SELECT * FROM r ORDER BY a STOP AFTER 3")
        server.breakers[(1, AccessType.RANDOM)].record_failure(
            server.current_clock()
        )
        middleware = Middleware.warm(
            server.cache,
            server.cost_model,
            breakers=server.breakers,
            clock_base=server.current_clock(),
        )
        assert (
            server.stats()["degraded_predicates"]
            == middleware.degraded_predicates()
            == [1]
        )


# ----------------------------------------------------------------------
# Bugfix 2: failed-attempt durations feed the cost monitor
# ----------------------------------------------------------------------


class TestMonitorObservesFailures:
    def _chaos(self, monitor):
        # Every attempt times out after burning the full 9-unit deadline;
        # the assumed cost model believes an access takes 1 unit.
        return chaos_middleware(
            uniform(30, 2, seed=5),
            CostModel.uniform(2),
            FaultProfile(timeout_rate=1.0),
            seed=1,
            retry_policy=RetryPolicy(max_attempts=3, timeout=9.0),
            monitor=monitor,
        )

    def test_slow_failing_source_registers_as_drift(self):
        monitor = CostMonitor(CostModel.uniform(2), min_observations=3)
        middleware = self._chaos(monitor)
        with pytest.raises(RetryExhaustedError):
            middleware.sorted_access(0)
        # All three failed attempts burned the deadline and were folded
        # into the running means; pre-fix the monitor saw nothing at all.
        assert monitor.failure_observations == 3
        assert monitor.observations(0, AccessType.SORTED) == 3
        assert monitor.estimated_cost(0, AccessType.SORTED) == pytest.approx(9.0)
        assert monitor.drifted(tolerance=2.0)

    def test_reset_clears_failure_observations(self):
        monitor = CostMonitor(CostModel.uniform(2), min_observations=1)
        middleware = self._chaos(monitor)
        with pytest.raises(RetryExhaustedError):
            middleware.sorted_access(0)
        assert monitor.failure_observations > 0
        monitor.reset()
        assert monitor.failure_observations == 0
        assert not monitor.drifted()
