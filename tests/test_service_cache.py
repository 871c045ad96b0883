"""The cross-query source cache: correctness and accounting (docs/SERVICE.md).

The load-bearing guarantees, property-tested with hypothesis:

* a query over a warm cache computes the *byte-identical* answer a cold
  run computes (same objects, same exact scores) -- the cache replays the
  logical access sequence, it never shortcuts it;
* warmth only ever helps: the charged cost of a repeated query is
  monotonically non-increasing, and a fully-warm repeat charges zero.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.nc import NC
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset, dataset1
from repro.data.generators import uniform
from repro.exceptions import ReproError
from repro.obs.trace import TraceRecorder
from repro.scoring.functions import Avg, Max, Min
from repro.service import QueryServer, ServerConfig
from repro.sources.cache import SourceCache
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.types import Access

score_value = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
)


@st.composite
def instances(draw, max_m: int = 3):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=max_m))
    rows = draw(
        st.lists(
            st.lists(score_value, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    dataset = Dataset(np.array(rows, dtype=float))
    fn = draw(st.sampled_from([Min(m), Max(m), Avg(m)]))
    k = draw(st.integers(min_value=1, max_value=n))
    return dataset, fn, k


def run_nc(middleware, fn, k):
    # Small planning sample: these tests exercise the cache, not the
    # optimizer, and hypothesis runs the planner once per example.
    return NC(seed=0, sample_size=30).run(middleware, fn, k)


class TestWarmEqualsCold:
    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_warm_run_is_byte_identical_to_cold(self, instance):
        dataset, fn, k = instance
        model = CostModel.uniform(dataset.m, cs=1.0, cr=2.0)
        cold = run_nc(Middleware.over(dataset, model), fn, k)

        cache = SourceCache.over(dataset, model)
        first = run_nc(Middleware.warm(cache, model), fn, k)
        cache.tick()
        warm_mw = Middleware.warm(cache, model)
        warm = run_nc(warm_mw, fn, k)

        for run in (first, warm):
            assert [e.obj for e in run.ranking] == [e.obj for e in cold.ranking]
            assert [e.score for e in run.ranking] == [
                e.score for e in cold.ranking
            ]
        # The fully-warm repeat replayed entirely inside the cache.
        assert warm_mw.stats.total_cost() == 0.0
        assert warm_mw.stats.total_cached > 0

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_charged_cost_monotone_in_warmth(self, instance):
        dataset, fn, k = instance
        model = CostModel.uniform(dataset.m, cs=1.0, cr=2.0)
        cache = SourceCache.over(dataset, model)
        costs = []
        for _ in range(3):
            middleware = Middleware.warm(cache, model)
            run_nc(middleware, fn, k)
            costs.append(middleware.stats.total_cost())
            cache.tick()
        assert costs[0] >= costs[1] >= costs[2]
        assert costs[1] == 0.0 and costs[2] == 0.0

    def test_related_query_pays_only_the_frontier(self):
        dataset = uniform(300, 2, seed=5)
        model = CostModel.uniform(2, cs=1.0, cr=2.0)
        cache = SourceCache.over(dataset, model)
        run_nc(Middleware.warm(cache, model), Min(2), 5)
        cache.tick()

        cold = Middleware.over(dataset, model)
        cold_result = run_nc(cold, Avg(2), 5)
        warm = Middleware.warm(cache, model)
        warm_result = run_nc(warm, Avg(2), 5)
        assert [e.obj for e in warm_result.ranking] == [
            e.obj for e in cold_result.ranking
        ]
        assert warm.stats.total_cost() < cold.stats.total_cost()
        assert warm.stats.total_cached > 0


class TestViewSemantics:
    def test_views_replay_last_seen_bounds(self):
        dataset = dataset1()
        model = CostModel.uniform(dataset.m)
        cache = SourceCache.over(dataset, model)
        fresh = Middleware.over(dataset, model)
        warm = Middleware.warm(cache, model)
        for _ in range(3):
            expected = fresh.sorted_access(0)
            assert warm.sorted_access(0) == expected
            assert warm.last_seen(0) == fresh.last_seen(0)
        # A second view over the now-warm cache replays the same bounds.
        cache.tick()
        replay = Middleware.warm(cache, model)
        fresh2 = Middleware.over(dataset, model)
        for _ in range(3):
            assert replay.sorted_access(0) == fresh2.sorted_access(0)
            assert replay.last_seen(0) == fresh2.last_seen(0)
        assert replay.stats.total_cost() == 0.0

    def test_exhaustion_is_cached_and_replayed(self):
        dataset = uniform(4, 1, seed=0)
        model = CostModel.uniform(1)
        cache = SourceCache.over(dataset, model)
        view = cache.view(0)
        while view.sorted_access() is not None:
            pass
        assert view.exhausted and view.last_seen == 0.0
        replay = cache.view(0)
        delivered = 0
        while replay.sorted_access() is not None:
            delivered += 1
        assert delivered == 4
        assert replay.exhausted and replay.last_seen == 0.0
        # All replay deliveries (and the exhaustion probe) were hits.
        assert cache.stats.sorted_hits == 4

    def test_random_memo_hits(self):
        dataset = uniform(10, 2, seed=1)
        model = CostModel.uniform(2)
        cache = SourceCache.over(dataset, model)
        view = cache.view(1)
        first = view.random_access(3)
        assert cache.stats.random_misses == 1
        again = cache.view(1).random_access(3)
        assert again == first
        assert cache.stats.random_hits == 1
        assert cache.memo_size(1) == 1

    def test_view_reset_keeps_cache_intact(self):
        dataset = uniform(10, 1, seed=2)
        cache = SourceCache.over(dataset, CostModel.uniform(1))
        view = cache.view(0)
        a = view.sorted_access()
        view.reset()
        assert view.depth == 0 and view.last_seen == 1.0
        assert view.sorted_access() == a
        assert cache.warmth(0) == 1

    def test_stale_view_fails_loudly_after_eviction(self):
        dataset = uniform(10, 1, seed=3)
        cache = SourceCache.over(dataset, CostModel.uniform(1))
        view = cache.view(0)
        view.sorted_access()
        cache.invalidate(0)
        with pytest.raises(ReproError, match="evicted"):
            view.sorted_access()
        with pytest.raises(ReproError, match="evicted"):
            view.last_seen


class TestEviction:
    def test_ttl_expires_idle_entries(self):
        dataset = uniform(20, 2, seed=4)
        model = CostModel.uniform(2)
        cache = SourceCache.over(dataset, model, ttl=2)
        cache.view(0).sorted_access()
        assert cache.warmth(0) == 1
        assert cache.tick() == 0  # age 1 < ttl
        assert cache.tick() == 1  # age 2 -> expired
        assert cache.warmth(0) == 0
        assert cache.stats.evictions == 1

    def test_touch_refreshes_ttl(self):
        dataset = uniform(20, 1, seed=4)
        cache = SourceCache.over(dataset, CostModel.uniform(1), ttl=2)
        cache.view(0).sorted_access()
        cache.tick()
        cache.view(0).sorted_access()  # hit, but touches the entry at clock 1
        assert cache.tick() == 0
        assert cache.warmth(0) == 1

    def test_max_entries_evicts_lru_wholesale(self):
        dataset = uniform(50, 2, seed=6)
        model = CostModel.uniform(2)
        cache = SourceCache.over(dataset, model, max_entries=5)
        view0 = cache.view(0)
        for _ in range(4):
            view0.sorted_access()
        cache.tick()
        view1 = cache.view(1)
        for _ in range(4):
            view1.sorted_access()
        assert cache.entry_count == 8
        cache.tick()  # over the bound: evict LRU predicate 0 wholesale
        assert cache.warmth(0) == 0
        assert cache.warmth(1) == 4
        assert cache.entry_count == 4

    def test_evicted_entries_are_repaid(self):
        dataset = uniform(100, 2, seed=7)
        model = CostModel.uniform(2)
        cache = SourceCache.over(dataset, model, ttl=1)
        mw = Middleware.warm(cache, model)
        cost_cold = _run_min(mw)
        cache.tick()  # everything idles out (ttl=1)
        repaid = Middleware.warm(cache, model)
        assert _run_min(repaid) == cost_cold
        assert repaid.stats.total_cached == 0

    def test_invalidate_all(self):
        dataset = uniform(30, 2, seed=8)
        model = CostModel.uniform(2)
        cache = SourceCache.over(dataset, model)
        _run_min(Middleware.warm(cache, model))
        assert cache.entry_count > 0
        cache.invalidate()
        assert cache.entry_count == 0
        assert cache.stats.evictions == 2


def _run_min(middleware):
    fn = Min(middleware.m)
    result = NC(seed=0).run(middleware, fn, 3)
    assert len(result.ranking) == 3
    return middleware.stats.total_cost()


class TestMeteringIntegration:
    def test_charged_cost_is_zero_on_hits(self):
        dataset = uniform(20, 2, seed=9)
        model = CostModel(cs=(1.0, 3.0), cr=(2.0, 5.0))
        cache = SourceCache.over(dataset, model)
        mw = Middleware.warm(cache, model)
        assert mw.charged_cost(Access.sorted(0)) == 1.0
        mw.sorted_access(0)
        cache.tick()
        warm = Middleware.warm(cache, model)
        assert warm.charged_cost(Access.sorted(0)) == 0.0
        assert warm.charged_cost(Access.sorted(1)) == 3.0

    def test_cached_accesses_excluded_from_eq1(self):
        dataset = uniform(20, 2, seed=10)
        model = CostModel.uniform(2, cs=1.0, cr=2.0)
        cache = SourceCache.over(dataset, model)
        mw = Middleware.warm(cache, model)
        obj, _ = mw.sorted_access(0)
        mw.random_access(1, obj)
        assert mw.stats.total_cost() == 3.0
        cache.tick()
        warm = Middleware.warm(cache, model)
        assert warm.sorted_access(0) is not None
        warm.random_access(1, obj)
        assert warm.stats.total_cost() == 0.0
        assert warm.stats.total_accesses == 0
        assert warm.stats.total_cached == 2
        snap = warm.stats.snapshot()
        assert snap["total_cached"] == 2

    def test_warm_reset_clears_query_state_not_cache(self):
        dataset = uniform(40, 2, seed=11)
        model = CostModel.uniform(2)
        cache = SourceCache.over(dataset, model)
        mw = Middleware.warm(cache, model)
        _run_min(mw)
        warmth_before = cache.warmth(0) + cache.warmth(1)
        mw.reset()
        assert mw.stats.total_accesses == 0
        assert cache.warmth(0) + cache.warmth(1) == warmth_before
        # The same middleware replays from the (still warm) cache.
        assert _run_min(mw) == 0.0

    def test_budget_only_meters_frontier_accesses(self):
        dataset = uniform(200, 2, seed=12)
        model = CostModel.uniform(2, cs=1.0, cr=2.0)
        cache = SourceCache.over(dataset, model)
        cold_cost = _run_min(Middleware.warm(cache, model))
        cache.tick()
        # A budget far below the cold cost is plenty for a warm replay.
        tight = Middleware.warm(cache, model, budget=cold_cost / 10)
        assert _run_min(tight) == 0.0


class TestRecency:
    """LRU recency: stamped at view creation and at each served access.

    Bound reads (``last_seen``, ``exhausted``, ``serves_free``) never
    touch an entry, so eviction order cannot depend on how often an
    engine consults its bounds (docs/SERVICE.md).
    """

    def test_bound_reads_do_not_touch(self):
        cache = SourceCache.over(uniform(20, 2, seed=4), CostModel.uniform(2))
        view = cache.view(0)
        view.sorted_access()
        for _ in range(3):
            cache.tick()
        view.last_seen
        view.exhausted
        view.serves_free(Access.sorted(0))
        assert cache._entries[0].last_touch == 0
        view.sorted_access()
        assert cache._entries[0].last_touch == 3

    def test_view_creation_touches(self):
        cache = SourceCache.over(uniform(20, 2, seed=4), CostModel.uniform(2))
        cache.view(1).sorted_access()
        cache.tick()
        cache.views()
        assert [entry.last_touch for entry in cache._entries] == [1, 1]


class TestEvictionOrder:
    """The evicted ``(clock, predicate)`` sequence of served workloads.

    Overlapping async sessions: a round of short and long queries runs
    concurrently, so the clock ticks while the long query still runs.
    Under the recency rule only the accesses it performs stamp its
    predicates; a bound read of a predicate it never accesses does not.
    """

    ROUNDS = [
        [
            "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 8",
            "SELECT * FROM r ORDER BY max(c, b) STOP AFTER 1",
            "SELECT * FROM r ORDER BY c STOP AFTER 1",
        ],
        [
            "SELECT * FROM r ORDER BY min(b, c) STOP AFTER 6",
            "SELECT * FROM r ORDER BY max(a, b) STOP AFTER 1",
            "SELECT * FROM r ORDER BY a STOP AFTER 2",
        ],
        [
            "SELECT * FROM r ORDER BY min(a, 0.5*c) STOP AFTER 7",
            "SELECT * FROM r ORDER BY b STOP AFTER 1",
            "SELECT * FROM r ORDER BY max(a, b) STOP AFTER 1",
        ],
        [
            "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 9",
            "SELECT * FROM r ORDER BY c STOP AFTER 2",
            "SELECT * FROM r ORDER BY b STOP AFTER 1",
        ],
    ]

    SERIAL = [
        "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 3",
        "SELECT * FROM r ORDER BY min(b, c) STOP AFTER 4",
        "SELECT * FROM r ORDER BY avg(a, c) STOP AFTER 3",
        "SELECT * FROM r ORDER BY min(a, 0.5*c) STOP AFTER 5",
        "SELECT * FROM r ORDER BY max(b, c) STOP AFTER 2",
        "SELECT * FROM r ORDER BY min(a, b, c) STOP AFTER 3",
        "SELECT * FROM r ORDER BY avg(a, b) STOP AFTER 4",
        "SELECT * FROM r ORDER BY min(c, b) STOP AFTER 2",
        "SELECT * FROM r ORDER BY min(c, a) STOP AFTER 6",
        "SELECT * FROM r ORDER BY 0.5*a + 0.5*c STOP AFTER 3",
        "SELECT * FROM r ORDER BY min(b, a) STOP AFTER 5",
        "SELECT * FROM r ORDER BY median(a, b, c) STOP AFTER 3",
    ]

    @staticmethod
    def _server(**config):
        return QueryServer(
            CostModel.uniform(3, cs=1.0, cr=2.0),
            dataset=uniform(120, 3, seed=11),
            schema=["a", "b", "c"],
            config=ServerConfig(**config),
            trace=TraceRecorder(capacity=None),
        )

    @staticmethod
    def _evictions(server):
        return [
            (event.tick, event.as_dict()["predicate"])
            for event in server.trace.events
            if event.event == "eviction"
        ]

    def _overlapping(self, concurrent, **config):
        server = self._server(concurrent_queries=concurrent, **config)

        async def main():
            for batch in self.ROUNDS:
                ids = [await server.submit_async(q) for q in batch[:concurrent]]
                for session_id in ids:
                    await server.wait(session_id)

        asyncio.run(main())
        return self._evictions(server)

    def test_overlapping_sessions_two_at_a_time(self):
        assert self._overlapping(2, cache_max_entries=30) == [
            (2, 1), (2, 0), (2, 2), (4, 0), (4, 1), (4, 2),
            (6, 0), (8, 0), (8, 1),
        ]

    def test_overlapping_sessions_three_at_a_time(self):
        assert self._overlapping(3, cache_max_entries=30) == [
            (3, 1), (3, 0), (3, 2), (6, 0), (6, 1), (6, 2),
            (9, 0), (12, 0), (12, 1),
        ]

    def test_overlapping_sessions_ttl(self):
        # Predicate b was last accessed before the first round's short
        # queries ticked the clock; reads of l_b afterwards do not count.
        assert self._overlapping(2, cache_ttl=2) == [(2, 1)]

    def test_one_query_at_a_time_sync_server(self):
        # The clock cannot move mid-query, so stamping at view creation
        # gives the same order as stamping at every bound read did.
        server = self._server(cache_max_entries=60)
        for text in self.SERIAL:
            server.query(text)
        assert self._evictions(server) == [
            (2, 0), (3, 0), (4, 0), (4, 1), (5, 0), (5, 1), (5, 2),
            (6, 0), (6, 1), (6, 2), (7, 0), (9, 0), (9, 1), (11, 0),
            (12, 0), (12, 1),
        ]
