"""Differential check of the engine's choice cache (docs/RUNTIME.md).

The engine keeps each target's breaker-admitted necessary choices under
the key (record count in ``ScoreState``, ``Middleware.gate_epoch``). At
every read, in every execution shape, the cached list must equal a fresh
derivation: ``necessary_choices`` (Definition 2) filtered by the
breakers' own state at the live clock. The budget filter of
``degrade_on_budget`` runs on top, on every call, and is checked the same
way.

Each cache-key input has a scenario here that goes wrong without it:
breakers opening and reaching their half-open tick (the tick), two
middlewares sharing one breaker map with one tripping a breaker the other
relies on (the shared transition signal), short sorted lists running
out under a live UNSEEN target, on plain and on cached sources (the
exhaustion bump), and two sessions over one cache, one running out a
list the other stands at the end of (the cache's exhaustion serial).
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.choices import necessary_choices
from repro.core.framework import FrameworkNC, FrameworkTG
from repro.core.policies import SRGPolicy
from repro.core.tasks import UNSEEN
from repro.data.dataset import Dataset
from repro.data.generators import uniform
from repro.faults.breaker import BreakerPolicy, BreakerState, breakers_for
from repro.faults.injector import FaultInjectingSource, FaultProfile
from repro.faults.retry import RetryPolicy
from repro.scoring.functions import Avg, Min
from repro.sources.cache import SourceCache
from repro.sources.callback import CallbackSource
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.simulated import sources_for
from repro.types import Access, AccessType, RankedObject
from tests.conftest import score_multiset


def admitted(middleware: Middleware, accesses: list[Access]) -> list[Access]:
    """Accesses whose breaker admits an attempt, asked of the breakers."""
    return [
        access
        for access in accesses
        if middleware.breaker_state(access.predicate, access.kind)
        is not BreakerState.OPEN
    ]


def legal_pool(engine: FrameworkNC) -> list[Access]:
    """Every currently-legal access: the trivially-general choice set."""
    middleware, state = engine.middleware, engine.state
    pool = [
        Access.sorted(i)
        for i in middleware.sorted_predicates()
        if not middleware.exhausted(i)
    ]
    objects = (
        middleware.seen
        if middleware.no_wild_guesses
        else middleware.object_ids()
    )
    for obj in objects:
        for i in state.undetermined(obj):
            if middleware.supports_random(i):
                pool.append(Access.random(i, obj))
    return pool


def fresh_choices(engine: FrameworkNC, target: int) -> list[Access]:
    """The admitted choice set, derived from scratch."""
    if isinstance(engine, FrameworkTG):
        return admitted(engine.middleware, legal_pool(engine))
    return admitted(engine.middleware, necessary_choices(engine.state, target))


class Checked:
    """Engine mixin: every choice-set read is compared with a fresh one."""

    def _alternatives(self, target, epoch=None):
        got = super()._alternatives(target, epoch)
        assert got == fresh_choices(self, target), (target, got)
        self.checks = getattr(self, "checks", 0) + 1
        return got

    def _usable_choices(self, target, epoch=None):
        got = super()._usable_choices(target, epoch)
        want = fresh_choices(self, target)
        remaining = self.middleware.remaining_budget()
        if self.degrade_on_budget and remaining is not None:
            want = [
                access
                for access in want
                if self.middleware.charged_cost(access) <= remaining + 1e-12
            ]
        assert got == (want or None), (target, got, want)
        return got


class CheckedNC(Checked, FrameworkNC):
    pass


class CheckedTG(Checked, FrameworkTG):
    pass


#: (label, engine factory) for every execution shape the cache serves.
SHAPES = [
    ("sequential", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, degrade_on_budget=deg)),
    ("wave-2-none", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, concurrency=2, degrade_on_budget=deg)),
    ("wave-4-none", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, concurrency=4, degrade_on_budget=deg)),
    ("wave-2-eager", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, concurrency=2, speculation="eager",
        degrade_on_budget=deg)),
    ("wave-4-eager", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, concurrency=4, speculation="eager",
        degrade_on_budget=deg)),
    ("async-1", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, degrade_on_budget=deg)),
    ("async-2", lambda mw, fn, k, pol, deg: CheckedNC(
        mw, fn, k, pol, concurrency=2, degrade_on_budget=deg)),
]
SHAPE_NAMES = [name for name, _factory in SHAPES]


def run(engine: FrameworkNC, shape: str):
    """Run any engine shape to completion; returns the query result."""
    if shape.startswith("async"):
        return asyncio.run(engine.run_async())
    return engine.run()


def faulty_middleware(dataset, model, profile, random_profile, seed, cooldown,
                      threshold, budget=None):
    """A middleware over fault-injecting sources with small breaker ticks."""
    sources = [
        FaultInjectingSource(
            inner,
            profile=profile,
            random_profile=random_profile if i == 0 else None,
            seed=seed * 31 + i,
            predicate=i,
        )
        for i, inner in enumerate(sources_for(dataset))
    ]
    return Middleware(
        sources,
        model,
        n_objects=dataset.n,
        retry_policy=RetryPolicy(max_attempts=2),
        breaker_policy=BreakerPolicy(failure_threshold=threshold,
                                     cooldown=cooldown),
        budget=budget,
    )


@st.composite
def faulty_runs(draw):
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    random_profile = draw(st.sampled_from([
        None,
        FaultProfile(dead=True),
        FaultProfile(transient_rate=0.6),
        FaultProfile(fail_after=3),
    ]))
    cooldown = draw(st.integers(min_value=1, max_value=6))
    threshold = draw(st.integers(min_value=1, max_value=2))
    k = draw(st.integers(min_value=1, max_value=4))
    fn = draw(st.sampled_from([Min(m), Avg(m)]))
    depths = tuple(
        draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(m)
    )
    budget = draw(st.sampled_from([None, None, 15.0, 40.0]))
    return dict(m=m, n=n, seed=seed, rate=rate, random_profile=random_profile,
                cooldown=cooldown, threshold=threshold, k=k, fn=fn,
                depths=depths, budget=budget)


class TestCachedChoicesEqualFresh:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(case=faulty_runs())
    def test_faulty_runs(self, shape, case):
        """Faults open breakers and cross half-open ticks mid-run."""
        factory = dict(SHAPES)[shape]
        dataset = uniform(n=case["n"], m=case["m"], seed=case["seed"])
        model = CostModel.uniform(case["m"], cs=1.0, cr=2.0)
        middleware = faulty_middleware(
            dataset, model, FaultProfile.transient(case["rate"]),
            case["random_profile"], case["seed"], case["cooldown"],
            case["threshold"], budget=case["budget"],
        )
        degrade = case["budget"] is not None
        engine = factory(middleware, case["fn"], case["k"],
                         SRGPolicy(case["depths"]), degrade)
        result = run(engine, shape)
        assert engine.checks > 0
        if not result.partial:
            assert score_multiset(result.ranking) == score_multiset(
                dataset.topk(case["fn"], case["k"])
            )

    @settings(max_examples=25, deadline=None)
    @given(case=faulty_runs())
    def test_trivially_general_engine_bypasses_the_cache(self, case):
        dataset = uniform(n=case["n"], m=case["m"], seed=case["seed"])
        model = CostModel.uniform(case["m"], cs=1.0, cr=2.0)
        middleware = faulty_middleware(
            dataset, model, FaultProfile.transient(case["rate"]),
            case["random_profile"], case["seed"], case["cooldown"],
            case["threshold"], budget=case["budget"],
        )
        engine = CheckedTG(middleware, case["fn"], case["k"],
                           SRGPolicy(case["depths"]),
                           degrade_on_budget=case["budget"] is not None)
        engine.run()
        assert engine.checks > 0
        assert engine._choice_cache == {}

    def test_half_open_tick_readmits_a_dead_channel(self):
        """A dead random channel trips, then offers trials every cooldown."""
        dataset = uniform(n=30, m=2, seed=4)
        middleware = faulty_middleware(
            dataset, CostModel.uniform(2, cs=1.0, cr=1.0), FaultProfile(),
            FaultProfile(dead=True), seed=4, cooldown=3, threshold=1,
        )
        engine = CheckedNC(middleware, Min(2), 3, SRGPolicy((1.0, 1.0)))
        result = engine.run()
        stats = middleware.stats
        # The channel was tried again after its first trip: only a
        # half-open trial can have let a second attempt through.
        assert stats.fault_random_counts[0] >= 2
        assert engine.checks > stats.total_accesses / 2
        assert result.ranking


def interleave(engines, schedule):
    """Step the engines' sequential cores in ``schedule``'s cyclic order.

    An engine that has finished passes its turn to the first live one.
    """
    cores = [engine._sequential() for engine in engines]
    answers = [[] for _ in engines]
    live = list(range(len(engines)))
    position = 0
    while live:
        index = schedule[position % len(schedule)]
        position += 1
        if index not in live:
            index = live[0]
        engine = engines[index]
        try:
            item = next(cores[index])
        except StopIteration:
            live.remove(index)
            continue
        if isinstance(item, RankedObject):
            answers[index].append(item)
            if len(answers[index]) >= engine.k:
                live.remove(index)
    return answers


class TestSharedBreakerMap:
    def _pair(self, dead_kind_sorted: bool, seed: int = 2):
        """Session A fails on predicate 0; session B's sources are healthy."""
        dataset = uniform(n=30, m=2, seed=seed)
        model = CostModel.uniform(2, cs=1.0, cr=1.0)
        shared = breakers_for(2, BreakerPolicy(failure_threshold=1,
                                               cooldown=50))
        dead = FaultProfile(dead=True)
        sick = [
            FaultInjectingSource(
                inner,
                sorted_profile=dead if dead_kind_sorted and i == 0 else None,
                random_profile=dead if not dead_kind_sorted and i == 0 else None,
                seed=i,
                predicate=i,
            )
            for i, inner in enumerate(sources_for(dataset))
        ]
        a = Middleware(sick, model, n_objects=dataset.n, breakers=shared)
        b = Middleware(sources_for(dataset), model, n_objects=dataset.n,
                       breakers=shared)
        return dataset, a, b

    def test_a_trip_in_one_session_moves_the_other_sessions_epoch(self):
        _dataset, a, b = self._pair(dead_kind_sorted=True)
        engine_b = CheckedNC(b, Min(2), 3, SRGPolicy((1.0, 1.0)))
        engine_a = CheckedNC(a, Min(2), 3, SRGPolicy((1.0, 1.0)))
        core_b = engine_b._sequential()
        first = next(core_b)  # B caches UNSEEN's choices {sa_0, sa_1}
        assert isinstance(first, Access)
        epoch = b.gate_epoch
        core_a = engine_a._sequential()
        next(core_a)
        next(core_a)  # A's sa_0 hits the dead source: (0, sorted) opens
        assert not a.access_allowed(0, AccessType.SORTED)
        assert b.gate_epoch != epoch
        assert not b.access_allowed(0, AccessType.SORTED)
        item = next(core_b)
        assert item != Access.sorted(0)
        assert engine_b.checks >= 2

    @settings(max_examples=40, deadline=None)
    @given(
        schedule=st.lists(st.integers(min_value=0, max_value=1),
                          min_size=1, max_size=12),
        dead_sorted=st.booleans(),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_random_interleavings(self, schedule, dead_sorted, seed):
        dataset, a, b = self._pair(dead_sorted, seed)
        engines = [
            CheckedNC(a, Min(2), 3, SRGPolicy((1.0, 0.5))),
            CheckedNC(b, Min(2), 3, SRGPolicy((1.0, 0.5))),
        ]
        _answers_a, answers_b = interleave(engines, schedule)
        assert engines[1].checks > 0
        assert score_multiset(answers_b) == score_multiset(
            dataset.topk(Min(2), 3)
        )


def short_list(seed: int, n: int, short: int) -> tuple[Dataset, list]:
    """Callback sources whose predicate-0 list names only ``short`` objects.

    Like a search that lists only its matches: every object off the list
    scores 0 on predicate 0, so the list's last-seen bound of 0 once it
    runs out is exact and the answers stay checkable against brute force.
    """
    scores = uniform(n=n, m=2, seed=seed).matrix.copy()
    listed = sorted(range(n), key=lambda obj: (-scores[obj, 0], obj))[:short]
    unlisted = [obj for obj in range(n) if obj not in listed]
    scores[unlisted, 0] = 0.0
    sources = []
    for i in range(2):
        order = (
            listed
            if i == 0
            else sorted(range(n), key=lambda obj: (-scores[obj, 1], obj))
        )
        sources.append(
            CallbackSource(
                sorted_factory=lambda order=order, i=i: iter(
                    [(obj, float(scores[obj, i])) for obj in order]
                ),
                random_fn=lambda obj, i=i: float(scores[obj, i]),
                name=f"p{i}",
            )
        )
    return Dataset(scores), sources


class TestListsRunningOut:
    """Short lists: exhaustion changes UNSEEN's choices while it lives."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=6, max_value=30),
        short=st.integers(min_value=0, max_value=4),
        k=st.integers(min_value=1, max_value=3),
        shape=st.sampled_from(SHAPE_NAMES),
    )
    def test_plain_sources(self, seed, n, short, k, shape):
        dataset, sources = short_list(seed, n, short)
        middleware = Middleware(
            sources, CostModel.uniform(2, cs=1.0, cr=1.0), n_objects=n
        )
        engine = dict(SHAPES)[shape](
            middleware, Avg(2), k, SRGPolicy((0.0, 1.0)), False
        )
        result = run(engine, shape)
        assert engine.checks > 0
        assert score_multiset(result.ranking) == score_multiset(
            dataset.topk(Avg(2), k)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=6, max_value=30),
        short=st.integers(min_value=0, max_value=4),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_cached_sources(self, seed, n, short, k):
        dataset, sources = short_list(seed, n, short)
        cache = SourceCache(sources)
        model = CostModel.uniform(2, cs=1.0, cr=1.0)
        for _query in range(2):  # cold, then warm over the cached prefix
            middleware = Middleware.warm(cache, model, n_objects=n)
            engine = CheckedNC(middleware, Avg(2), k, SRGPolicy((0.0, 1.0)))
            result = engine.run()
            assert engine.checks > 0
            assert score_multiset(result.ranking) == score_multiset(
                dataset.topk(Avg(2), k)
            )

    def test_unseen_drops_the_exhausted_list(self):
        _dataset, sources = short_list(3, 12, 2)
        middleware = Middleware(
            sources, CostModel.uniform(2, cs=1.0, cr=1.0), n_objects=12
        )
        engine = CheckedNC(middleware, Avg(2), 4, SRGPolicy((0.0, 1.0)))
        offered = []
        original = engine._alternatives

        def spy(target, epoch=None):
            choices = original(target, epoch)
            if target == UNSEEN:
                offered.append(tuple(choices))
            return choices

        engine._alternatives = spy
        engine.run()
        assert (Access.sorted(0), Access.sorted(1)) in offered
        assert (Access.sorted(1),) in offered

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=6, max_value=30),
        short=st.integers(min_value=0, max_value=4),
        k=st.integers(min_value=1, max_value=3),
        schedule=st.lists(st.integers(min_value=0, max_value=1),
                          min_size=1, max_size=12),
    )
    def test_sessions_sharing_a_cache(self, seed, n, short, k, schedule):
        """Another session's fetch runs out a list this session stands at.

        A callback list reports exhaustion only once a fetch comes back
        empty, so a session sitting at the end of the shared prefix sees
        its list run out when another session makes that fetch. The cores
        are switched between selecting an access and performing it, so a
        session may resume with an ``sa_0`` that was legal when selected
        and has run out since; the middlewares are strict, so performing
        it would raise instead of re-selecting.
        """
        dataset, sources = short_list(seed, n, short)
        cache = SourceCache(sources)
        model = CostModel.uniform(2, cs=1.0, cr=1.0)
        engines = [
            CheckedNC(Middleware.warm(cache, model, n_objects=n),
                      Avg(2), k, SRGPolicy((0.0, 1.0)))
            for _session in range(2)
        ]
        answers = interleave(engines, schedule)
        want = score_multiset(dataset.topk(Avg(2), k))
        for engine, ranking in zip(engines, answers):
            assert engine.checks > 0
            assert score_multiset(ranking) == want

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=6, max_value=30),
        short=st.integers(min_value=0, max_value=4),
        k=st.integers(min_value=1, max_value=3),
        schedule=st.lists(st.integers(min_value=0, max_value=1),
                          min_size=1, max_size=12),
    )
    def test_wave_sessions_sharing_a_cache(self, seed, n, short, k, schedule):
        """The wave core, switched between planning a wave and folding it."""
        dataset, sources = short_list(seed, n, short)
        cache = SourceCache(sources)
        model = CostModel.uniform(2, cs=1.0, cr=1.0)
        engines = [
            CheckedNC(Middleware.warm(cache, model, n_objects=n),
                            Avg(2), k, SRGPolicy((0.0, 1.0)), concurrency=2)
            for _session in range(2)
        ]
        cores = [engine._waves() for engine in engines]
        results = [None, None]
        position = 0
        while None in results:
            index = schedule[position % len(schedule)]
            position += 1
            if results[index] is not None:
                index = results.index(None)
            try:
                next(cores[index])
            except StopIteration as done:
                results[index] = done.value
        want = score_multiset(dataset.topk(Avg(2), k))
        for result in results:
            assert score_multiset(result.result.ranking) == want

    def test_another_sessions_fetch_moves_the_epoch(self):
        _dataset, sources = short_list(3, 12, 2)
        cache = SourceCache(sources)
        model = CostModel.uniform(2, cs=1.0, cr=1.0)
        a, b = (Middleware.warm(cache, model, n_objects=12) for _ in range(2))
        for middleware in (a, b):  # both stand at the end of list 0
            middleware.sorted_access(0)
            middleware.sorted_access(0)
        assert not b.exhausted(0)
        epoch = b.gate_epoch
        assert a.sorted_access(0) is None  # the fetch that finds the end
        assert b.exhausted(0)
        assert b.gate_epoch != epoch
