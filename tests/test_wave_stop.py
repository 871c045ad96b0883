"""The wave core's early stop and retirement against references (docs/RUNTIME.md).

A wave stops popping the top-k once it holds ``c`` accesses, unless the
stop is not provably exact (eager speculation, a channel refusing
accesses). ``FullPop`` forces the pop of the whole top-k on every wave,
as the wave core did before the early stop. A wave also retires the
complete objects it pops before any other entry: they are confirmed
answers. ``Repops`` never retires them, as the wave core did before it
confirmed answers, so every wave pops and pushes them back. Every run
here must serialize byte-identically under the shipped core and each
reference, on the sync and the async driver, with no more bound
evaluations. Only the final wave degrades targets and sets the budget
flag, so budgeted waves stop when full too.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.core.tasks import UNSEEN
from repro.data.dataset import Dataset
from repro.data.generators import uniform
from repro.exceptions import ContractViolationError
from repro.faults.breaker import BreakerPolicy
from repro.faults.injector import FaultInjectingSource, FaultProfile
from repro.faults.retry import RetryPolicy
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.scoring.functions import Avg, Max, Min
from repro.service.protocol import encode_response, session_response
from repro.service.server import QueryServer, ServerConfig
from repro.sources.cache import SourceCache
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.simulated import sources_for
from tests.conftest import assert_valid_topk


class Unrefinable(FrameworkNC):
    """The engine as shipped, recording each unrefinable target as (wave, object).

    A wave passes such a target over; only the final wave degrades it.
    """

    def _usable_choices(self, target, epoch=None):
        choices = super()._usable_choices(target, epoch)
        if choices is None and target != UNSEEN:
            self.unrefinable = getattr(self, "unrefinable", []) + [
                (self.waves, target)
            ]
        return choices


class Gated(Unrefinable):
    """:class:`Unrefinable`, also recording the early-stop gate per wave."""

    def _pops_full_topk(self, epoch):
        full = super()._pops_full_topk(epoch)
        self.gates = getattr(self, "gates", []) + [full]
        return full


class FullPop(FrameworkNC):
    """The wave core without the early stop: every wave pops the top-k."""

    def _pops_full_topk(self, epoch):
        return True


class Repops(FrameworkNC):
    """The wave core without retirement: every wave re-pops its answers."""

    def _retires_prefix(self):
        return False


def compiled(text):
    parsed = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1")
    return compile_expression(parsed.expr, schema=["a", "b", "c"])[0]


FNS = {
    "min": lambda: Min(3),
    "avg": lambda: Avg(3),
    "compiled-min": lambda: compiled("min(a, 0.8 * b, c)"),
    "compiled-sum": lambda: compiled("0.5 * a + 0.3 * b + 0.2 * c"),
}
SCENARIOS = (
    "plain", "wild-guesses", "transient", "outage", "recover", "blackout", "budget",
)


def middleware(scenario: str) -> Middleware:
    # The blackout data abandons discovery in waves where UNSEEN ranks
    # past the c-th target, so an early stop there would change the run.
    dataset = uniform(150, 3, seed=0) if scenario == "blackout" else uniform(80, 3, seed=5)
    model = CostModel.uniform(3, cs=1.0, cr=1.0)
    if scenario in ("plain", "wild-guesses", "budget"):
        return Middleware.over(
            dataset,
            model,
            no_wild_guesses=scenario != "wild-guesses",
            record_log=True,
            budget=60.0 if scenario == "budget" else None,
        )
    retry, breaker = RetryPolicy(max_attempts=2), BreakerPolicy(1, cooldown=4)
    if scenario == "transient":
        profiles = [(FaultProfile.transient(0.2), None)] * 3
    elif scenario == "recover":
        # p1 and p2 are flaky, with no retries: two failures in a row open
        # a breaker, and a half-open trial that succeeds closes it again,
        # so a target degraded in one wave is refined in a later one.
        profiles = [(None, None)] + [
            (FaultProfile.transient(rate),) * 2 for rate in (0.5, 0.4)
        ]
        retry, breaker = None, BreakerPolicy(2, cooldown=4)
    elif scenario == "outage":
        # ra_0 is dead: its breaker opens, offers a trial every cooldown
        # (half-open, admitting again) and reopens on the failed trial.
        profiles = [(None, FaultProfile(dead=True)), (None, None), (None, None)]
    else:
        # Every sorted source dies after a while: discovery is abandoned
        # in a wave that pops UNSEEN.
        profiles = [(FaultProfile(fail_after=12 + 3 * i), None) for i in range(3)]
    sources = [
        FaultInjectingSource(
            inner, sorted_profile=sp, random_profile=rp, seed=i, predicate=i
        )
        for i, (inner, (sp, rp)) in enumerate(zip(sources_for(dataset), profiles))
    ]
    return Middleware(
        sources,
        model,
        n_objects=dataset.n,
        record_log=True,
        retry_policy=retry,
        breaker_policy=breaker,
    )


def run(engine_cls, fn_name, scenario, k, c, driver):
    engine = engine_cls(
        middleware(scenario),
        FNS[fn_name](),
        k,
        SRGPolicy((0.9, 0.8, 0.9)),
        degrade_on_budget=scenario == "budget",
        concurrency=c,
    )
    if driver == "sync":
        outcome = engine.execute()
    else:
        outcome = asyncio.run(engine.execute_async())
    result = outcome.result
    serialized = {
        "ranking": [
            (entry.obj, struct.pack("<d", entry.score))
            for entry in result.ranking
        ],
        "uncertainty": result.uncertainty,
        "partial": result.partial,
        "log": result.stats.log,
        "cost": struct.pack("<d", outcome.total_cost),
        "elapsed": struct.pack("<d", outcome.elapsed),
        "waves": outcome.waves,
        "metadata": repr(result.metadata),
    }
    return serialized, engine


@pytest.mark.parametrize("driver", ["sync", "async"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("fn_name", list(FNS))
def test_early_stop_replays_the_full_pop(fn_name, scenario, driver, monkeypatch):
    # Counts the unarmed engine's bound evaluations: an armed engine pops
    # the rest of the top-k after every early stop, to check it.
    monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
    fewer = refused = refined = 0
    for k in (1, 3, 10):
        for c in (2, 3, 4):
            new, engine = run(Gated, fn_name, scenario, k, c, driver)
            old, full = run(FullPop, fn_name, scenario, k, c, driver)
            assert new == old, (k, c)
            assert engine.bound_evaluations <= full.bound_evaluations, (k, c)
            fewer += engine.bound_evaluations < full.bound_evaluations
            if scenario == "blackout":
                refused += any(engine.gates)
            elif scenario in ("outage", "recover"):
                # The gate flips both ways within the run: full while a
                # breaker is open, early again once it half-opens.
                flips = list(zip(engine.gates, engine.gates[1:]))
                assert (False, True) in flips and (True, False) in flips
                refined += any(
                    engine.state.is_complete(obj)
                    for _wave, obj in getattr(engine, "unrefinable", [])
                )
            elif scenario != "transient":
                # Budgeted waves stop when full too: degradation is
                # decided by the final wave, which pops the whole top-k.
                assert not any(engine.gates)
    if scenario == "blackout":
        assert refused > 0
    if scenario == "recover":
        # Targets unrefinable while a breaker was open, refined once it
        # closed.
        assert refined > 0
    if scenario == "plain" and FNS[fn_name]().min_terms is None:
        # Waves that fill early leave the top-k's tail unpopped. (A
        # min-shaped F's index evaluates one bound per group, not per
        # entry, so popping fewer entries need not save any.)
        assert fewer > 0


@pytest.mark.parametrize("driver", ["sync", "async"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("fn_name", list(FNS))
def test_retiring_replays_the_repops(fn_name, scenario, driver):
    fewer = 0
    for k in (1, 3, 10):
        for c in (2, 3, 4):
            new, engine = run(FrameworkNC, fn_name, scenario, k, c, driver)
            old, repops = run(Repops, fn_name, scenario, k, c, driver)
            assert new == old, (k, c)
            assert engine.bound_evaluations <= repops.bound_evaluations, (k, c)
            assert not repops._confirmed
            if k >= 3:
                fewer += engine.bound_evaluations < repops.bound_evaluations
    if scenario == "plain" and FNS[fn_name]().min_terms is None:
        # Retired answers are no longer re-verified on every wave. (A
        # min-shaped F's index evaluates one bound per group, not per
        # entry, so popping fewer entries need not save any.)
        assert fewer == 6


def test_eager_speculation_always_pops_the_full_topk():
    _result, engine = run(Gated, "min", "plain", 10, 3, "sync")
    assert engine.gates and not any(engine.gates)
    eager = Gated(
        middleware("plain"), Min(3), 10, SRGPolicy((0.9, 0.8, 0.9)),
        concurrency=3, speculation="eager",
    )
    eager.execute()
    assert eager.gates and all(eager.gates)


class TestArmedCrossCheck:
    def test_armed_run_is_identical_and_checks_every_early_stop(self):
        plain, _engine = run(Gated, "avg", "plain", 10, 2, "sync")
        armed = Gated(
            Middleware.over(
                uniform(80, 3, seed=5),
                CostModel.uniform(3, cs=1.0, cr=1.0),
                record_log=True,
                contracts=True,
            ),
            Avg(3), 10, SRGPolicy((0.9, 0.8, 0.9)), concurrency=2,
        )
        calls = []
        check = armed._check_early_stop

        def counting(popped, epoch):
            calls.append(popped)
            check(popped, epoch)

        armed._check_early_stop = counting
        result = armed.execute().result
        assert calls and all(popped < 10 for popped in calls)
        assert [(e.obj, struct.pack("<d", e.score)) for e in result.ranking] == (
            plain["ranking"]
        )
        assert result.stats.log == plain["log"]

    def test_an_early_stop_past_a_refusing_channel_is_a_violation(
        self, monkeypatch
    ):
        """A mutant gate that stops early while sorted sources refuse."""

        class Early(FrameworkNC):
            def _pops_full_topk(self, epoch):
                return False

        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        with pytest.raises(ContractViolationError, match="early stop"):
            for k in (3, 10):
                for c in (2, 3, 4):
                    run(Early, "min", "blackout", k, c, "sync")

    def test_an_unrefinable_target_left_behind_is_a_violation(self):
        class Blind(FrameworkNC):
            """Stops early, but every target beyond the wave is unrefinable."""

            def _alternatives(self, target, epoch=None):
                if getattr(self, "checking", False):
                    return []
                return super()._alternatives(target, epoch)

            def _check_early_stop(self, popped, epoch):
                self.checking = True
                try:
                    super()._check_early_stop(popped, epoch)
                finally:
                    self.checking = False

        engine = Blind(
            Middleware.over(
                uniform(80, 3, seed=5),
                CostModel.uniform(3, cs=1.0, cr=1.0),
                contracts=True,
            ),
            Min(3), 10, SRGPolicy((0.9, 0.8, 0.9)), concurrency=2,
        )
        with pytest.raises(ContractViolationError, match="early stop"):
            engine.execute()


def test_exact_ties_keep_the_confirmation_order():
    """The one output retiring can change: the order of exactly tied scores.

    Scores on a quarter grid tie. Object 2 is confirmed at 0.75 before
    object 14 is discovered. Object 14 also scores 0.75, and the
    index breaks ties towards the higher id, so a core that re-pops every
    wave ranks 14 first in its final wave. Retiring keeps 2 first, in the
    order the sequential core confirms them. Same accesses, same answers.
    """
    data = Dataset(np.round(np.random.default_rng(0).random((30, 2)) * 4) / 4)

    def ranked(engine_cls, c):
        engine = engine_cls(
            Middleware.over(data, CostModel.uniform(2), record_log=True),
            Min(2), 3, SRGPolicy((0.9, 0.9)), concurrency=c,
        )
        result = engine.execute().result
        assert_valid_topk(result, data, Min(2), 3)
        return [(e.obj, e.score) for e in result.ranking], result.stats.log

    retired, log = ranked(FrameworkNC, 2)
    repopped, repop_log = ranked(Repops, 2)
    assert log == repop_log
    assert retired == [(13, 1.0), (2, 0.75), (14, 0.75)]
    assert repopped == [(13, 1.0), (14, 0.75), (2, 0.75)]
    assert retired == ranked(FrameworkNC, 1)[0]


class UnrefinableFullPop(Unrefinable, FullPop):
    """:class:`Unrefinable` popping the whole top-k on every wave."""


def test_budget_frozen_targets_degrade_in_the_final_wave():
    """A target past the c-th with no affordable choice waits for the final wave.

    Only predicate 0 has sorted access, and the random accesses cost 1, 3
    and 8. Once the budget left is under 8, a target missing only
    predicate 2 has no affordable choice. The full pop meets it in the
    first wave it ranks in the top-k, a wave that stops when full only
    when it reaches it. Either way only the final wave degrades it, so
    both report the final wave's degradations, in rank order: the results
    and access logs are equal.
    """

    def budgeted(engine_cls):
        engine = engine_cls(
            Middleware.over(
                uniform(20, 3, seed=0),
                CostModel(cs=(1.0, math.inf, math.inf), cr=(1.0, 3.0, 8.0)),
                record_log=True,
                budget=15.0,
            ),
            Min(3), 3, SRGPolicy((0.9, 0.8, 0.9)),
            degrade_on_budget=True, concurrency=2,
        )
        result = engine.execute().result
        assert result.partial and result.metadata["budget_exhausted"]
        served = (
            [(entry.obj, struct.pack("<d", entry.score)) for entry in result.ranking],
            result.uncertainty,
            repr(result.metadata),
            result.stats.log,
        )
        return engine.unrefinable, served

    early, result = budgeted(Unrefinable)
    full, full_result = budgeted(UnrefinableFullPop)
    assert result == full_result
    assert list(result[1]) == [4, 3, 19]
    assert [obj for obj, _score in result[0] if obj in result[1]] == [4, 3, 19]
    # The full pop meets the frozen target a wave earlier.
    assert full[0][0] < early[0][0]


def alternating(engine_cls):
    """A budgeted engine whose waves alternate with another's over one cache.

    Sorted accesses cost 4, 4 and 2, random ones 0.5, 1 and 2. The
    budgeted engine is down to 0.2 by wave 31, where UNSEEN has no
    affordable choice. The other engine runs unbudgeted and fills the
    shared sorted lists, which the budgeted one then reads free: its
    discovery is paid for again. The waves alternate as those of two
    concurrent served sessions do.
    """
    dataset = uniform(80, 3, seed=255)
    cache = SourceCache(sources_for(dataset))
    model = CostModel(cs=(4.0, 4.0, 2.0), cr=(0.5, 1.0, 2.0))
    budgeted = engine_cls(
        Middleware.warm(cache, model, budget=20.7, record_log=True),
        Min(3), 5, SRGPolicy((0.9, 0.8, 0.9)),
        degrade_on_budget=True, concurrency=2,
    )
    other = FrameworkNC(
        Middleware.warm(cache, model), Min(3), 5, SRGPolicy((0.8, 0.9, 0.9)),
        concurrency=2,
    )
    waves = [budgeted._waves(), other._waves()]
    outcomes = [None, None]
    while None in outcomes:
        for i, wave in enumerate(waves):
            if outcomes[i] is None:
                try:
                    next(wave)
                except StopIteration as done:
                    outcomes[i] = done.value
    result = outcomes[0].result
    return dataset, result, (
        [(entry.obj, struct.pack("<d", entry.score)) for entry in result.ranking],
        result.uncertainty,
        repr(result.metadata),
        result.stats.log,
        outcomes[0].waves,
    )


def test_budget_frozen_discovery_waits_for_the_final_wave():
    """UNSEEN with only unaffordable choices steps aside until the final wave.

    Abandoning discovery is sticky, so an early stop would otherwise
    change the run: the full pop abandons it in the first wave that pops
    UNSEEN unaffordable, a wave that stops when full only when it reaches
    it, and by then the other engine's fill may have paid for it. Waiting
    for the final wave makes both the same, and the answer exact. The
    budget flag stays set: two accesses overran the budget mid-flight.
    """
    dataset, result, served = alternating(FrameworkNC)
    assert served == alternating(FullPop)[2]
    assert result.metadata["budget_exhausted"] and not result.partial
    assert any("BudgetExceededError" in e for e in result.metadata["fault_events"])
    assert_valid_topk(result, dataset, Min(3), 5)


class Filtering(FullPop):
    """:class:`FullPop`, noting whether any wave's budget filter fired."""

    def _usable_choices(self, target, epoch=None):
        choices = super()._usable_choices(target, epoch)
        self.filtered = getattr(self, "filtered", False) or self._budget_blocked
        return choices


def test_the_budget_flag_is_the_final_waves():
    """``budget_exhausted`` is read off the final wave's filter.

    Some wave filters an unaffordable choice of a target past the c-th
    that still has an affordable one. A wave that stops when full never
    meets it, so a flag kept from every wave would differ from the full
    pop's. The final wave refines everything it pops, and no access
    overruns the budget, so neither engine reports the flag on this
    exact answer.
    """
    data = Dataset(np.round(np.random.default_rng(114323).random((8, 3)), 3))

    def budgeted(engine_cls):
        engine = engine_cls(
            Middleware.over(
                data,
                CostModel(cs=(1.0, 1.0, 1.0), cr=(1.0, 2.0, 10.0)),
                record_log=True,
                budget=56.3,
            ),
            Avg(3), 4, SRGPolicy((0.6, 1.0, 1.0), (1, 0, 2)),
            degrade_on_budget=True, concurrency=2,
        )
        result = engine.execute().result
        assert not result.partial and "budget_exhausted" not in result.metadata
        assert_valid_topk(result, data, Avg(3), 4)
        served = (
            [(entry.obj, struct.pack("<d", entry.score)) for entry in result.ranking],
            repr(result.metadata),
            result.stats.log,
        )
        return engine, served

    _engine, early = budgeted(FrameworkNC)
    full, served = budgeted(Filtering)
    assert early == served
    assert full.filtered


def recovering(seed, fn, k, c, driver):
    """A run under breakers that open and close again, and its engine."""
    dataset = uniform(150, 3, seed=seed)
    profiles = [None, FaultProfile.transient(0.5), FaultProfile.transient(0.4)]
    sources = [
        FaultInjectingSource(
            inner, sorted_profile=profile, random_profile=profile,
            seed=10 * seed + i, predicate=i,
        )
        for i, (inner, profile) in enumerate(zip(sources_for(dataset), profiles))
    ]
    engine = FrameworkNC(
        Middleware(
            sources,
            CostModel.uniform(3),
            n_objects=dataset.n,
            breaker_policy=BreakerPolicy(2, cooldown=4),
        ),
        fn, k, SRGPolicy((0.9, 0.8, 0.9)), concurrency=c,
    )
    if driver == "sync":
        result = engine.execute().result
    else:
        result = asyncio.run(engine.execute_async()).result
    return dataset, engine, result


@pytest.mark.parametrize("c", [2, 3, 4])
def test_no_bound_only_record_outlives_its_wave(c):
    """Degradation is read off the final wave, never from an earlier one.

    A target degraded while a breaker was open and refined once it closed
    is a complete answer: it carries its exact score and no interval, and
    does not make the answer partial. An object degraded in an earlier
    wave that the final ranking left out is not reported either.
    """
    partial = exact = 0
    for seed in range(4):
        for fn in (Min(3), Avg(3), Max(3)):
            for k in (3, 10):
                for driver in ("sync", "async"):
                    dataset, engine, result = recovering(seed, fn, k, c, driver)
                    ranked = [entry.obj for entry in result.ranking]
                    uncertainty = result.uncertainty or {}
                    assert list(uncertainty) == [
                        obj for obj in ranked if obj in uncertainty
                    ]
                    incomplete = False
                    for entry in result.ranking:
                        true = fn(dataset.object_scores(entry.obj))
                        if engine.state.is_complete(entry.obj):
                            assert entry.obj not in uncertainty
                            assert entry.score == pytest.approx(true, abs=1e-12)
                        else:
                            incomplete = True
                            lower, upper = uncertainty[entry.obj]
                            assert entry.score == lower
                            assert lower - 1e-12 <= true <= upper + 1e-12
                    assert result.partial == (
                        incomplete or engine._unseen_abandoned
                    )
                    if result.partial:
                        partial += 1
                    else:
                        # The brute-force oracle's top-k.
                        assert_valid_topk(result, dataset, fn, k)
                        exact += 1
    assert partial and exact


SERVED_TEXTS = [
    "SELECT * FROM r ORDER BY min(p0, p1, p2) STOP AFTER 10",
    "SELECT * FROM r ORDER BY avg(p0, p1, p2) STOP AFTER 3",
    "SELECT * FROM r ORDER BY max(p0, 0.8 * p1, p2) STOP AFTER 5",
    "SELECT * FROM r ORDER BY 0.5 * p0 + 0.3 * p1 + 0.2 * p2 STOP AFTER 10",
]
EVALUATIONS = "repro_engine_bound_evaluations_total"


def served(query_concurrency, concurrent_queries, budgets, skew=False):
    """Budgeted sessions over one shared cache, as a client sees them.

    ``concurrent_queries=None`` serves them one by one through
    ``query()``; otherwise ``query_async()`` serves them all at once,
    interleaving their waves. Returns the response lines, the sessions'
    charges and ``stats()`` (bound evaluations left out), and the bound
    evaluations.
    """
    model = (
        CostModel(cs=(1.0, 2.0, 1.0), cr=(1.0, 3.0, 8.0))
        if skew
        else CostModel.uniform(3, cs=1.0, cr=3.0)
    )
    server = QueryServer(
        model,
        cache=SourceCache(sources_for(uniform(120, 3, seed=2))),
        schema=("p0", "p1", "p2"),
        config=ServerConfig(
            max_in_flight=16,
            query_concurrency=query_concurrency,
            concurrent_queries=concurrent_queries or 1,
            sample_size=40,
        ),
    )
    jobs = list(zip(itertools.cycle(SERVED_TEXTS), budgets))
    if concurrent_queries is None:
        sessions = [server.query(text, budget=budget) for text, budget in jobs]
    else:

        async def batch():
            return await asyncio.gather(
                *(server.query_async(text, budget=budget) for text, budget in jobs)
            )

        sessions = asyncio.run(batch())
    seen = [
        (
            encode_response(session_response(server, session)),
            session.charged_accesses,
            list((session.result.uncertainty or {}).items()),
        )
        for session in sessions
    ]
    stats = server.stats()
    counters = stats["metrics"]["counters"]
    evaluations = sum(v for key, v in counters.items() if key.startswith(EVALUATIONS))
    stats["metrics"]["counters"] = {
        key: v for key, v in counters.items() if not key.startswith(EVALUATIONS)
    }
    return (seen, repr(stats)), evaluations


class TestServedBudgets:
    """Budgeted served waves stop when full, as their full pop would end.

    Sessions share one cache, so another session's fill can make a choice
    that was unaffordable free again: a target is not frozen there, and
    only the final wave's degradations and budget flag are reported
    either way. A server
    whose engines keep the full pop (``_pops_full_topk`` patched) must
    answer, charge and count alike.
    """

    @pytest.mark.parametrize("concurrent_queries", [None, 1, 3])
    @pytest.mark.parametrize("query_concurrency", [2, 3, 4])
    def test_served_budgets_equal_the_full_pop(
        self, monkeypatch, query_concurrency, concurrent_queries
    ):
        # Counts the unarmed engines' bound evaluations.
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        budgets = [40.0, 12.0, None, 25.0, 8.0, 60.0, 18.0, 30.0]
        early, evaluations = served(query_concurrency, concurrent_queries, budgets)
        monkeypatch.setattr(FrameworkNC, "_pops_full_topk", lambda self, epoch: True)
        full, full_evaluations = served(
            query_concurrency, concurrent_queries, budgets
        )
        assert early == full
        assert evaluations < full_evaluations
        responses = [line for line, _accesses, _uncertainty in early[0]]
        assert any('"budget_exhausted": true' in line for line in responses)
        assert any('"partial": true' in line for line in responses)

    @settings(max_examples=30, deadline=None)
    @given(
        budgets=st.lists(
            st.one_of(st.none(), st.floats(2.0, 100.0).map(lambda b: round(b, 1))),
            min_size=2,
            max_size=6,
        ),
        query_concurrency=st.sampled_from([2, 3, 4]),
        concurrent_queries=st.sampled_from([None, 1, 3]),
        skew=st.booleans(),
    )
    def test_the_budget_flag_is_the_full_pops(
        self, budgets, query_concurrency, concurrent_queries, skew
    ):
        """``budget_exhausted`` is the one flag an early stop could move.

        Kept from every wave, it would: the full pop filters targets an
        early stop never meets. The wave core reads it off the final
        wave's filter, plus any access that overran the budget, and the
        final wave pops the whole top-k, so no drawn case may report the
        flag (or its partial reason and counter) differently from the
        full pop.
        """
        early, _evaluations = served(
            query_concurrency, concurrent_queries, budgets, skew
        )
        shipped = FrameworkNC._pops_full_topk
        FrameworkNC._pops_full_topk = lambda self, epoch: True
        try:
            full, _evaluations = served(
                query_concurrency, concurrent_queries, budgets, skew
            )
        finally:
            FrameworkNC._pops_full_topk = shipped
        assert early == full
