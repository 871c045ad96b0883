"""The wave core's early stop against the full top-k pop (docs/RUNTIME.md).

A wave stops popping the top-k once it holds ``c`` accesses, unless the
stop is not provably exact (eager speculation, a budget under
``degrade_on_budget``, a channel refusing accesses). ``FullPop`` forces
the pop of the whole top-k on every wave, as the wave core did before the
early stop; every run here must serialize byte-identically under both,
on the sync and the async driver, with no more bound evaluations.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.generators import uniform
from repro.exceptions import ContractViolationError
from repro.faults.breaker import BreakerPolicy
from repro.faults.injector import FaultInjectingSource, FaultProfile
from repro.faults.retry import RetryPolicy
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.simulated import sources_for


class Gated(FrameworkNC):
    """The engine as shipped, recording the early-stop gate per wave."""

    def _pops_full_topk(self, epoch):
        full = super()._pops_full_topk(epoch)
        self.gates = getattr(self, "gates", []) + [full]
        return full


class FullPop(FrameworkNC):
    """The wave core without the early stop: every wave pops the top-k."""

    def _pops_full_topk(self, epoch):
        return True


def compiled(text):
    parsed = parse_query(f"SELECT * FROM r ORDER BY {text} STOP AFTER 1")
    return compile_expression(parsed.expr, schema=["a", "b", "c"])[0]


FNS = {
    "min": lambda: Min(3),
    "avg": lambda: Avg(3),
    "compiled-min": lambda: compiled("min(a, 0.8 * b, c)"),
    "compiled-sum": lambda: compiled("0.5 * a + 0.3 * b + 0.2 * c"),
}
SCENARIOS = ("plain", "wild-guesses", "transient", "outage", "blackout", "budget")


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
    if scenario == "transient":
        profiles = [(FaultProfile.transient(0.2), None)] * 3
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
        retry_policy=RetryPolicy(max_attempts=2),
        breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=4),
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
def test_early_stop_replays_the_full_pop(fn_name, scenario, driver):
    fewer = refused = 0
    for k in (1, 3, 10):
        for c in (2, 3, 4):
            new, engine = run(Gated, fn_name, scenario, k, c, driver)
            old, full = run(FullPop, fn_name, scenario, k, c, driver)
            assert new == old, (k, c)
            assert engine.bound_evaluations <= full.bound_evaluations, (k, c)
            fewer += engine.bound_evaluations < full.bound_evaluations
            if scenario == "budget":
                assert all(engine.gates)
            elif scenario == "blackout":
                refused += any(engine.gates)
            elif scenario == "outage":
                # The gate flips both ways within the run: full while the
                # breaker is open, early again once it half-opens.
                flips = list(zip(engine.gates, engine.gates[1:]))
                assert (False, True) in flips and (True, False) in flips
            elif scenario != "transient":
                assert not any(engine.gates)
    if scenario == "blackout":
        assert refused > 0
    if scenario == "plain" and FNS[fn_name]().min_terms is None:
        # Waves that fill early leave the top-k's tail unpopped. (A
        # min-shaped F's index evaluates one bound per group, not per
        # entry, so popping fewer entries need not save any.)
        assert fewer > 0


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

    def test_an_unrefinable_target_left_behind_is_a_violation(self):
        class Blind(FrameworkNC):
            """Stops early, but every target beyond the wave is unrefinable."""

            def _usable_choices(self, target, epoch=None):
                if getattr(self, "checking", False):
                    return None
                return super()._usable_choices(target, epoch)

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
