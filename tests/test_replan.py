"""Tests for mid-flight adaptive replanning (``repro.optimizer.replan``).

The drift harness used throughout: zero-fault :class:`FaultInjectingSource`
wrappers whose :class:`ConstantLatency` reports the *true* cost model as
observed durations, a middleware charging that true model, and a
:class:`CostMonitor` anchored to a *misspecified* assumed model -- the
live-observation path the serving layer uses, with reality and belief
deliberately split.
"""

import asyncio
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.generators import uniform
from repro.faults.injector import FaultProfile, faulty_sources_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.optimizer.replan import (
    REPLAN_MODES,
    ReplanConfig,
    ReplanController,
    plan_fingerprint,
)
from repro.optimizer.sampling import dummy_uniform_sample
from repro.scoring.functions import WeightedSum
from repro.serialization import result_to_dict
from repro.sources.cost import CostModel
from repro.sources.latency import ConstantLatency
from repro.sources.middleware import Middleware
from repro.sources.monitor import CostMonitor

N, M, K = 800, 3, 10
FN = WeightedSum([1.0] * M)
ASSUMED = CostModel.uniform(M, cs=1.0, cr=1.0)
# Reality: predicate 0's probes are 40x dearer than assumed.
TRUE = CostModel((1.0, 1.0, 1.0), (40.0, 1.0, 1.0))
DATA = uniform(N, M, seed=3)
SAMPLE = dummy_uniform_sample(M, 100, 0)
OPTIMIZER = NCOptimizer()

_plans: dict[str, SRGPlan] = {}


def misspecified_plan() -> SRGPlan:
    """The plan the optimizer picks when it believes the assumed model."""
    if "plan0" not in _plans:
        _plans["plan0"] = OPTIMIZER.plan(SAMPLE, FN, K, N, ASSUMED)
    return _plans["plan0"]


def oracle_plan() -> SRGPlan:
    """The plan the optimizer picks when handed the true model."""
    if "oracle" not in _plans:
        _plans["oracle"] = OPTIMIZER.plan(SAMPLE, FN, K, N, TRUE)
    return _plans["oracle"]


def drift_middleware(**kwargs) -> Middleware:
    """Charging reality, believing the assumed model, observing live."""
    sources = faulty_sources_for(
        DATA, FaultProfile(), latency_model=ConstantLatency(TRUE)
    )
    kwargs.setdefault("monitor", CostMonitor(ASSUMED))
    kwargs.setdefault("metrics", MetricsRegistry())
    return Middleware(sources, TRUE, **kwargs)


def controller(
    plan: SRGPlan, config: ReplanConfig, sample=SAMPLE
) -> ReplanController:
    return ReplanController(
        sample,
        FN,
        K,
        N,
        ASSUMED,
        initial_plan=plan,
        config=config,
        optimizer=OPTIMIZER,
    )


def execute(plan: SRGPlan, mode: str, **config_kwargs):
    middleware = drift_middleware()
    ctrl = None
    if mode != "off":
        ctrl = controller(
            plan,
            ReplanConfig(mode=mode, check_every=16, margin=0.05, **config_kwargs),
        )
    engine = FrameworkNC(
        middleware, FN, K, SRGPolicy(plan.depths, plan.schedule), replan=ctrl
    )
    return engine.run(), ctrl, engine


class TestConfig:
    def test_defaults_valid(self):
        config = ReplanConfig()
        assert config.mode in REPLAN_MODES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sometimes"},
            {"check_every": 0},
            {"margin": -0.1},
            {"drift_tolerance": 0.9},
            {"breaker_penalty": 0.5},
            {"max_switches": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReplanConfig(**kwargs)


class TestPlanFingerprint:
    def test_stable_and_distinct(self):
        a = SRGPlan(depths=(0.5, 0.25), schedule=(1, 0))
        b = SRGPlan(depths=(0.5, 0.25), schedule=(1, 0))
        c = SRGPlan(depths=(0.5, 0.26), schedule=(1, 0))
        assert plan_fingerprint(a) == plan_fingerprint(b)
        assert plan_fingerprint(a) != plan_fingerprint(c)
        assert plan_fingerprint(a).startswith("plan-")

    def test_schedule_matters(self):
        a = SRGPlan(depths=(0.5, 0.5), schedule=(0, 1))
        b = SRGPlan(depths=(0.5, 0.5), schedule=(1, 0))
        assert plan_fingerprint(a) != plan_fingerprint(b)


class TestRevisedModel:
    def test_reflects_observed_costs(self):
        middleware = drift_middleware()
        ctrl = controller(misspecified_plan(), ReplanConfig())
        # Discover objects via sorted access, then probe them on
        # predicate 0 enough times to clear min_observations.
        from repro.types import Access

        seen = [middleware.perform(Access.sorted(1))[0] for _ in range(6)]
        for obj in seen:
            middleware.perform(Access.random(0, obj))
        revised, blocked = ctrl.revised_model(middleware)
        assert revised.random_cost(0) == pytest.approx(40.0)
        assert revised.sorted_cost(1) == 1.0  # unobserved: assumed
        assert blocked == ()

    def test_breaker_penalty_finite(self):
        from repro.faults.breaker import BreakerPolicy, breakers_for
        from repro.types import AccessType

        breakers = breakers_for(M, BreakerPolicy(failure_threshold=1, cooldown=10**6))
        middleware = drift_middleware(breakers=breakers)
        breakers[(0, AccessType.RANDOM)].record_failure(0)
        ctrl = controller(misspecified_plan(), ReplanConfig(breaker_penalty=100.0))
        revised, blocked = ctrl.revised_model(middleware)
        assert blocked == ((0, "random"),)
        assert math.isfinite(revised.random_cost(0))
        assert revised.random_cost(0) >= 100.0
        # Capability structure untouched: the channel is costly, not gone.
        assert revised.supports_random(0)


class TestOffMode:
    def test_off_controller_is_normalized_away(self):
        plan = misspecified_plan()
        ctrl = controller(plan, ReplanConfig(mode="off"))
        engine = FrameworkNC(
            drift_middleware(),
            FN,
            K,
            SRGPolicy(plan.depths, plan.schedule),
            replan=ctrl,
        )
        assert engine.replan is None

    def test_off_byte_identical_sync(self):
        plan = misspecified_plan()
        baseline = FrameworkNC(
            drift_middleware(), FN, K, SRGPolicy(plan.depths, plan.schedule)
        ).run()
        with_off, _, _ = execute(plan, "off")
        assert result_to_dict(with_off) == result_to_dict(baseline)

    def test_off_byte_identical_async(self):
        plan = misspecified_plan()
        baseline = FrameworkNC(
            drift_middleware(), FN, K, SRGPolicy(plan.depths, plan.schedule)
        ).run()
        ctrl = controller(plan, ReplanConfig(mode="off"))
        engine = FrameworkNC(
            drift_middleware(),
            FN,
            K,
            SRGPolicy(plan.depths, plan.schedule),
            concurrency=1,
            replan=ctrl,
        )
        result = asyncio.run(engine.run_async())
        assert result_to_dict(result) == result_to_dict(baseline)


class TestStaticEnvironment:
    def test_always_mode_never_searches_without_change(self):
        """Signature gating: a static environment pays zero re-searches."""
        plan = oracle_plan()
        sources = faulty_sources_for(
            DATA, FaultProfile(), latency_model=ConstantLatency(TRUE)
        )
        middleware = Middleware(
            sources, TRUE, monitor=CostMonitor(TRUE), metrics=MetricsRegistry()
        )
        ctrl = ReplanController(
            SAMPLE,
            FN,
            K,
            N,
            TRUE,
            initial_plan=plan,
            config=ReplanConfig(mode="always", check_every=8),
            optimizer=OPTIMIZER,
        )
        engine = FrameworkNC(
            middleware, FN, K, SRGPolicy(plan.depths, plan.schedule), replan=ctrl
        )
        result = engine.run()
        assert ctrl.checks > 0
        assert ctrl.searches == 0
        assert ctrl.switches == 0
        baseline = FrameworkNC(
            Middleware(
                faulty_sources_for(
                    DATA, FaultProfile(), latency_model=ConstantLatency(TRUE)
                ),
                TRUE,
            ),
            FN,
            K,
            SRGPolicy(plan.depths, plan.schedule),
        ).run()
        assert [r.obj for r in result.ranking] == [
            r.obj for r in baseline.ranking
        ]
        assert result.stats.total_cost() == baseline.stats.total_cost()


class TestDriftReplanning:
    def test_switch_recovers_regret(self):
        """The tentpole end-to-end: drift detected, plan switched, cost
        recovered -- same answers, much closer to the oracle's bill."""
        plan0 = misspecified_plan()
        static, _, _ = execute(plan0, "off")
        replanned, ctrl, engine = execute(plan0, "drift")
        oracle, _, _ = execute(oracle_plan(), "off")

        assert ctrl.switches >= 1
        assert engine.plan_revision == ctrl.revision >= 1
        assert engine.plan_id == ctrl.plan_id != plan_fingerprint(plan0)
        # Correctness is non-negotiable across a switch.
        assert [r.obj for r in replanned.ranking] == [
            r.obj for r in static.ranking
        ]
        regret = static.stats.total_cost() - oracle.stats.total_cost()
        recovered = static.stats.total_cost() - replanned.stats.total_cost()
        assert regret > 0
        assert recovered / regret >= 0.20  # the ISSUE acceptance gate

    def test_switch_published_to_metrics_and_trace(self):
        plan0 = misspecified_plan()
        trace = TraceRecorder()
        middleware = drift_middleware(trace=trace)
        ctrl = controller(
            plan0, ReplanConfig(mode="drift", check_every=16, margin=0.05)
        )
        FrameworkNC(
            middleware,
            FN,
            K,
            SRGPolicy(plan0.depths, plan0.schedule),
            replan=ctrl,
        ).run()
        assert (
            middleware.metrics.counter_value(
                "repro_replan_total", outcome="switched"
            )
            >= 1
        )
        switch_events = [
            e for e in trace.events if e.event == "replan"
            and dict(e.fields)["outcome"] == "switched"
        ]
        assert switch_events
        payload = dict(switch_events[0].fields)
        assert payload["plan_id"] == ctrl.plan_id
        assert payload["from_plan"] == plan_fingerprint(plan0)
        assert payload["remaining_candidate"] < payload["remaining_current"]

    def test_result_metadata_carries_summary(self):
        plan0 = misspecified_plan()
        result, ctrl, _ = execute(plan0, "drift")
        assert result.metadata["replan"] == ctrl.summary()
        assert result.metadata["replan"]["switches"] >= 1

    def test_max_switches_caps_and_reports_once(self):
        plan0 = misspecified_plan()
        middleware = drift_middleware()
        ctrl = controller(
            plan0,
            ReplanConfig(
                mode="always", check_every=8, margin=0.0, max_switches=0
            ),
        )
        FrameworkNC(
            middleware,
            FN,
            K,
            SRGPolicy(plan0.depths, plan0.schedule),
            replan=ctrl,
        ).run()
        assert ctrl.switches == 0
        assert ctrl.searches == 0
        assert ctrl.outcomes.get("capped") == 1  # reported exactly once

    def test_plan_at_exhaustion_stamped(self):
        """Satellite 3: a budget-degraded partial answer names the plan
        (id + revision) that was live when the money ran out."""
        plan0 = misspecified_plan()
        middleware = drift_middleware(budget=40.0)
        ctrl = controller(
            plan0, ReplanConfig(mode="drift", check_every=16, margin=0.05)
        )
        engine = FrameworkNC(
            middleware,
            FN,
            K,
            SRGPolicy(plan0.depths, plan0.schedule),
            replan=ctrl,
            degrade_on_budget=True,
        )
        result = engine.run()
        assert result.metadata["budget_exhausted"]
        stamp = result.metadata["plan_at_exhaustion"]
        assert stamp["id"] == engine.plan_id
        assert stamp["revision"] == engine.plan_revision

    def test_plan_at_exhaustion_stamped_without_replanning(self):
        """The stamp does not require a controller -- any engine with a
        plan id attributes its degraded partials."""
        plan0 = misspecified_plan()
        middleware = drift_middleware(budget=40.0)
        engine = FrameworkNC(
            middleware,
            FN,
            K,
            SRGPolicy(plan0.depths, plan0.schedule),
            degrade_on_budget=True,
        )
        engine.plan_id = plan_fingerprint(plan0)
        result = engine.run()
        assert result.metadata["budget_exhausted"]
        assert result.metadata["plan_at_exhaustion"] == {
            "id": plan_fingerprint(plan0),
            "revision": 0,
        }


class TestProperties:
    """Satellite 4: hypothesis properties over margins and check cadences."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        margin=st.floats(min_value=0.0, max_value=0.5),
        check_every=st.integers(min_value=4, max_value=64),
    )
    def test_replanning_bounded_regression(self, margin, check_every):
        """A replanned run never pays materially more than no-replan.

        Each adopted switch had to beat the incumbent's *projected*
        remaining cost by ``margin``; projection error is bounded by the
        sample, so the realized bill stays within a modest slack of the
        static run (and in drifting scenarios is dramatically below it).
        """
        plan0 = misspecified_plan()
        static, _, _ = execute(plan0, "off")
        replanned, _, _ = self._run(plan0, margin, check_every)
        static_cost = static.stats.total_cost()
        replanned_cost = replanned.stats.total_cost()
        # Slack: the margin itself plus sample-projection noise.
        assert replanned_cost <= static_cost * (1.0 + margin) + 100.0
        assert [r.obj for r in replanned.ranking] == [
            r.obj for r in static.ranking
        ]

    def _run(self, plan, margin, check_every):
        middleware = drift_middleware()
        ctrl = controller(
            plan,
            ReplanConfig(mode="drift", check_every=check_every, margin=margin),
        )
        engine = FrameworkNC(
            middleware,
            FN,
            K,
            SRGPolicy(plan.depths, plan.schedule),
            replan=ctrl,
        )
        return engine.run(), ctrl, engine

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_off_mode_byte_identical_property(self, seed):
        """``replan="off"`` is byte-identical to no controller at all,
        for any dataset seed, sync and async."""
        data = uniform(120, 2, seed=seed)
        fn = WeightedSum([1.0, 1.0])
        model = CostModel.uniform(2)
        plan = SRGPlan(depths=(0.6, 0.6), schedule=(0, 1))
        sample = dummy_uniform_sample(2, 50, 0)

        def build(with_controller: bool):
            middleware = Middleware.over(data, model)
            ctrl = None
            if with_controller:
                ctrl = ReplanController(
                    sample,
                    fn,
                    3,
                    data.n,
                    model,
                    initial_plan=plan,
                    config=ReplanConfig(mode="off"),
                )
            return middleware, ctrl

        mw_a, _ = build(False)
        baseline = FrameworkNC(
            mw_a, fn, 3, SRGPolicy(plan.depths, plan.schedule)
        ).run()
        mw_b, ctrl_b = build(True)
        off_sync = FrameworkNC(
            mw_b, fn, 3, SRGPolicy(plan.depths, plan.schedule), replan=ctrl_b
        ).run()
        assert result_to_dict(off_sync) == result_to_dict(baseline)
        mw_c, ctrl_c = build(True)
        off_async = asyncio.run(
            FrameworkNC(
                mw_c,
                fn,
                3,
                SRGPolicy(plan.depths, plan.schedule),
                concurrency=1,
                replan=ctrl_c,
            ).run_async()
        )
        assert result_to_dict(off_async) == result_to_dict(baseline)
