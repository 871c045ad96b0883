"""Tests for the async engine (docs/RUNTIME.md): pacing + determinism."""

import asyncio

import pytest

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.generators import uniform
from repro.exceptions import ReproError
from repro.faults.injector import FaultProfile, faulty_sources_for
from repro.faults.retry import RetryPolicy
from repro.optimizer.replan import ReplanConfig
from repro.runtime import Pacer
from repro.scoring.functions import Avg, Min
from repro.serialization import result_to_dict
from repro.sources.cost import CostModel
from repro.sources.latency import NoisyLatency
from repro.sources.middleware import Middleware
from repro.types import QueryResult
from tests.conftest import assert_valid_topk
from tests.test_replan import FN, K, controller, drift_middleware, misspecified_plan


class TestPacer:
    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            Pacer(-0.1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            asyncio.run(Pacer().wait(-1.0))

    def test_zero_scale_always_yields(self):
        """Scale 0 still yields control -- the interleaving point exists."""
        order = []

        async def a():
            await Pacer().wait(5.0)
            order.append("a")

        async def b():
            order.append("b")

        async def main():
            await asyncio.gather(a(), b())

        asyncio.run(main())
        # a() started first but its wait yielded, letting b() run through.
        assert order == ["b", "a"]

    def test_cadence_yields_on_first_and_every_nth_wait(self):
        assert _yielding_waits(Pacer(0.0, yield_every=4), 10) == [0, 4, 8]
        assert _yielding_waits(Pacer(), 5) == [0, 1, 2, 3, 4]

    def test_positive_scale_ignores_the_cadence(self):
        assert _yielding_waits(Pacer(1e-9, yield_every=4), 5) == [0, 1, 2, 3, 4]

    def test_non_positive_cadence_rejected(self):
        with pytest.raises(ValueError):
            Pacer(yield_every=0)

    def test_engine_default_pacer_yields_on_every_access(self):
        """A standalone engine interleaves per access with other tasks."""
        middleware = _mw(uniform(200, 2, seed=3))
        engine = FrameworkNC(middleware, Min(2), 5, SRGPolicy([0.6, 0.6]))

        async def main():
            task = asyncio.create_task(engine.run_async())
            seen, steps = 0, []
            while not task.done():
                await asyncio.sleep(0)
                steps.append(middleware.stats.total_accesses - seen)
                seen = middleware.stats.total_accesses
            await task
            return steps

        steps = asyncio.run(main())
        assert sum(steps) == middleware.stats.total_accesses > 1
        assert max(steps) == 1

    def test_wave_waits_makespan_not_sum(self):
        """One sleep per wave; an empty wave is a plain yield."""

        async def main():
            pacer = Pacer(0.0)
            await pacer.wave([3.0, 1.0, 2.0])
            await pacer.wave([])

        asyncio.run(main())

    def test_positive_scale_sleeps(self):
        async def main():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await Pacer(0.01).wait(2.0)
            return loop.time() - start

        assert asyncio.run(main()) >= 0.015


def _yielding_waits(pacer, waits):
    """Indices of the ``waits`` zero-length waits that let another task run."""

    async def main():
        turns = 0
        done = False

        async def ticker():
            nonlocal turns
            while not done:
                turns += 1
                await asyncio.sleep(0)

        task = asyncio.create_task(ticker())
        await asyncio.sleep(0)
        yielded = []
        for index in range(waits):
            before = turns
            await pacer.wait(0.0)
            if turns != before:
                yielded.append(index)
        done = True
        await task
        return yielded

    return asyncio.run(main())


def _mw(data, m=2):
    return Middleware.over(data, CostModel.uniform(m))


#: Shadow scenarios beyond the plain run: absorbed transient faults, a
#: source dying mid-query, a budget running dry, and a drift-driven
#: plan switch.
SCENARIOS = ["plain", "faults", "outage", "budget", "replan"]


def _scenario(name):
    """Fresh ``(middleware, fn, k, policy, engine kwargs)`` for one run."""
    if name == "replan":
        plan = misspecified_plan()
        ctrl = controller(plan, ReplanConfig(mode="always", check_every=16))
        policy = SRGPolicy(plan.depths, plan.schedule)
        return drift_middleware(), FN, K, policy, {"replan": ctrl}
    profile = {
        "faults": FaultProfile.transient(0.3),
        "outage": FaultProfile(fail_after=15),
    }.get(name)
    sources = faulty_sources_for(
        uniform(200, 3, seed=4), FaultProfile(), seed=2, profiles=[profile, None, None]
    )
    middleware = Middleware(
        sources,
        CostModel.uniform(3, cs=1.0, cr=2.0),
        retry_policy=RetryPolicy(max_attempts=2) if name == "faults" else None,
        budget=60.0 if name == "budget" else None,
    )
    kwargs = {"degrade_on_budget": name == "budget"}
    return middleware, Avg(3), 5, SRGPolicy([0.6] * 3), kwargs


class TestSequentialShadow:
    """concurrency == 1: byte-for-byte the sequential engine."""

    def test_result_identical_to_framework_nc(self):
        data = uniform(200, 2, seed=3)
        seq = FrameworkNC(_mw(data), Min(2), 5, SRGPolicy([0.6, 0.6])).run()
        engine = FrameworkNC(
            _mw(data), Min(2), 5, SRGPolicy([0.6, 0.6]), concurrency=1
        )
        result = asyncio.run(engine.run_async())
        assert result_to_dict(result) == result_to_dict(seq)

    def test_paced_run_still_identical(self):
        """A positive time scale changes wall time, never the answer."""
        data = uniform(60, 2, seed=5)
        seq = FrameworkNC(_mw(data), Avg(2), 3, SRGPolicy([0.5, 1.0])).run()
        engine = FrameworkNC(
            _mw(data),
            Avg(2),
            3,
            SRGPolicy([0.5, 1.0]),
            pacer=Pacer(0.0001),
        )
        result = asyncio.run(engine.run_async())
        assert result_to_dict(result) == result_to_dict(seq)

    def test_progressive_answers_match_final_ranking(self):
        data = uniform(150, 2, seed=7)
        engine = FrameworkNC(_mw(data), Min(2), 4, SRGPolicy([0.7, 0.7]))
        seen = []

        async def on_answer(answer):
            seen.append(answer)

        result = asyncio.run(engine.run_async(on_answer))
        assert [a.obj for a in seen] == [a.obj for a in result.ranking]
        assert [a.score for a in seen] == [a.score for a in result.ranking]
        assert_valid_topk(result, data, Min(2), 4)

    def test_execute_async_tracks_elapsed_and_waves(self):
        """At c=1 with unit costs, elapsed == Eq. 1 cost, waves == accesses."""
        data = uniform(100, 2, seed=11)
        mw = _mw(data)
        engine = FrameworkNC(mw, Min(2), 3, SRGPolicy([0.6, 0.6]))
        outcome = asyncio.run(engine.execute_async())
        assert outcome.concurrency == 1
        assert outcome.elapsed == pytest.approx(outcome.total_cost)
        assert outcome.waves == mw.stats.total_accesses

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_identical_under_faults_budget_and_replan(self, scenario):
        mw, fn, k, policy, kwargs = _scenario(scenario)
        seq = FrameworkNC(mw, fn, k, policy, **kwargs).run()
        mw, fn, k, policy, kwargs = _scenario(scenario)
        engine = FrameworkNC(mw, fn, k, policy, **kwargs)
        outcome = asyncio.run(engine.execute_async())
        assert result_to_dict(outcome.result) == result_to_dict(seq)
        assert outcome.waves == seq.metadata["iterations"]

    def test_stream_requires_concurrency_one(self):
        data = uniform(30, 2, seed=1)
        engine = FrameworkNC(
            _mw(data), Min(2), 2, SRGPolicy([0.5, 0.5]), concurrency=2
        )

        async def consume():
            async for _ in engine.stream():
                pass

        with pytest.raises(ReproError):
            asyncio.run(consume())


class TestConcurrencyOne:
    """concurrency == 1: every entry point drives the sequential core."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_entry_point_byte_identical(self, scenario):
        def fresh():
            mw, fn, k, policy, kwargs = _scenario(scenario)
            return mw, FrameworkNC(mw, fn, k, policy, concurrency=1, **kwargs)

        async def collect(engine):
            answers = []
            stream = engine.stream()
            async for answer in stream:
                answers.append(answer)
                if len(answers) == engine.k:
                    break
            await stream.aclose()
            return answers

        expected = result_to_dict(fresh()[1].run())
        assert result_to_dict(fresh()[1].execute().result) == expected
        assert result_to_dict(asyncio.run(fresh()[1].run_async())) == expected
        outcome = asyncio.run(fresh()[1].execute_async())
        assert result_to_dict(outcome.result) == expected
        mw, engine = fresh()
        streamed = QueryResult(
            ranking=asyncio.run(collect(engine)),
            stats=mw.stats,
            algorithm=expected["algorithm"],
            metadata=expected["metadata"],
        )
        assert result_to_dict(streamed) == expected

    def test_execute_elapsed_sums_durations(self):
        """Elapsed is the sum of the access durations; one wave per access."""
        durations = []

        class Recording(NoisyLatency):
            def duration(self, access):
                durations.append(super().duration(access))
                return durations[-1]

        mw = _mw(uniform(100, 2, seed=11))
        outcome = FrameworkNC(
            mw,
            Min(2),
            3,
            SRGPolicy([0.6, 0.6]),
            latency_model=Recording(mw.cost_model, sigma=0.5, seed=1),
        ).execute()
        assert outcome.concurrency == 1
        assert outcome.elapsed == sum(durations)
        assert outcome.waves == len(durations) == mw.stats.total_accesses


class TestWaveShadow:
    """concurrency > 1: the async drivers replay the sync wave core."""

    @pytest.mark.parametrize("c", [2, 4, 8])
    def test_outcome_identical_to_parallel_executor(self, c):
        """The async driver replays the sync driver of the wave core."""
        data = uniform(200, 2, seed=3)
        par = FrameworkNC(
            _mw(data), Min(2), 5, SRGPolicy([0.6, 0.6]), concurrency=c
        ).execute()
        engine = FrameworkNC(
            _mw(data), Min(2), 5, SRGPolicy([0.6, 0.6]), concurrency=c
        )
        outcome = asyncio.run(engine.execute_async())
        assert result_to_dict(outcome.result) == result_to_dict(par.result)
        assert outcome.elapsed == par.elapsed
        assert outcome.waves == par.waves

    @pytest.mark.parametrize("c", [2, 4])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_identical_under_faults_budget_and_replan(self, scenario, c):
        mw, fn, k, policy, kwargs = _scenario(scenario)
        par = FrameworkNC(mw, fn, k, policy, concurrency=c, **kwargs).execute()
        mw, fn, k, policy, kwargs = _scenario(scenario)
        engine = FrameworkNC(mw, fn, k, policy, concurrency=c, **kwargs)
        outcome = asyncio.run(engine.execute_async())
        assert result_to_dict(outcome.result) == result_to_dict(par.result)
        assert outcome.elapsed == par.elapsed
        assert outcome.waves == par.waves

    def test_eager_speculation_identical_too(self):
        data = uniform(200, 2, seed=9)
        par = FrameworkNC(
            _mw(data),
            Min(2),
            5,
            SRGPolicy([0.6, 0.6]),
            concurrency=4,
            speculation="eager",
        ).execute()
        engine = FrameworkNC(
            _mw(data),
            Min(2),
            5,
            SRGPolicy([0.6, 0.6]),
            concurrency=4,
            speculation="eager",
        )
        outcome = asyncio.run(engine.execute_async())
        assert result_to_dict(outcome.result) == result_to_dict(par.result)

    def test_on_answer_fires_in_rank_order_at_completion(self):
        data = uniform(120, 2, seed=2)
        engine = FrameworkNC(
            _mw(data), Min(2), 3, SRGPolicy([0.5, 0.5]), concurrency=4
        )
        seen = []

        async def on_answer(answer):
            seen.append(answer.obj)

        result = asyncio.run(engine.run_async(on_answer))
        assert seen == [a.obj for a in result.ranking]


class TestCancellationSafety:
    def test_cancel_lands_between_consistent_states(self):
        """Killing the engine mid-run leaves middleware/cache coherent.

        The engine's only suspension points are pacer waits, so a cancel
        can never split an access's charge from its fetch: afterwards the
        middleware's charged+cached accounting is internally consistent
        and the shared sources are not corrupted (a fresh engine over the
        same pool still answers exactly).
        """
        data = uniform(200, 2, seed=13)
        mw = _mw(data)
        engine = FrameworkNC(mw, Min(2), 5, SRGPolicy([0.6, 0.6]))

        async def main():
            task = asyncio.create_task(engine.run_async())
            for _ in range(25):
                await asyncio.sleep(0)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(main())
        # It ran -- and was killed mid-flight, not after completion.
        assert 0 < mw.stats.total_accesses
        # Every recorded access is accounted once: the stats' own ledger
        # (per-predicate sums == totals) survived the kill.
        per_pred = sum(mw.stats.sorted_counts) + sum(mw.stats.random_counts)
        assert per_pred == mw.stats.total_accesses

    def test_shared_pool_not_corrupted_by_cancel(self):
        from repro.sources.cache import SourceCache

        data = uniform(150, 2, seed=17)
        model = CostModel.uniform(2)
        cache = SourceCache.over(data, model)

        async def main():
            mw = Middleware.warm(cache, model)
            engine = FrameworkNC(mw, Min(2), 5, SRGPolicy([0.6, 0.6]))
            task = asyncio.create_task(engine.run_async())
            for _ in range(30):
                await asyncio.sleep(0)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            # The survivor: a fresh warm engine over the same cache.
            mw2 = Middleware.warm(cache, model)
            engine2 = FrameworkNC(mw2, Min(2), 5, SRGPolicy([0.6, 0.6]))
            return await engine2.run_async()

        result = asyncio.run(main())
        assert_valid_topk(result, data, Min(2), 5)
