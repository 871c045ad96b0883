"""The async NC engine: overlapped accesses with deterministic accounting.

:class:`AsyncExecutor` is the :class:`~repro.parallel.ParallelExecutor`
lifted onto the asyncio event loop. The *semantics* are unchanged -- what
to access, what each access charges under Eq. 1, when Theorem 1 stops the
run -- all of it still derives from the deterministic access-count tick
clock and the virtual latency clock, never from wall time (RL104). What
the event loop adds is *occupancy*: while this query waits out an
access's latency through the :class:`~repro.runtime.pacing.Pacer`, other
queries sharing the loop run, so independent accesses overlap in
wall-clock time the way the paper's middleware setting assumes
(Fagin-style sources probed concurrently).

Two execution shapes, chosen by the concurrency bound. The engine owns
no decision logic of its own: each shape is a driver over the step core
its sync engine runs.

* ``concurrency == 1`` -- the *sequential shadow*: :meth:`stream` drives
  the sequential core behind :meth:`FrameworkNC.answers
  <repro.core.framework.FrameworkNC.answers>` (same access sequence, same
  charges, same metadata), pacing at each pending access. A run at
  concurrency 1 is byte-identical to the sync engine; this is the
  determinism contract's anchor (docs/RUNTIME.md) and what the async
  server serves by default.
* ``concurrency > 1`` -- the *wave shadow*: the parallel executor's wave
  core, with the barrier realized as one awaited makespan instead of a
  silent clock jump.

Atomicity discipline: the **only** suspension points are the pacer waits
at the core's pending-access (or pending-wave) yield. Everything that
touches shared structures -- the middleware's charge-and-fetch against
the cross-query SourceCache, breaker bookkeeping, metrics, trace
emission -- runs after the core resumes, in one synchronous section per
access (or per wave), so two sessions can never interleave *inside* an
access: the ``serves_free`` cache check and the Eq. 1 charge it guards
are always observed together. Cancellation therefore only ever lands on
a wait, between consistent states, which is what keeps the obs
reconciliation invariant (charged + cached == recorded) intact for
cancelled queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AsyncIterator, Awaitable, Callable, Optional

from repro.core.framework import FrameworkNC
from repro.core.policies import SelectPolicy
from repro.exceptions import ReproError
from repro.parallel.executor import ParallelExecutor, ParallelResult
from repro.runtime.pacing import Pacer
from repro.scoring.functions import ScoringFunction
from repro.sources.latency import LatencyModel
from repro.sources.middleware import Middleware
from repro.types import QueryResult, RankedObject

if TYPE_CHECKING:  # pragma: no cover - optimizer imports the core engine
    from repro.optimizer.replan import ReplanController

#: Progressive-answer callback: awaited once per confirmed answer, in
#: rank order, before processing continues.
AnswerCallback = Callable[[RankedObject], Awaitable[None]]


class AsyncExecutor(ParallelExecutor):
    """NC engine variant whose latency waits yield to the event loop.

    Args:
        middleware: a fresh access layer (typically ``Middleware.warm``
            over the server's shared cache).
        fn: the monotone scoring function.
        k: retrieval size.
        policy: the Select strategy.
        concurrency: accesses issued concurrently *within* this query;
            ``1`` replays the sequential engine exactly.
        latency_model: virtual per-access durations (defaults to
            cost-proportional, as in the parallel executor).
        speculation: wave-packing mode at ``concurrency > 1``.
        degrade_on_budget: surface an exhausted budget as a flagged
            partial answer instead of an exception (the serving default).
        pacer: maps virtual durations onto real ``await``\\ s; the
            default never sleeps (scale 0), so a standalone run is as
            fast as the sync engine.
    """

    def __init__(
        self,
        middleware: Middleware,
        fn: ScoringFunction,
        k: int,
        policy: SelectPolicy,
        concurrency: int = 1,
        latency_model: Optional[LatencyModel] = None,
        speculation: str = "none",
        degrade_on_budget: bool = False,
        pacer: Optional[Pacer] = None,
        replan: Optional["ReplanController"] = None,
    ):
        super().__init__(
            middleware,
            fn,
            k,
            policy,
            concurrency=concurrency,
            latency_model=latency_model,
            speculation=speculation,
            degrade_on_budget=degrade_on_budget,
            replan=replan,
        )
        self.pacer = pacer if pacer is not None else Pacer()

    # ------------------------------------------------------------------
    # Drivers over the two step cores
    # ------------------------------------------------------------------

    async def stream(self) -> AsyncIterator[RankedObject]:
        """Stream confirmed answers progressively, best first.

        Drives the sequential core of :meth:`FrameworkNC.answers`,
        awaiting one pacer wait at each pending access. Only defined at
        concurrency 1 -- the wave shape has no per-answer confirmation
        order until the Theorem-1 test passes for the whole top-k; use
        :meth:`run_async` there.
        """
        if self.concurrency != 1:
            raise ReproError(
                "progressive streaming requires concurrency 1; "
                f"this engine was built with concurrency {self.concurrency}"
            )
        for item in self._sequential():
            if isinstance(item, RankedObject):
                yield item
                continue
            # The access is selected (on this query's private score
            # state) before the wait and performed after it, when the
            # core resumes: whether the cache serves it free is decided
            # at perform time, exactly once, race-free. A shared list
            # that ran out during the wait makes the core select again.
            duration = self.latency_model.duration(item)
            await self.pacer.wait(duration)
            self.clock.advance(duration)
            self.waves += 1

    async def _run_sequential(
        self, on_answer: Optional[AnswerCallback]
    ) -> QueryResult:
        ranking: list[RankedObject] = []
        answers = self.stream()
        try:
            async for answer in answers:
                ranking.append(answer)
                if on_answer is not None:
                    await on_answer(answer)
                if len(ranking) >= self.k:
                    break
        finally:
            await answers.aclose()
        # The sequential shadow reports as the sequential engine: same
        # label, same metadata keys, so a concurrency-1 run serializes
        # byte-identically to FrameworkNC.run().
        return self._finish(ranking, FrameworkNC._label(self))

    async def _run_waves(self) -> ParallelResult:
        waves = self._waves()
        while True:
            try:
                durations = next(waves)
            except StopIteration as done:
                return done.value
            await self.pacer.wave(durations)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    async def execute_async(self) -> ParallelResult:
        """Run to completion; full :class:`ParallelResult` accounting.

        At concurrency 1 the embedded query result is the sequential
        engine's, verbatim; elapsed time is still tracked (sum of access
        durations) so serving-layer latency accounting is uniform.
        """
        if self.concurrency == 1:
            result = await self._run_sequential(None)
            return ParallelResult(
                result=result,
                elapsed=self.clock.now,
                waves=self.waves,
                concurrency=1,
            )
        return await self._run_waves()

    async def run_async(
        self, on_answer: Optional[AnswerCallback] = None
    ) -> QueryResult:
        """TopK-style entry point; optionally streams answers as found.

        ``on_answer`` is awaited once per ranked answer. At concurrency 1
        answers arrive progressively, as each is confirmed; at higher
        concurrency the Theorem-1 stopping test confirms the whole top-k
        at once, so the callbacks fire together at the end, still in rank
        order.
        """
        if self.concurrency == 1:
            return await self._run_sequential(on_answer)
        outcome = await self._run_waves()
        if on_answer is not None:
            for answer in outcome.result.ranking:
                await on_answer(answer)
        return outcome.result
