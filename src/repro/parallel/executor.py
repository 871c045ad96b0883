"""The bounded-concurrency executor over NC plans.

Strategy (Section 9.1.1): parallelization *builds on* the sequential
access-minimization framework rather than replacing it. Each wave, the
executor collects up to ``c`` distinct compatible accesses that the
sequential NC schedule wants next -- the policy-selected necessary choices
of the current top-k's incomplete objects (a sorted stream can be advanced
only once per wave) -- then issues the wave concurrently under a virtual
clock and folds in all results at the barrier.

Two speculation modes trade elapsed time against total cost:

* ``"none"`` (default): a target joins a wave only with the exact access
  the sequential policy picks for it. Total cost is *boundedly* above the
  sequential plan's -- equal whenever ``c == 1`` or ``k == 1``, and
  otherwise within ``(min(c, k) - 1) * c_max`` extra per wave: every wave
  access is Theorem-1-justified for *its* target, but positions 2..k of
  the top-k can be proven unnecessary by position 1's outcome, which the
  wave has already paid for (see ``tests/test_parallel.py``'s pinned
  counterexample: an extra ``ra_0(0)`` at ``c=2``, cost 5.0 -> 6.0). The
  speedup is bounded by the plan's natural width (concurrent streams
  plus independent probes).
* ``"eager"``: leftover slots are packed with second-choice accesses of
  the same targets. Elapsed time keeps dropping with ``c``, at the price
  of accesses the sequential plan may prove unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.framework import FrameworkNC
from repro.core.policies import SelectPolicy
from repro.core.tasks import UNSEEN
from repro.parallel.clock import VirtualClock
from repro.scoring.functions import ScoringFunction
from repro.sources.latency import ConstantLatency, LatencyModel
from repro.sources.middleware import Middleware
from repro.types import Access, QueryResult, RankedObject

if TYPE_CHECKING:  # pragma: no cover - optimizer imports the core engine
    from repro.optimizer.replan import ReplanController


@dataclass
class ParallelResult:
    """Outcome of a bounded-concurrency run.

    Attributes:
        result: the (exact) query answer with total-cost accounting.
        elapsed: virtual elapsed time (sum of wave makespans).
        waves: number of concurrent waves issued.
        concurrency: the bound ``c`` the run respected.
    """

    result: QueryResult
    elapsed: float
    waves: int
    concurrency: int

    @property
    def total_cost(self) -> float:
        return self.result.total_cost()


class ParallelExecutor(FrameworkNC):
    """NC engine variant issuing accesses in bounded concurrent waves."""

    def __init__(
        self,
        middleware: Middleware,
        fn: ScoringFunction,
        k: int,
        policy: SelectPolicy,
        concurrency: int,
        latency_model: Optional[LatencyModel] = None,
        speculation: str = "none",
        degrade_on_budget: bool = False,
        replan: Optional["ReplanController"] = None,
    ):
        super().__init__(
            middleware,
            fn,
            k,
            policy,
            degrade_on_budget=degrade_on_budget,
            replan=replan,
        )
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if speculation not in ("none", "eager"):
            raise ValueError(f"speculation must be 'none' or 'eager', got {speculation!r}")
        self.concurrency = concurrency
        self.speculation = speculation
        self.latency_model = (
            latency_model
            if latency_model is not None
            else ConstantLatency(middleware.cost_model)
        )
        self.clock = VirtualClock()
        self.waves = 0

    def _plan_wave(
        self, workable: list[tuple[int, list[Access]]]
    ) -> dict[Access, int]:
        """Choose up to ``c`` distinct compatible accesses for this wave.

        ``workable`` pairs each refinable incomplete top-k object with its
        usable choices; the wave maps each chosen access to the target it
        refines. Each target contributes at most one access -- the one the
        sequential policy would pick for it. Every access in the wave is
        therefore individually justified by Theorem 1 (its target's task
        must be worked on eventually); the only speculation is ordering,
        which keeps the total-cost overhead of concurrency small.
        """
        batch: dict[Access, int] = {}
        used_sorted: set[int] = set()
        for target, choices in workable:
            if len(batch) >= self.concurrency:
                break
            access = self._select(target, choices)
            if access in batch or (
                access.is_sorted and access.predicate in used_sorted
            ):
                # The access this target actually wants is already in the
                # wave (a shared sorted stream, typically). Issuing its
                # second choice instead would be speculation the sequential
                # plan never performs; skip the target until the next wave.
                continue
            batch[access] = target
            if access.is_sorted:
                used_sorted.add(access.predicate)
        if self.speculation == "eager":
            self._fill_speculatively(
                [target for target, _choices in workable], batch, used_sorted
            )
        return batch

    def _fill_speculatively(
        self,
        targets: list[int],
        batch: dict[Access, int],
        used_sorted: set[int],
    ) -> None:
        """Eager mode: pack remaining slots with second-choice accesses.

        Trades extra total cost (accesses the sequential plan may prove
        unnecessary) for lower elapsed time at high concurrency bounds --
        the knob the parallel experiment ablates.
        """
        progressed = True
        while len(batch) < self.concurrency and progressed:
            progressed = False
            for target in targets:
                if len(batch) >= self.concurrency:
                    break
                alternatives = [
                    acc
                    for acc in self._alternatives(target)
                    if acc not in batch
                    and not (acc.is_sorted and acc.predicate in used_sorted)
                ]
                if not alternatives:
                    continue
                access = self._select(target, alternatives)
                batch[access] = target
                if access.is_sorted:
                    used_sorted.add(access.predicate)
                progressed = True

    def _waves(self) -> Generator[list[float], None, ParallelResult]:
        """The wave loop: plan a wave, yield its durations, fold it.

        Each round pops the current top-k and degrades unrefinable
        targets. Then it either returns the finished
        :class:`ParallelResult` or plans the next wave and yields the
        wave's access durations *before* performing it. That yield is the
        only point where a driver may suspend (the async engine awaits the
        wave's makespan there); resuming folds the whole wave through
        :meth:`_perform` and plans on to the next yield without
        interruption. As in the sequential core, a sorted access whose
        list ran out during the suspension is dropped from the fold.
        """
        self._prepare()
        while True:
            # Wave boundary == safe checkpoint: no access is in flight,
            # the previous wave is fully folded in.
            self._replan_checkpoint()
            popped = self._collect_topk()
            workable: list[tuple[int, list[Access]]] = []
            abandoned_unseen = False
            for obj, _bound in popped:
                if obj != UNSEEN and self.state.is_complete(obj):
                    continue
                choices = self._usable_choices(obj)
                if choices is not None:
                    workable.append((obj, choices))
                elif obj == UNSEEN:
                    abandoned_unseen = True
                else:
                    self._degrade(obj)
            if abandoned_unseen:
                self._unseen_abandoned = True
                self._push_back(popped)
                continue
            if not workable:
                ranking = [
                    RankedObject(
                        obj,
                        self._bound_only[obj][0]
                        if obj in self._bound_only
                        else bound,
                    )
                    for obj, bound in popped
                ]
                result = self._finish(ranking, self._label())
                result.metadata["waves"] = self.waves
                result.metadata["concurrency"] = self.concurrency
                return ParallelResult(
                    result=result,
                    elapsed=self.clock.now,
                    waves=self.waves,
                    concurrency=self.concurrency,
                )
            batch = self._plan_wave(workable)
            assert batch, "refinable top-k objects always admit an access"
            durations = [self.latency_model.duration(acc) for acc in batch]
            yield durations
            # Fold results in randoms-first: a concurrent sa_i may deliver
            # an object the same wave also probed on i, and applying the
            # probe after the delivery would look like a duplicate fetch.
            # A list another session ran out during the wave is skipped;
            # its target is pushed back and planned again.
            for access in sorted(batch, key=lambda acc: acc.is_sorted):
                if access.is_sorted and self.middleware.exhausted(
                    access.predicate
                ):
                    continue
                self._perform(batch[access], access)
            self.clock.run_wave(durations, self.concurrency)
            self.waves += 1
            self._push_back(popped)

    def execute(self) -> ParallelResult:
        """Run the query to completion under the concurrency bound.

        Source outages degrade the run instead of crashing it: targets
        whose remaining accesses all sit behind open circuit breakers are
        answered bound-only, mirroring the sequential engine's contract
        (docs/FAULTS.md).
        """
        waves = self._waves()
        while True:
            try:
                next(waves)
            except StopIteration as done:
                return done.value

    def run(self) -> QueryResult:
        """TopK-style entry point returning just the query result."""
        return self.execute().result

    def _label(self) -> str:
        return f"NC-parallel[c={self.concurrency},{self.speculation}]"
