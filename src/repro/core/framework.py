"""The query-processing engines: Framework NC (Figure 6) and TG (Figure 4).

:class:`FrameworkNC` is the paper's contribution engine. Each iteration it

1. maintains the current top-k objects ranked by maximal-possible score
   ``F_max`` (a bound index, :mod:`repro.core.bounds`; Theorem 1
   machinery);
2. halts when they are all completely evaluated (Theorem 1.2) -- they are
   then the exact answer;
3. otherwise picks the highest-ranked incomplete object, whose scoring
   task is provably unsatisfied (Theorem 1.1), builds its *necessary
   choices* (Definition 2), and lets the pluggable
   :class:`~repro.core.policies.SelectPolicy` choose one access to perform.

Under the no-wild-guess assumption the virtual ``UNSEEN`` object stands in
for all undiscovered objects (Figure 10): it ranks with bound
``F(l_1..l_m)``, only admits sorted accesses, and disappears once every
object has been seen.

**Graceful degradation** (docs/FAULTS.md): when a source dies -- its
circuit breaker opens or it raises a permanent outage -- the engine does
not crash. Accesses on refusing sources are filtered out of the choice
sets; an object whose remaining unknowns cannot be refined any more is
answered *bound-only* -- reported at its proven lower bound, carrying the
score interval ``[F_min, F_max]`` -- and the result is flagged partial.
This is NRA-style scheduling localized to the dead predicate: interval
``[0, l_i]`` stands in for its scores.

:class:`FrameworkTG` is the trivially-general reference engine: identical
loop and stopping rule, but Select ranges over *all* currently-legal
accesses rather than one task's necessary choices. It exists to make the
generality/specificity contrast of Section 4 executable (and testable).

**Execution shapes** (Section 9.1.1, docs/RUNTIME.md): parallel execution
builds on the access-minimizing loop rather than replacing it, so the
shape is a property of one engine, chosen by its ``concurrency`` bound.
At ``concurrency == 1`` the engine runs the sequential core, one access per
iteration; above it, the *wave core* collects up to ``c`` distinct
compatible accesses the sequential schedule wants next -- the
policy-selected necessary choices of the current top-k's incomplete
objects, in rank order (a sorted stream can be advanced only once per
wave) -- issues them concurrently under a virtual clock and folds in all
results at the barrier. Each core has a sync driver (:meth:`FrameworkNC.run`,
:meth:`FrameworkNC.execute`) and an async one
(:meth:`FrameworkNC.run_async`, :meth:`FrameworkNC.execute_async`,
:meth:`FrameworkNC.stream`) whose latency waits yield to the event loop
through a :class:`~repro.runtime.pacing.Pacer`.

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

Atomicity discipline of the async drivers: the **only** suspension points
are the pacer waits at the core's pending-access (or pending-wave) yield.
Everything that touches shared structures -- the middleware's
charge-and-fetch against the cross-query SourceCache, breaker
bookkeeping, metrics, trace emission -- runs after the core resumes, in
one synchronous section per access (or per wave), so two sessions can
never interleave *inside* an access: the ``serves_free`` cache check and
the Eq. 1 charge it guards are always observed together. Cancellation
therefore only ever lands on a wait, between consistent states, which is
what keeps the obs reconciliation invariant (charged + cached ==
recorded) intact for cancelled queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AsyncIterator,
    Callable,
    Generator,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro.core.bounds import bound_index
from repro.core.choices import necessary_choices
from repro.core.policies import SelectContext, SelectPolicy, SRGPolicy
from repro.core.state import ScoreState
from repro.core.tasks import UNSEEN
from repro.exceptions import (
    BudgetExceededError,
    ReproError,
    RetryExhaustedError,
    SourceUnavailableError,
    UnanswerableQueryError,
)
from repro.parallel.clock import VirtualClock
from repro.scoring.functions import ScoringFunction
from repro.sources.latency import ConstantLatency, LatencyModel
from repro.sources.middleware import Middleware
from repro.types import Access, ParallelResult, QueryResult, RankedObject

if TYPE_CHECKING:  # pragma: no cover - optimizer imports this module
    from repro.optimizer.replan import ReplanController
    from repro.runtime.engine import AnswerCallback
    from repro.runtime.pacing import Pacer


@dataclass
class TraceStep:
    """One observed iteration, for example scripts and trace tests.

    Attributes:
        step: 1-based iteration counter.
        target: the incomplete object whose task drove the iteration
            (:data:`UNSEEN` for the virtual object).
        alternatives: the choice set offered to the policy.
        access: the access the policy selected.
        result: what the access returned (``(obj, score)`` or ``score``).
    """

    step: int
    target: int
    alternatives: list[Access]
    access: Access
    result: object


class FrameworkNC:
    """The NC engine: necessary-choices top-k processing.

    Args:
        middleware: a *fresh* access layer (no accesses performed yet).
        fn: the monotone scoring function.
        k: retrieval size.
        policy: the Select strategy (e.g. :class:`SRGPolicy`).
        observer: optional callback receiving a :class:`TraceStep` per
            iteration.
        max_accesses: optional safety cap; exceeding it raises, guarding
            against non-terminating custom policies.
        theta: approximation factor (>= 1.0). The default 1.0 demands the
            exact answer; ``theta > 1`` permits confirming an object once
            ``theta`` times its proven lower bound dominates every other
            candidate (Fagin-style theta-approximation), trading accuracy
            for access cost.
        degrade_on_budget: how a middleware cost budget ending the run is
            surfaced. ``False`` (the default, and the historical
            behaviour) lets :class:`~repro.exceptions.BudgetExceededError`
            propagate. ``True`` -- the serving layer's choice
            (docs/SERVICE.md) -- reuses the fault-degradation path
            instead: accesses the remaining budget cannot pay for are
            filtered from the choice sets, targets left unrefinable are
            answered bound-only, and the result comes back flagged
            ``partial`` with its proven intervals rather than raising.
        replan: optional :class:`~repro.optimizer.replan.ReplanController`
            consulted at safe checkpoints (between iterations); when it
            decides the observed source behaviour warrants a better
            ``(Delta, H)``, the engine swaps its Select policy for the new
            plan's and continues -- score state, bounds and middleware
            accounting carry over untouched.
        concurrency: accesses issued concurrently *within* this query
            (keyword-only, like the three below). ``1`` runs the
            sequential core; above it the wave core, which supports
            neither ``theta > 1`` nor an ``observer``.
        latency_model: virtual per-access durations for the elapsed-time
            clock (defaults to cost-proportional, :class:`ConstantLatency`).
        speculation: wave-packing mode at ``concurrency > 1``, ``"none"``
            or ``"eager"`` (module docstring).
        pacer: maps virtual durations onto real ``await``\\ s in the async
            drivers; the default never sleeps (scale 0), so a standalone
            async run is as fast as the sync one.
    """

    def __init__(
        self,
        middleware: Middleware,
        fn: ScoringFunction,
        k: int,
        policy: SelectPolicy,
        observer: Optional[Callable[[TraceStep], None]] = None,
        max_accesses: Optional[int] = None,
        theta: float = 1.0,
        degrade_on_budget: bool = False,
        replan: Optional["ReplanController"] = None,
        *,
        concurrency: int = 1,
        latency_model: Optional[LatencyModel] = None,
        speculation: str = "none",
        pacer: Optional[Pacer] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if theta < 1.0:
            raise ValueError(f"theta must be >= 1.0, got {theta}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if speculation not in ("none", "eager"):
            raise ValueError(f"speculation must be 'none' or 'eager', got {speculation!r}")
        if concurrency > 1 and (theta > 1.0 or observer is not None):
            raise ValueError(
                "the wave core (concurrency > 1) supports neither theta > 1 "
                "nor an observer"
            )
        if middleware.stats.total_accesses:
            raise ValueError("middleware has already been used; pass a fresh one")
        if pacer is None:
            # Imported late: the repro.runtime package aliases this class.
            from repro.runtime.pacing import Pacer

            pacer = Pacer()
        self.concurrency = concurrency
        self.speculation = speculation
        if latency_model is None:
            latency_model = ConstantLatency(middleware.cost_model)
        self.latency_model = latency_model
        self.pacer = pacer
        # Elapsed-time accounting: the virtual clock and the waves issued
        # (accesses, at concurrency 1) of the sync execute() and async
        # drivers; run() at concurrency 1 leaves both untouched.
        self.clock = VirtualClock()
        self.waves = 0
        self.middleware = middleware
        self.fn = fn
        self.k = k
        self.policy = policy
        self.observer = observer
        self.max_accesses = max_accesses
        self.theta = theta
        self.degrade_on_budget = degrade_on_budget
        if replan is not None and replan.config.mode == "off":
            # An off-mode controller is indistinguishable from no
            # controller -- normalize so result metadata (and therefore
            # serialized bytes) cannot differ either.
            replan = None
        self.replan = replan
        # Plan provenance (docs/OPTIMIZER.md): which (Delta, H) the engine
        # is executing, stamped into degraded results so a budget-
        # exhausted partial answer is attributable even after replanning
        # swapped policies mid-run. Set by plan-aware callers (the NC
        # algorithm, the serving layers); None for ad-hoc policies.
        self.plan_id: Optional[str] = None
        self.plan_revision: int = 0
        if replan is not None:
            self.plan_id = replan.plan_id
            self.plan_revision = replan.revision
        self._budget_blocked = False
        self.state = ScoreState(middleware, fn)
        self._bounds = bound_index(self.state)
        # Every real object ever pushed into the bound index (live or not).
        self._tracked: set[int] = set()
        self._steps = 0
        self._prepared = False
        # Degradation bookkeeping (docs/FAULTS.md): objects answered
        # bound-only with their proven intervals, and human-readable
        # reasons the answer is partial.
        self._bound_only: dict[int, tuple[float, float]] = {}
        self._fault_events: list[str] = []
        self._unseen_abandoned = False
        # target -> (record count, gate epoch, admitted choices): the
        # inputs of Definition 2 the list was derived under.
        self._choice_cache: dict[int, tuple[int, int, list[Access]]] = {}
        # (gate epoch, whether some channel refused accesses under it):
        # the wave core's early-stop gate, read once per wave.
        self._refusing: tuple[int, bool] = (0, False)

    # ------------------------------------------------------------------
    # Engine plumbing (shared by both cores)
    # ------------------------------------------------------------------

    def _prepare(self) -> None:
        if self._prepared:
            raise ReproError("an engine instance runs exactly one query")
        self._prepared = True
        self.policy.reset()
        middleware = self.middleware
        if middleware.no_wild_guesses:
            if not middleware.sorted_predicates():
                raise UnanswerableQueryError(
                    "no predicate supports sorted access and wild guesses are "
                    "disallowed: no object can ever be discovered"
                )
            self._bounds.push(UNSEEN)
        else:
            for obj in middleware.object_ids():
                self._bounds.push(obj)
                self._tracked.add(obj)

    def _retired(self, obj: int) -> bool:
        """Whether ``obj`` is an UNSEEN entry that stands for nobody.

        The virtual object retires (Figure 10) once every object has been
        discovered, or once discovery became impossible and it was
        abandoned; a retired entry is dropped wherever it turns up, so
        callers never see -- or target -- it.
        """
        return obj == UNSEEN and (
            self._unseen_abandoned
            or self.middleware.seen_count >= self.middleware.n_objects
        )

    def _push_back(self, entries: Sequence[tuple[int, float]]) -> None:
        """Reinsert popped entries at the bounds they were popped with.

        Bounds only fall, so a popped bound is at or above the current
        one, and the index's verify-on-pop re-evaluates an entry before
        trusting it: no pushed-back entry needs ``F`` evaluated now.
        """
        for obj, bound in entries:
            if not self._retired(obj):
                self._bounds.push(obj, bound)

    def _alternatives(self, target: int) -> list[Access]:
        """The task's necessary choices on channels admitting accesses.

        By Definition 2 the set changes only with the target's
        undetermined predicates, the exhausted lists and the channels'
        admission, so it is derived once per (record count, gate epoch)
        and reused until either moves (docs/RUNTIME.md). The returned
        list is shared with the cache: read it, never mutate it.
        """
        records = self.state.record_count(target)
        epoch = self.middleware.gate_epoch
        cached = self._choice_cache.get(target)
        if cached is not None and cached[0] == records and cached[1] == epoch:
            return cached[2]
        allowed = self.middleware.access_allowed
        choices = [
            access
            for access in necessary_choices(self.state, target)
            if allowed(access.predicate, access.kind)
        ]
        self._choice_cache[target] = (records, epoch, choices)
        return choices

    # ------------------------------------------------------------------
    # Fault handling and graceful degradation (docs/FAULTS.md)
    # ------------------------------------------------------------------

    def _usable_choices(self, target: int) -> Optional[list[Access]]:
        """The target's choices on sources still accepting accesses.

        Returns ``None`` when every choice sits behind an open circuit
        breaker -- the target cannot be refined and must be answered
        bound-only. Half-open breakers count as usable (a trial access is
        how recovery is discovered).

        With ``degrade_on_budget`` the remaining cost budget acts like one
        more refusal condition: choices the budget cannot pay for are
        filtered out (cache hits charge nothing and always stay), so an
        exhausted budget degrades the answer exactly like a dead source.
        """
        choices = self._alternatives(target)
        if self.degrade_on_budget and choices:
            remaining = self.middleware.remaining_budget()
            if remaining is not None:
                affordable = [
                    access
                    for access in choices
                    if self.middleware.charged_cost(access) <= remaining + 1e-12
                ]
                if len(affordable) < len(choices):
                    self._budget_blocked = True
                choices = affordable
        return choices or None

    def _mark_fault(self, access: Access, error: Exception) -> Exception:
        """Note a logical access failure for the result's fault report."""
        event = f"{access}: {type(error).__name__}"
        if event not in self._fault_events:
            self._fault_events.append(event)
        return error

    def _degrade(self, obj: int) -> RankedObject:
        """Answer ``obj`` bound-only: proven interval, reported at F_min."""
        lower = self.state.lower_bound(obj)
        upper = self.state.upper_bound(obj)
        if self.middleware.contracts is not None:
            self.middleware.contracts.check_interval(obj, lower, upper)
        self._bound_only[obj] = (lower, upper)
        return RankedObject(obj, lower)

    # ------------------------------------------------------------------
    # Adaptive replanning checkpoint (docs/OPTIMIZER.md)
    # ------------------------------------------------------------------

    def _replan_checkpoint(self) -> None:
        """Safe point between accesses: let the controller swap the plan.

        Called with no access in flight, so the swap is purely a policy
        exchange: the score state, bound index, middleware accounting and
        budgets all carry over -- the charged-cost ledger cannot tell a
        replanned run from a straight one, only the *future* access
        choices change. The controller itself gates frequency, drift and
        the improvement margin; most calls return immediately.
        """
        if self.replan is None:
            return
        plan = self.replan.maybe_replan(self.middleware)
        if plan is None:
            return
        self.policy = SRGPolicy(plan.depths, plan.schedule)
        self.policy.reset()
        self.plan_id = self.replan.plan_id
        self.plan_revision = self.replan.revision

    def _annotate(self, result: QueryResult) -> QueryResult:
        """Attach fault events and degradation flags to a finished result.

        ``partial`` is set only when the *answer* is degraded (bound-only
        entries, or discovery was abandoned) -- a run that absorbed faults
        through retries but finished exactly stays exact, with the fault
        events still on record in the metadata.
        """
        if self._fault_events:
            result.metadata["fault_events"] = list(self._fault_events)
        if self.replan is not None:
            result.metadata["replan"] = self.replan.summary()
        if self._budget_blocked:
            result.metadata["budget_exhausted"] = True
            if self.plan_id is not None:
                # Which (Delta, H) was live when the budget ran dry --
                # replanning makes "the plan" ambiguous without this.
                result.metadata["plan_at_exhaustion"] = {
                    "id": self.plan_id,
                    "revision": self.plan_revision,
                }
        if self._bound_only or self._unseen_abandoned:
            result.partial = True
            result.uncertainty = dict(self._bound_only)
            # Degraded answers must be visible to the obs ledger: a
            # bound-only result leaves a counted reason, not a silent
            # flag only the caller ever sees.
            metrics = self.middleware.metrics
            if metrics is not None:
                metrics.inc(
                    "repro_partial_results_total",
                    reason=(
                        "budget"
                        if self._budget_blocked
                        else "unseen_abandoned"
                        if not self._bound_only
                        else "bound_only"
                    ),
                )
            reasons = [
                f"object {obj}: score proven only within [{lo:g}, {hi:g}]"
                for obj, (lo, hi) in self._bound_only.items()
            ]
            if self._unseen_abandoned:
                reasons.append(
                    "undiscovered objects abandoned: no sorted source was "
                    "accepting accesses"
                )
            if self._budget_blocked:
                reasons.append(
                    "cost budget exhausted: remaining refinements were "
                    "unaffordable"
                )
            result.metadata["partial_reasons"] = reasons
            result.metadata["degraded_predicates"] = (
                self.middleware.degraded_predicates()
            )
        return result

    @property
    def bound_evaluations(self) -> int:
        """``F_max`` computations so far: calls of ``F`` plus group bounds."""
        return self.state.bound_evaluations + self._bounds.group_evaluations

    def _finish(self, ranking: list[RankedObject], label: str) -> QueryResult:
        metrics = self.middleware.metrics
        if metrics is not None:
            metrics.inc(
                "repro_engine_bound_evaluations_total", self.bound_evaluations
            )
        metadata: dict[str, object] = {
            "policy": self.policy.describe(),
            "iterations": self._steps,
        }
        if self.theta > 1.0:
            metadata["theta"] = self.theta
        return self._annotate(
            QueryResult(
                ranking=ranking,
                stats=self.middleware.stats,
                algorithm=label,
                metadata=metadata,
            )
        )

    # ------------------------------------------------------------------
    # The step shared by every execution shape
    # ------------------------------------------------------------------

    def _select(self, target: int, alternatives: list[Access]) -> Access:
        """Offer ``target``'s choice set to the Select policy."""
        ctx = SelectContext(
            state=self.state, middleware=self.middleware, target=target
        )
        access = self.policy.select(alternatives, ctx)
        if access not in alternatives:
            raise ReproError(
                f"policy {self.policy.describe()} selected {access}, which "
                "is outside the offered alternatives"
            )
        return access

    def _perform(self, target: int, access: Access) -> object:
        """Perform one access selected for ``target`` and fold it in.

        Charge-and-fetch through the middleware, then record the result
        in the score state. A logical access failure (retries exhausted,
        breaker open, source permanently gone) is absorbed, not raised:
        it is noted for the partial-result report and returned in place
        of the result, and the now refusing source drops out of future
        choice sets. Every performed access then counts as one step, runs
        the contract checks and is held to the ``max_accesses`` cap.
        """
        try:
            result = self.middleware.perform(access)
        except (RetryExhaustedError, SourceUnavailableError) as exc:
            result = self._mark_fault(access, exc)
        except BudgetExceededError as exc:
            # Budget checked affordable but ran out mid-access (e.g.
            # charged retries of a flaky source). Degrade instead of
            # raising; the affordability filter ends further attempts.
            if not self.degrade_on_budget:
                raise
            self._budget_blocked = True
            result = self._mark_fault(access, exc)
        else:
            if not access.is_sorted:
                assert access.obj is not None
                self.state.record(access.predicate, access.obj, float(result))
                self._bounds.update(access.obj)
            elif result is not None:
                obj, score = result
                self.state.record(access.predicate, obj, score)
                if obj in self._tracked:
                    self._bounds.update(obj)
                else:
                    self._bounds.push(obj)
                    self._tracked.add(obj)
        self._steps += 1
        checker = self.middleware.contracts
        if checker is not None:
            checker.observe_threshold(self.state.unseen_bound())
            if target != UNSEEN:
                checker.check_interval(
                    target,
                    self.state.lower_bound(target),
                    self.state.upper_bound(target),
                )
        if (
            self.max_accesses is not None
            and self.middleware.stats.total_accesses > self.max_accesses
        ):
            raise ReproError(
                f"access budget of {self.max_accesses} exceeded; the policy "
                "appears not to make progress"
            )
        return result

    # ------------------------------------------------------------------
    # The sequential core (Figure 6 / Figure 10)
    # ------------------------------------------------------------------

    def _sequential(self) -> Iterator[Union[RankedObject, Access]]:
        """The Figure-6 loop, one access per iteration.

        Yields each confirmed answer, best first, and each selected access
        *before* performing it. The access yield is the only point where
        a driver may suspend (the async drivers await the access's latency
        there); resuming performs the access and runs on to the next yield
        without interruption. A sorted access whose list ran out during
        the suspension (through a source cache shared with another
        session) is not performed: its target goes back into the bound
        index and is selected for again. Sync drivers never suspend, so
        for them the check never fires.

        An object popped from the bound index *complete* is a confirmed
        answer: everything still live is bounded at or below it (the
        MPro-style progressive output; equivalent to the Theorem-1 batch
        test, and performing the identical access sequence, since the
        highest-ranked incomplete object is the target either way).
        """
        self._prepare()
        while True:
            self._replan_checkpoint()
            entry = self._bounds.pop_current()
            if entry is None:
                return
            obj, bound = entry
            if self._retired(obj):
                continue
            if obj != UNSEEN and self.state.is_complete(obj):
                # Confirmed: its exact score equals its bound, and no live
                # entry can rank above it. The object stays in _tracked
                # (the "ever tracked" set) so a later sorted delivery of it
                # cannot re-enqueue and re-confirm it.
                yield RankedObject(obj, bound)
                continue
            if (
                obj != UNSEEN
                and self.theta > 1.0
                and self._approximately_confirmed(obj)
            ):
                yield RankedObject(obj, self.state.lower_bound(obj))
                continue
            choices = self._usable_choices(obj)
            if choices is None:
                # Every remaining access for this target sits behind an
                # open breaker: degrade instead of crashing or spinning.
                if obj == UNSEEN:
                    # Every sorted source is down: give up on discovery.
                    self._unseen_abandoned = True
                    continue
                yield self._degrade(obj)
                continue
            access = self._select(obj, choices)
            yield access
            if access.is_sorted and self.middleware.exhausted(access.predicate):
                # Another session sharing the cache ran it out meanwhile.
                self._bounds.push(obj)
                continue
            result = self._perform(obj, access)
            if self.observer is not None:
                self.observer(
                    TraceStep(
                        step=self._steps,
                        target=obj,
                        alternatives=list(choices),
                        access=access,
                        result=result,
                    )
                )
            self._bounds.push(obj)

    def answers(self) -> Iterator[RankedObject]:
        """Stream the ranked answers progressively, best first.

        The stream is lazy and unbounded by ``k``: consuming exactly ``k``
        items reproduces :meth:`run`; consuming further items continues
        the same processing for "next-k" retrieval at only the marginal
        access cost. With ``theta > 1``, an incomplete leader may be
        confirmed *approximately* once ``theta * F_min(u)`` dominates
        every other candidate's bound; its reported score is then the
        proven lower bound.
        """
        for item in self._sequential():
            if isinstance(item, RankedObject):
                yield item

    def _approximately_confirmed(self, obj: int) -> bool:
        """theta-approximation test for the current leader ``obj``.

        Sound because ``obj`` tops the bound index: every other live candidate
        ``x`` satisfies ``F(x) <= F_max(x) <= runner_up_bound``, so
        ``theta * F_min(obj) >= runner_up_bound`` implies the Fagin-style
        guarantee ``theta * F(obj) >= F(x)``.
        """
        runner_up = self._bounds.pop_current()
        if runner_up is None:
            return True
        self._bounds.push(runner_up[0])
        return self.theta * self.state.lower_bound(obj) >= runner_up[1]

    # ------------------------------------------------------------------
    # The wave core (Section 9.1.1)
    # ------------------------------------------------------------------

    def _pops_full_topk(self) -> bool:
        """Whether this wave pops the whole top-k even once it is full.

        Stopping at ``c`` accesses is exact only while
        :meth:`_usable_choices` can return ``None`` for no target: then a
        target left unpopped would not have been degraded, would not have
        abandoned discovery and would not have blocked the budget in this
        wave (docs/RUNTIME.md, "The wave core"). That holds while no
        channel refuses accesses and no budget filters choices. Eager
        mode also needs every workable target, for its second choices.
        Refusal is read once per gate epoch, which moves whenever a
        channel's admission may have changed.
        """
        if self.speculation == "eager":
            return True
        middleware = self.middleware
        if self.degrade_on_budget and middleware.remaining_budget() is not None:
            return True
        epoch = middleware.gate_epoch
        if self._refusing[0] != epoch:
            self._refusing = (epoch, bool(middleware.degraded_predicates()))
        return self._refusing[1]

    def _check_early_stop(self, popped: int) -> None:
        """Armed contracts: the targets an early stop left were refinable.

        Pops the rest of the top-k, raises
        :class:`~repro.exceptions.ContractViolationError` (through the
        checker) if one of them has no usable choice -- the full pop
        would have degraded it or abandoned discovery this wave -- and
        pushes them back at their popped bounds.
        """
        checker = self.middleware.contracts
        assert checker is not None
        rest: list[tuple[int, float]] = []
        while popped + len(rest) < self.k:
            entry = self._bounds.pop_current()
            if entry is None:
                break
            obj = entry[0]
            if self._retired(obj):
                continue
            rest.append(entry)
            if obj == UNSEEN or not self.state.is_complete(obj):
                checker.check_refinable(obj, self._usable_choices(obj) is not None)
        self._push_back(rest)

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

        Each round pops the top-k in rank order, degrading unrefinable
        targets, and gives each refinable one the access the sequential
        policy picks for it, until the wave holds ``c`` accesses. Every
        access in the wave is therefore individually justified by
        Theorem 1 (its target's task must be worked on eventually); the
        only speculation is ordering, which keeps the total-cost overhead
        of concurrency small. A target whose pick is already in the wave
        (a shared sorted stream, typically) waits for the next wave:
        issuing its second choice would be speculation the sequential
        plan never performs.

        A full wave stops popping: only a wave that cannot fill can pass
        the Theorem-1 stopping test, so the rest of the top-k is popped
        only then, or when :meth:`_pops_full_topk` says an early stop is
        not provably exact. With no refinable target left the round
        returns the finished :class:`ParallelResult`. Otherwise it yields
        the wave's access durations *before* performing it. That yield is
        the only point where a driver may suspend (the async drivers
        await the wave's makespan there); resuming folds the whole wave
        through :meth:`_perform` and plans on to the next yield without
        interruption. As in the sequential core, a sorted access whose
        list ran out during the suspension is dropped from the fold.
        """
        self._prepare()
        concurrency = self.concurrency
        while True:
            # Wave boundary == safe checkpoint: no access is in flight,
            # the previous wave is fully folded in.
            self._replan_checkpoint()
            full = self._pops_full_topk()
            popped: list[tuple[int, float]] = []
            workable: list[int] = []
            batch: dict[Access, int] = {}
            used_sorted: set[int] = set()
            while len(popped) < self.k and (full or len(batch) < concurrency):
                entry = self._bounds.pop_current()
                if entry is None:
                    break
                obj = entry[0]
                if self._retired(obj):
                    continue
                if obj != UNSEEN and self.state.is_complete(obj):
                    popped.append(entry)
                    continue
                choices = self._usable_choices(obj)
                if choices is None and obj == UNSEEN:
                    # Every sorted source refuses: give up on discovery.
                    # UNSEEN retires, so the next entry takes its place.
                    self._unseen_abandoned = True
                    continue
                popped.append(entry)
                if choices is None:
                    self._degrade(obj)
                    continue
                workable.append(obj)
                if len(batch) >= concurrency:
                    continue
                access = self._select(obj, choices)
                if access in batch or (
                    access.is_sorted and access.predicate in used_sorted
                ):
                    continue
                batch[access] = obj
                if access.is_sorted:
                    used_sorted.add(access.predicate)
            if not batch:
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
                result.metadata["concurrency"] = concurrency
                return self._outcome(result)
            if self.speculation == "eager":
                self._fill_speculatively(workable, batch, used_sorted)
            elif len(popped) < self.k and self.middleware.contracts is not None:
                # Only an early stop leaves part of the top-k unpopped.
                self._check_early_stop(len(popped))
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
            self.clock.run_wave(durations, concurrency)
            self.waves += 1
            self._push_back(popped)

    # ------------------------------------------------------------------
    # Drivers: the core the concurrency bound picks, sync or async
    # ------------------------------------------------------------------

    def _pending(self, access: Access) -> float:
        """Book one pending access of the sequential core on the clock."""
        duration = self.latency_model.duration(access)
        self.clock.advance(duration)
        self.waves += 1
        return duration

    def _outcome(self, result: QueryResult) -> ParallelResult:
        return ParallelResult(result, self.clock.now, self.waves, self.concurrency)

    def _timed(self) -> Iterator[RankedObject]:
        """:meth:`answers`, booking each access's duration on the clock."""
        for item in self._sequential():
            if isinstance(item, RankedObject):
                yield item
            else:
                self._pending(item)

    def run(self) -> QueryResult:
        """Process the query to completion and return the top-k.

        Exact by default; with ``theta > 1`` the ranking is a
        theta-approximation and reported scores of approximately-confirmed
        objects are their proven lower bounds.
        """
        if self.concurrency > 1:
            return self.execute().result
        ranking = list(itertools.islice(self.answers(), self.k))
        return self._finish(ranking, self._label())

    def execute(self) -> ParallelResult:
        """Run to completion; full :class:`ParallelResult` accounting.

        At concurrency 1 the query result is :meth:`run`'s and the
        elapsed time is the sum of the access durations. Source outages
        degrade the run instead of crashing it, in both cores
        (docs/FAULTS.md).
        """
        if self.concurrency == 1:
            ranking = list(itertools.islice(self._timed(), self.k))
            return self._outcome(self._finish(ranking, self._label()))
        waves = self._waves()
        while True:
            try:
                next(waves)
            except StopIteration as done:
                return done.value

    async def _run_paced(
        self, on_answer: Optional[AnswerCallback]
    ) -> ParallelResult:
        if self.concurrency == 1:
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
            return self._outcome(self._finish(ranking, self._label()))
        waves = self._waves()
        while True:
            try:
                durations = next(waves)
            except StopIteration as done:
                outcome: ParallelResult = done.value
                break
            await self.pacer.wave(durations)
        if on_answer is not None:
            for answer in outcome.result.ranking:
                await on_answer(answer)
        return outcome

    async def execute_async(self) -> ParallelResult:
        """:meth:`execute`, with each wait paced on the event loop."""
        return await self._run_paced(None)

    async def run_async(
        self, on_answer: Optional[AnswerCallback] = None
    ) -> QueryResult:
        """:meth:`run` on the event loop; optionally streams answers.

        ``on_answer`` is awaited once per ranked answer. At concurrency 1
        answers arrive progressively, as each is confirmed; at higher
        concurrency the Theorem-1 stopping test confirms the whole top-k
        at once, so the callbacks fire together at the end, still in rank
        order.
        """
        return (await self._run_paced(on_answer)).result

    async def stream(self) -> AsyncIterator[RankedObject]:
        """Stream confirmed answers progressively, best first.

        :meth:`answers` on the event loop, awaiting one pacer wait at
        each pending access. Only defined at concurrency 1 -- the wave
        shape has no per-answer confirmation order until the Theorem-1
        test passes for the whole top-k; use :meth:`run_async` there.
        """
        if self.concurrency != 1:
            raise ReproError(
                f"progressive streaming requires concurrency 1, not {self.concurrency}"
            )
        for item in self._sequential():
            if isinstance(item, RankedObject):
                yield item
            else:
                # Selected (on this query's private score state) before
                # the wait, performed after it when the core resumes:
                # whether the cache serves it free is decided at perform
                # time, exactly once, race-free.
                await self.pacer.wait(self._pending(item))

    def _label(self) -> str:
        if self.concurrency > 1:
            return f"NC-parallel[c={self.concurrency},{self.speculation}]"
        return f"NC[{self.policy.describe()}]"


class FrameworkTG(FrameworkNC):
    """The trivially-general engine: Select over *all* legal accesses.

    Shares NC's bookkeeping and Theorem-1 stopping rule but offers the
    policy the entire pool of currently-legal accesses: every
    non-exhausted sorted access plus every non-duplicate random access on
    a discovered (or, with wild guesses, any) object. The pool's size is
    what makes TG useless for optimization (Section 4); it is retained as
    an executable reference point and for tests. It runs the sequential
    core only: ``concurrency > 1`` raises :class:`ValueError`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.concurrency > 1:
            raise ValueError("FrameworkTG runs sequentially; concurrency must be 1")

    def _alternatives(self, target: int) -> list[Access]:
        """Every currently-legal access on a channel admitting accesses.

        Derived afresh on every call: the pool depends on every seen
        object, not on one target, so NC's per-target cache cannot hold it.
        """
        middleware = self.middleware
        state = self.state
        alts: list[Access] = []
        for i in middleware.sorted_predicates():
            if not middleware.exhausted(i):
                alts.append(Access.sorted(i))
        if middleware.no_wild_guesses:
            pool = middleware.seen
        else:
            pool = middleware.object_ids()
        for obj in pool:
            for i in state.undetermined(obj):
                if middleware.supports_random(i):
                    alts.append(Access.random(i, obj))
        if not alts:
            raise UnanswerableQueryError(
                "no legal access remains but the query is not yet answered"
            )
        allowed = middleware.access_allowed
        return [
            access for access in alts if allowed(access.predicate, access.kind)
        ]

    def _label(self) -> str:
        return f"TG[{self.policy.describe()}]"
