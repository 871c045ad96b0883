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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

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
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import Access, QueryResult, RankedObject

if TYPE_CHECKING:  # pragma: no cover - optimizer imports this module
    from repro.optimizer.replan import ReplanController


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
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if theta < 1.0:
            raise ValueError(f"theta must be >= 1.0, got {theta}")
        if middleware.stats.total_accesses:
            raise ValueError("middleware has already been used; pass a fresh one")
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
        # Every object ever pushed into the bound index (live or not).
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

    # ------------------------------------------------------------------
    # Engine plumbing (shared with the parallel executor)
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
            self._tracked.add(UNSEEN)
        else:
            for obj in middleware.object_ids():
                self._bounds.push(obj)
                self._tracked.add(obj)

    def _collect_topk(self) -> list[tuple[int, float]]:
        """Pop the current top-k ``(obj, F_max)`` off the bound index.

        A stale UNSEEN entry is retired on pop once every object has been
        discovered (Figure 10), so callers never see -- or target -- the
        virtual object after it stopped representing anyone.
        """
        popped: list[tuple[int, float]] = []
        while len(popped) < self.k:
            entry = self._bounds.pop_current()
            if entry is None:
                break
            if entry[0] == UNSEEN and (
                self._unseen_abandoned
                or self.middleware.seen_count >= self.middleware.n_objects
            ):
                self._tracked.discard(UNSEEN)
                continue
            popped.append(entry)
        return popped

    def _push_back(self, entries: Sequence[tuple[int, float]]) -> None:
        """Reinsert popped entries with refreshed bounds.

        The UNSEEN entry is dropped once every object has been discovered
        (or discovery became impossible and it was abandoned).
        """
        all_seen = self.middleware.seen_count >= self.middleware.n_objects
        for obj, _stale in entries:
            if obj == UNSEEN and (all_seen or self._unseen_abandoned):
                self._tracked.discard(UNSEEN)
                continue
            self._bounds.push(obj)

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

    def _abandon_unseen(self) -> None:
        """Give up on discovering new objects (all sorted sources down)."""
        self._unseen_abandoned = True
        self._tracked.discard(UNSEEN)

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
    # The sequential core (Figure 6 / Figure 10) and its sync drivers
    # ------------------------------------------------------------------

    def _sequential(self) -> Iterator[Union[RankedObject, Access]]:
        """The Figure-6 loop, one access per iteration.

        Yields each confirmed answer, best first, and each selected access
        *before* performing it. The access yield is the only point where
        a driver may suspend (the async engine awaits the access's latency
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
            all_seen = self.middleware.seen_count >= self.middleware.n_objects
            if obj == UNSEEN and (all_seen or self._unseen_abandoned):
                # Every object has been discovered (or discovery became
                # impossible); the virtual stand-in retires (Figure 10).
                self._tracked.discard(UNSEEN)
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
                    self._abandon_unseen()
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

    def run(self) -> QueryResult:
        """Process the query to completion and return the top-k.

        Exact by default; with ``theta > 1`` the ranking is a
        theta-approximation and reported scores of approximately-confirmed
        objects are their proven lower bounds.
        """
        ranking = list(itertools.islice(self.answers(), self.k))
        return self._finish(ranking, self._label())

    def _label(self) -> str:
        return f"NC[{self.policy.describe()}]"


class FrameworkTG(FrameworkNC):
    """The trivially-general engine: Select over *all* legal accesses.

    Shares NC's bookkeeping and Theorem-1 stopping rule but offers the
    policy the entire pool of currently-legal accesses: every
    non-exhausted sorted access plus every non-duplicate random access on
    a discovered (or, with wild guesses, any) object. The pool's size is
    what makes TG useless for optimization (Section 4); it is retained as
    an executable reference point and for tests.
    """

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
