"""Upper: adaptive per-object probe selection.

Upper [Bruno, Gravano & Marian 2002] shares MPro's home scenario (sorted
access impossible or scarce) but chooses *which* predicate to probe per
object instead of following one global order: it always works on the
object with the highest maximal-possible score (proved to require work),
and probes the predicate with the best expected benefit per unit cost.

This implementation covers both the probe-only setting (known universe)
and mixed settings: when the virtual UNSEEN object tops the queue, Upper
performs a sorted access on the list with the highest last-seen score.
The benefit estimate for a probe on predicate ``i`` is the expected drop
of the object's bound when the unknown score is replaced by its expected
value (sample mean ``mu_i``, default 0.5), divided by ``cr_i``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.algorithms.base import BoundTracker, TopKAlgorithm
from repro.core.tasks import UNSEEN
from repro.exceptions import CapabilityError
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult, RankedObject


class Upper(TopKAlgorithm):
    """Highest-bound-first processing with benefit/cost probe selection."""

    name = "Upper"

    def __init__(self, expected_scores: Optional[Sequence[float]] = None):
        self._expected = tuple(expected_scores) if expected_scores else None

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if middleware.no_wild_guesses and not middleware.sorted_predicates():
            raise CapabilityError(
                "Upper needs either a sorted-capable predicate or an "
                "enumerable universe"
            )
        expected = self._expected or tuple([0.5] * middleware.m)
        if len(expected) != middleware.m:
            raise ValueError("expected_scores must cover every predicate")
        tracker = BoundTracker(middleware, fn, k)
        state = tracker.state
        answers: list[RankedObject] = []
        target_count = min(k, middleware.n_objects)

        while len(answers) < target_count:
            popped = tracker.pop_top()
            if popped is None:
                break
            obj, bound = popped
            if obj == UNSEEN:
                self._explore(tracker, middleware)
                if middleware.seen_count < middleware.n_objects:
                    tracker.push(UNSEEN)
                continue
            if state.is_complete(obj):
                answers.append(RankedObject(obj, bound))
                continue
            self._probe(tracker, middleware, fn, expected, obj)
            tracker.push(obj)
        return self._result(answers, middleware)

    def _explore(self, tracker: BoundTracker, middleware: Middleware) -> None:
        """Discover a new object: sorted access on the highest-bound list."""
        candidates = [
            i for i in middleware.sorted_predicates() if not middleware.exhausted(i)
        ]
        if not candidates:  # pragma: no cover - UNSEEN implies a live list
            raise CapabilityError("unseen objects remain but no list is live")
        pred = max(candidates, key=lambda i: (middleware.last_seen(i), -i))
        delivered = middleware.sorted_access(pred)
        if delivered is not None:
            obj, score = delivered
            tracker.record(pred, obj, score)

    def _probe(
        self,
        tracker: BoundTracker,
        middleware: Middleware,
        fn: ScoringFunction,
        expected: tuple[float, ...],
        obj: int,
    ) -> None:
        """Evaluate the most cost-effective undetermined predicate of obj."""
        state = tracker.state
        undetermined = state.undetermined(obj)
        probeable = [i for i in undetermined if middleware.supports_random(i)]
        if not probeable:
            # Every missing predicate is sorted-only: descend the deepest
            # relevant list instead.
            live = [
                i
                for i in undetermined
                if middleware.supports_sorted(i) and not middleware.exhausted(i)
            ]
            if not live:  # pragma: no cover - defensive
                raise CapabilityError(
                    f"object {obj} cannot be completed under the capabilities"
                )
            pred = max(live, key=lambda i: (middleware.last_seen(i), -i))
            delivered = middleware.sorted_access(pred)
            if delivered is not None:
                seen_obj, score = delivered
                tracker.record(pred, seen_obj, score)
            return

        current = [state.predicate_upper(obj, i) for i in range(middleware.m)]
        upper = fn(current)

        def benefit(i: int) -> float:
            swapped = list(current)
            swapped[i] = expected[i]
            drop = upper - fn(swapped)
            cost = middleware.cost_model.random_cost(i)
            if cost <= 0:
                return float("inf") if drop >= 0 else drop
            return drop / cost

        pred = max(probeable, key=lambda i: (benefit(i), -i))
        score = middleware.random_access(pred, obj)
        tracker.record(pred, obj, score)
