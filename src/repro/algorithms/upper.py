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

from repro.algorithms.base import BoundTracker, TopKAlgorithm, best_probe
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
                # Discover a new object: descend the highest-bound list.
                self._descend(tracker, middleware.sorted_predicates())
                tracker.push(UNSEEN)
                continue
            if state.is_complete(obj):
                answers.append(RankedObject(obj, bound))
                continue
            self._probe(tracker, expected, obj)
            tracker.push(obj)
        return self._result(answers, middleware)

    @staticmethod
    def _descend(tracker: BoundTracker, predicates: Sequence[int]) -> None:
        """Sorted access on the live list of ``predicates`` with highest ``l_i``."""
        middleware = tracker.middleware
        live = [i for i in predicates if not middleware.exhausted(i)]
        if not live:  # pragma: no cover - UNSEEN or an unknown implies a live list
            raise CapabilityError("no live sorted list can refine the answer")
        pred = max(live, key=lambda i: (middleware.last_seen(i), -i))
        delivered = middleware.sorted_access(pred)
        if delivered is not None:
            obj, score = delivered
            tracker.record(pred, obj, score)

    def _probe(
        self, tracker: BoundTracker, expected: tuple[float, ...], obj: int
    ) -> None:
        """Evaluate the most cost-effective undetermined predicate of obj.

        When every missing predicate is sorted-only, the one of those
        lists with the highest ``l_i`` is descended instead.
        """
        middleware = tracker.middleware
        undetermined = tracker.state.undetermined(obj)
        probeable = [i for i in undetermined if middleware.supports_random(i)]
        if not probeable:
            self._descend(
                tracker,
                [i for i in undetermined if middleware.supports_sorted(i)],
            )
            return
        best = best_probe(tracker.state, obj, expected, probeable)
        assert best is not None
        pred = best[1]
        tracker.record(pred, obj, middleware.random_access(pred, obj))
