"""No-Random-Access algorithm (NRA).

NRA [Fagin, Lotem & Naor 2001] is the specialist for the matrix row where
random access is impossible: it performs equal-depth sorted accesses only
and reasons with per-object score intervals
``[F_min(u), F_max(u)]``.

Two halting modes are provided:

* ``exact_scores=True`` (default): halt when the current top-k by
  maximal-possible score are completely evaluated -- the Theorem-1 rule.
  This matches the paper's query semantics, which return exact scores,
  and is the apples-to-apples mode used in the benchmark comparisons.
* ``exact_scores=False``: the classic set-only halting -- stop as soon as
  the k best lower bounds dominate every other object's upper bound. The
  returned "scores" are then the proven lower bounds (metadata flags
  this), which is cheaper but does not satisfy the paper's output
  contract.
"""

from __future__ import annotations

import heapq

from repro.algorithms.base import BoundTracker, TopKAlgorithm
from repro.core.tasks import UNSEEN
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult, RankedObject


class NRA(TopKAlgorithm):
    """Sorted-access-only processing with interval bounds."""

    name = "NRA"

    def __init__(self, exact_scores: bool = True):
        self.exact_scores = exact_scores
        if not exact_scores:
            self.name = "NRA(set)"

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        tracker = BoundTracker(middleware, fn, k)
        m = middleware.m

        while True:
            progressed = False
            for i in range(m):
                if middleware.exhausted(i):
                    continue
                delivered = middleware.sorted_access(i)
                if delivered is None:  # pragma: no cover - non-strict mode
                    continue
                progressed = True
                obj, score = delivered
                tracker.record(i, obj, score)
            if self.exact_scores:
                ranking = tracker.finished()
                if ranking is not None:
                    return self._result(ranking, middleware, exact=True)
            else:
                ranking = self._set_mode_finished(tracker, middleware, k)
                if ranking is not None:
                    return self._result(ranking, middleware, exact=False)
            if not progressed:
                # All lists exhausted: everything is fully evaluated, so
                # the Theorem-1 test necessarily succeeds now.
                ranking = tracker.finished()
                assert ranking is not None
                return self._result(ranking, middleware, exact=True)

    def _set_mode_finished(self, tracker: BoundTracker, middleware, k: int):
        """Classic NRA halting: k lower bounds dominate all other uppers."""
        state = tracker.state
        tracked = list(state.tracked())
        if len(tracked) < k:
            return None
        # Y: the k tracked objects with the largest lower bounds.
        best = heapq.nlargest(
            k, tracked, key=lambda obj: (state.lower_bound(obj), obj)
        )
        best_set = set(best)
        floor = min(state.lower_bound(obj) for obj in best)
        floor_key = min((state.lower_bound(obj), obj) for obj in best)
        # Every competitor (tracked outside Y, plus unseen objects) must be
        # bounded by the floor; ties resolve via the deterministic order.
        if middleware.seen_count < middleware.n_objects:
            if state.unseen_bound() > floor:
                return None
        for obj in tracked:
            if obj in best_set:
                continue
            upper = state.upper_bound(obj)
            if upper > floor or (upper == floor and (upper, obj) > floor_key):
                return None
        ordered = sorted(
            best, key=lambda obj: (-state.lower_bound(obj), -obj)
        )
        return [RankedObject(obj, state.lower_bound(obj)) for obj in ordered]
