"""The Combined Algorithm (CA).

CA [Fagin, Lotem & Naor 2001] targets the matrix row where random access
is *expensive* relative to sorted access (cost ratio ``h = cr/cs >> 1``).
It tempers TA's exhaustive probing: run NRA-style equal-depth sorted
rounds, and only once every ``h`` rounds spend random accesses -- fully
evaluating the most promising incomplete candidate (highest
maximal-possible score). Halting is the exact-score Theorem-1 test.

The ratio ``h`` defaults to the cost model's mean ``cr``/mean ``cs``
(clamped to at least 1), which is CA's published choice; pass ``h``
explicitly to override.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.algorithms.base import BoundTracker, TopKAlgorithm, sorted_round
from repro.core.tasks import UNSEEN
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult


class CA(TopKAlgorithm):
    """Sorted rounds with periodic full probes of the best candidate."""

    name = "CA"

    def __init__(self, h: Optional[int] = None):
        if h is not None and h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        self._h = h

    def _ratio(self, middleware: Middleware) -> int:
        if self._h is not None:
            return self._h
        model = middleware.cost_model
        cs = [model.sorted_cost(i) for i in range(model.m)]
        cr = [model.random_cost(i) for i in range(model.m)]
        if any(math.isinf(c) for c in cs + cr):
            raise ValueError("CA needs finite sorted and random costs")
        mean_cs = sum(cs) / len(cs)
        mean_cr = sum(cr) / len(cr)
        if mean_cs <= 0:
            return 1
        return max(1, int(mean_cr / mean_cs))

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        self._require_random_all(middleware)
        h = self._ratio(middleware)
        tracker = BoundTracker(middleware, fn, k)
        rounds = 0

        while True:
            ranking = tracker.finished()
            if ranking is not None:
                return self._result(ranking, middleware, h=h)
            progressed = sorted_round(middleware, tracker.record)
            rounds += 1
            if rounds % h == 0:
                self._probe_best_candidate(tracker, middleware)
            if not progressed:
                # Lists exhausted; finish any lingering incomplete top
                # candidates by probing until Theorem 1 is satisfied.
                ranking = tracker.finished()
                while ranking is None:
                    self._probe_best_candidate(tracker, middleware)
                    ranking = tracker.finished()
                return self._result(ranking, middleware, h=h)

    def _probe_best_candidate(
        self, tracker: BoundTracker, middleware: Middleware
    ) -> None:
        """Fully evaluate the best incomplete *seen* candidate, if any.

        The virtual UNSEEN object cannot be probed; the best real
        incomplete candidate below it is taken instead.
        """
        for obj, _bound in tracker.current_topk():
            if obj != UNSEEN and not tracker.state.is_complete(obj):
                break
        else:
            return
        for i in tracker.state.undetermined(obj):
            score = middleware.random_access(i, obj)
            tracker.record(i, obj, score)
