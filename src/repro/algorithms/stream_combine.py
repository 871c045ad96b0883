"""Stream-Combine: NRA with derivative-guided list selection.

Stream-Combine [Guentzer, Balke & Kiessling 2001] carries Quick-Combine's
access indicator (scoring-function sensitivity x recent score drop) into
the no-random-access setting: it is NRA whose next sorted access goes to
the list with the highest indicator rather than round-robin.

Halting follows the same two modes as :class:`~repro.algorithms.nra.NRA`:
exact scores (Theorem-1 test; the benchmark default) or the classic
set-only lower/upper-bound domination.
"""

from __future__ import annotations

import heapq

from repro.algorithms.base import BoundTracker, TopKAlgorithm
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult, RankedObject


class StreamCombine(TopKAlgorithm):
    """NRA-family algorithm with a derivative x drop-rate access indicator."""

    name = "Stream-Combine"

    def __init__(self, window: int = 2, exact_scores: bool = True):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.exact_scores = exact_scores
        if not exact_scores:
            self.name = "Stream-Combine(set)"

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        m = middleware.m
        tracker = BoundTracker(middleware, fn, k)
        history: list[list[float]] = [[1.0] for _ in range(m)]
        tick = 0

        def indicator(i: int) -> float:
            trail = history[i]
            back = min(self.window, len(trail) - 1)
            drop = trail[-1 - back] - trail[-1] if back else 1.0 - trail[-1]
            point = [middleware.last_seen(j) for j in range(m)]
            return fn.partial_derivative(i, point) * max(drop, 0.0)

        while True:
            if self.exact_scores:
                ranking = tracker.finished()
                if ranking is not None:
                    return self._result(ranking, middleware, exact=True)
            else:
                ranking = self._set_mode_finished(tracker, middleware, k)
                if ranking is not None:
                    return self._result(ranking, middleware, exact=False)
            live = [i for i in range(m) if not middleware.exhausted(i)]
            if not live:
                ranking = tracker.finished()
                assert ranking is not None
                return self._result(ranking, middleware, exact=True)
            scores = {i: indicator(i) for i in live}
            peak = max(scores.values())
            if peak > 0.0:
                pred = max(live, key=lambda i: (scores[i], -i))
            else:
                pred = live[tick % len(live)]
                tick += 1
            delivered = middleware.sorted_access(pred)
            if delivered is None:  # pragma: no cover - non-strict mode
                continue
            obj, score = delivered
            tracker.record(pred, obj, score)
            history[pred].append(middleware.last_seen(pred))

    def _set_mode_finished(self, tracker: BoundTracker, middleware, k: int):
        """Classic halting: k lower bounds dominate all other uppers."""
        state = tracker.state
        tracked = list(state.tracked())
        if len(tracked) < k:
            return None
        best = heapq.nlargest(
            k, tracked, key=lambda obj: (state.lower_bound(obj), obj)
        )
        best_set = set(best)
        floor = min(state.lower_bound(obj) for obj in best)
        floor_key = min((state.lower_bound(obj), obj) for obj in best)
        if middleware.seen_count < middleware.n_objects:
            if state.unseen_bound() > floor:
                return None
        for obj in tracked:
            if obj in best_set:
                continue
            upper = state.upper_bound(obj)
            if upper > floor or (upper == floor and (upper, obj) > floor_key):
                return None
        ordered = sorted(best, key=lambda obj: (-state.lower_bound(obj), -obj))
        return [RankedObject(obj, state.lower_bound(obj)) for obj in ordered]
