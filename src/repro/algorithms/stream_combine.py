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

from repro.algorithms.base import BoundTracker, DropIndicator, TopKAlgorithm
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult


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
        tracker = BoundTracker(middleware, fn, k)
        indicator = DropIndicator(middleware, fn, self.window)

        while True:
            ranking = (
                tracker.finished() if self.exact_scores else tracker.set_finished()
            )
            if ranking is not None:
                return self._result(ranking, middleware, exact=self.exact_scores)
            live = [i for i in range(middleware.m) if not middleware.exhausted(i)]
            if not live:
                ranking = tracker.finished()
                assert ranking is not None
                return self._result(ranking, middleware, exact=True)
            choice = indicator.best(live)
            pred = choice[1] if choice else indicator.round_robin(live)
            delivered = indicator.descend(pred)
            if delivered is not None:
                obj, score = delivered
                tracker.record(pred, obj, score)
