"""SR-Combine: cost-aware interleaving of sorted and random accesses.

SR-Combine [Balke & Guentzer 2002 family] extends Quick-Combine's
runtime indicator to *both* access types in scenarios where their costs
differ: at each step it compares

* per sorted list, the expected threshold reduction per unit cost
  ``dF/dx_i(l) * recent drop of l_i / cs_i``, against
* probing the most promising incomplete candidate, valued by its expected
  bound reduction per unit cost ``(F_max(u) - F_max(u | x_j := mu_j)) / cr_j``
  over its best probeable predicate ``j``,

and performs the higher-valued access. Halting is the exact-score
Theorem-1 test over the shared bound tracker.

This is a faithful-in-spirit rendition (the original's control flow is
specified operationally over TA-style phases); like its siblings, its
derivative-based indicator degrades for non-smooth functions -- the
limitation the paper cites when motivating full cost-based optimization.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.algorithms.base import (
    BoundTracker,
    DropIndicator,
    TopKAlgorithm,
    best_probe,
)
from repro.core.tasks import UNSEEN
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult


class SRCombine(TopKAlgorithm):
    """Indicator-guided sorted/random interleaving with cost weighting."""

    name = "SR-Combine"

    def __init__(
        self,
        window: int = 2,
        expected_scores: Optional[Sequence[float]] = None,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._expected = tuple(expected_scores) if expected_scores else None

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        m = middleware.m
        expected = self._expected or tuple([0.5] * m)
        if len(expected) != m:
            raise ValueError("expected_scores must cover every predicate")
        tracker = BoundTracker(middleware, fn, k)
        indicator = DropIndicator(middleware, fn, self.window)

        while True:
            ranking = tracker.finished()
            if ranking is not None:
                return self._result(ranking, middleware, window=self.window)
            live = [i for i in range(m) if not middleware.exhausted(i)]
            sorted_choice = indicator.best(live, middleware.cost_model.sorted_cost)
            probe_choice = self._best_probe(tracker, expected)
            if sorted_choice is None and probe_choice is None:
                # Indicators flat (non-smooth function or stalled lists):
                # fall back to round-robin descent to guarantee progress.
                if not live:
                    ranking = tracker.finished()
                    assert ranking is not None
                    return self._result(ranking, middleware, window=self.window)
                pred = indicator.round_robin(live)
            elif probe_choice is None or (
                sorted_choice is not None and sorted_choice[0] >= probe_choice[0]
            ):
                pred = sorted_choice[1]
            else:
                _value, obj, pred = probe_choice
                tracker.record(pred, obj, middleware.random_access(pred, obj))
                continue
            delivered = indicator.descend(pred)
            if delivered is not None:
                obj, score = delivered
                tracker.record(pred, obj, score)

    @staticmethod
    def _best_probe(
        tracker: BoundTracker, expected: tuple[float, ...]
    ) -> Optional[tuple[float, int, int]]:
        """(value, obj, predicate) of the best probe, or None.

        The probe goes to the highest-ranked incomplete candidate; a
        non-positive finite gain is no better than waiting.
        """
        top = tracker.top_incomplete()
        if top is None or top[0] == UNSEEN:
            return None
        obj = top[0]
        middleware = tracker.middleware
        best = best_probe(
            tracker.state,
            obj,
            expected,
            [
                j
                for j in tracker.state.undetermined(obj)
                if middleware.supports_random(j)
            ],
        )
        if best is None or (best[0] <= 0 and not math.isinf(best[0])):
            return None
        return best[0], obj, best[1]
