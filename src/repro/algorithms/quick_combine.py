"""Quick-Combine: TA with derivative-guided list selection.

Quick-Combine [Guentzer, Balke & Kiessling 2000] refines TA's equal-depth
descent with a runtime indicator for choosing which list to pop next:

    Delta_i = dF/dx_i (at the current last-seen vector)
              * (l_i[d - w] - l_i[d])

i.e. the scoring function's sensitivity to predicate ``i`` times the
score drop the list showed over its last ``w`` sorted accesses. Lists
that are both influential and fast-dropping shrink the threshold
``T = F(l)`` fastest. Like TA it probes each newly seen object
exhaustively and stops on the TA threshold test.

The paper cites this family as "limited heuristics": the indicator needs
a meaningful partial derivative, which degrades for functions like
``min`` (zero almost everywhere off the argmin coordinate) -- one of the
motivations for full cost-based optimization. Ties and zero indicators
fall back to round-robin so no list starves.
"""

from __future__ import annotations

from repro.algorithms.base import BestK, DropIndicator, TopKAlgorithm
from repro.core.state import ScoreState
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult


class QuickCombine(TopKAlgorithm):
    """TA-family algorithm with a derivative x drop-rate access indicator."""

    name = "Quick-Combine"

    def __init__(self, window: int = 2):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        self._require_random_all(middleware)
        state = ScoreState(middleware, fn)
        best = BestK(state, k)
        indicator = DropIndicator(middleware, fn, self.window)

        while True:
            live = [i for i in range(middleware.m) if not middleware.exhausted(i)]
            if not live:
                break  # everything delivered and evaluated
            choice = indicator.best(live)
            # A flat indicator (flat lists or non-smooth F) falls back to
            # round-robin over live lists to guarantee progress.
            pred = choice[1] if choice else indicator.round_robin(live)
            delivered = indicator.descend(pred)
            if delivered is None:  # pragma: no cover - non-strict mode
                continue
            obj, score = delivered
            state.record(pred, obj, score)
            best.consider(obj)
            if best.reached():
                break

        return self._result(best.ranking(), middleware, window=self.window)
