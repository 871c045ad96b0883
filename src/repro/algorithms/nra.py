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

from repro.algorithms.base import BoundTracker, TopKAlgorithm, sorted_round
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult


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

        while True:
            progressed = sorted_round(middleware, tracker.record)
            ranking = (
                tracker.finished() if self.exact_scores else tracker.set_finished()
            )
            if ranking is not None:
                return self._result(ranking, middleware, exact=self.exact_scores)
            if not progressed:
                # All lists exhausted: everything is fully evaluated, so
                # the Theorem-1 test necessarily succeeds now.
                ranking = tracker.finished()
                assert ranking is not None
                return self._result(ranking, middleware, exact=True)
