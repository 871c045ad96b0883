"""The Threshold Algorithm (TA).

TA [Fagin, Lotem & Naor 2001; also Nepal & Ramakrishna; Guentzer et al.]
is the instance-optimal specialist for the uniform-cost diagonal of
Figure 2. Its three characteristic behaviours (Section 8.1 of the paper):

* **equal-depth sorted access** -- one sorted access per list per round;
* **exhaustive random access** -- each newly seen object is immediately
  evaluated completely via random accesses;
* **early stop** -- maintain the threshold ``T = F(l_1, ..., l_m)``; halt
  as soon as ``k`` evaluated objects score at least ``T`` (no unseen
  object can beat them).

The paper contrasts these behaviours with NC's adaptivity: in asymmetric
scenarios (e.g. ``F = min``) equal depths and exhaustive probing are both
wasteful, and NC departs from them (Figure 11b).
"""

from __future__ import annotations

from repro.algorithms.base import BestK, TopKAlgorithm
from repro.core.state import ScoreState
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult


class TA(TopKAlgorithm):
    """The Threshold Algorithm: equal-depth descent with immediate probes."""

    name = "TA"

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        self._require_random_all(middleware)
        state = ScoreState(middleware, fn)
        best = BestK(state, k)

        done = False
        while not done:
            progressed = False
            for i in range(middleware.m):
                if middleware.exhausted(i):
                    continue
                delivered = middleware.sorted_access(i)
                if delivered is None:  # pragma: no cover - non-strict mode
                    continue
                progressed = True
                obj, score = delivered
                state.record(i, obj, score)
                best.consider(obj)
                # Early stop: the k-th best evaluated score has met the
                # threshold, so no unseen object can exceed the answer.
                if best.reached():
                    done = True
                    break
            if not progressed:
                break  # all lists exhausted: every object evaluated

        ranking = best.ranking()
        return self._result(
            ranking, middleware, threshold=ranking and state.unseen_bound()
        )
