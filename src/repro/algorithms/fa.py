"""Fagin's Algorithm (FA), the original middleware top-k algorithm.

FA [Fagin 1996] targets the uniform-cost diagonal of the Figure 2 matrix:

1. **Sorted phase**: perform sorted accesses on all ``m`` lists in
   parallel (round-robin) until at least ``k`` objects have been seen in
   *every* list.
2. **Random phase**: fully evaluate every object seen anywhere, via random
   accesses for its missing scores.
3. Rank the evaluated objects; the top ``k`` are correct for any monotone
   ``F`` (an unseen object is dominated on every predicate by the ``k``
   objects of the intersection).

FA ignores costs entirely, which is exactly why the adaptive approaches
(TA and ultimately NC) dominate it; it is included as the historical
reference point.
"""

from __future__ import annotations

from repro.algorithms.base import TopKAlgorithm, sorted_round
from repro.core.state import ScoreState
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult, RankedObject, rank_key


class FA(TopKAlgorithm):
    """Fagin's Algorithm: equal-depth sorted phase, exhaustive random phase."""

    name = "FA"

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._require_sorted_all(middleware)
        self._require_random_all(middleware)
        m = middleware.m
        state = ScoreState(middleware, fn)
        seen_per_list: list[set[int]] = [set() for _ in range(m)]

        def intersection_size() -> int:
            common = seen_per_list[0]
            for seen in seen_per_list[1:]:
                common = common & seen
            return len(common)

        def record(i: int, obj: int, score: float) -> None:
            state.record(i, obj, score)
            seen_per_list[i].add(obj)

        # Sorted phase: round-robin until k objects are in the intersection
        # (or every list is exhausted, in which case everything was seen).
        while intersection_size() < k:
            if not sorted_round(middleware, record):
                break  # all lists exhausted; every object fully delivered

        # Random phase: complete every seen object.
        for obj in sorted(middleware.seen):
            for i in state.undetermined(obj):
                state.record(i, obj, middleware.random_access(i, obj))

        pairs = [(obj, state.exact_score(obj)) for obj in middleware.seen]
        pairs.sort(key=lambda pair: rank_key(pair[1], pair[0]))
        ranking = [RankedObject(obj, score) for obj, score in pairs[:k]]
        return self._result(ranking, middleware)
