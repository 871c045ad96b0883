"""Common machinery for the baseline algorithms.

Every algorithm implements :class:`TopKAlgorithm` and interacts with
sources only through the metered middleware, so cost comparisons across
algorithms are exact.

:class:`BoundTracker` bundles the score-state + lazy-heap bookkeeping that
several baselines share: it maintains the current top-k objects by
maximal-possible score (including the virtual UNSEEN stand-in under
no-wild-guesses) and offers the Theorem-1 stopping test. Baselines differ
in *scheduling*; their per-object bound reasoning is the same mathematics,
so it lives here once.

A note on ties: the NC engine resolves score ties with the library's
deterministic tie-breaker (Section 3.1 footnote), whereas the classic
baselines -- as published -- stop as soon as *a* valid top-k is proven and
may return a different member of a tie group. Tests therefore compare
baselines to the oracle by score multiset, and NC by exact ids.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.heap import LazyMaxHeap
from repro.core.state import ScoreState
from repro.core.tasks import UNSEEN
from repro.exceptions import CapabilityError
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult, RankedObject


class TopKAlgorithm(ABC):
    """A runnable top-k query-processing algorithm.

    Attributes:
        name: short label used in benchmark tables.
        requires_universe: whether the algorithm needs an enumerable object
            universe (i.e. a middleware with wild guesses allowed) --
            true for the probe-only algorithms of the "sorted impossible"
            scenario.
    """

    name: str = "?"
    requires_universe: bool = False

    @abstractmethod
    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        """Answer the top-k query, returning the ranked answer and stats."""

    # ------------------------------------------------------------------
    # Capability guards
    # ------------------------------------------------------------------

    def _require_sorted_all(self, middleware: Middleware) -> None:
        missing = [
            i for i in range(middleware.m) if not middleware.supports_sorted(i)
        ]
        if missing:
            raise CapabilityError(
                f"{self.name} requires sorted access on every predicate; "
                f"missing on {missing}"
            )

    def _require_random_all(self, middleware: Middleware) -> None:
        missing = [
            i for i in range(middleware.m) if not middleware.supports_random(i)
        ]
        if missing:
            raise CapabilityError(
                f"{self.name} requires random access on every predicate; "
                f"missing on {missing}"
            )

    def _require_universe(self, middleware: Middleware) -> None:
        if middleware.no_wild_guesses:
            raise CapabilityError(
                f"{self.name} probes objects directly and needs an enumerable "
                "universe; run it on a middleware with no_wild_guesses=False"
            )

    def _result(
        self,
        ranking: list[RankedObject],
        middleware: Middleware,
        **metadata,
    ) -> QueryResult:
        return QueryResult(
            ranking=ranking,
            stats=middleware.stats,
            algorithm=self.name,
            metadata=metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class BoundTracker:
    """Shared bound bookkeeping: score state + lazy top-k heap.

    Mirrors the NC engine's plumbing for baselines that keep their own
    loops. Objects enter the heap when first scored; the virtual UNSEEN
    entry represents undiscovered objects while any remain (no-wild-guess
    middlewares) or is absent entirely (universe known: all objects are
    seeded up front).
    """

    def __init__(self, middleware: Middleware, fn: ScoringFunction, k: int):
        self.middleware = middleware
        self.state = ScoreState(middleware, fn)
        self.k = k
        self._heap = LazyMaxHeap()
        self._in_heap: set[int] = set()
        if middleware.no_wild_guesses:
            self._heap.push(UNSEEN, self.state.unseen_bound())
            self._in_heap.add(UNSEEN)
        else:
            for obj in middleware.object_ids():
                self._heap.push(obj, self.state.upper_bound(obj))
                self._in_heap.add(obj)

    def _priority_of(self, obj: int) -> float:
        if obj == UNSEEN:
            return self.state.unseen_bound()
        return self.state.upper_bound(obj)

    def record(self, predicate: int, obj: int, score: float) -> None:
        """Fold a delivered score in; newly discovered objects join the heap."""
        self.state.record(predicate, obj, score)
        checker = self.middleware.contracts
        if checker is not None:
            checker.observe_threshold(self.state.unseen_bound())
            checker.check_interval(
                obj,
                self.state.lower_bound(obj),
                self.state.upper_bound(obj),
            )
        if obj not in self._in_heap:
            self._heap.push(obj, self.state.upper_bound(obj))
            self._in_heap.add(obj)

    def pop_top(self) -> Optional[tuple[int, float]]:
        """Pop the entry with the highest current bound (or ``None``)."""
        return self._heap.pop_current(self._priority_of)

    def push(self, obj: int) -> None:
        """(Re)insert an entry with its current bound."""
        self._heap.push(obj, self._priority_of(obj))
        self._in_heap.add(obj)

    def current_topk(self) -> list[tuple[int, float]]:
        """Current top-k ``(obj, F_max)`` snapshot (heap left intact).

        A stale UNSEEN entry is retired on pop once every object has been
        discovered, so callers never see the virtual object after it
        stopped representing anyone.
        """
        popped: list[tuple[int, float]] = []
        while len(popped) < self.k:
            entry = self._heap.pop_current(self._priority_of)
            if entry is None:
                break
            if (
                entry[0] == UNSEEN
                and self.middleware.seen_count >= self.middleware.n_objects
            ):
                self._in_heap.discard(UNSEEN)
                continue
            popped.append(entry)
        for obj, _bound in popped:
            self._heap.push(obj, self._priority_of(obj))
        return popped

    def finished(self) -> Optional[list[RankedObject]]:
        """Theorem-1 stopping test.

        Returns the final ranking when the current top-k are all complete
        (their bounds equal their exact scores), else ``None``.
        """
        top = self.current_topk()
        for obj, _bound in top:
            if obj == UNSEEN or not self.state.is_complete(obj):
                return None
        return [RankedObject(obj, bound) for obj, bound in top]

    def top_incomplete(self) -> Optional[tuple[int, float]]:
        """Highest-ranked incomplete entry of the current top-k, if any."""
        for obj, bound in self.current_topk():
            if obj == UNSEEN or not self.state.is_complete(obj):
                return obj, bound
        return None
