"""Common machinery for the baseline algorithms.

Every algorithm implements :class:`TopKAlgorithm` and interacts with
sources only through the metered middleware, so cost comparisons across
algorithms are exact.

The baselines of the TA/NRA/CA family differ only in *scheduling*: which
access to perform next. Every step two of them share is written here
once, so each baseline module holds its schedule and nothing else:

* :class:`BoundTracker` -- the score state and the NC engine's own bound
  index (:func:`repro.core.bounds.bound_index`): the current top-k by
  maximal-possible score, the virtual ``UNSEEN`` object of Figure 10,
  and both halting tests (Theorem 1's exact-score test, and the classic
  set-only test of NRA and Stream-Combine);
* :func:`sorted_round` -- the equal-depth round of FA, CA and NRA;
* :class:`BestK` -- TA's and Quick-Combine's exhaustive probing of each
  newly seen object, its best-k buffer and the threshold stop;
* :class:`DropIndicator` -- the derivative x drop-rate list indicator of
  Quick-, Stream- and SR-Combine, with each list's trail of ``l_i``;
* :func:`best_probe` -- the expected-score probe gain of Upper and
  SR-Combine.

A note on ties: the NC engine resolves score ties with the library's
deterministic tie-breaker (Section 3.1 footnote), whereas the classic
baselines -- as published -- stop as soon as *a* valid top-k is proven and
may return a different member of a tie group. Tests therefore compare
baselines to the oracle by score multiset, and NC by exact ids.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

from repro.core.bounds import bound_index
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
    """Shared bound bookkeeping: the score state and the engine's bound index.

    Mirrors the NC engine's plumbing for baselines that keep their own
    loops. Objects enter the index when first scored; the virtual UNSEEN
    entry represents undiscovered objects while any remain (no-wild-guess
    middlewares) or is absent entirely (universe known: all objects are
    seeded up front). Min-shaped ``F`` ranks through the saturating
    index, every other ``F`` through the lazy heap
    (:func:`~repro.core.bounds.bound_index`).
    """

    def __init__(self, middleware: Middleware, fn: ScoringFunction, k: int):
        self.middleware = middleware
        self.state = ScoreState(middleware, fn)
        self.k = k
        self._index = bound_index(self.state)
        # Every real object ever pushed into the index (live or not).
        self._tracked: set[int] = set()
        if middleware.no_wild_guesses:
            self._index.push(UNSEEN)
        else:
            for obj in middleware.object_ids():
                self._index.push(obj)
                self._tracked.add(obj)

    def record(self, predicate: int, obj: int, score: float) -> None:
        """Fold a delivered score in; newly discovered objects join the index."""
        self.state.record(predicate, obj, score)
        checker = self.middleware.contracts
        if checker is not None:
            checker.observe_threshold(self.state.unseen_bound())
            checker.check_interval(
                obj,
                self.state.lower_bound(obj),
                self.state.upper_bound(obj),
            )
        if obj in self._tracked:
            self._index.update(obj)
        else:
            self._index.push(obj)
            self._tracked.add(obj)

    def pop_top(self) -> Optional[tuple[int, float]]:
        """Pop the entry with the highest current bound (or ``None``).

        UNSEEN is retired on pop once every object has been discovered,
        so callers never see the virtual object after it stopped
        representing anyone.
        """
        middleware = self.middleware
        while True:
            entry = self._index.pop_current()
            if (
                entry is None
                or entry[0] != UNSEEN
                or middleware.seen_count < middleware.n_objects
            ):
                return entry

    def push(self, obj: int) -> None:
        """(Re)insert a popped entry with its current bound."""
        self._index.push(obj)

    def current_topk(self) -> list[tuple[int, float]]:
        """Current top-k ``(obj, F_max)`` snapshot (index left intact)."""
        popped: list[tuple[int, float]] = []
        while len(popped) < self.k:
            entry = self.pop_top()
            if entry is None:
                break
            popped.append(entry)
        for obj, bound in popped:
            self._index.push(obj, bound)
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

    def set_finished(self) -> Optional[list[RankedObject]]:
        """Classic NRA halting: k lower bounds dominate all other uppers.

        Returns the k tracked objects with the largest lower bounds,
        reported at those bounds, once no other object -- tracked or
        still unseen -- can rank above the lowest of them; else ``None``.
        """
        state = self.state
        tracked = list(state.tracked())
        if len(tracked) < self.k:
            return None
        best = heapq.nlargest(
            self.k, tracked, key=lambda obj: (state.lower_bound(obj), obj)
        )
        best_set = set(best)
        floor_key = min((state.lower_bound(obj), obj) for obj in best)
        floor = floor_key[0]
        # Every competitor (tracked outside the k, plus unseen objects)
        # must be bounded by the floor; ties resolve via the
        # deterministic order.
        middleware = self.middleware
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

    def top_incomplete(self) -> Optional[tuple[int, float]]:
        """Highest-ranked incomplete entry of the current top-k, if any."""
        for obj, bound in self.current_topk():
            if obj == UNSEEN or not self.state.is_complete(obj):
                return obj, bound
        return None


def sorted_round(
    middleware: Middleware, record: Callable[[int, int, float], None]
) -> bool:
    """One equal-depth round: a sorted access on each live list in turn.

    Each delivery is handed to ``record(predicate, obj, score)``. Returns
    whether any list delivered, ``False`` once every list is exhausted.
    """
    progressed = False
    for i in range(middleware.m):
        if middleware.exhausted(i):
            continue
        delivered = middleware.sorted_access(i)
        if delivered is None:  # pragma: no cover - non-strict mode
            continue
        progressed = True
        obj, score = delivered
        record(i, obj, score)
    return progressed


class BestK:
    """TA's exhaustive probing: the k best completely evaluated objects.

    :meth:`consider` completes a newly seen object by random access and
    keeps it if it ranks among the k best so far; :meth:`reached` is TA's
    early stop against the threshold ``T = F(l_1, ..., l_m)``.
    """

    def __init__(self, state: ScoreState, k: int):
        self.state = state
        self.k = k
        # Min-heap of (score, obj): the root is the current k-th best.
        self._best: list[tuple[float, int]] = []
        self._evaluated: set[int] = set()

    def consider(self, obj: int) -> None:
        """Complete ``obj`` (once) and keep it if it is among the k best."""
        if obj in self._evaluated:
            return
        state = self.state
        middleware = state.middleware
        for i in state.undetermined(obj):
            state.record(i, obj, middleware.random_access(i, obj))
        self._evaluated.add(obj)
        key = (state.exact_score(obj), obj)
        if len(self._best) < self.k:
            heapq.heappush(self._best, key)
        elif key > self._best[0]:
            heapq.heapreplace(self._best, key)

    def reached(self) -> bool:
        """Whether the k-th best evaluated score meets the threshold.

        Then no unseen object can exceed the answer.
        """
        return (
            len(self._best) >= self.k
            and self._best[0][0] >= self.state.unseen_bound()
        )

    def ranking(self) -> list[RankedObject]:
        """The k best evaluated objects, best first."""
        ordered = sorted(self._best, key=lambda key: (-key[0], -key[1]))
        return [RankedObject(obj, score) for score, obj in ordered]


class DropIndicator:
    """The Quick-Combine family's runtime list indicator.

    ``Delta_i = dF/dx_i(l) * (l_i[d - w] - l_i[d])``: the scoring
    function's sensitivity to predicate ``i`` at the last-seen vector,
    times the drop ``l_i`` showed over its last ``w`` sorted accesses
    (the *window*). Each list keeps the trail of its ``l_i`` values,
    starting at ``1.0``; :meth:`descend` extends it.
    """

    def __init__(self, middleware: Middleware, fn: ScoringFunction, window: int):
        self._middleware = middleware
        self._fn = fn
        self._window = window
        self._trails: list[list[float]] = [[1.0] for _ in range(middleware.m)]
        self._tick = 0

    def best(
        self,
        live: Sequence[int],
        cost: Optional[Callable[[int], float]] = None,
    ) -> Optional[tuple[float, int]]:
        """``(Delta_i, i)`` of the live list with the highest indicator.

        With ``cost``, each indicator is taken per unit of ``cost(i)``
        (free lists with a positive indicator value ``inf``). Ties go to
        the lowest ``i``; ``None`` when no indicator is positive.
        """
        middleware = self._middleware
        point = [middleware.last_seen(j) for j in range(middleware.m)]
        best = None
        for i in live:
            trail = self._trails[i]
            back = min(self._window, len(trail) - 1)
            drop = trail[-1 - back] - trail[-1] if back else 1.0 - trail[-1]
            value = self._fn.partial_derivative(i, point) * max(drop, 0.0)
            if cost is not None:
                unit = cost(i)
                if unit > 0:
                    value /= unit
                elif value > 0:
                    value = math.inf
            if value > 0 and (best is None or value > best[0]):
                best = (value, i)
        return best

    def round_robin(self, live: Sequence[int]) -> int:
        """The next live list in turn: the fallback of a flat indicator."""
        predicate = live[self._tick % len(live)]
        self._tick += 1
        return predicate

    def descend(self, predicate: int) -> Optional[tuple[int, float]]:
        """Sorted access on ``predicate``, extending its trail."""
        delivered = self._middleware.sorted_access(predicate)
        self._trails[predicate].append(self._middleware.last_seen(predicate))
        return delivered


def best_probe(
    state: ScoreState,
    obj: int,
    expected: Sequence[float],
    candidates: Sequence[int],
) -> Optional[tuple[float, int]]:
    """``(gain, i)`` of the probe of ``obj`` with the best expected gain.

    The gain of probing predicate ``i`` is the drop of ``obj``'s bound
    when its unknown score is replaced by the expected score
    ``expected[i]``, per unit of random-access cost (a free probe gains
    ``inf`` unless the bound would rise). Candidates are taken in
    ascending order, ties to the lowest ``i``; ``None`` without any.
    """
    middleware = state.middleware
    fn = state.fn
    current = [state.predicate_upper(obj, i) for i in range(middleware.m)]
    upper = fn(current)
    best = None
    for i in candidates:
        swapped = list(current)
        swapped[i] = expected[i]
        drop = upper - fn(swapped)
        cost = middleware.cost_model.random_cost(i)
        if cost > 0:
            value = drop / cost
        else:
            value = math.inf if drop >= 0 else drop
        if best is None or value > best[0]:
            best = (value, i)
    return best
