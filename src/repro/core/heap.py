"""A lazy max-heap for monotonically nonincreasing priorities.

Theorem 1 requires the "current top-k objects ranked by maximal-possible
score" at every iteration. Sorted-access side effects lower the bounds of
*many* objects at once (every object unevaluated on the accessed
predicate), so eagerly rekeying a priority queue would cost O(n) per
access. Because ``F_max`` only ever *decreases* as accesses accumulate, a
lazy heap is sound instead: pop the stored maximum, recompute its current
priority, and trust it only if unchanged -- a stale (higher) stored value
can only over-rank an entry, never hide the true maximum below a fresher
one.

Ties are broken by higher object id first (the library-wide deterministic
tie-breaker); the virtual UNSEEN object uses id ``-1`` so it loses every
tie against a real object, which is what lets seen objects "surface" past
it (Figure 10).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class LazyMaxHeap:
    """Max-heap over ``(priority, obj)`` with verify-on-pop semantics.

    The caller contracts that an object's true priority never increases
    between pushes. Each object must have at most one live entry; the
    push/pop discipline of the framework guarantees this.
    """

    def __init__(self) -> None:
        # heapq is a min-heap; store (-priority, -obj) so that pops yield
        # the highest priority, ties broken by the higher object id.
        self._entries: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, obj: int, priority: float) -> None:
        """Insert an entry with its current priority."""
        heapq.heappush(self._entries, (-priority, -obj))

    def pop_current(
        self, priority_of: Callable[[int], float]
    ) -> Optional[tuple[int, float]]:
        """Pop the entry with the highest *current* priority.

        ``priority_of`` recomputes an object's up-to-date priority. Stale
        entries (whose stored priority exceeds the current one) are
        reinserted with the fresh value and the search continues. Returns
        ``(obj, priority)`` or ``None`` when the heap is empty.
        """
        while self._entries:
            neg_priority, neg_obj = heapq.heappop(self._entries)
            obj = -neg_obj
            stored = -neg_priority
            current = priority_of(obj)
            if current >= stored:
                # Not stale (recomputation can only match or, under exotic
                # float noise, exceed; treat >= as verified to guarantee
                # progress).
                return obj, current
            heapq.heappush(self._entries, (-current, neg_obj))
        return None
