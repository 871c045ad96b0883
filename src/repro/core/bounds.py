"""Bound indexes: the current top objects by ``F_max`` (Theorem 1).

Theorem 1 has the NC engine find the highest-ranked object by
maximal-possible score before every access. Both indexes here answer that
with one contract -- :meth:`push` an object (optionally at a bound no lower
than its current one), :meth:`update` it when a
delivery changed its known scores while it sits in the index, and
:meth:`pop_current` the entry of highest *current* ``F_max`` (ties to the
higher object id; the virtual ``UNSEEN`` object, id ``-1``, loses every
tie). A pop returns ``(obj, F_max)`` with ``F_max`` bitwise the float
``F`` itself returns from the score state, so both indexes hand the
engine the same objects with the same floats:

* :class:`LazyBoundIndex` serves any monotone ``F``: a
  :class:`~repro.core.heap.LazyMaxHeap` that re-verifies a popped entry
  against its current bound and re-pushes it when stale.
* :class:`SaturatingBoundIndex` serves min-shaped ``F``
  (:attr:`~repro.scoring.functions.ScoringFunction.min_terms`), where the
  lazy heap's work grows with the size of score ties: under
  ``min(w_0 p_0, w_1 p_1)`` every object whose known term is at or above
  the unknown term ``w_1 l_1`` ties at that value, and each drop of
  ``l_1`` re-verifies the whole tie one pop at a time.

The saturating index keeps one *group* per unknown-predicate mask ``U``
(over the predicates ``F`` references). An object's known part ``c_u`` --
the minimum of its known terms -- is fixed while it sits in a group; the
unknown part ``g_U`` -- the minimum of the unknown terms at the current
``l`` -- is shared by the whole group, so ``F_max(u) = min(c_u, g_U)``.
Each group holds an *unsaturated* heap keyed ``(c, id)`` for entries with
``c < g_U`` (their bound is ``c``) and a *saturated* heap keyed by id
alone for entries with ``c >= g_U`` (their bound is ``g_U``). ``g_U``
only falls, so an entry moves from the first heap to the second at most
once, and a pop inspects one top per group instead of every tied entry.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Optional, Union

from repro.core.heap import LazyMaxHeap
from repro.core.state import ScoreState


class LazyBoundIndex:
    """Verify-on-pop ranking by ``F_max`` for any monotone ``F``."""

    #: Group bounds computed so far (none: every bound is a call of F).
    group_evaluations = 0

    def __init__(self, state: ScoreState):
        self._state = state
        self._heap = LazyMaxHeap()

    def push(self, obj: int, bound: Optional[float] = None) -> None:
        """Insert ``obj`` (not currently in the index) at its bound.

        ``bound`` may stand in for the current one when it is no lower:
        a bound ``obj`` was popped with earlier, say. Verify-on-pop then
        re-evaluates the entry before trusting it, so every pop returns
        the same ``(obj, F_max)`` as after a push at the current bound.
        """
        if bound is None:
            bound = self._state.upper_bound(obj)
        self._heap.push(obj, bound)

    def update(self, obj: int) -> None:
        """Nothing to do: a stale entry is re-verified when popped."""

    def pop_current(self) -> Optional[tuple[int, float]]:
        """Pop ``(obj, F_max)`` of the highest current bound, or ``None``."""
        return self._heap.pop_current(self._state.upper_bound)


class _Group:
    """The live entries sharing one unknown-predicate mask."""

    __slots__ = ("mask", "bound", "dirty", "unsaturated", "saturated")

    def __init__(self, mask: int):
        self.mask = mask
        # g_U may only fall, so +inf is a sound bound before the first
        # computation: it saturates exactly the c = +inf entries, which
        # every group with an unknown predicate saturates anyway.
        self.bound = math.inf
        self.dirty = True
        self.unsaturated: list[tuple[float, int]] = []  # (-c, -obj)
        self.saturated: list[int] = []  # -obj


class SaturatingBoundIndex:
    """Ranking by ``F_max`` for min-shaped ``F`` through saturating groups.

    Args:
        state: the engine's score state (known scores and the ``l``
            snapshot).
        terms: ``F``'s per-predicate terms ``(i, w)``, as exposed by
            :attr:`~repro.scoring.functions.ScoringFunction.min_terms`.

    Attributes:
        group_evaluations: group bounds ``g_U`` computed so far; a bound
            is recomputed only when the ``l`` of one of its unknown
            predicates moved.
    """

    def __init__(
        self,
        state: ScoreState,
        terms: tuple[tuple[int, Optional[float]], ...],
    ):
        self._state = state
        referenced = sorted({predicate for predicate, _weight in terms})
        bits = {predicate: 1 << j for j, predicate in enumerate(referenced)}
        self._terms = [
            (predicate, weight, bits[predicate]) for predicate, weight in terms
        ]
        self._bits = [(predicate, bits[predicate]) for predicate in referenced]
        self._full = (1 << len(referenced)) - 1
        self._groups: dict[int, _Group] = {}
        # Live objects -> their group's mask. An entry whose object is no
        # longer live under that mask is stale and skipped: masks only
        # shrink, so an object never re-enters a group it has left.
        self._mask_of: dict[int, int] = {}
        self._limits: Optional[list[float]] = None
        self.group_evaluations = 0

    def _place(self, obj: int) -> tuple[int, float]:
        """``obj``'s unknown mask and known part ``c`` (min known term)."""
        row = self._state.known_row(obj)
        if row is None:
            return self._full, math.inf
        mask = 0
        known = math.inf
        for predicate, weight, bit in self._terms:
            score = row[predicate]
            if score is None:
                mask |= bit
                continue
            term = score if weight is None else weight * score
            if term < known:
                known = term
        return mask, known

    def _enter(self, obj: int, mask: int, known: float) -> None:
        group = self._groups.get(mask)
        if group is None:
            group = self._groups[mask] = _Group(mask)
        self._mask_of[obj] = mask
        if known >= group.bound:
            heappush(group.saturated, -obj)
        else:
            heappush(group.unsaturated, (-known, -obj))

    def push(self, obj: int, bound: Optional[float] = None) -> None:
        """Insert ``obj`` (not currently in the index); ``bound`` is unused.

        An entry's place follows from its known scores alone, so a hint
        has nothing to save here.
        """
        mask, known = self._place(obj)
        self._enter(obj, mask, known)

    def update(self, obj: int) -> None:
        """Move a live ``obj`` whose delivered score changed its mask."""
        old = self._mask_of.get(obj)
        if old is None:
            return
        mask, known = self._place(obj)
        if mask != old:
            self._enter(obj, mask, known)

    def _sync_limits(self) -> None:
        """Mark the groups whose unknown predicates' ``l`` moved."""
        limits = self._state.limits()
        previous = self._limits
        if limits is previous:
            return
        self._limits = limits
        if previous is None:
            return
        moved = 0
        for predicate, bit in self._bits:
            if limits[predicate] != previous[predicate]:
                moved |= bit
        if moved:
            for mask, group in self._groups.items():
                if mask & moved:
                    group.dirty = True

    def _group_bound(self, mask: int) -> float:
        """``g_U``: the minimum of the unknown terms at the current ``l``."""
        self.group_evaluations += 1
        limits = self._limits
        assert limits is not None
        bound = math.inf
        for predicate, weight, bit in self._terms:
            if mask & bit:
                term = limits[predicate]
                if weight is not None:
                    term = weight * term
                if term < bound:
                    bound = term
        return bound

    def _top(self, group: _Group) -> Optional[tuple[float, int]]:
        """The group's best live ``(F_max, obj)`` after saturating it."""
        unsaturated = group.unsaturated
        saturated = group.saturated
        if not unsaturated and not saturated:
            return None
        if group.dirty:
            group.bound = self._group_bound(group.mask)
            group.dirty = False
        bound = group.bound
        mask = group.mask
        mask_of = self._mask_of
        while unsaturated:
            neg_known, neg_obj = unsaturated[0]
            if mask_of.get(-neg_obj) != mask:
                heappop(unsaturated)
            elif -neg_known >= bound:
                heappop(unsaturated)
                heappush(saturated, neg_obj)
            else:
                break
        while saturated and mask_of.get(-saturated[0]) != mask:
            heappop(saturated)
        if saturated:
            return bound, -saturated[0]
        if unsaturated:
            neg_known, neg_obj = unsaturated[0]
            return -neg_known, -neg_obj
        return None

    def pop_current(self) -> Optional[tuple[int, float]]:
        """Pop ``(obj, F_max)`` of the highest current bound, or ``None``."""
        self._sync_limits()
        best: Optional[tuple[float, int]] = None
        best_group: Optional[_Group] = None
        for group in self._groups.values():
            top = self._top(group)
            if top is not None and (best is None or top > best):
                best, best_group = top, group
        if best is None or best_group is None:
            return None
        obj = best[1]
        if best_group.saturated:
            heappop(best_group.saturated)
        else:
            heappop(best_group.unsaturated)
        del self._mask_of[obj]
        value = best[0]
        if not value:
            # min(c, g) equals F in value; a nonzero float equal in value
            # is the same float. A zero may differ in sign from the one F
            # returns (its first minimal term), so F itself decides it.
            return obj, self._state.upper_bound(obj)
        return obj, value


BoundIndex = Union[LazyBoundIndex, SaturatingBoundIndex]


def bound_index(state: ScoreState) -> BoundIndex:
    """The index for ``state``'s scoring function.

    Min-shaped functions (those exposing ``min_terms``) get the
    saturating index; every other ``F`` gets the lazy heap.
    """
    terms = state.fn.min_terms
    if terms is None:
        return LazyBoundIndex(state)
    return SaturatingBoundIndex(state, terms)
