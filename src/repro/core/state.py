"""Score bookkeeping and maximal-possible scores (Eq. 3).

:class:`ScoreState` tracks, per object, which predicate scores are known
and derives the two bounds the framework (and several baselines) reason
with:

* the **maximal-possible score** ``F_max(u)`` (Eq. 3): evaluate ``F`` with
  unknown predicate scores replaced by their upper bounds -- the last-seen
  score ``l_i`` of predicate ``i``'s sorted list (a sorted-access side
  effect, Section 3.2), or ``1.0`` where no sorted access constrains them;
* the **minimal-possible score** ``F_min(u)``: unknowns replaced by ``0``
  (used by the NRA/Stream-Combine baselines).

Both are sound exactly because ``F`` is monotone. The state also computes
the bound of the virtual ``UNSEEN`` object, ``F(l_1, ..., l_m)``, used for
no-wild-guess processing (Section 8, Figure 10).

Bounds are computed against the middleware's snapshot of ``l_1..l_m``
(:attr:`~repro.sources.middleware.Middleware.limits`), re-read after
every sorted-access attempt and every reset. An object's bound is one
call of :func:`~repro.scoring.functions.bound_evaluator`'s
``bound(row, l)`` on its live known-score row: a compiled query reads
the row and the snapshot in place, so a bound builds no list and reads
no source; other functions evaluate the composed row (docs/RUNTIME.md).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.scoring.functions import (
    ScoringFunction,
    bound_evaluator,
    scalar_evaluator,
)
from repro.sources.middleware import Middleware


class ScoreState:
    """Known scores and score bounds for every tracked object.

    The state is fed by :meth:`record` calls as accesses complete, and
    reads the middleware's current last-seen snapshot on every bound, so
    every bound it reports reflects all accesses performed so far.

    Attributes:
        bound_evaluations: ``F_max`` computations so far (calls of
            :meth:`upper_bound` and :meth:`unseen_bound`); the engine
            exports it as ``repro_engine_bound_evaluations_total``.
    """

    def __init__(self, middleware: Middleware, fn: ScoringFunction):
        if fn.arity != middleware.m:
            raise ValueError(
                f"scoring function arity {fn.arity} != middleware width "
                f"{middleware.m}"
            )
        if middleware.contracts is not None:
            # Contract mode (repro.contracts): every algorithm builds its
            # score state before its first access, so probing F here
            # guards the whole library -- a non-monotone F makes Eq. 3's
            # bounds (and thus any answer) unsound.
            middleware.contracts.probe_scoring(fn)
        self._middleware = middleware
        self._fn = fn
        self._evaluate = scalar_evaluator(fn)
        self._bound = bound_evaluator(fn)
        self._m = middleware.m
        # obj -> list of known scores (None = undetermined).
        self._known: dict[int, list[Optional[float]]] = {}
        # obj -> number of determined predicates (non-None slots).
        self._determined: dict[int, int] = {}
        # The row of an untracked object and the F_min fill; never mutated.
        self._blank: list[Optional[float]] = [None] * self._m
        self._zeros = [0.0] * self._m
        self.bound_evaluations = 0

    @property
    def fn(self) -> ScoringFunction:
        return self._fn

    @property
    def middleware(self) -> Middleware:
        return self._middleware

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def record(self, predicate: int, obj: int, score: float) -> None:
        """Record one delivered score, from either access type."""
        row = self._known.get(obj)
        if row is None:
            row = [None] * self._m
            self._known[obj] = row
        if row[predicate] is None:
            self._determined[obj] = self._determined.get(obj, 0) + 1
        row[predicate] = score

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def record_count(self, obj: int) -> int:
        """How many predicates of ``obj`` are determined (0 if untracked).

        Scores are only ever added, so the count moves exactly when the
        undetermined predicates do -- the engine's choice cache keys on it.
        """
        return self._determined.get(obj, 0)

    def known_score(self, obj: int, predicate: int) -> Optional[float]:
        """The known score of ``obj`` on ``predicate``, or ``None``."""
        row = self._known.get(obj)
        if row is None:
            return None
        return row[predicate]

    def undetermined(self, obj: int) -> list[int]:
        """Predicates of ``obj`` whose score is still unknown."""
        row = self._known.get(obj)
        if row is None:
            return list(range(self._m))
        return [i for i in range(self._m) if row[i] is None]

    def is_complete(self, obj: int) -> bool:
        """Whether every predicate score of ``obj`` is known."""
        return self._determined.get(obj, 0) == self._m

    def exact_score(self, obj: int) -> float:
        """The exact overall score ``F(u)``; requires completeness."""
        if not self.is_complete(obj):
            raise ValueError(f"object {obj} is not completely evaluated")
        return self._evaluate(self._known[obj])  # type: ignore[arg-type]

    def known_row(self, obj: int) -> Optional[list[Optional[float]]]:
        """The live known-score row of ``obj`` (``None`` if untracked).

        Read-only view for bound indexes; use :meth:`snapshot` for a copy.
        """
        return self._known.get(obj)

    def tracked(self) -> Iterable[int]:
        """Objects with at least one recorded score."""
        return self._known.keys()

    def tracked_count(self) -> int:
        """Number of objects with at least one recorded score."""
        return len(self._known)

    # ------------------------------------------------------------------
    # Bounds (Eq. 3)
    # ------------------------------------------------------------------

    def limits(self) -> list[float]:
        """The current ``l_1..l_m``: the middleware's shared snapshot.

        Do not mutate it. The list object is replaced on each refresh,
        so callers can detect a change by identity.
        """
        return self._middleware.limits

    def predicate_upper(self, obj: int, predicate: int) -> float:
        """Upper bound on one predicate score of one object.

        The known score if determined; otherwise the last-seen score of the
        predicate's sorted list (1.0 where sorted access never ran or is
        unsupported).
        """
        known = self.known_score(obj, predicate)
        if known is not None:
            return known
        return self._middleware.limits[predicate]

    def upper_bound(self, obj: int) -> float:
        """Maximal-possible score ``F_max(u)`` under the accesses so far."""
        row = self._known.get(obj)
        self.bound_evaluations += 1
        return self._bound(
            self._blank if row is None else row, self._middleware.limits
        )

    def lower_bound(self, obj: int) -> float:
        """Minimal-possible score: unknown predicate scores as ``0``."""
        row = self._known.get(obj)
        return self._bound(self._blank if row is None else row, self._zeros)

    def unseen_bound(self) -> float:
        """Bound of the virtual UNSEEN object: ``F(l_1, ..., l_m)``."""
        self.bound_evaluations += 1
        return self._evaluate(self._middleware.limits[:])

    def snapshot(self, obj: int) -> tuple[Optional[float], ...]:
        """The known-score row of ``obj`` (``None`` for undetermined)."""
        row = self._known.get(obj)
        if row is None:
            return tuple([None] * self._m)
        return tuple(row)
