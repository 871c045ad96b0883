"""Shared value types: accesses, rankings, query results.

These small immutable records form the vocabulary used across the whole
library -- the access model of Section 3.2 and the query output of
Section 3.1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.sources.stats import AccessStats


class AccessType(enum.Enum):
    """The two access kinds of the middleware cost model (Section 3.2)."""

    SORTED = "sorted"
    RANDOM = "random"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Access:
    """A single physical access: ``sa_i`` or ``ra_i(u)``.

    Attributes:
        kind: sorted or random.
        predicate: the predicate index ``i`` (0-based).
        obj: the target object for a random access; ``None`` for sorted
            accesses, which do not name an object (the source returns the
            next one in its order).
    """

    kind: AccessType
    predicate: int
    obj: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is AccessType.SORTED and self.obj is not None:
            raise ValueError("sorted access does not target a specific object")
        if self.kind is AccessType.RANDOM and self.obj is None:
            raise ValueError("random access must target an object")

    @staticmethod
    def sorted(predicate: int) -> "Access":
        """The ``sa_i`` access descriptor.

        Descriptors are frozen, so one per predicate is built and shared
        by every caller.
        """
        try:
            return _SORTED_ACCESSES[predicate]
        except KeyError:
            access = _SORTED_ACCESSES[predicate] = Access(
                AccessType.SORTED, predicate
            )
            return access

    @staticmethod
    def random(predicate: int, obj: int) -> "Access":
        """Build an ``ra_i(u)`` access descriptor."""
        return Access(AccessType.RANDOM, predicate, obj)

    @property
    def is_sorted(self) -> bool:
        return self.kind is AccessType.SORTED

    @property
    def is_random(self) -> bool:
        return self.kind is AccessType.RANDOM

    def __str__(self) -> str:
        if self.is_sorted:
            return f"sa_{self.predicate}"
        return f"ra_{self.predicate}({self.obj})"


#: The interned ``sa_i`` descriptors of :meth:`Access.sorted`.
_SORTED_ACCESSES: dict[int, Access] = {}


@dataclass(frozen=True)
class RankedObject:
    """One entry of a top-k answer: an object id with its exact query score."""

    obj: int
    score: float

    def __iter__(self) -> Iterator[float]:
        """Allow ``obj, score = ranked`` unpacking."""
        yield self.obj
        yield self.score


@dataclass
class QueryResult:
    """The output of a top-k algorithm run.

    Attributes:
        ranking: the top-k objects in rank order (best first), each with its
            exact overall score -- or, for entries listed in
            ``uncertainty``, the proven lower bound of a bound-only answer.
        stats: the access accounting of the run (Eq. 1 bookkeeping).
        algorithm: a human-readable label of the algorithm that produced it.
        metadata: free-form extra information (e.g. the plan parameters a
            cost-based run used).
        partial: whether source outages forced a degraded, bound-only
            answer (docs/FAULTS.md); exact results leave this ``False``.
        uncertainty: for partial results, the proven score interval
            ``(lower, upper)`` of every ranked object whose exact score
            could not be established; empty for exact results.
    """

    ranking: list[RankedObject]
    stats: "AccessStats"
    algorithm: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)
    partial: bool = False
    uncertainty: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def objects(self) -> list[int]:
        """The ranked object ids, best first."""
        return [entry.obj for entry in self.ranking]

    @property
    def scores(self) -> list[float]:
        """The exact scores aligned with :attr:`objects`."""
        return [entry.score for entry in self.ranking]

    @property
    def is_exact(self) -> bool:
        """Whether every reported score is the object's exact ``F`` value."""
        return not self.partial

    def score_interval(self, obj: int) -> tuple[float, float]:
        """The proven ``(lower, upper)`` interval of a ranked object.

        Exactly-scored objects collapse to a zero-width interval at their
        score; bound-only objects report their degradation interval.
        """
        if obj in self.uncertainty:
            return self.uncertainty[obj]
        for entry in self.ranking:
            if entry.obj == obj:
                return (entry.score, entry.score)
        raise KeyError(f"object {obj} is not part of this ranking")

    def total_cost(self) -> float:
        """Total access cost of the run under its cost model (Eq. 1)."""
        return self.stats.total_cost()

    def __len__(self) -> int:
        return len(self.ranking)


def rank_key(score: float, obj: int) -> tuple[float, int]:
    """Sort key implementing the library-wide deterministic tie-breaker.

    Objects are ordered by descending score; score ties are broken by the
    *higher* object id first (the tie-breaker used by the paper's worked
    examples, Section 6.1). The returned tuple is meant for ascending sorts,
    i.e. ``sorted(items, key=lambda it: rank_key(it.score, it.obj))`` yields
    best-first order.
    """
    return (-score, -obj)


def rank_objects(pairs: Sequence[tuple[int, float]], k: int) -> list[RankedObject]:
    """Rank ``(obj, score)`` pairs best-first and keep the top ``k``."""
    ordered = sorted(pairs, key=lambda pair: rank_key(pair[1], pair[0]))
    return [RankedObject(obj, score) for obj, score in ordered[:k]]
