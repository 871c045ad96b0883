"""Access-selection policies: the Select routine of the frameworks.

A concrete NC algorithm is Framework NC plus a Select strategy (Figure 6,
line 6). The central policy here is :class:`SRGPolicy`, implementing the
SR/G heuristics of Section 7.1 (Figure 9):

* **SR (sorted-then-random)** with per-predicate *depths*
  ``Delta = (delta_1, ..., delta_m)``: take a sorted access ``sa_i`` from
  the alternatives whenever its list has not yet descended to the depth,
  i.e. while the last-seen score satisfies ``l_i > delta_i``. Depths are
  score thresholds: ``delta_i = 1`` disables sorted access on ``i``
  (MPro-like focus on probes), ``delta_i = 0`` allows a full descent
  (NRA-like).
* **G (global schedule)** ``H``: when only random accesses remain, probe
  the predicate that comes earliest in the global predicate permutation
  ``H`` (the next unevaluated predicate of the target object according to
  ``H``).

Both parameters are what the optimizer of :mod:`repro.optimizer` searches
over. Reference policies (round-robin, random) generate other points of
the algorithm space for tests and the SR-inclusion ablation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.state import ScoreState
from repro.determinism import derive_rng
from repro.sources.middleware import Middleware
from repro.types import Access, AccessType


@dataclass
class SelectContext:
    """What a policy may look at when choosing among alternatives.

    Attributes:
        state: the full score state (bounds, known scores).
        middleware: the access layer (last-seen scores, capabilities).
        target: the object whose unsatisfied task induced the alternatives
            (:data:`repro.core.tasks.UNSEEN` for the virtual object).
    """

    state: ScoreState
    middleware: Middleware
    target: int


class SelectPolicy(ABC):
    """Strategy choosing one access out of the necessary choices."""

    @abstractmethod
    def select(self, alternatives: Sequence[Access], ctx: SelectContext) -> Access:
        """Pick one access from ``alternatives`` (must return a member)."""

    def reset(self) -> None:
        """Clear any per-run internal state (default: stateless)."""

    def describe(self) -> str:
        """Short label for reports."""
        return type(self).__name__


_SORTED = AccessType.SORTED


def _sr_select(
    alternatives: Sequence[Access],
    middleware: Middleware,
    depths: Sequence[float],
    rank: dict[int, int],
    counted: bool = False,
) -> Access:
    """The SR/G choice (Figure 9) in one pass over the alternatives.

    A sorted access on ``i`` is still *above its depth* while
    ``l_i > depths[i]`` -- or, ``counted``, while fewer than
    ``depths[i]`` sorted accesses were made on ``i``. The deepest such
    access wins: the highest last-seen score ``l_i``, ties to the lowest
    ``i``; choosing the highest ``l_i`` descends lists evenly, so equal
    depths reproduce TA/NRA-style equal-depth behaviour (Section 8.1).
    Failing that, the random access earliest in ``H`` (``rank``) wins,
    ties to the first offered; failing that, the deepest sorted access.
    Each sorted candidate's ``l_i`` is read once.
    """
    below: Optional[Access] = None
    below_l = below_i = 0.0
    deepest: Optional[Access] = None
    deepest_l = deepest_i = 0.0
    probe: Optional[Access] = None
    probe_rank = 0
    last_seen = middleware.last_seen
    for acc in alternatives:
        i = acc.predicate
        if acc.kind is _SORTED:
            l = last_seen(i)
            if deepest is None or l > deepest_l or (
                l == deepest_l and i < deepest_i
            ):
                deepest, deepest_l, deepest_i = acc, l, i
            if (
                middleware.depth(i) < depths[i] if counted else l > depths[i]
            ) and (
                below is None or l > below_l or (l == below_l and i < below_i)
            ):
                below, below_l, below_i = acc, l, i
        elif probe is None or rank[i] < probe_rank:
            probe, probe_rank = acc, rank[i]
    if below is not None:
        return below
    if probe is not None:
        return probe
    if deepest is not None:
        # Depths reached but sorted access is the only remaining means
        # (e.g. random access impossible): completeness requires taking it.
        return deepest
    raise ValueError("alternatives must not be empty")


class SRGPolicy(SelectPolicy):
    """The SR/G Select of Figure 9, parameterized by ``(Delta, H)``.

    Args:
        depths: per-predicate sorted-depth thresholds in ``[0, 1]``.
        schedule: global random-access predicate permutation ``H``;
            defaults to the identity order.

    Completeness fallback: Select must return *some* member of the
    alternatives (they are necessary choices), so when the depth rule
    filters out every sorted access and no random access is available --
    or vice versa -- the policy takes what exists.

    Ties resolve as :func:`_sr_select` sets out.
    """

    def __init__(
        self,
        depths: Sequence[float],
        schedule: Optional[Sequence[int]] = None,
    ):
        self.depths = tuple(float(d) for d in depths)
        for i, d in enumerate(self.depths):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"depth delta_{i} must be in [0, 1], got {d}")
        if schedule is None:
            schedule = range(len(self.depths))
        self.schedule = tuple(schedule)
        if sorted(self.schedule) != list(range(len(self.depths))):
            raise ValueError(
                f"schedule must be a permutation of 0..{len(self.depths) - 1}, "
                f"got {self.schedule}"
            )
        self._rank = {pred: pos for pos, pred in enumerate(self.schedule)}

    def select(self, alternatives: Sequence[Access], ctx: SelectContext) -> Access:
        return _sr_select(alternatives, ctx.middleware, self.depths, self._rank)

    def describe(self) -> str:
        depths = ",".join(f"{d:.2f}" for d in self.depths)
        order = ",".join(f"p{i}" for i in self.schedule)
        return f"SR/G(Delta=({depths}), H=({order}))"


class RoundRobinPolicy(SelectPolicy):
    """Cycle sorted accesses across predicates; probe in index order.

    A simple deterministic reference point of the algorithm space: with
    uniform costs it behaves like an equal-depth strategy.
    """

    def __init__(self) -> None:
        self._next = 0

    def select(self, alternatives: Sequence[Access], ctx: SelectContext) -> Access:
        sorted_cands = [acc for acc in alternatives if acc.is_sorted]
        if sorted_cands:
            m = ctx.middleware.m
            for offset in range(m):
                pred = (self._next + offset) % m
                for acc in sorted_cands:
                    if acc.predicate == pred:
                        self._next = (pred + 1) % m
                        return acc
        random_cands = [acc for acc in alternatives if acc.is_random]
        if random_cands:
            return min(random_cands, key=lambda acc: acc.predicate)
        raise ValueError("alternatives must not be empty")

    def reset(self) -> None:
        self._next = 0


class RandomPolicy(SelectPolicy):
    """Pick uniformly at random among the alternatives.

    Samples arbitrary members of the NC algorithm space; used by the
    SR-inclusion ablation (is the best SR/G plan competitive with random
    non-SR plans?) and by property tests (any policy must still terminate
    with the correct answer -- correctness is the framework's job, cost is
    the policy's).

    Args:
        seed: seed of the policy-owned generator (ignored when ``rng`` is
            given).
        rng: an injected, caller-owned generator. The caller controls the
            stream, so :meth:`reset` leaves it untouched; seed-constructed
            policies re-seed on reset for exact replay.
    """

    def __init__(self, seed: int = 0, rng: Optional[random.Random] = None):
        self._seed = seed
        self._injected = rng
        self._rng = derive_rng(rng if rng is not None else seed)

    def select(self, alternatives: Sequence[Access], ctx: SelectContext) -> Access:
        return self._rng.choice(list(alternatives))

    def reset(self) -> None:
        if self._injected is None:
            self._rng = derive_rng(self._seed)

    def describe(self) -> str:
        return f"Random(seed={self._seed})"


class RankDepthPolicy(SelectPolicy):
    """SR/G variant with *rank* depths instead of score thresholds.

    The paper parameterizes depth by the score reached (``l_i > delta_i``),
    while TA-style analyses count objects accessed (its footnote on
    "depth"). This policy takes the latter view: keep descending list
    ``i`` while fewer than ``d_i`` sorted accesses have been performed on
    it. Functionally interchangeable with :class:`SRGPolicy` on a fixed
    database; the difference shows up in *transfer* -- a score threshold
    means the same thing on a sample and on the full database, whereas a
    rank depth must be rescaled by ``n/s`` and distorts under skew (the
    depth-semantics ablation measures this).
    """

    def __init__(
        self,
        depth_counts: Sequence[int],
        schedule: Optional[Sequence[int]] = None,
    ):
        self.depth_counts = tuple(int(d) for d in depth_counts)
        for i, d in enumerate(self.depth_counts):
            if d < 0:
                raise ValueError(f"depth count d_{i} must be >= 0, got {d}")
        if schedule is None:
            schedule = range(len(self.depth_counts))
        self.schedule = tuple(schedule)
        if sorted(self.schedule) != list(range(len(self.depth_counts))):
            raise ValueError(
                f"schedule must be a permutation of 0..{len(self.depth_counts) - 1}, "
                f"got {self.schedule}"
            )
        self._rank = {pred: pos for pos, pred in enumerate(self.schedule)}

    def select(self, alternatives: Sequence[Access], ctx: SelectContext) -> Access:
        """Sorted while under the per-list count, then probe by schedule."""
        return _sr_select(
            alternatives,
            ctx.middleware,
            self.depth_counts,
            self._rank,
            counted=True,
        )

    def describe(self) -> str:
        """Short label for reports."""
        depths = ",".join(str(d) for d in self.depth_counts)
        order = ",".join(f"p{i}" for i in self.schedule)
        return f"RankSR/G(D=({depths}), H=({order}))"
