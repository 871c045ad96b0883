"""Delta-search schemes (Section 7.2).

The SR/G reduction turns plan search into optimization over the
``m``-dimensional depth cube ``Delta in [0,1]^m`` (given a schedule ``H``).
Three schemes, as in the paper:

* :class:`NaiveGrid` -- mesh the cube and estimate every grid point; the
  exhaustive baseline, exact on its own grid but exponential in ``m``;
* :class:`Strategies` -- query-driven: a particular scoring function
  implies a particular promising family (Example 11: *parallel* diagonal
  configurations for ``avg``-like functions, *focused* single-predicate
  configurations for ``min``-like ones); search only that family, then
  refine locally;
* :class:`HillClimb` -- generic informed search: multi-restart coordinate
  hill climbing with a shrinking step, the scheme the paper's experiments
  adopt as most effective.

Every scheme returns a :class:`SearchResult` carrying the chosen depths,
their estimated cost, and how many estimator runs the search consumed.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.determinism import derive_rng
from repro.exceptions import OptimizationError
from repro.optimizer.estimator import CostEstimator
from repro.scoring.functions import Avg, Max, Min, ScoringFunction, WeightedSum


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a Delta search."""

    depths: tuple[float, ...]
    cost: float
    evaluations: int


class SearchScheme(ABC):
    """A strategy for exploring the depth cube."""

    @abstractmethod
    def search(self, estimator: CostEstimator) -> SearchResult:
        """Find a low-cost depth vector under ``estimator``."""

    def describe(self) -> str:
        """Short scheme label for reports."""
        return type(self).__name__


def _grid(resolution: int) -> list[float]:
    if resolution < 2:
        raise OptimizationError(f"grid resolution must be >= 2, got {resolution}")
    return [float(v) for v in np.linspace(0.0, 1.0, resolution)]


class NaiveGrid(SearchScheme):
    """Exhaustive grid search (Scheme Naive).

    Estimates every point of a ``resolution^m`` mesh. ``max_points`` guards
    against accidental blow-ups for larger ``m``; raise it deliberately
    when an exact grid optimum is worth the cost (e.g. as the quality
    reference in the scheme-comparison experiment).

    ``coarse_resolution`` turns on a coarse-to-fine refinement: the cube
    is first meshed at the coarse resolution, then only the box within
    one coarse cell of the coarse winner is re-meshed at the full
    resolution. The default (``None``) estimates the full fine mesh and
    remains exact on its own grid; refinement trades that exhaustiveness
    for far fewer simulations, which is the point of the grid scheme only
    ever being a baseline.
    """

    def __init__(
        self,
        resolution: int = 5,
        max_points: int = 20000,
        coarse_resolution: int | None = None,
    ):
        if coarse_resolution is not None and not (
            2 <= coarse_resolution < resolution
        ):
            raise OptimizationError(
                f"coarse_resolution must satisfy 2 <= coarse < resolution, "
                f"got coarse={coarse_resolution} resolution={resolution}"
            )
        self.resolution = resolution
        self.max_points = max_points
        self.coarse_resolution = coarse_resolution

    def _scan(
        self,
        estimator: CostEstimator,
        points: list[tuple[float, ...]],
        best_depths: tuple[float, ...] | None,
        best_cost: float,
    ) -> tuple[tuple[float, ...] | None, float]:
        if len(points) > self.max_points:
            raise OptimizationError(
                f"grid of {len(points)} points exceeds max_points="
                f"{self.max_points}; use HillClimb or Strategies for this m"
            )
        for point in points:
            cost = estimator.estimate(point)
            if cost < best_cost:
                best_cost = cost
                best_depths = point
        return best_depths, best_cost

    def search(self, estimator: CostEstimator) -> SearchResult:
        m = estimator.sample.m
        axis = _grid(self.resolution)
        start_runs = estimator.runs
        best_depths: tuple[float, ...] | None = None
        best_cost = float("inf")
        if self.resolution**m > self.max_points and (
            self.coarse_resolution is None
            or self.coarse_resolution**m > self.max_points
        ):
            raise OptimizationError(
                f"grid of {self.resolution}^{m} points exceeds max_points="
                f"{self.max_points}; use HillClimb or Strategies for this m"
            )
        if self.coarse_resolution is None:
            points = list(itertools.product(axis, repeat=m))
            best_depths, best_cost = self._scan(
                estimator, points, best_depths, best_cost
            )
        else:
            coarse_axis = _grid(self.coarse_resolution)
            coarse = list(itertools.product(coarse_axis, repeat=m))
            best_depths, best_cost = self._scan(
                estimator, coarse, best_depths, best_cost
            )
            assert best_depths is not None
            # Fine pass over the box within one coarse cell of the
            # winner; the memo makes re-submitting the winner itself free.
            cell = 1.0 / (self.coarse_resolution - 1)
            sub_axes = [
                [v for v in axis if abs(v - best_depths[i]) <= cell + 1e-12]
                for i in range(m)
            ]
            fine = list(itertools.product(*sub_axes))
            best_depths, best_cost = self._scan(
                estimator, fine, best_depths, best_cost
            )
        assert best_depths is not None
        return SearchResult(best_depths, best_cost, estimator.runs - start_runs)

    def describe(self) -> str:
        """Short scheme label for reports."""
        if self.coarse_resolution is not None:
            return (
                f"Naive(grid={self.resolution},"
                f"coarse={self.coarse_resolution})"
            )
        return f"Naive(grid={self.resolution})"


class Strategies(SearchScheme):
    """Query-driven candidate families (Scheme Strategies).

    ``strategy='auto'`` inspects the scoring function: min-like functions
    get the *focused* family (descend one predicate, probe the rest),
    avg-like ones the *parallel* (equal-depth diagonal) family, anything
    else both. After the family scan, one pass of local coordinate
    refinement sharpens the winner.
    """

    def __init__(
        self,
        strategy: str = "auto",
        resolution: int = 5,
        refine_step: float = 0.1,
    ):
        if strategy not in ("auto", "parallel", "focused", "both"):
            raise OptimizationError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.resolution = resolution
        self.refine_step = refine_step

    def _families(self, fn: ScoringFunction) -> list[str]:
        if self.strategy == "auto":
            if isinstance(fn, (Min, Max)):
                return ["focused"]
            if isinstance(fn, (Avg, WeightedSum)):
                return ["parallel"]
            return ["parallel", "focused"]
        if self.strategy == "both":
            return ["parallel", "focused"]
        return [self.strategy]

    def _candidates(self, m: int, families: list[str]) -> list[tuple[float, ...]]:
        axis = _grid(self.resolution)
        points: list[tuple[float, ...]] = []
        if "parallel" in families:
            points.extend(tuple([d] * m) for d in axis)
        if "focused" in families:
            for i in range(m):
                for d in axis:
                    point = [1.0] * m
                    point[i] = d
                    points.append(tuple(point))
        # Always include the two capability corners as sanity anchors.
        points.append(tuple([0.0] * m))
        points.append(tuple([1.0] * m))
        return list(dict.fromkeys(points))

    def search(self, estimator: CostEstimator) -> SearchResult:
        m = estimator.sample.m
        families = self._families(estimator.fn)
        start_runs = estimator.runs
        best_depths: tuple[float, ...] | None = None
        best_cost = float("inf")
        for point in self._candidates(m, families):
            cost = estimator.estimate(point)
            if cost < best_cost:
                best_cost, best_depths = cost, point
        assert best_depths is not None
        # One local refinement pass around the family winner.
        improved = True
        while improved:
            improved = False
            for i in range(m):
                for direction in (-self.refine_step, self.refine_step):
                    candidate = list(best_depths)
                    candidate[i] = min(1.0, max(0.0, candidate[i] + direction))
                    cost = estimator.estimate(candidate)
                    if cost < best_cost:
                        best_cost, best_depths = cost, tuple(candidate)
                        improved = True
        return SearchResult(best_depths, best_cost, estimator.runs - start_runs)

    def describe(self) -> str:
        """Short scheme label for reports."""
        return f"Strategies({self.strategy})"


class HillClimb(SearchScheme):
    """Multi-restart coordinate hill climbing (Scheme HClimb).

    From each start point, repeatedly move to the best improving neighbour
    along one coordinate (+-step); when stuck, halve the step until it
    falls below ``min_step``. Starts combine the diagonal midpoint, the
    all-ones corner (probe-only), the all-zeros corner (scan-only), and
    ``restarts`` random points -- the paper's remedy against local minima.

    Restart points are drawn from a scheme-owned generator seeded by
    ``seed``, or from an injected caller-owned ``rng`` (which then spans
    every subsequent :meth:`search` call on this instance).

    :meth:`search` additionally accepts ``warm_starts`` -- depth vectors
    believed to be near-optimal (e.g. the winning plan of a previous
    query on the same scenario). They are climbed *first*, before the
    canonical starts, so a good warm start turns the whole search into
    cache hits around one basin; they never replace the canonical
    starts, so a misleading warm start costs extra evaluations but
    cannot worsen the result.
    """

    def __init__(
        self,
        restarts: int = 3,
        step: float = 0.25,
        min_step: float = 0.04,
        seed: int = 0,
        rng: random.Random | None = None,
    ):
        if restarts < 0:
            raise OptimizationError("restarts must be >= 0")
        if not 0 < min_step <= step <= 1:
            raise OptimizationError("need 0 < min_step <= step <= 1")
        self.restarts = restarts
        self.step = step
        self.min_step = min_step
        self.seed = seed
        self._rng = rng

    def _starts(self, m: int) -> list[tuple[float, ...]]:
        # A fresh seed-derived generator per search keeps repeated
        # searches on one scheme instance identical; an injected one is
        # caller-owned and advances across searches.
        rng = self._rng if self._rng is not None else derive_rng(self.seed)
        starts = [
            tuple([0.5] * m),
            tuple([1.0] * m),
            tuple([0.0] * m),
        ]
        for _ in range(self.restarts):
            starts.append(tuple(rng.random() for _ in range(m)))
        return starts

    def _climb(
        self, estimator: CostEstimator, start: tuple[float, ...]
    ) -> tuple[tuple[float, ...], float]:
        m = len(start)
        current = start
        current_cost = estimator.estimate(current)
        step = self.step
        while step >= self.min_step:
            moved = True
            while moved:
                moved = False
                best_neighbour = None
                best_cost = current_cost
                # Every +-step neighbour is evaluated before moving; the
                # first-best scan keeps coordinate/direction tie-breaking.
                for i in range(m):
                    for direction in (-step, step):
                        value = min(1.0, max(0.0, current[i] + direction))
                        if value == current[i]:
                            continue
                        candidate = list(current)
                        candidate[i] = value
                        cost = estimator.estimate(candidate)
                        if cost < best_cost:
                            best_cost = cost
                            best_neighbour = tuple(candidate)
                if best_neighbour is not None:
                    current, current_cost = best_neighbour, best_cost
                    moved = True
            step /= 2.0
        return current, current_cost

    def search(
        self,
        estimator: CostEstimator,
        warm_starts: Sequence[Sequence[float]] | None = None,
    ) -> SearchResult:
        m = estimator.sample.m
        start_runs = estimator.runs
        best_depths: tuple[float, ...] | None = None
        best_cost = float("inf")
        starts: list[tuple[float, ...]] = []
        if warm_starts is not None:
            for ws in warm_starts:
                point = tuple(min(1.0, max(0.0, float(d))) for d in ws)
                if len(point) == m and point not in starts:
                    starts.append(point)
        for start in self._starts(m):
            if start not in starts:
                starts.append(start)
        for start in starts:
            depths, cost = self._climb(estimator, start)
            if cost < best_cost:
                best_cost, best_depths = cost, depths
        assert best_depths is not None
        return SearchResult(best_depths, best_cost, estimator.runs - start_runs)

    def describe(self) -> str:
        """Short scheme label for reports."""
        return f"HClimb(restarts={self.restarts})"
