"""Scoring function implementations.

The framework only ever relies on two properties of a scoring function
(Section 3.1):

* it maps an ``m``-vector of predicate scores in ``[0, 1]`` to a single
  score, and
* it is monotone: raising any input cannot lower the output. Monotonicity
  is what makes maximal-possible-score reasoning (Eq. 3, Theorem 1) sound.

Functions additionally expose a numeric partial derivative used by the
Quick-Combine / Stream-Combine baselines' access indicator; the paper notes
that derivative-based heuristics break down for non-smooth functions like
``min``, which is exactly the behaviour the benchmarks exercise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

#: ``bound(r, l)``: ``F`` of the row reading ``r[i]``, or ``l[i]`` where
#: ``r[i] is None`` (see :attr:`ScoringFunction.bound`).
BoundFunction = Callable[[Sequence[Optional[float]], Sequence[float]], float]


class ScoringFunction(ABC):
    """A monotone aggregate ``F: [0,1]^m -> [0,1]``.

    Subclasses implement :meth:`evaluate`; the base class provides input
    validation, callable sugar, a numeric partial derivative fallback, and
    a row-batched :meth:`evaluate_batch`.

    Attributes:
        arity: the number of predicate inputs ``m``.
        name: a short human-readable label used in reports.
        batch_exact: whether :meth:`evaluate_batch` is guaranteed
            *bitwise-identical* to a Python loop over :meth:`evaluate`.
            Ordering-only aggregates (min/max/median) vectorize exactly;
            sum-based ones do not (NumPy's pairwise summation rounds
            differently from ``math.fsum``), so exactness-critical callers
            (the brute-force oracle, the simulation kernel) consult this
            flag before taking a vectorized shortcut.
        min_terms: structure of a *min-shaped* ``F``, or ``None``. When
            set, ``F(s)`` equals, in value, the minimum over the terms
            ``(i, w)`` of ``s[i]`` (``w is None``) or ``w * s[i]``. The
            engine's bound index (docs/RUNTIME.md) uses it to rank
            objects by ``F_max`` without re-evaluating ``F`` per object.
            Set by :class:`Min` and by compiled min-shaped queries; a
            plain :class:`Monotone` never sets it.
        bound: a direct form of ``F`` over a partly known row, or
            ``None``. ``bound(r, l)`` is bitwise ``F`` of the row reading
            ``r[i]``, or ``l[i]`` where ``r[i] is None`` -- Eq. 3's
            ``F_max`` with ``l`` the last-seen bounds, ``F_min`` with
            ``l`` all zeros -- without building that row. Set by compiled
            queries; read it through :func:`bound_evaluator`.
    """

    batch_exact: bool = True  # the default implementation *is* the loop
    min_terms: Optional[tuple[tuple[int, Optional[float]], ...]] = None
    bound: Optional[BoundFunction] = None

    def __init__(self, arity: int, name: str):
        if arity < 1:
            raise ValueError(f"scoring function arity must be >= 1, got {arity}")
        self.arity = arity
        self.name = name

    @abstractmethod
    def evaluate(self, scores: Sequence[float]) -> float:
        """Aggregate a full vector of ``m`` predicate scores."""

    def __call__(self, scores: Sequence[float]) -> float:
        if len(scores) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} scores, got {len(scores)}"
            )
        return self.evaluate(scores)

    def _validate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.arity:
            raise ValueError(
                f"{self.name} expects an (n, {self.arity}) matrix, got "
                f"shape {arr.shape}"
            )
        return arr

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        """Aggregate every row of an ``(n, m)`` score matrix at once.

        The base implementation loops :meth:`evaluate` row by row (exact
        by construction); subclasses with a NumPy closed form override it
        and declare their exactness via ``batch_exact``.
        """
        arr = self._validate_batch(matrix)
        return np.array([self.evaluate(row) for row in arr.tolist()])

    def partial_derivative(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        """Partial derivative ``dF/dx_index`` at ``point``.

        Validates the index, then dispatches to :meth:`_partial`, whose
        default is a one-sided numeric difference clipped to the unit
        cube; subclasses with a closed form (weighted sums, min/max
        subgradients) override ``_partial``.
        """
        if not 0 <= index < self.arity:
            raise IndexError(f"predicate index {index} out of range")
        return self._partial(index, point, eps)

    def _partial(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        lo = list(point)
        hi = list(point)
        hi[index] = min(1.0, hi[index] + eps)
        lo[index] = max(0.0, lo[index] - eps)
        span = hi[index] - lo[index]
        if span <= 0.0:
            return 0.0
        return (self.evaluate(hi) - self.evaluate(lo)) / span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(arity={self.arity})"

    def __str__(self) -> str:
        return self.name


class Min(ScoringFunction):
    """``F = min(x_1, ..., x_m)`` -- the fuzzy conjunction of the paper's Q1."""

    def __init__(self, arity: int):
        super().__init__(arity, f"min[{arity}]")
        self.min_terms = tuple((i, None) for i in range(arity))

    def evaluate(self, scores: Sequence[float]) -> float:
        return min(scores)

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        # Pure comparisons: bitwise-identical to the scalar loop.
        return self._validate_batch(matrix).min(axis=1)

    def _partial(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        # Subgradient: 1 on the (unique) argmin coordinate, else 0. On ties
        # we charge the first argmin, matching the numeric fallback's bias.
        argmin = min(range(self.arity), key=lambda i: point[i])
        return 1.0 if index == argmin else 0.0


class Max(ScoringFunction):
    """``F = max(x_1, ..., x_m)`` -- fuzzy disjunction."""

    def __init__(self, arity: int):
        super().__init__(arity, f"max[{arity}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        return max(scores)

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        # Pure comparisons: bitwise-identical to the scalar loop.
        return self._validate_batch(matrix).max(axis=1)

    def _partial(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        argmax = max(range(self.arity), key=lambda i: point[i])
        return 1.0 if index == argmax else 0.0


class Avg(ScoringFunction):
    """``F = (x_1 + ... + x_m) / m`` -- the paper's symmetric scenario S1."""

    def __init__(self, arity: int):
        super().__init__(arity, f"avg[{arity}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        return math.fsum(scores) / self.arity

    #: NumPy's pairwise summation rounds differently from ``math.fsum``.
    batch_exact = False

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        return self._validate_batch(matrix).sum(axis=1) / self.arity

    def _partial(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        return 1.0 / self.arity


class WeightedSum(ScoringFunction):
    """``F = sum(w_i * x_i)`` with nonnegative weights summing to 1.

    Weights are normalized on construction so the output stays in
    ``[0, 1]``.
    """

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise ValueError("WeightedSum requires at least one weight")
        if any(w < 0 for w in weights):
            raise ValueError("WeightedSum weights must be nonnegative")
        total = math.fsum(weights)
        if total <= 0:
            raise ValueError("WeightedSum weights must not all be zero")
        self.weights = tuple(w / total for w in weights)
        label = ",".join(f"{w:.2f}" for w in self.weights)
        super().__init__(len(weights), f"wsum[{label}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        return math.fsum(w * s for w, s in zip(self.weights, scores))

    #: The dot product's accumulation differs from ``math.fsum``.
    batch_exact = False

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        return self._validate_batch(matrix) @ np.asarray(self.weights)

    def _partial(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        return self.weights[index]


class Product(ScoringFunction):
    """``F = x_1 * ... * x_m`` -- probabilistic conjunction."""

    def __init__(self, arity: int):
        super().__init__(arity, f"prod[{arity}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        out = 1.0
        for s in scores:
            out *= s
        return out

    #: ``np.prod`` may reassociate the multiplication chain.
    batch_exact = False

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        return self._validate_batch(matrix).prod(axis=1)

    def _partial(
        self, index: int, point: Sequence[float], eps: float = 1e-6
    ) -> float:
        out = 1.0
        for i, s in enumerate(point):
            if i != index:
                out *= s
        return out


class Geometric(ScoringFunction):
    """``F = (x_1 * ... * x_m) ** (1/m)`` -- the geometric mean."""

    def __init__(self, arity: int):
        super().__init__(arity, f"geo[{arity}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        out = 1.0
        for s in scores:
            out *= s
        return out ** (1.0 / self.arity)

    #: Inherits ``np.prod``'s reassociation (see :class:`Product`).
    batch_exact = False

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        return self._validate_batch(matrix).prod(axis=1) ** (1.0 / self.arity)


class Median(ScoringFunction):
    """``F = median(x_1, ..., x_m)`` (lower median for even arity).

    Monotone but neither smooth nor strictly increasing -- a useful stress
    case for derivative-based baselines.
    """

    def __init__(self, arity: int):
        super().__init__(arity, f"median[{arity}]")

    def evaluate(self, scores: Sequence[float]) -> float:
        ordered = sorted(scores)
        return ordered[(self.arity - 1) // 2]

    def evaluate_batch(self, matrix: np.ndarray | Sequence) -> np.ndarray:
        # Sorting only selects, never computes: exact like min/max.
        arr = np.sort(self._validate_batch(matrix), axis=1)
        return arr[:, (self.arity - 1) // 2]


class Monotone(ScoringFunction):
    """Wrap an arbitrary user callable as a scoring function.

    The wrapper does not (and cannot exhaustively) verify monotonicity; use
    :func:`repro.scoring.check_monotone` to randomized-test a candidate
    before trusting it in a query.

    Attributes:
        function: the wrapped callable; calling it directly is exactly
            :meth:`evaluate` without the method dispatch.
    """

    def __init__(
        self,
        fn: Callable[[Sequence[float]], float],
        arity: int,
        name: str = "custom",
    ):
        super().__init__(arity, name)
        self.function = fn

    def evaluate(self, scores: Sequence[float]) -> float:
        return self.function(scores)


def scalar_evaluator(
    fn: ScoringFunction,
) -> Callable[[Sequence[float]], float]:
    """A fast scalar form of ``fn`` with bitwise-identical results.

    Hot loops (the engine's score state, the plan-cost kernel) evaluate
    ``F`` on small composed rows many times per query; for the library's
    closed-form functions the aggregate can be computed without the
    method-dispatch and arity-check overhead of :meth:`ScoringFunction.
    __call__`, *replicating its exact float operation order* so decisions
    (and therefore access counts) cannot drift. A :class:`Monotone` --
    every compiled query -- hands over its wrapped callable itself.
    Unknown subclasses fall back to ``fn.evaluate``.
    """
    kind = type(fn)
    if kind is Min:
        return min
    if kind is Max:
        return max
    if kind is Avg:
        arity = fn.arity
        return lambda vals: math.fsum(vals) / arity
    if kind is WeightedSum:
        weights = fn.weights  # type: ignore[attr-defined]
        return lambda vals: math.fsum(w * s for w, s in zip(weights, vals))
    if kind is Monotone:
        return fn.function  # type: ignore[attr-defined]
    return fn.evaluate


def bound_evaluator(fn: ScoringFunction) -> BoundFunction:
    """``bound(r, l)``: ``fn`` of the row reading ``r[i]``, else ``l[i]``.

    Every Eq. 3 bound in the engine and the plan-cost replay goes through
    this: ``r`` is an object's known-score row (``None`` where
    undetermined) and ``l`` the values standing in for the unknowns. A
    compiled query hands over its generated :attr:`ScoringFunction.bound`,
    which reads the row in place; any other function gets the composed
    row evaluated by :func:`scalar_evaluator`. Either way the result is
    bitwise that evaluator's on the composed row.
    """
    if fn.bound is not None:
        return fn.bound
    evaluate = scalar_evaluator(fn)
    return lambda row, fill: evaluate(
        [value if score is None else score for score, value in zip(row, fill)]
    )
