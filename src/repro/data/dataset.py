"""The ground-truth score matrix behind simulated sources.

A :class:`Dataset` holds ``n`` objects x ``m`` predicates of scores in
``[0, 1]`` (Section 3.1). It also provides the brute-force top-k oracle used
as the correctness reference for every algorithm in the library, applying
the library-wide deterministic tie-breaker (higher object id wins ties, as
in the paper's worked examples).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.scoring.functions import ScoringFunction
from repro.types import RankedObject, rank_key


class Dataset:
    """An immutable ``n x m`` matrix of predicate scores.

    Object ids are the row indices ``0..n-1``. Scores must lie in
    ``[0, 1]``; construction validates this so downstream bound reasoning
    can trust the invariant.
    """

    def __init__(self, scores: np.ndarray | Sequence[Sequence[float]]):
        matrix = np.asarray(scores, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"scores must be 2-D (n x m), got shape {matrix.shape}")
        if matrix.size == 0:
            raise ValueError("dataset must contain at least one object and predicate")
        if np.isnan(matrix).any():
            raise ValueError("dataset scores must not contain NaN")
        if matrix.min() < 0.0 or matrix.max() > 1.0:
            raise ValueError("dataset scores must lie in [0, 1]")
        self._scores = matrix
        self._scores.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of objects."""
        return self._scores.shape[0]

    @property
    def m(self) -> int:
        """Number of predicates."""
        return self._scores.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The read-only underlying score matrix."""
        return self._scores

    def score(self, obj: int, predicate: int) -> float:
        """Exact score of ``obj`` on ``predicate``."""
        return float(self._scores[obj, predicate])

    def object_scores(self, obj: int) -> tuple[float, ...]:
        """All predicate scores of ``obj`` as a tuple."""
        return tuple(float(v) for v in self._scores[obj])

    def column(self, predicate: int) -> np.ndarray:
        """The score column of one predicate (read-only view)."""
        return self._scores[:, predicate]

    def sorted_order(self, predicate: int) -> np.ndarray:
        """Object ids in descending score order on ``predicate``.

        Score ties are broken by the higher object id first, consistent with
        :func:`repro.types.rank_key`, so sorted lists are deterministic.
        """
        column = self._scores[:, predicate]
        ids = np.arange(self.n)
        # lexsort keys: last key is primary. Sort by -score, then -oid.
        order = np.lexsort((-ids, -column))
        return order

    def overall_scores(self, fn: ScoringFunction) -> np.ndarray:
        """Vector of overall query scores ``F(u)`` for every object."""
        if fn.arity != self.m:
            raise ValueError(
                f"scoring function arity {fn.arity} != dataset width {self.m}"
            )
        return fn.evaluate_batch(self._scores)

    def topk(self, fn: ScoringFunction, k: int) -> list[RankedObject]:
        """Brute-force top-k oracle (the correctness reference).

        Returns ``min(k, n)`` objects, best first, under the deterministic
        tie-breaker.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        overall = self.overall_scores(fn)
        entries = sorted(
            range(self.n), key=lambda obj: rank_key(float(overall[obj]), obj)
        )
        return [RankedObject(obj, float(overall[obj])) for obj in entries[:k]]

    def sample(self, size: int, rng: np.random.Generator) -> "Dataset":
        """Row subsample of ``size`` objects (without replacement if possible).

        Used by the optimizer to build true-distribution samples
        (Section 7.3). Sampled rows become a fresh dataset with new ids
        ``0..size-1``.
        """
        if size < 1:
            raise ValueError(f"sample size must be >= 1, got {size}")
        replace = size > self.n
        rows = rng.choice(self.n, size=size, replace=replace)
        return Dataset(self._scores[rows].copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(n={self.n}, m={self.m})"


def dataset1() -> Dataset:
    """Dataset 1 of the paper (Figure 3), reconstructed.

    Three restaurant objects with two predicates ``(p_1 = rating,
    p_2 = close)``. The OCR of Figure 3 is partially garbled; this
    reconstruction is chosen to satisfy every constraint the surviving text
    states:

    * sorted access on ``p_1`` returns scores ``.7, .65, .6`` in that order;
    * the top-1 under ``F = min`` is object ``u_3`` with score ``.7``
      (Example 6);
    * the Figure 7 trace ``sa_1, ra_2(u_3)`` suffices to answer the query;
    * the Figure 8 trace descends ``p_1`` fully before one random access.

    Rows are ``u_1, u_2, u_3`` = objects ``0, 1, 2``.
    """
    return Dataset(
        [
            [0.60, 0.90],  # u1
            [0.65, 0.80],  # u2
            [0.70, 0.70],  # u3
        ]
    )
