"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.data.dataset import Dataset, dataset1
from repro.data.generators import uniform
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware


@pytest.fixture
def ds1() -> Dataset:
    """The paper's Dataset 1 (Figure 3)."""
    return dataset1()


@pytest.fixture
def small_uniform() -> Dataset:
    """A small deterministic uniform dataset (n=50, m=2)."""
    return uniform(50, 2, seed=123)


@pytest.fixture
def medium_uniform() -> Dataset:
    """A medium uniform dataset (n=300, m=3)."""
    return uniform(300, 3, seed=7)


@pytest.fixture
def min2() -> Min:
    return Min(2)


@pytest.fixture
def avg2() -> Avg:
    return Avg(2)


def mw_over(dataset: Dataset, cost_model: CostModel | None = None, **kwargs) -> Middleware:
    """Fresh middleware with a default uniform cost model."""
    if cost_model is None:
        cost_model = CostModel.uniform(dataset.m)
    return Middleware.over(dataset, cost_model, **kwargs)


def score_multiset(ranking) -> list[float]:
    """Rounded score multiset for tie-insensitive answer comparison."""
    scores = [entry.score for entry in ranking]
    return sorted(round(score, 9) for score in scores)


def assert_valid_topk(result, dataset: Dataset, fn, k: int) -> None:
    """The returned ranking is *a* correct top-k with exact scores.

    Checks: right length, scores exact for the returned objects, ranking
    order consistent, and score multiset equal to the oracle's (ties may
    swap members between algorithms; see algorithms.base docs).
    """
    oracle = dataset.topk(fn, k)
    assert len(result.ranking) == len(oracle)
    for entry in result.ranking:
        true = fn(dataset.object_scores(entry.obj))
        assert entry.score == pytest.approx(true, abs=1e-9), (
            f"object {entry.obj}: reported {entry.score}, true {true}"
        )
    scores = [entry.score for entry in result.ranking]
    assert scores == sorted(scores, reverse=True)
    assert score_multiset(result.ranking) == score_multiset(oracle)


def library_classes(base: type) -> list[type]:
    """Every subclass of ``base`` defined at module level anywhere in ``repro``.

    The walk imports each module, so a new class is covered the moment it
    exists; nothing has to be added to a list by hand. Sorted by
    qualified name.
    """
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it would start the CLI
        module = importlib.import_module(info.name)
        for member in vars(module).values():
            if (
                inspect.isclass(member)
                and issubclass(member, base)
                and member.__module__ == module.__name__
            ):
                found[f"{module.__name__}.{member.__qualname__}"] = member
    return [found[name] for name in sorted(found)]
