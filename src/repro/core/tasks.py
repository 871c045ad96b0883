"""The scoring-task view: Definition 1 and Theorem 1, standalone.

A top-k query decomposes into one *scoring task* per object (Definition 1):
for an eventual answer, gather its exact score; for a non-answer, gather
partial scores tight enough to prove it cannot beat the k-th answer.
Theorem 1 turns this ex-post definition into an online test:

1. any **incomplete** object among the current top-k by maximal-possible
   score has an unsatisfied task;
2. once the current top-k are **all complete**, every task is satisfied and
   they are the final answer.

This module implements the test by direct enumeration over the score
state. The engine in :mod:`repro.core.framework` uses an equivalent (but
incremental) lazy-heap formulation; the tests cross-check the two. Under
no-wild-guess processing the virtual UNSEEN object (id
:data:`UNSEEN`) stands in for all undiscovered objects with bound
``F(l_1, ..., l_m)`` and is never complete.
"""

from __future__ import annotations

from repro.core.state import ScoreState
from repro.types import rank_key

#: Sentinel object id of the virtual "unseen" object (Figure 10). A real
#: object id is always >= 0; -1 makes UNSEEN lose every ranking tie.
UNSEEN: int = -1


def _candidates(state: ScoreState) -> list[tuple[int, float]]:
    """All live ranking candidates: tracked objects plus UNSEEN/universe."""
    middleware = state.middleware
    entries: list[tuple[int, float]] = []
    if middleware.no_wild_guesses:
        for obj in state.tracked():
            entries.append((obj, state.upper_bound(obj)))
        if middleware.seen_count < middleware.n_objects:
            entries.append((UNSEEN, state.unseen_bound()))
    else:
        for obj in middleware.object_ids():
            entries.append((obj, state.upper_bound(obj)))
    return entries


def current_topk(state: ScoreState, k: int) -> list[tuple[int, float]]:
    """The current top-k ``(obj, F_max)`` by maximal-possible score.

    Brute-force reference implementation of the ``K_P`` of Theorem 1
    (including the UNSEEN virtual object when applicable). Returns fewer
    than ``k`` entries only when fewer candidates exist.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    entries = _candidates(state)
    entries.sort(key=lambda entry: rank_key(entry[1], entry[0]))
    return entries[:k]


def unsatisfied_objects(state: ScoreState, k: int) -> list[int]:
    """Objects whose scoring task is provably unsatisfied (Theorem 1.1).

    These are the incomplete members of the current top-k, in rank order.
    UNSEEN appears as :data:`UNSEEN` and counts as incomplete.
    """
    result = []
    for obj, _bound in current_topk(state, k):
        if obj == UNSEEN or not state.is_complete(obj):
            result.append(obj)
    return result


def all_tasks_satisfied(state: ScoreState, k: int) -> bool:
    """Theorem 1.2 stopping test: current top-k all completely evaluated."""
    return not unsatisfied_objects(state, k)
