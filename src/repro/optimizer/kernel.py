"""Vectorized SR/G plan-cost simulation kernel (the estimator fast path).

The optimizer is simulation-bound: every candidate ``(Delta, H)`` plan is
costed by *executing* it on a sample (Section 7.3), and the Delta-search
schemes invoke that simulation hundreds of times per query. The reference
path builds a fresh :class:`~repro.sources.middleware.Middleware` -- which
re-sorts every predicate column -- and steps
:class:`~repro.core.framework.FrameworkNC` object-by-object through the
full access-layer machinery (choice-set construction, policy dispatch,
breaker gating, contract hooks). None of that machinery can change the
outcome on the estimator's clean scenario (simulated sources, no faults,
no budget, no cache), so this module replays the identical algorithm on
flat precomputed state instead:

* :class:`SampleIndex` builds the per-sample invariants **once** -- the
  per-predicate descending sort orders and sorted score arrays, the raw
  score rows, and the capability masks -- and is reused across every plan
  the search schemes submit;
* :meth:`SampleIndex.simulate` replays the Figure 6 / Figure 10 loop with
  scalar state (cursors, last-seen bounds, known-score rows, the lazy
  bound heap) and the scoring function's scalar and bound forms
  (``scalar_evaluator``, ``bound_evaluator``: a known-score row is
  bounded in place, never composed), charging the same per-predicate
  access counts the engine would.

**Exactness is by construction, not by approximation**: the kernel mirrors
the engine's decision points -- lazy-heap verify-on-pop with the
library-wide tie-breaker, the UNSEEN virtual object's no-wild-guess
lifecycle, SR depth filtering on last-seen bounds, the G schedule's probe
order, and the sorted-access side effects -- using bitwise-identical float
computations (same aggregation order as :meth:`ScoringFunction.evaluate`,
same Eq. 1 accumulation via :func:`repro.sources.stats.eq1_cost`). The
differential suite (``tests/test_optimizer_kernel.py``) asserts equality
of the full per-predicate access counts, not just total cost.

The kernel deliberately models only what the estimator exercises: fresh
simulated sources, strict mode, no retries/breaker trips/budgets/caches,
``theta = 1``. Anything richer stays on the reference engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Hashable, Optional, Sequence

from repro.data.dataset import Dataset
from repro.exceptions import UnanswerableQueryError
from repro.scoring.functions import (
    ScoringFunction,
    bound_evaluator,
    scalar_evaluator,
)
from repro.sources.cost import CostModel
from repro.sources.stats import eq1_cost

#: Sentinel id of the virtual unseen object (mirrors repro.core.tasks.UNSEEN).
_UNSEEN = -1


#: ``(lo, hi)``: per predicate, the half-open depth interval
#: ``lo_i <= delta_i < hi_i`` inside which every SR depth test of one run
#: gives the same answer (see :attr:`SimulationCounts.box`).
DepthBox = tuple[tuple[float, ...], tuple[float, ...]]


def check_depths(depths: Sequence[float], m: int) -> tuple[float, ...]:
    """The plan's depths as floats; ``ValueError`` unless m values in [0, 1]."""
    deltas = tuple(float(d) for d in depths)
    if len(deltas) != m:
        raise ValueError(
            f"plan has {len(deltas)} depths but sample width is {m}"
        )
    for i, d in enumerate(deltas):
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"depth delta_{i} must be in [0, 1], got {d}")
    return deltas


def function_key(fn: ScoringFunction) -> Hashable:
    """What stored comparison boxes key ``fn`` by.

    A compiled query's :attr:`~ScoringFunction.content_key`, so every
    compilation of one expression shares its boxes; any other function
    is keyed by the object itself (a strong reference, never its id).
    """
    key = fn.content_key
    return fn if key is None else key


@dataclass(frozen=True)
class SimulationCounts:
    """Per-predicate access counts of one simulated plan run.

    ``box`` is the run's comparison box: the replay reads the depths only
    through the SR tests ``l_i > delta_i``, so any plan with the same
    schedule whose depths lie inside the box (``lo_i <= delta_i < hi_i``
    for every ``i``) answers every test alike, takes the same steps and
    has these same counts. ``None`` when the counts carry no box. The box
    takes no part in equality.
    """

    sorted_counts: tuple[int, ...]
    random_counts: tuple[int, ...]
    box: Optional[DepthBox] = field(default=None, compare=False, repr=False)

    def cost(self, cost_model: CostModel) -> float:
        """Eq. 1 cost of the counts (same accumulation as AccessStats)."""
        return eq1_cost(cost_model, self.sorted_counts, self.random_counts)


class SampleIndex:
    """Reusable precomputed state for simulating plans over one sample.

    Building the index performs the per-sample work the reference path
    repeats on every estimate -- sorting each sorted-capable predicate
    column (descending score, ties to the higher object id, exactly
    :meth:`Dataset.sorted_order`) and materializing the score rows -- so
    a search scheme's hundreds of simulations share one O(m n log n)
    setup.

    The index is also the replay memory of its sample: it stores the
    comparison boxes of returned replays (:meth:`store_box`) per
    ``(F, k, schedule)``, and :meth:`box_answer` finds the counts of a
    plan inside one. A replay reads the cost model only through its
    capability masks and the plan's depths only through the SR tests
    ``l_i > delta_i``, so a box stored while pricing under one unit-cost
    model answers exactly under any other with the same masks: every
    search an :class:`~repro.optimizer.NCOptimizer` runs on this sample
    shares them (docs/PERF.md). ``F`` is keyed by :func:`function_key`.

    Args:
        sample: the sample database the plans are executed on.
        cost_model: the scenario's access costs; its ``inf`` pattern
            defines the capability masks, as in :meth:`Middleware.over`.
        no_wild_guesses: mirror of the real middleware's setting. ``True``
            runs the Figure 10 UNSEEN-object protocol; ``False`` seeds the
            bound heap with the whole object universe.
    """

    def __init__(
        self,
        sample: Dataset,
        cost_model: CostModel,
        no_wild_guesses: bool = True,
    ):
        if sample.m != cost_model.m:
            raise ValueError("sample width and cost model width differ")
        self.sample = sample
        self.cost_model = cost_model
        self.no_wild_guesses = no_wild_guesses
        self.n = sample.n
        self.m = sample.m
        self.sorted_capable = cost_model.sorted_capabilities
        self.random_capable = cost_model.random_capabilities
        self.sorted_preds = [i for i in range(self.m) if self.sorted_capable[i]]
        # Raw score rows as Python floats: rows[obj][pred] is the exact
        # double a random access would deliver.
        self.rows: list[list[float]] = sample.matrix.tolist()
        # Per sorted-capable predicate: object ids in delivery order and
        # the scores delivered alongside them.
        self.orders: list[Optional[list[int]]] = [None] * self.m
        self.sorted_scores: list[Optional[list[float]]] = [None] * self.m
        for i in self.sorted_preds:
            order = sample.sorted_order(i)
            self.orders[i] = order.tolist()
            self.sorted_scores[i] = sample.matrix[order, i].tolist()
        # Comparison boxes per (F key, k, schedule), oldest first, and one
        # such key per stored box in storing order, for eviction.
        self._boxes: dict[tuple, list[SimulationCounts]] = {}
        self._box_order: deque[tuple] = deque()

    @property
    def boxes_held(self) -> int:
        """Comparison boxes currently stored."""
        return len(self._box_order)

    def box_answer(
        self,
        fn: ScoringFunction,
        k: int,
        depths: tuple[float, ...],
        schedule: tuple[int, ...],
    ) -> Optional[SimulationCounts]:
        """The newest stored replay whose comparison box holds ``depths``.

        ``depths`` must already be range-checked (:func:`check_depths`):
        a box may extend past ``[0, 1]``. ``None`` when no stored replay
        of ``(fn, k, schedule)`` answers the plan.
        """
        for counts in reversed(self._boxes.get((function_key(fn), k, schedule), ())):
            lo, hi = counts.box  # type: ignore[misc]
            for a, d, b in zip(lo, depths, hi):
                if not a <= d < b:
                    break
            else:
                return counts
        return None

    def store_box(
        self,
        fn: ScoringFunction,
        k: int,
        schedule: tuple[int, ...],
        counts: SimulationCounts,
        cap: int,
    ) -> None:
        """Store a returned replay's box; at most ``cap``, oldest dropped."""
        if counts.box is None:
            return
        key = (function_key(fn), k, schedule)
        self._boxes.setdefault(key, []).append(counts)
        self._box_order.append(key)
        while len(self._box_order) > cap:
            oldest = self._box_order.popleft()
            boxes = self._boxes[oldest]
            del boxes[0]
            if not boxes:
                del self._boxes[oldest]

    def simulate(
        self,
        fn: ScoringFunction,
        k: int,
        depths: Sequence[float],
        schedule: Optional[Sequence[int]] = None,
    ) -> SimulationCounts:
        """Replay the SR/G plan ``(depths, schedule)`` and count accesses.

        Semantically identical to running ``FrameworkNC(Middleware.over(
        sample, cost_model, no_wild_guesses), fn, k, SRGPolicy(depths,
        schedule)).run()`` and reading the middleware's per-predicate
        counts -- including every tie-break and the UNSEEN bound
        semantics -- but on flat state. Raises the same
        :class:`~repro.exceptions.UnanswerableQueryError` /
        ``ValueError`` conditions the reference path would. The returned
        counts carry the run's comparison box
        (:attr:`SimulationCounts.box`).
        """
        m, n = self.m, self.n
        if fn.arity != m:
            raise ValueError(
                f"scoring function arity {fn.arity} != sample width {m}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        deltas = check_depths(depths, m)
        if schedule is None:
            schedule = range(m)
        order_h = tuple(schedule)
        if sorted(order_h) != list(range(m)):
            raise ValueError(
                f"schedule must be a permutation of 0..{m - 1}, got {order_h}"
            )
        rank = [0] * m
        for pos, pred in enumerate(order_h):
            rank[pred] = pos

        evaluate = scalar_evaluator(fn)
        bound = bound_evaluator(fn)
        rows = self.rows
        orders = self.orders
        sorted_scores = self.sorted_scores
        sorted_capable = self.sorted_capable
        random_capable = self.random_capable
        sorted_preds = self.sorted_preds

        # --- per-run state (what Middleware + ScoreState would hold) ---
        l = [1.0] * m  # last-seen bounds l_i
        cursor = [0] * m  # sorted depths
        known: list[Optional[list[Optional[float]]]] = [None] * n
        known_count = [0] * n
        seen = [False] * n
        seen_count = 0
        ever_tracked = [False] * n  # the engine's _in_heap "ever" set
        ns = [0] * m
        nr = [0] * m
        # The comparison box: the largest l_i an SR test found not above
        # delta_i, and the smallest it found above.
        lo = [0.0] * m
        hi = [math.inf] * m
        heap: list[tuple[float, int]] = []

        # F(l_1..l_m) is the bound of UNSEEN and of every undiscovered
        # object; it only moves when a sorted access moves some l_i, so
        # cache it instead of re-evaluating on every heap verification.
        unseen_bound = evaluate(l)

        def bound_of(obj: int) -> float:
            """Current F_max (Eq. 3); the UNSEEN bound for id -1."""
            if obj != _UNSEEN:
                row = known[obj]
                if row is not None:
                    return bound(row, l)
            return unseen_bound

        # --- prepare (FrameworkNC._prepare) ---
        if self.no_wild_guesses:
            if not sorted_preds:
                raise UnanswerableQueryError(
                    "no predicate supports sorted access and wild guesses "
                    "are disallowed: no object can ever be discovered"
                )
            heappush(heap, (-bound_of(_UNSEEN), -_UNSEEN))
        else:
            seed_bound = bound_of(_UNSEEN)  # F(1, ..., 1) for every object
            for obj in range(n):
                heappush(heap, (-seed_bound, -obj))
                ever_tracked[obj] = True

        def perform_sorted(i: int) -> None:
            """One sorted access on predicate ``i`` and its side effects."""
            nonlocal seen_count, unseen_bound
            pos = cursor[i]
            w = orders[i][pos]  # type: ignore[index]
            s = sorted_scores[i][pos]  # type: ignore[index]
            cursor[i] = pos + 1
            # Exhausting the list drops the bound to 0 (SimulatedSource).
            l[i] = s if cursor[i] < n else 0.0
            unseen_bound = evaluate(l)
            ns[i] += 1
            if not seen[w]:
                seen[w] = True
                seen_count += 1
            row = known[w]
            if row is None:
                row = [None] * m
                known[w] = row
            if row[i] is None:
                known_count[w] += 1
                row[i] = s
            if not ever_tracked[w]:
                heappush(heap, (-bound_of(w), -w))
                ever_tracked[w] = True

        # --- the Figure 6 / Figure 10 loop (FrameworkNC.answers) ---
        push = heappush
        pop = heappop
        confirmed = 0
        while confirmed < k:
            # LazyMaxHeap.pop_current: verify-on-pop, stale reinsertion.
            # bound_of is inlined here -- this loop dominates the hot path.
            popped_obj = None
            while heap:
                neg_priority, neg_obj = pop(heap)
                obj = -neg_obj
                row = known[obj] if obj != _UNSEEN else None
                current = unseen_bound if row is None else bound(row, l)
                if current >= -neg_priority:
                    popped_obj = obj
                    break
                push(heap, (-current, neg_obj))
            if popped_obj is None:
                break  # fewer than k candidates exist; stream ends
            obj = popped_obj
            if obj == _UNSEEN:
                if seen_count >= n:
                    # Every object discovered: the stand-in retires.
                    continue
                # UNSEEN task: sorted accesses only (Figure 10), the SR
                # depth rule picks the deepest list still above its depth,
                # falling back to the deepest available one.
                pick = -1
                pick_l = -math.inf
                fallback = -1
                fallback_l = -math.inf
                for i in sorted_preds:
                    if cursor[i] >= n:
                        continue
                    li = l[i]
                    if li > fallback_l:
                        fallback = i
                        fallback_l = li
                    if li > deltas[i]:
                        if li < hi[i]:
                            hi[i] = li
                        if li > pick_l:
                            pick = i
                            pick_l = li
                    elif li > lo[i]:
                        lo[i] = li
                if fallback == -1:
                    raise UnanswerableQueryError(
                        "unseen objects remain but no sorted access is "
                        "available to discover them"
                    )
                perform_sorted(pick if pick != -1 else fallback)
                push(heap, (-unseen_bound, -_UNSEEN))
                continue
            if known_count[obj] == m:
                confirmed += 1  # complete on pop: a confirmed answer
                continue
            # Necessary choices of the target, folded through the SR/G
            # Select: sorted-below-depth first (deepest list), then the
            # schedule's earliest undetermined probe, then any sorted.
            row = known[obj]
            pick = -1
            pick_l = -math.inf
            fallback = -1
            fallback_l = -math.inf
            probe = -1
            probe_rank = m
            for i in range(m):
                if row is not None and row[i] is not None:
                    continue
                if sorted_capable[i] and cursor[i] < n:
                    li = l[i]
                    if li > fallback_l:
                        fallback = i
                        fallback_l = li
                    if li > deltas[i]:
                        if li < hi[i]:
                            hi[i] = li
                        if li > pick_l:
                            pick = i
                            pick_l = li
                    elif li > lo[i]:
                        lo[i] = li
                if random_capable[i] and rank[i] < probe_rank:
                    probe = i
                    probe_rank = rank[i]
            if fallback == -1 and probe == -1:
                raise UnanswerableQueryError(
                    f"object {obj} has undetermined predicates but no "
                    "available access can evaluate them"
                )
            if pick != -1:
                perform_sorted(pick)
            elif probe != -1:
                score = rows[obj][probe]
                nr[probe] += 1
                if row is None:
                    row = [None] * m
                    known[obj] = row
                known_count[obj] += 1
                row[probe] = score
            else:
                perform_sorted(fallback)
            push(heap, (-bound_of(obj), -obj))
        return SimulationCounts(
            tuple(ns), tuple(nr), box=(tuple(lo), tuple(hi))
        )
