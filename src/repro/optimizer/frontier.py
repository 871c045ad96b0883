"""Plans-as-columns frontier costing (the estimator's batch fast path).

The E21 kernel (:mod:`repro.optimizer.kernel`) replays one plan at a time
on flat scalar state; a search scheme, however, submits whole *frontiers*
-- a grid mesh, a hill-climb neighbour ring, a permutation batch -- whose
plans are independent by construction. This module costs an entire
frontier in one lockstep numpy pass over the precomputed
:class:`~repro.optimizer.kernel.SampleIndex`:

* **plans are columns**: every piece of per-run state (last-seen bounds
  ``l``, sorted cursors, known-score masks, access counts, candidate
  bounds) becomes a ``(P, ...)`` array over the ``P`` plans, and one
  iteration of the Figure 6 / Figure 10 loop advances *all* plans at
  once;
* **selection picks the cheapest exact strategy per scoring function**:
  the engine pops a lazy max-heap whose tie order is higher object id
  first, with the UNSEEN virtual object losing every tie. The kernel
  reproduces that pop with whichever bound-maintenance strategy the
  function's algebra affords:

  - ``min`` (:class:`~repro.scoring.functions.Min`): every state change
    lowers the affected composite cells and ``min`` is monotone in each
    argument, so a dense bound matrix is maintained *incrementally* with
    ``np.minimum`` scatter/column updates and selection is a single
    argmax -- no recomputation at all;
  - ``eager`` (:class:`~repro.scoring.functions.Max` and sums of arity
    <= 2): composites are kept current column-wise and bounds are
    re-evaluated in full each iteration -- the evaluation is one or two
    ufunc ops, cheaper than any bookkeeping that would avoid it;
  - ``sum_bb`` (sums of arity >= 3 when wild guesses are disallowed):
    an *approximate* running weighted row sum is maintained
    incrementally by signed deltas, and a bracketing slack (relative
    ``2**-36`` plus an absolute term, with any final division folded
    into the scales) certifies deflated/inflated bounds. When the
    candidate's deflated bound strictly dominates every rival's
    inflated bound no exact arithmetic is needed -- strict dominance
    means no tie survives, so the tie-break rules are vacuous. Near
    ties drop to exact evaluation (:func:`exact_rowsum`) of just the
    contested cells, and only unresolved rows pay an exact whole-row
    pass. Accumulated drift is bounded far below the slack, so the
    slack only affects slow-path frequency, never an answer;
  - ``lazy`` (remaining sums): a *stale-high* bound matrix is written
    only on pool entry/exit, selection argmaxes over it, recomputes the
    current bound of just the selected cells, accepts on equality and
    otherwise refreshes the row's top cells in place -- the vectorized
    form of the heap's verify-on-pop economy.

  In every mode the bound layout puts object ``n-1-j`` in column ``j``
  (UNSEEN merged last), so ``argmax``'s first-maximum rule reproduces
  higher-id-wins with UNSEEN losing every tie;
* **the G phase is masked**: plans disagree about which predicate to
  touch, so the per-iteration action of each plan (SR descent, scheduled
  probe, fallback, confirmation, UNSEEN retirement) is classified with
  boolean masks over ``(P, m)`` arrays and executed with fancy-indexed
  scatter updates -- each plan touches at most one access per iteration,
  so every scatter hits unique ``(plan, ...)`` cells;
* **float parity is by construction**: bound evaluation reuses the exact
  operation set of :func:`~repro.optimizer.kernel.scalar_evaluator` --
  ``min``/``max`` are order-independent selections, and the ``fsum``
  based aggregates (:class:`~repro.scoring.functions.Avg`,
  :class:`~repro.scoring.functions.WeightedSum`) go through
  :func:`exact_rowsum`, a vectorized correctly-rounded row sum that is
  bitwise-equal to ``math.fsum`` per row. Scoring functions without such
  a form (``Product``, ``Geometric``, arbitrary subclasses) are simply
  not supported here -- the estimator falls back per-plan and says so in
  counters, never silently.

Two structural tricks keep lockstep wall-clock flat as plans finish
(on top of the per-function strategies above):

* **row compaction**: whenever at least half the frontier has finished,
  all state arrays are sliced down to the surviving rows, so iteration
  cost tracks the number of *live* plans rather than the original batch
  size;
* **hybrid tail**: lockstep wall-clock is governed by the *slowest* plan
  in the frontier; once the number of unfinished plans drops to
  ``tail_threshold``, the stragglers are finished by fresh
  :meth:`SampleIndex.simulate` runs -- the scalar oracle itself, so the
  tail is trivially bitwise-identical.

Error handling is per-plan: a plan that the engine would reject
(:class:`~repro.exceptions.UnanswerableQueryError`, plan validation
errors) yields that exception as its outcome instead of aborting the
batch; the estimator layer replays the serial-order semantics (cost
every plan before the first failing one, then raise).

The differential suite (``tests/test_optimizer_frontier.py``) pins the
whole contract: per-predicate access counts, Eq. 1 costs, and error
classes equal to the scalar kernel across capability patterns, scoring
functions, and wild-guess settings.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import UnanswerableQueryError
from repro.optimizer.kernel import SampleIndex, SimulationCounts
from repro.scoring.functions import Avg, Max, Min, ScoringFunction, WeightedSum

#: One frontier plan: depth vector + optional schedule (``None`` = identity).
PlanSpec = tuple[Sequence[float], Optional[Sequence[int]]]

#: Per-plan result: the access counts, or the exception the engine would raise.
PlanOutcome = Union[SimulationCounts, Exception]

_NEG_INF = float("-inf")


def _two_sum(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's branch-free error-free transform: ``x + y == s + e``."""
    s = x + y
    t = s - x
    e = (x - (s - t)) + (y - t)
    return s, e


def _exact_sum3(rows: np.ndarray) -> np.ndarray:
    """Correctly-rounded 3-term row sums (Boldo-Melquiond round-to-odd).

    Two error-free transformations reduce ``a + b + c`` to ``th + tl +
    ul`` exactly; the tail ``tl + ul`` is then rounded *to odd* (if the
    addition was inexact and landed on an even mantissa, nudge one ulp
    toward the discarded remainder), after which the final
    round-to-nearest-even addition ``th + v`` yields the correctly
    rounded triple sum -- the Boldo-Melquiond theorem. Round-to-odd is
    emulated with an integer view of the mantissa's parity bit plus
    ``np.nextafter``.
    """
    a = rows[..., 0]
    b = rows[..., 1]
    c = rows[..., 2]
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    z, zl = _two_sum(tl, ul)
    z = np.ascontiguousarray(z)
    even = (z.view(np.int64) & np.int64(1)) == 0
    fix = (zl != 0.0) & even
    nudged = np.nextafter(z, np.copysign(np.inf, zl))
    v = np.where(fix, nudged, z)
    return th + v


def exact_rowsum(rows: np.ndarray) -> np.ndarray:
    """Correctly-rounded row sums, bitwise-equal to ``math.fsum`` per row.

    ``np.sum`` uses pairwise accumulation whose rounding differs from
    ``fsum``'s single final rounding, so it cannot replicate the scalar
    evaluator's ``Avg``/``WeightedSum`` bounds. Short rows get closed
    forms: one addition is exact for ``m == 2``, and ``m == 3`` uses the
    Boldo-Melquiond round-to-odd scheme (two error-free transforms plus
    one parity fixup -- a handful of vector ops, no data-dependent
    loops). Wider rows vectorize the same two-stage computation ``fsum``
    performs:

    1. **distillation**: repeated bottom-up Knuth two-sum sweeps turn
       each row into a non-overlapping expansion of its exact sum
       (sweeping until a fixpoint, which for finite doubles is reached in
       a handful of passes; at the fixpoint every adjacent pair adds
       exactly, i.e. the expansion is strongly non-overlapping with any
       zero terms confined to a bottom prefix);
    2. **rounding**: CPython ``fsum``'s descending accumulation over the
       expansion, including its half-even correction that inspects the
       sign of the next lower partial -- emulated here with masks so each
       row stops at its own first inexact addition.

    All paths depend only on the exact row sum, so the result matches
    ``fsum`` bit for bit (the sign of a zero result may differ; bounds
    are only ever *compared*, so a signed zero cannot change any
    decision). Inputs must be finite.
    """
    m = rows.shape[-1]
    if m == 1:
        return rows[..., 0].copy()
    if m == 2:
        # A single addition is already correctly rounded.
        return rows[..., 0] + rows[..., 1]
    if m == 3:
        return _exact_sum3(rows)
    p = np.array(rows, dtype=np.float64, copy=True)
    for _ in range(2 * m + 2):
        changed = False
        for j in range(1, m):
            a = p[..., j - 1]
            b = p[..., j]
            s = a + b
            bv = s - a
            av = s - bv
            lo = (a - av) + (b - bv)
            if not changed and ((s != b).any() or (lo != a).any()):
                changed = True
            p[..., j - 1] = lo
            p[..., j] = s
        if not changed:
            break
    else:  # pragma: no cover - finite doubles always reach a fixpoint
        raise ArithmeticError("exact_rowsum distillation did not converge")
    # fsum's descending rounding loop, per-row masked.
    hi = p[..., m - 1].copy()
    lo = np.zeros_like(hi)
    below = np.full(hi.shape, -1, dtype=np.int64)
    stopped = np.zeros(hi.shape, dtype=bool)
    for j in range(m - 2, -1, -1):
        x = hi
        y = p[..., j]
        s = x + y
        yr = s - x
        lo_j = y - yr
        newly = ~stopped & (lo_j != 0.0)
        hi = np.where(stopped, hi, s)
        lo = np.where(newly, lo_j, lo)
        below[newly] = j - 1
        stopped |= newly
    has_below = below >= 0
    nxt = np.take_along_axis(
        p, np.clip(below, 0, None)[..., None], axis=-1
    )[..., 0]
    same_sign = ((lo < 0.0) & (nxt < 0.0)) | ((lo > 0.0) & (nxt > 0.0))
    y2 = lo * 2.0
    x2 = hi + y2
    yr2 = x2 - hi
    correct = has_below & same_sign & (y2 == yr2)
    return np.where(correct, x2, hi)


def frontier_evaluator(
    fn: ScoringFunction,
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """A vectorized bound evaluator bitwise-matching ``scalar_evaluator``.

    Returns a callable mapping ``(..., m)`` composed-score rows to
    ``(...)`` bounds whose every value equals what
    :func:`~repro.optimizer.kernel.scalar_evaluator` would produce on the
    same row (signed zeros excepted, which no comparison can observe), or
    ``None`` when no such form exists -- the caller must then keep that
    scoring function on the per-plan scalar path.
    """
    kind = type(fn)
    if kind is Min:
        return lambda rows: np.min(rows, axis=-1)
    if kind is Max:
        return lambda rows: np.max(rows, axis=-1)
    if kind is Avg:
        arity = fn.arity
        return lambda rows: exact_rowsum(rows) / arity
    if kind is WeightedSum:
        weights = np.asarray(fn.weights, dtype=np.float64)
        return lambda rows: exact_rowsum(rows * weights)
    return None


class FrontierKernel:
    """Costs whole plan frontiers over one :class:`SampleIndex`.

    Args:
        index: the precomputed per-sample state shared with the scalar
            kernel (and therefore with the reference engine's oracle
            chain).
        tail_threshold: once at most this many plans remain unfinished,
            the lockstep stops and the stragglers are re-run on the
            scalar kernel -- lockstep iterations are priced by the
            slowest survivor, so a long tail of one or two expensive
            plans is cheaper to finish exactly, one at a time.

    The kernel is stateless across calls except for the cumulative
    :attr:`tail_completions` diagnostic counter.
    """

    def __init__(self, index: SampleIndex, tail_threshold: int = 8):
        if tail_threshold < 0:
            raise ValueError(
                f"tail_threshold must be >= 0, got {tail_threshold}"
            )
        self.index = index
        self.tail_threshold = tail_threshold
        self.tail_completions = 0
        m, n = index.m, index.n
        self._matrix = np.ascontiguousarray(
            index.sample.matrix, dtype=np.float64
        )
        # Stacked delivery orders/scores; rows of sorted-incapable
        # predicates are never indexed (avail masks require capability).
        self._orders = np.zeros((m, n), dtype=np.int64)
        self._sorted_scores = np.zeros((m, n), dtype=np.float64)
        for i in index.sorted_preds:
            self._orders[i] = index.orders[i]  # type: ignore[assignment]
            self._sorted_scores[i] = index.sorted_scores[i]  # type: ignore[assignment]
        self._sorted_capable = np.asarray(index.sorted_capable, dtype=bool)
        self._random_capable = np.asarray(index.random_capable, dtype=bool)

    @staticmethod
    def supports(fn: ScoringFunction) -> bool:
        """Whether ``fn`` has a bitwise-exact vectorized bound form."""
        return frontier_evaluator(fn) is not None

    def simulate_frontier(
        self,
        fn: ScoringFunction,
        k: int,
        plans: Sequence[PlanSpec],
    ) -> list[PlanOutcome]:
        """Replay every plan of the frontier; per-plan counts or errors.

        Each outcome is the :class:`SimulationCounts` the scalar kernel's
        :meth:`SampleIndex.simulate` would return for that plan, or the
        exception it would raise (plan-validation ``ValueError`` /
        :class:`UnanswerableQueryError`). Shared-argument problems
        (``fn`` arity, unsupported ``fn``, ``k``) raise immediately.
        """
        evaluator = frontier_evaluator(fn)
        if evaluator is None:
            raise ValueError(
                f"frontier kernel does not support {type(fn).__name__}; "
                "use the per-plan scalar kernel"
            )
        index = self.index
        m = index.m
        if fn.arity != m:
            raise ValueError(
                f"scoring function arity {fn.arity} != sample width {m}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        outcomes: list[Optional[PlanOutcome]] = [None] * len(plans)
        valid: list[tuple[int, tuple[float, ...], tuple[int, ...]]] = []
        for idx, (depths, schedule) in enumerate(plans):
            try:
                valid.append((idx, *self._validate_plan(depths, schedule)))
            except ValueError as exc:
                outcomes[idx] = exc
        if index.no_wild_guesses and not index.sorted_preds:
            error = UnanswerableQueryError(
                "no predicate supports sorted access and wild guesses "
                "are disallowed: no object can ever be discovered"
            )
            for idx, _, _ in valid:
                outcomes[idx] = error
        elif valid:
            self._run(fn, evaluator, k, valid, outcomes)
        done: list[PlanOutcome] = []
        for outcome in outcomes:
            assert outcome is not None
            done.append(outcome)
        return done

    def _validate_plan(
        self,
        depths: Sequence[float],
        schedule: Optional[Sequence[int]],
    ) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """Mirror of :meth:`SampleIndex.simulate`'s plan validation."""
        m = self.index.m
        deltas = tuple(float(d) for d in depths)
        if len(deltas) != m:
            raise ValueError(
                f"plan has {len(deltas)} depths but sample width is {m}"
            )
        for i, d in enumerate(deltas):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"depth delta_{i} must be in [0, 1], got {d}")
        if schedule is None:
            schedule = range(m)
        order_h = tuple(schedule)
        if sorted(order_h) != list(range(m)):
            raise ValueError(
                f"schedule must be a permutation of 0..{m - 1}, got {order_h}"
            )
        return deltas, order_h

    def _finish_tail(
        self,
        fn: ScoringFunction,
        k: int,
        rows: Sequence[tuple[int, tuple[float, ...], tuple[int, ...]]],
        outcomes: list[Optional[PlanOutcome]],
        survivors: np.ndarray,
    ) -> None:
        """Finish the lockstep's stragglers on the scalar oracle itself."""
        index = self.index
        for v in survivors:
            idx, deltas, order_h = rows[int(v)]
            try:
                outcomes[idx] = index.simulate(fn, k, deltas, order_h)
            except UnanswerableQueryError as exc:
                outcomes[idx] = exc
            self.tail_completions += 1

    def _run(
        self,
        fn: ScoringFunction,
        evaluator: Callable[[np.ndarray], np.ndarray],
        k: int,
        rows: list[tuple[int, tuple[float, ...], tuple[int, ...]]],
        outcomes: list[Optional[PlanOutcome]],
    ) -> None:
        index = self.index
        m, n = index.m, index.n
        P = len(rows)
        matrix = self._matrix
        orders = self._orders
        sorted_scores = self._sorted_scores
        sorted_capable = self._sorted_capable
        random_capable = self._random_capable
        no_wild_guesses = index.no_wild_guesses
        specs = list(rows)

        # Selection strategy, picked by how cheaply a pool bound can be
        # kept *current*:
        #
        # * ``min``: every composite-cell change is a decrease (a sorted
        #   pop lowers l_i onto still-unknown cells; a probe replaces
        #   l_i by a score <= l_i), and min is monotone in each
        #   argument, so the bound matrix B is maintainable
        #   incrementally -- ``B = min(B, moved value)`` on exactly the
        #   affected cells. No recompute, no verify loop, no (P, n, m)
        #   reduction traffic.
        # * ``eager`` (Max, sums of width <= 2): a decrease can *raise*
        #   no bound but max needs to know which argument was the max,
        #   so instead one whole-matrix reduce (or a single correctly
        #   rounded addition) recomputes every bound each iteration --
        #   exact by order-independence, and still just a couple of
        #   large ops.
        # * ``sum_bb`` (wider sums with wild guesses disallowed): the
        #   correctly-rounded row sum is a multi-op pipeline, too dear
        #   over the whole pool, but an *approximate* running sum is
        #   maintainable incrementally just like the min bound (add the
        #   signed change of the one cell that moved), and bracketing
        #   it with a slack that generously covers every accumulated
        #   rounding turns it into certified upper/lower bounds on the
        #   exact value. A selection whose deflated candidate strictly
        #   beats every other cell's inflated bound needs no exact
        #   arithmetic at all; only near-ties (within ~2**-36 relative)
        #   drop to exact evaluation of the candidate cell, and only
        #   unresolved near-ties to an exact whole-row pass.
        # * ``lazy`` (everything else with a sum bound): bounds stay
        #   stale-high and are verified on selection, refreshing the
        #   top block of a row only when its argmax misses.
        fn_kind = type(fn)
        if fn_kind is Min:
            mode = "min"
        elif fn_kind is Max or m <= 2:
            mode = "eager"
        elif no_wild_guesses:
            mode = "sum_bb"
        else:
            mode = "lazy"
        if mode == "sum_bb":
            # Slack sizing: the running sum takes one rounded add per
            # cell change, and a cell changes at most once per
            # iteration, so the absolute drift is below iteration_cap *
            # 2**-53 * sum(|w|) -- orders of magnitude below the
            # 2**-36-relative-plus-absolute slack used here. The slack
            # only decides how often selection falls to the exact path
            # (at near-ties), never which answer it produces.
            wvec = (
                np.ones(m, dtype=np.float64)
                if fn_kind is Avg
                else np.asarray(fn.weights, dtype=np.float64)
            )
            final_div = float(fn.arity) if fn_kind is Avg else 1.0
            ub_scale = (1.0 + 2.0**-36) / final_div
            lb_scale = (1.0 - 2.0**-36) / final_div
            abs_slack = float(np.sum(np.abs(wvec))) * 2.0**-36 / final_div
        else:
            wvec = np.empty(0)
            ub_scale = lb_scale = 1.0
            abs_slack = 0.0

        delta = np.array([r[1] for r in specs], dtype=np.float64)
        rank = np.empty((P, m), dtype=np.int64)
        for v, (_, _, order_h) in enumerate(specs):
            for pos, pred in enumerate(order_h):
                rank[v, pred] = pos

        # --- plans-as-columns state (one row per plan) ---
        l = np.ones((P, m), dtype=np.float64)
        cursor = np.zeros((P, m), dtype=np.int64)
        ns = np.zeros((P, m), dtype=np.int64)
        nr = np.zeros((P, m), dtype=np.int64)
        known = np.zeros((P, n, m), dtype=bool)
        known_count = np.zeros((P, n), dtype=np.int64)
        seen = np.zeros((P, n), dtype=bool)
        seen_count = np.zeros(P, dtype=np.int64)
        tracked = np.zeros((P, n), dtype=bool)
        confirmed = np.zeros(P, dtype=np.int64)
        alive = np.ones(P, dtype=bool)

        # Incrementally-maintained classification inputs: which sorted
        # lists still have items, which depths are still above delta,
        # and which plans have seen every sample object. All three only
        # change on sorted steps, so they are updated by scatter there.
        avail_base = np.tile(sorted_capable, (P, 1)) & (cursor < n)
        lgd = l > delta
        seen_full = seen_count >= n

        # Mode-specific bound state (placeholders keep the names bound):
        # B       ("min")   current pool bounds, natural object layout;
        #                   a cell is -inf iff its object is out of the
        #                   pool (real bounds are >= 0).
        # C       ("eager") composed rows C[p, o, i] = known score or
        #                   current l_i: exactly what bound_of()
        #                   evaluates, kept current by column scatters.
        # outpool ("eager") poison mask: True cells are overwritten
        #                   with -inf after each recompute.
        # A       ("lazy")  stale-high bounds in tie-break layout
        #                   (column j < n holds object n-1-j, column n
        #                   holds UNSEEN); -inf iff out of the pool.
        B = C = outpool = A = unseen_alive = np.empty(0)
        if mode == "min":
            S = np.zeros((P, n, m), dtype=np.float64)
            unseen_alive = np.full(P, no_wild_guesses, dtype=bool)
            if no_wild_guesses:
                B = np.full((P, n), _NEG_INF, dtype=np.float64)
            else:
                tracked[:] = True
                B = np.empty((P, n), dtype=np.float64)
                B[:] = evaluator(l)[:, None]
        elif mode == "eager":
            C = np.ones((P, n, m), dtype=np.float64)
            outpool = np.ones((P, n), dtype=bool)
            unseen_alive = np.full(P, no_wild_guesses, dtype=bool)
            if not no_wild_guesses:
                tracked[:] = True
                outpool[:] = False
            S = C  # aliased: eager mode reads scores through C
        elif mode == "sum_bb":
            S = np.zeros((P, n, m), dtype=np.float64)
            outpool = np.ones((P, n), dtype=bool)
            unseen_alive = np.full(P, no_wild_guesses, dtype=bool)
            # Running (approximate) weighted row sums; -inf poisons
            # out-of-pool cells exactly as in the min mode. Composite
            # rows are rebuilt from known/S/l only on the exact paths.
            raw = np.full((P, n), _NEG_INF, dtype=np.float64)
        else:
            S = np.zeros((P, n, m), dtype=np.float64)
            A = np.full((P, n + 1), _NEG_INF, dtype=np.float64)
            if no_wild_guesses:
                A[:, n] = evaluator(l)
            else:
                tracked[:] = True
                A[:, :n] = evaluator(l)[:, None]

        unknown = np.empty((P, m), dtype=bool)
        row_ids = np.arange(P)
        big_rank = m + 1
        refresh_width = min(8, n + 1)
        # Each verify round refreshes at least the round's argmax cell,
        # so rounds are bounded by the pool width even when the top-block
        # refresh keeps revisiting already-current cells.
        verify_cap = n + 3
        # Every lockstep iteration advances each live plan by one popped
        # task (access, confirmation, or retirement), so a plan finishes
        # within the per-run task budget; exceeding it means a kernel bug.
        iteration_cap = 2 * m * n + n + k + 4

        for _ in range(iteration_cap):
            if not alive.any():
                return
            live = np.flatnonzero(alive)
            if live.size <= self.tail_threshold:
                self._finish_tail(fn, k, specs, outcomes, live)
                return
            if live.size * 2 <= P and P >= 16:
                # --- compaction: iteration cost tracks live plans ---
                specs = [specs[v] for v in live]
                delta = delta[live]
                rank = rank[live]
                l = np.ascontiguousarray(l[live])
                cursor = cursor[live]
                ns = ns[live]
                nr = nr[live]
                known = known[live]
                known_count = known_count[live]
                seen = seen[live]
                seen_count = seen_count[live]
                tracked = tracked[live]
                confirmed = confirmed[live]
                avail_base = avail_base[live]
                lgd = lgd[live]
                seen_full = seen_full[live]
                if mode == "min":
                    S = np.ascontiguousarray(S[live])
                    B = np.ascontiguousarray(B[live])
                    unseen_alive = unseen_alive[live]
                elif mode == "eager":
                    C = np.ascontiguousarray(C[live])
                    outpool = outpool[live]
                    unseen_alive = unseen_alive[live]
                    S = C
                elif mode == "sum_bb":
                    S = np.ascontiguousarray(S[live])
                    outpool = outpool[live]
                    unseen_alive = unseen_alive[live]
                    raw = np.ascontiguousarray(raw[live])
                else:
                    S = np.ascontiguousarray(S[live])
                    A = np.ascontiguousarray(A[live])
                P = live.size
                alive = np.ones(P, dtype=bool)
                row_ids = np.arange(P)
                unknown = np.empty((P, m), dtype=bool)
                live = row_ids

            if mode != "lazy":
                # --- selection: one argmax over current bounds ---
                # The reversed view makes argmax's first-maximum rule
                # pick the highest object id among ties; the UNSEEN
                # virtual object is merged scalar-wise and loses every
                # tie (strict >), exactly the heap's ordering.
                if mode != "sum_bb":
                    if mode == "min":
                        bounds = B
                    else:
                        bounds = evaluator(C)
                        np.copyto(bounds, _NEG_INF, where=outpool)
                    jr = np.argmax(bounds[:, ::-1], axis=1)
                    val0 = bounds[row_ids, n - 1 - jr]
                    uval = np.where(unseen_alive, evaluator(l), _NEG_INF)
                    use_uns = uval > val0
                    j = np.where(use_uns, n, jr)
                    exh = (val0 == _NEG_INF) & ~use_uns
                else:
                    # sum_bb: the candidate is the argmax of the
                    # running sums; strict dominance in the bracketed
                    # (deflated-vs-inflated) bound space accepts it
                    # without exact arithmetic, since every other
                    # cell's exact bound then sits strictly below the
                    # candidate's -- no tie to break. Near-ties drop to
                    # exact evaluation of just the contested cells,
                    # unresolved ones to an exact whole-row pass.
                    cand = n - 1 - np.argmax(raw[:, ::-1], axis=1)
                    rc = raw[row_ids, cand]
                    raw[row_ids, cand] = _NEG_INF
                    sec_ub = raw.max(axis=1) * ub_scale + abs_slack
                    raw[row_ids, cand] = rc
                    u_raw = l @ wvec
                    uub = np.where(
                        unseen_alive,
                        u_raw * ub_scale + abs_slack,
                        _NEG_INF,
                    )
                    ulb = u_raw * lb_scale - abs_slack
                    clb = rc * lb_scale - abs_slack
                    cub = rc * ub_scale + abs_slack
                    # Fast tie accept: right after a delivery the new
                    # object's composite often equals l elementwise
                    # (only the delivering predicate is known, at
                    # exactly l_sp), making its exact bound IDENTICAL
                    # to the UNSEEN bound -- a tie the object wins.
                    # Checking cell equality is far cheaper than the
                    # exact evaluation the near-tie path would run.
                    ksel = known[row_ids, cand]
                    tie_obj = (~ksel | (S[row_ids, cand] == l)).all(axis=1)
                    acc_obj = (clb > sec_ub) & ((clb >= uub) | tie_obj)
                    acc_uns = unseen_alive & (ulb > cub)
                    empty = rc == _NEG_INF
                    j = np.where(acc_uns, n, n - 1 - cand)
                    exh = empty & ~unseen_alive
                    need = ~(acc_obj | acc_uns | exh)
                    nrows = np.flatnonzero(need)
                    if nrows.size:
                        ncand = cand[nrows]
                        comp = np.where(
                            known[nrows, ncand], S[nrows, ncand], l[nrows]
                        )
                        cexd = evaluator(comp)
                        if unseen_alive[nrows].any():
                            uvald = np.where(
                                unseen_alive[nrows],
                                evaluator(l[nrows]),
                                _NEG_INF,
                            )
                        else:
                            uvald = np.full(nrows.size, _NEG_INF)
                        sec_n = sec_ub[nrows]
                        oko = (cexd > sec_n) & (uvald <= cexd)
                        oku = (uvald > cexd) & (uvald > sec_n)
                        j[nrows] = np.where(oku, n, n - 1 - ncand)
                        fb = nrows[~(oko | oku)]
                        if fb.size:
                            compf = np.where(
                                known[fb], S[fb], l[fb][:, None, :]
                            )
                            exact = evaluator(compf)
                            np.copyto(exact, _NEG_INF, where=outpool[fb])
                            jr2 = np.argmax(exact[:, ::-1], axis=1)
                            val2 = exact[np.arange(fb.size), n - 1 - jr2]
                            uv2 = uvald[~(oko | oku)]
                            uns2 = uv2 > val2
                            j[fb] = np.where(uns2, n, jr2)
            else:
                # --- selection: the verified lazy-heap pop ---
                # argmax over stale-high A, then recompute the current
                # bound of just the selected cell; accept on equality,
                # otherwise refresh the row's top cells in place and
                # re-select. Each round either accepts a row or
                # permanently refreshes a block of its cells, so rounds
                # are bounded by pool width / refresh width.
                j = np.zeros(P, dtype=np.int64)
                val = np.full(P, _NEG_INF)
                pending = alive.copy()
                for _ in range(verify_cap):
                    rv = np.flatnonzero(pending)
                    sub = A[rv]
                    jj = np.argmax(sub, axis=1)
                    vv = sub[np.arange(rv.size), jj]
                    is_uns = jj == n
                    objc = np.where(is_uns, 0, n - 1 - jj)
                    ksel = known[rv, objc] & ~is_uns[:, None]
                    comp = np.where(ksel, S[rv, objc], l[rv])
                    cur = evaluator(comp)
                    ok = (vv == _NEG_INF) | (cur == vv)
                    acc = rv[ok]
                    j[acc] = jj[ok]
                    val[acc] = vv[ok]
                    pending[acc] = False
                    if ok.all():
                        break
                    # Refresh the top cells of every missing row at
                    # once: staleness arrives in bursts (one l move
                    # stales every composite that reads it), so fixing
                    # one cell per round would cascade. The argmax cell
                    # is fixed explicitly -- under ties argpartition's
                    # top block need not contain it, and the round must
                    # make progress on it.
                    badr = rv[~ok]
                    A[badr, jj[~ok]] = cur[~ok]
                    idx = np.argpartition(
                        A[badr], n + 1 - refresh_width, axis=1
                    )[:, n + 1 - refresh_width:]
                    vals = A[badr[:, None], idx]
                    uns2 = idx == n
                    o2 = np.where(uns2, 0, n - 1 - idx)
                    k2 = known[badr[:, None], o2] & ~uns2[..., None]
                    comp2 = np.where(
                        k2, S[badr[:, None], o2], l[badr, None, :]
                    )
                    cur2 = evaluator(comp2)
                    A[badr[:, None], idx] = np.where(
                        vals == _NEG_INF, _NEG_INF, cur2
                    )
                else:  # pragma: no cover - bounded by pool width
                    raise RuntimeError(
                        "frontier verify loop exceeded the pool width; "
                        "this is a kernel bug, not a property of the plan"
                    )

            if mode == "lazy":
                exh = val == _NEG_INF
            exhausted = alive & exh
            if exhausted.any():
                for v in np.flatnonzero(exhausted):
                    outcomes[specs[v][0]] = SimulationCounts(
                        tuple(ns[v].tolist()), tuple(nr[v].tolist())
                    )
                alive &= ~exhausted
            sel_unseen = alive & (j == n)
            obj = n - 1 - j

            # --- no-access tasks: UNSEEN retirement, confirmation ---
            retire = sel_unseen & seen_full
            if retire.any():
                if mode == "lazy":
                    A[retire, n] = _NEG_INF
                else:
                    unseen_alive &= ~retire
            sel_obj = alive & ~sel_unseen
            kc = known_count[row_ids, np.where(sel_obj, obj, 0)]
            confirm = sel_obj & (kc == m)
            if confirm.any():
                cv = np.flatnonzero(confirm)
                confirmed[cv] += 1
                if mode == "min":
                    B[cv, obj[cv]] = _NEG_INF
                elif mode == "eager":
                    outpool[cv, obj[cv]] = True
                elif mode == "sum_bb":
                    outpool[cv, obj[cv]] = True
                    raw[cv, obj[cv]] = _NEG_INF
                else:
                    A[cv, j[cv]] = _NEG_INF
                for v in cv[confirmed[cv] >= k]:
                    outcomes[specs[v][0]] = SimulationCounts(
                        tuple(ns[v].tolist()), tuple(nr[v].tolist())
                    )
                    alive[v] = False

            # --- access classification over (P, m) masks ---
            uns_actor = sel_unseen & ~retire
            obj_actor = sel_obj & ~confirm
            if not (uns_actor.any() or obj_actor.any()):
                continue
            unknown.fill(True)
            ov = np.flatnonzero(obj_actor)
            if ov.size:
                unknown[ov] = ~known[ov, obj[ov]]
            # Availability keys double as presence tests: a gathered
            # sentinel at the argmax/argmin position means the mask
            # row was empty, which is cheaper than a separate
            # any-reduce over the mask.
            wavail = np.where(avail_base & unknown, l, _NEG_INF)
            fb_pred = np.argmax(wavail, axis=1)
            has_fb = wavail[row_ids, fb_pred] != _NEG_INF
            wpick = np.where(lgd, wavail, _NEG_INF)
            pick_pred = np.argmax(wpick, axis=1)
            has_pick = wpick[row_ids, pick_pred] != _NEG_INF
            wprobe = np.where(unknown & random_capable, rank, big_rank)
            probe_pred = np.argmin(wprobe, axis=1)
            has_probe = obj_actor & (
                wprobe[row_ids, probe_pred] != big_rank
            )

            failed = (uns_actor & ~has_fb) | (
                obj_actor & ~has_fb & ~has_probe
            )
            if failed.any():
                for v in np.flatnonzero(failed):
                    if sel_unseen[v]:
                        outcomes[specs[v][0]] = UnanswerableQueryError(
                            "unseen objects remain but no sorted access is "
                            "available to discover them"
                        )
                    else:
                        outcomes[specs[v][0]] = UnanswerableQueryError(
                            f"object {int(obj[v])} has undetermined "
                            "predicates but no available access can "
                            "evaluate them"
                        )
                    alive[v] = False
                uns_actor &= ~failed
                obj_actor &= ~failed

            do_sorted = (uns_actor & has_fb) | (
                obj_actor & (has_pick | (~has_probe & has_fb))
            )
            do_probe = obj_actor & ~has_pick & has_probe
            sorted_pred = np.where(has_pick, pick_pred, fb_pred)

            # --- random probes: one known cell, no bound writes ---
            pv = np.flatnonzero(do_probe)
            if pv.size:
                po = obj[pv]
                pp = probe_pred[pv]
                nr[pv, pp] += 1
                known[pv, po, pp] = True
                known_count[pv, po] += 1
                pscore = matrix[po, pp]
                S[pv, po, pp] = pscore
                if mode == "min":
                    # The probed score replaces l_pp in the composite
                    # and cannot exceed it, so the bound only tightens.
                    B[pv, po] = np.minimum(B[pv, po], pscore)
                elif mode == "sum_bb":
                    raw[pv, po] += (pscore - l[pv, pp]) * wvec[pp]

            # --- sorted accesses: l moves; A gains only new arrivals ---
            sv = np.flatnonzero(do_sorted)
            if sv.size:
                sp = sorted_pred[sv]
                pos = cursor[sv, sp]
                w = orders[sp, pos]
                score = sorted_scores[sp, pos]
                new_pos = pos + 1
                cursor[sv, sp] = new_pos
                ns[sv, sp] += 1
                # Exhausting the list drops the bound to 0 (SimulatedSource).
                in_range = new_pos < n
                newl = np.where(in_range, score, 0.0)
                oldl = l[sv, sp]
                l[sv, sp] = newl
                avail_base[sv, sp] = in_range
                lgd[sv, sp] = newl > delta[sv, sp]
                newly_seen = ~seen[sv, w]
                seen[sv, w] = True
                seen_count[sv] += newly_seen
                seen_full[sv] = seen_count[sv] >= n
                was_known = known[sv, w, sp]
                known[sv, w, sp] = True
                known_count[sv, w] += ~was_known
                newly_tracked = ~tracked[sv, w]
                tracked[sv, w] = True
                if mode == "min":
                    # l_sp moved down onto every still-unknown cell of
                    # that column, and min is monotone, so each such
                    # bound is exactly min(old bound, new l_sp); the
                    # delivered sample's cell becomes its score, which
                    # also only tightens. Known cells keep their bound.
                    S[sv, w, sp] = score
                    keep = known[sv, :, sp]
                    B[sv] = np.where(
                        keep, B[sv], np.minimum(B[sv], newl[:, None])
                    )
                    B[sv, w] = np.minimum(B[sv, w], score)
                    if newly_tracked.any():
                        nt = sv[newly_tracked]
                        nto = w[newly_tracked]
                        compn = np.where(
                            known[nt, nto], S[nt, nto], l[nt]
                        )
                        B[nt, nto] = evaluator(compn)
                elif mode == "eager":
                    # The moved l_i flows into every still-unknown cell
                    # of that predicate's column (including the sample
                    # just delivered, whose cell becomes its score).
                    keep = known[sv, :, sp]
                    C[sv, :, sp] = np.where(
                        keep, C[sv, :, sp], newl[:, None]
                    )
                    C[sv, w, sp] = score
                    outpool[sv, w] &= ~newly_tracked
                elif mode == "sum_bb":
                    # Every still-unknown cell of the touched column
                    # shifts by the (weighted) l move; the delivered
                    # sample's cell shifts from l to its score.
                    S[sv, w, sp] = score
                    wsp = wvec[sp]
                    dl = (newl - oldl) * wsp
                    keep = known[sv, :, sp]
                    g = raw[sv]
                    raw[sv] = np.where(keep, g, g + dl[:, None])
                    raw[sv, w] += np.where(
                        was_known, 0.0, (score - oldl) * wsp
                    )
                    outpool[sv, w] &= ~newly_tracked
                    if newly_tracked.any():
                        nt = sv[newly_tracked]
                        nto = w[newly_tracked]
                        compn = np.where(
                            known[nt, nto], S[nt, nto], l[nt]
                        )
                        raw[nt, nto] = compn @ wvec
                else:
                    S[sv, w, sp] = score
                    if newly_tracked.any():
                        nt = sv[newly_tracked]
                        nto = w[newly_tracked]
                        compn = np.where(
                            known[nt, nto], S[nt, nto], l[nt]
                        )
                        A[nt, n - 1 - nto] = evaluator(compn)
        raise RuntimeError(
            "frontier lockstep exceeded its task budget; this is a kernel "
            "bug, not a property of the plan"
        )  # pragma: no cover - defensive termination guard
