"""Runtime contract checking for the paper's soundness invariants.

The lint pass (docs/LINTS.md) catches invariant violations that are
visible in the source; this module catches the ones only visible in a
*run*. The checked contracts are exactly the preconditions of the
correctness argument (Theorem 1 and the TA/MPro-family proofs it
unifies):

* **bound monotonicity** -- each last-seen score ``l_i`` is
  non-increasing over the run (a sorted source that violates its ordering
  makes Eq. 3's upper bounds unsound and the stopping rule wrong, not
  loud);
* **threshold monotonicity** -- the virtual-object/threshold value
  ``F(l_1, ..., l_m)`` is non-increasing (follows from the above plus
  monotone ``F``; checked independently so a broken scoring function is
  caught even on a well-behaved source);
* **score domain** -- every delivered score lies in ``[0, 1]``;
* **interval sanity** -- every proven interval satisfies
  ``0 <= lower <= upper <= 1``;
* **scoring-function monotonicity** -- ``F`` is probed with the
  randomized falsifier before any access is spent;
* **plan-cost replay** -- every outcome of the optimizer's per-plan
  replay (:class:`~repro.optimizer.estimator.CostEstimator`), box
  answers included, equals the reference engine's
  (:func:`~repro.optimizer.estimator.reference_cost`); a wrong replay
  would misprice plans, not fail;
* **wave early stop** -- a wave of the parallel engine that stops
  popping the top-k once it holds ``c`` accesses leaves only targets
  with a usable choice behind: the full pop would have degraded none of
  them and would not have abandoned discovery (docs/RUNTIME.md, "The
  wave core"), so stopping early cannot change the run.

Checking is off by default (the checks sit on the per-access hot path)
and is enabled per middleware::

    mw = Middleware.over(data, costs, contracts=True)

or globally with ``REPRO_CONTRACTS=1`` in the environment -- the switch
the chaos fuzz suite uses to run every fault-injection test under full
contract checking. The plan-cost replay check follows that switch
alone, read when an estimator is built. Violations raise
:class:`~repro.exceptions.ContractViolationError`.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING, Optional

from repro.exceptions import ContractViolationError, NotMonotoneError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.scoring.functions import ScoringFunction

#: Slack for float round-off; genuine violations are orders larger.
EPSILON = 1e-9

_ENV_FLAG = "REPRO_CONTRACTS"

#: Scoring functions that passed the monotonicity probe, process-wide,
#: with the trial count they passed at. Every estimator cross-check runs
#: a fresh middleware, and so a fresh checker, over the same ``F``; the
#: memo keeps that from re-probing it. A failed probe is never recorded.
_PROBED: weakref.WeakKeyDictionary[ScoringFunction, int] = (
    weakref.WeakKeyDictionary()
)


def env_enabled() -> bool:
    """Whether ``REPRO_CONTRACTS`` requests contract checking globally."""
    return os.environ.get(_ENV_FLAG, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


class ContractChecker:
    """Stateful checker of the run-time invariants above.

    One checker guards one run: the middleware feeds it every delivered
    score and bound movement, the engines feed it thresholds and
    intervals. ``reset()`` clears the history alongside the middleware's
    own reset, so a replayed run is re-checked from scratch.

    Args:
        probe_trials: sample size of the scoring-function monotonicity
            probe (0 disables probing).
    """

    def __init__(self, probe_trials: int = 200) -> None:
        if probe_trials < 0:
            raise ValueError("probe_trials must be >= 0")
        self.probe_trials = probe_trials
        self._last_seen: dict[int, float] = {}
        self._sorted_scores: dict[int, float] = {}
        self._threshold: Optional[float] = None
        self.checks = 0

    # ------------------------------------------------------------------
    # Score and bound contracts (fed by the middleware)
    # ------------------------------------------------------------------

    def check_score(self, predicate: int, obj: Optional[int], score: float) -> float:
        """Assert a delivered score lies in the unit interval."""
        self.checks += 1
        if not -EPSILON <= score <= 1.0 + EPSILON:
            target = f"object {obj}" if obj is not None else "sorted access"
            raise ContractViolationError(
                f"predicate {predicate}: score {score!r} for {target} is "
                "outside [0, 1]; scores must be normalized before they "
                "enter the middleware"
            )
        return score

    def observe_sorted(self, predicate: int, score: float, last_seen: float) -> None:
        """Fold in one sorted delivery: ordering and bound movement.

        ``score`` is the delivered score, ``last_seen`` the source's
        updated ``l_i`` *after* the delivery. Checks that the delivered
        stream is non-increasing (the definition of sorted access) and
        that ``l_i`` never rises.
        """
        self.check_score(predicate, None, score)
        previous = self._sorted_scores.get(predicate)
        if previous is not None and score > previous + EPSILON:
            raise ContractViolationError(
                f"predicate {predicate}: sorted access delivered score "
                f"{score!r} after {previous!r}; sorted streams must be "
                "non-increasing (Section 3.2) or every unseen-object "
                "bound derived from l_i is unsound"
            )
        self._sorted_scores[predicate] = score
        self.observe_last_seen(predicate, last_seen)

    def observe_last_seen(self, predicate: int, value: float) -> None:
        """Assert the last-seen bound ``l_i`` of one predicate never rises."""
        self.checks += 1
        previous = self._last_seen.get(predicate)
        if previous is not None and value > previous + EPSILON:
            raise ContractViolationError(
                f"predicate {predicate}: last-seen bound l_{predicate} "
                f"rose from {previous!r} to {value!r}; bounds must be "
                "non-increasing for Theorem 1 to hold"
            )
        self._last_seen[predicate] = value

    # ------------------------------------------------------------------
    # Threshold / interval contracts (fed by the engines)
    # ------------------------------------------------------------------

    def observe_threshold(self, value: float) -> None:
        """Assert the stopping threshold ``F(l_1..l_m)`` never rises."""
        self.checks += 1
        if (
            self._threshold is not None
            and value > self._threshold + EPSILON
        ):
            raise ContractViolationError(
                f"threshold rose from {self._threshold!r} to {value!r}; "
                "with monotone F and non-increasing l_i the threshold "
                "must be non-increasing -- the stopping rule is unsound"
            )
        self._threshold = value

    def check_interval(self, obj: object, lower: float, upper: float) -> None:
        """Assert a proven score interval is ordered and within [0, 1]."""
        self.checks += 1
        if not (
            -EPSILON <= lower <= upper + EPSILON
            and upper <= 1.0 + EPSILON
        ):
            raise ContractViolationError(
                f"object {obj}: proven interval [{lower!r}, {upper!r}] is "
                "inverted or leaves [0, 1]; bound bookkeeping is corrupt"
            )

    def check_refinable(self, obj: object, refinable: bool) -> None:
        """Assert a target an early-stopped wave did not pop has an admitted choice."""
        self.checks += 1
        if not refinable:
            raise ContractViolationError(
                f"target {obj}: a wave stopped popping the top-k once full, "
                "but this target has no choice on a channel admitting "
                "accesses, so the full pop could have abandoned discovery in "
                "this wave; the early stop is not exact"
            )

    # ------------------------------------------------------------------
    # Scoring-function probe (fed by engine constructors)
    # ------------------------------------------------------------------

    def probe_scoring(self, fn: "ScoringFunction") -> None:
        """Randomized-probe ``fn`` for monotonicity, once per function.

        Runs before any access is spent: a non-monotone ``F`` makes every
        upper bound -- and therefore the whole run -- meaningless, so it
        must fail here, not in the answer. A function object that passed
        a probe of at least ``probe_trials`` trials (in any checker) is
        not probed again; one that failed is probed, and fails, each time.
        """
        if self.probe_trials == 0 or _PROBED.get(fn, 0) >= self.probe_trials:
            return
        from repro.scoring.monotonicity import check_monotone

        try:
            check_monotone(fn, trials=self.probe_trials)
        except NotMonotoneError as exc:
            raise ContractViolationError(
                f"scoring function {fn.name} failed the monotonicity "
                f"probe: {exc}; upper-bound reasoning (Theorem 1) is "
                "unsound for this function"
            ) from exc
        _PROBED[fn] = self.probe_trials

    def reset(self) -> None:
        """Clear all history for a fresh (replayed) run."""
        self._last_seen.clear()
        self._sorted_scores.clear()
        self._threshold = None
        self.checks = 0


def resolve_checker(
    contracts: "bool | ContractChecker | None",
) -> Optional[ContractChecker]:
    """Normalize a user-facing ``contracts`` argument into a checker.

    ``True`` builds a default checker; a checker instance is used as-is;
    ``False``/``None`` defer to the ``REPRO_CONTRACTS`` environment
    switch (so a test run can force checking on without touching call
    sites).
    """
    if isinstance(contracts, ContractChecker):
        return contracts
    if contracts:
        return ContractChecker()
    if env_enabled():
        return ContractChecker()
    return None
