"""Cost monitoring: detect when assumed unit costs drift from reality.

The paper motivates *runtime* optimization with the Web's dynamism:
"cost scenarios change over time, depending on source load and
availability". A plan optimized against yesterday's latencies can be
arbitrarily bad today (E18 quantifies this). :class:`CostMonitor` is the
detection half of that loop: feed it the observed duration of every
access, and it maintains per-predicate running means that can be compared
against the assumed :class:`~repro.sources.cost.CostModel`:

    monitor = CostMonitor(assumed_model)
    ...
    monitor.observe(access, measured_duration)
    if monitor.drifted(tolerance=2.0):
        model = monitor.estimated_model()     # re-plan against reality

Estimates require a minimum number of observations per (predicate,
access-kind) cell before they are trusted; unobserved cells fall back to
the assumed costs.

Two failure modes the original monitor missed (both matter to the
adaptive replanning loop in :mod:`repro.optimizer.replan`):

* **Breaker-open channels never drifted.** An open circuit breaker
  refuses accesses *uncharged and unobserved* -- the monitor saw zero
  durations for exactly the channel that was misbehaving, and
  :meth:`drifted` skipped zero-observation cells. :meth:`observe_unavailable`
  (fed by the middleware's breaker gate) marks such refusals, and a
  marked cell reports an ``inf`` drift ratio even with no duration data.
* **Adopting a new plan re-triggered the same drift.** After replanning
  against the observed costs, the *old* assumed model kept flagging the
  very drift that was just acted upon. :meth:`rebase` starts a fresh
  drift window anchored to the current estimate, while :meth:`reset`
  keeps its replay contract: back to the construction-time assumed
  model with no history at all.
"""

from __future__ import annotations

from typing import Optional

from repro.sources.cost import CostModel
from repro.types import Access, AccessType


class _RunningMean:
    """Incremental mean with an observation count."""

    __slots__ = ("count", "mean")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count


class CostMonitor:
    """Tracks observed access durations against an assumed cost model.

    Args:
        assumed: the cost model drift is measured against.
        min_observations: observations required per (predicate, kind)
            cell before its estimate is trusted.

    The time burned by *failed* attempts (timeouts waiting out the full
    deadline, transient errors) counts into the running means too
    (:meth:`observe_failure`): a monitor that only saw successes would
    under-estimate exactly the sources that misbehave -- a source failing
    slowly on every attempt would look perfectly healthy, because no
    success ever reported a duration.
    """

    def __init__(self, assumed: CostModel, min_observations: int = 5):
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        self.assumed = assumed
        self._initial_assumed = assumed
        self.min_observations = min_observations
        self._sorted = [_RunningMean() for _ in range(assumed.m)]
        self._random = [_RunningMean() for _ in range(assumed.m)]
        self._sorted_unavailable = [0] * assumed.m
        self._random_unavailable = [0] * assumed.m
        self._failure_observations = 0

    def reset(self) -> None:
        """Drop every observation (a middleware reset starts a fresh run).

        Restores the *construction-time* assumed model, discarding any
        :meth:`rebase` re-anchoring, so a reset middleware replays a run
        bit-for-bit from the same starting expectations.
        """
        self.assumed = self._initial_assumed
        self._sorted = [_RunningMean() for _ in range(self.assumed.m)]
        self._random = [_RunningMean() for _ in range(self.assumed.m)]
        self._sorted_unavailable = [0] * self.assumed.m
        self._random_unavailable = [0] * self.assumed.m
        self._failure_observations = 0

    def rebase(self, assumed: Optional[CostModel] = None) -> CostModel:
        """Start a fresh drift window anchored to updated expectations.

        Called after a consumer *acts* on drift (e.g. adopts a replanned
        (Δ, H)): the observed reality becomes the new assumed model, the
        per-cell histories and unavailability marks are cleared, and
        :meth:`drifted` goes quiet until behaviour diverges *again*. Unlike
        :meth:`reset` this does not forget what was learned -- it promotes
        it. Pass ``assumed`` to anchor to an explicit model instead of the
        current :meth:`estimated_model`. Returns the new anchor.
        """
        anchor = self.estimated_model() if assumed is None else assumed
        if anchor.m != self.assumed.m:
            raise ValueError(
                f"rebase model arity {anchor.m} != monitored arity "
                f"{self.assumed.m}"
            )
        self.assumed = anchor
        self._sorted = [_RunningMean() for _ in range(self.assumed.m)]
        self._random = [_RunningMean() for _ in range(self.assumed.m)]
        self._sorted_unavailable = [0] * self.assumed.m
        self._random_unavailable = [0] * self.assumed.m
        self._failure_observations = 0
        return anchor

    def observe(self, access: Access, duration: float) -> None:
        """Record one access's measured duration (>= 0)."""
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        cell = (
            self._sorted
            if access.kind is AccessType.SORTED
            else self._random
        )
        cell[access.predicate].add(duration)

    def observe_failure(self, access: Access, duration: float) -> None:
        """Record the time a *failed* attempt spent at the source.

        Counted into the same per-cell running means as successes -- an
        attempt that waited out a nine-unit deadline before timing out
        occupied the connection for nine units regardless of the outcome.
        """
        self._failure_observations += 1
        self.observe(access, duration)

    def observe_unavailable(self, access: Access) -> None:
        """Record an access *refused without charge* (breaker open).

        Refusals carry no duration, so they never feed the running means
        -- but a channel that refuses service has drifted from any finite
        assumed cost. Marked cells report ``inf`` in :meth:`drift_ratios`
        regardless of how few durations they accumulated, closing the
        loop the old zero-observation skip left open.
        """
        cell = (
            self._sorted_unavailable
            if access.kind is AccessType.SORTED
            else self._random_unavailable
        )
        cell[access.predicate] += 1

    def unavailable_count(self, predicate: int, kind: AccessType) -> int:
        """How many uncharged refusals were recorded for one cell."""
        cell = (
            self._sorted_unavailable
            if kind is AccessType.SORTED
            else self._random_unavailable
        )
        return cell[predicate]

    @property
    def failure_observations(self) -> int:
        """How many failed-attempt durations have been folded in."""
        return self._failure_observations

    def observations(self, predicate: int, kind: AccessType) -> int:
        """How many durations were recorded for one cell."""
        cell = self._sorted if kind is AccessType.SORTED else self._random
        return cell[predicate].count

    def estimated_cost(
        self, predicate: int, kind: AccessType
    ) -> Optional[float]:
        """The observed mean for one cell, or ``None`` if under-observed."""
        cell = self._sorted if kind is AccessType.SORTED else self._random
        stat = cell[predicate]
        if stat.count < self.min_observations:
            return None
        return stat.mean

    def estimated_model(self) -> CostModel:
        """A cost model from observed means, assumed costs as fallback.

        Capability structure is inherited from the assumed model:
        unsupported accesses stay unsupported (there is nothing to
        observe for them anyway).
        """
        cs = []
        cr = []
        for i in range(self.assumed.m):
            observed_s = self.estimated_cost(i, AccessType.SORTED)
            observed_r = self.estimated_cost(i, AccessType.RANDOM)
            cs.append(
                self.assumed.sorted_cost(i) if observed_s is None else observed_s
            )
            cr.append(
                self.assumed.random_cost(i) if observed_r is None else observed_r
            )
        return CostModel(tuple(cs), tuple(cr))

    def drift_ratios(self) -> dict[tuple[int, str], float]:
        """Observed/assumed ratio per sufficiently-observed cell.

        Cells with an assumed cost of 0 report ``inf`` when any positive
        duration was observed (a free access that started costing).
        Cells with recorded unavailability (:meth:`observe_unavailable`)
        report ``inf`` unconditionally -- refusal of service dominates
        whatever durations the cell saw before its breaker opened.
        """
        ratios: dict[tuple[int, str], float] = {}
        for i in range(self.assumed.m):
            for kind, label, assumed in (
                (AccessType.SORTED, "sorted", self.assumed.sorted_cost(i)),
                (AccessType.RANDOM, "random", self.assumed.random_cost(i)),
            ):
                if self.unavailable_count(i, kind) > 0:
                    ratios[(i, label)] = float("inf")
                    continue
                observed = self.estimated_cost(i, kind)
                if observed is None:
                    continue
                if assumed == 0.0:
                    ratios[(i, label)] = float("inf") if observed > 0 else 1.0
                else:
                    ratios[(i, label)] = observed / assumed
        return ratios

    def drifted(self, tolerance: float = 2.0) -> bool:
        """Whether any observed cell deviates beyond ``tolerance``.

        ``tolerance`` is a multiplicative band: drift means some ratio is
        above ``tolerance`` or below ``1/tolerance``.
        """
        if tolerance < 1.0:
            raise ValueError("tolerance must be >= 1.0")
        for ratio in self.drift_ratios().values():
            if ratio > tolerance or ratio < 1.0 / tolerance:
                return True
        return False
