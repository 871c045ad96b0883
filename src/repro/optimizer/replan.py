"""Mid-flight adaptive replanning: re-optimize (Delta, H) against reality.

The paper's optimizer is static per query: one ``(Delta, H)`` plan is
chosen from *sampled* cost estimates and ridden to the finish line, however
wrong the sample turns out to be (E18 quantifies how wrong: an order of
magnitude under misspecified unit costs). The ROADMAP's serving north star
faces drifting web sources, where Fagin-style instance optimality means
adapting to the data actually seen, not the data assumed.

:class:`ReplanController` closes that loop. An engine calls
:meth:`ReplanController.maybe_replan` at *safe checkpoints* -- between
iterations of :meth:`FrameworkNC.answers
<repro.core.framework.FrameworkNC.answers>`, between access waves of its
wave core, whichever driver runs it -- and the controller:

1. **Folds observed reality back into the cost model**: per-channel unit
   costs observed by the :class:`~repro.sources.monitor.CostMonitor`
   replace the assumed ones, and channels refusing service (open circuit
   breakers) are priced at a large finite penalty so the search routes
   around them without changing the capability structure (a half-open
   breaker may still recover).
2. **Re-runs the Delta search** seeded with the current plan's depths
   as a HillClimb warm start, against the revised model. Searches are
   gated on the revised model actually *changing* (quantized signature),
   so a static environment never pays for a second optimization.
3. **Switches only on projected-remaining-cost improvement**: both plans
   are simulated on the sample, the accesses already performed (the
   actually-seen sorted prefix depths and probe counts -- sunk cost) are
   subtracted, and the remainder is priced under the revised model. The
   candidate wins only when it beats the incumbent's remaining Eq. 1
   cost by the configured relative ``margin``.

Every decision is published: ``repro_replan_total{outcome}`` metrics and
``replan`` trace events (docs/OBSERVABILITY.md). Switching never touches
the middleware -- accounting, budgets, breaker clocks and the charged-cost
invariants are exactly those of a single uninterrupted run; only the
Select policy for *future* accesses changes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.data.dataset import Dataset
from repro.optimizer.kernel import check_depths
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.scoring.functions import ScoringFunction
from repro.sources.cost import CostModel
from repro.types import AccessType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sources.middleware import Middleware

#: Valid values of :attr:`ReplanConfig.mode` (and the server's knob).
REPLAN_MODES = ("off", "drift", "always")


def plan_fingerprint(plan: SRGPlan) -> str:
    """A short stable id for one ``(Delta, H)`` point, e.g. ``plan-1a2b3c4d``.

    Hash-based (sha1 over the rounded depths and the schedule), so the
    same plan gets the same id across processes and sessions -- what lets
    a degraded result's ``plan_at_exhaustion`` stamp be correlated with
    server logs after the fact.
    """
    payload = repr(
        (tuple(round(d, 12) for d in plan.depths), tuple(plan.schedule))
    ).encode()
    return f"plan-{hashlib.sha1(payload).hexdigest()[:8]}"


@dataclass(frozen=True)
class ReplanConfig:
    """Tuning knobs of one :class:`ReplanController`.

    Attributes:
        mode: ``"off"`` never replans (the controller is inert --
            byte-identical to an engine without one); ``"drift"`` replans
            only after the :class:`~repro.sources.monitor.CostMonitor`
            reports drift beyond ``drift_tolerance``; ``"always"``
            re-evaluates at every checkpoint regardless (still gated on
            the revised model having changed).
        check_every: charged accesses between checkpoint evaluations;
            calls in between return immediately.
        margin: relative projected-remaining-cost improvement a candidate
            must deliver before the engine switches (0.1 = 10% better).
        drift_tolerance: multiplicative band handed to
            :meth:`CostMonitor.drifted <repro.sources.monitor.CostMonitor.drifted>`
            in ``"drift"`` mode.
        breaker_penalty: finite unit-cost multiplier applied to channels
            whose breaker currently refuses access. Finite on purpose:
            ``inf`` would flip the capability masks and forbid plans the
            source may serve again after its cooldown.
        max_switches: hard cap on plan switches per query, bounding
            optimizer spend and ruling out plan thrash on noisy monitors.
    """

    mode: str = "drift"
    check_every: int = 16
    margin: float = 0.1
    drift_tolerance: float = 2.0
    breaker_penalty: float = 1_000.0
    max_switches: int = 4

    def __post_init__(self) -> None:
        if self.mode not in REPLAN_MODES:
            raise ValueError(
                f"mode must be one of {REPLAN_MODES}, got {self.mode!r}"
            )
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be >= 1, got {self.check_every}"
            )
        if self.margin < 0.0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.drift_tolerance < 1.0:
            raise ValueError(
                f"drift_tolerance must be >= 1.0, got {self.drift_tolerance}"
            )
        if self.breaker_penalty < 1.0:
            raise ValueError(
                f"breaker_penalty must be >= 1.0, got {self.breaker_penalty}"
            )
        if self.max_switches < 0:
            raise ValueError(
                f"max_switches must be >= 0, got {self.max_switches}"
            )


class ReplanController:
    """Decides, at engine checkpoints, whether to swap the live plan.

    One controller serves one query run. It owns the optimizer re-search
    machinery (sample and :class:`~repro.optimizer.NCOptimizer`) and the
    decision state (current plan, revision counter, last searched model
    signature, outcome tally). Re-searches and remaining-cost projections
    replay plans on the optimizer's
    :class:`~repro.optimizer.kernel.SampleIndex` for the sample, so they
    answer from the comparison boxes of every earlier search on it.
    Engines own the execution state; the controller never mutates the
    middleware.

    Args:
        sample: the planning sample (the same knowledge model the initial
            plan was optimized on).
        fn: the query's monotone scoring function.
        k: retrieval size.
        n_total: object count of the real database (the scale anchor).
        assumed_model: the cost model the initial plan was priced under.
        initial_plan: the plan the engine starts executing.
        config: knobs; defaults to :class:`ReplanConfig` (drift mode).
        optimizer: the re-search facade; a plain :class:`NCOptimizer`
            when ``None``. Serving layers pass their metrics-wired one.
        no_wild_guesses: mirror of the executing middleware's setting.
    """

    def __init__(
        self,
        sample: Dataset,
        fn: ScoringFunction,
        k: int,
        n_total: int,
        assumed_model: CostModel,
        initial_plan: SRGPlan,
        config: Optional[ReplanConfig] = None,
        optimizer: Optional[NCOptimizer] = None,
        no_wild_guesses: bool = True,
    ):
        if sample.m != assumed_model.m:
            raise ValueError(
                f"sample width {sample.m} != cost model width {assumed_model.m}"
            )
        if len(initial_plan.depths) != assumed_model.m:
            raise ValueError("initial plan arity differs from the cost model")
        self.sample = sample
        self.fn = fn
        self.k = k
        self.n_total = n_total
        self.assumed_model = assumed_model
        self.config = config if config is not None else ReplanConfig()
        self.optimizer = optimizer if optimizer is not None else NCOptimizer()
        self.no_wild_guesses = no_wild_guesses
        self.plan = initial_plan
        self.revision = 0
        self._sample_k = max(1, round(k * sample.n / n_total))
        self._scale = n_total / sample.n
        self._last_check = 0
        # Seeded with the *assumed* scenario: until observed reality
        # diverges from it, there is nothing new to search.
        self._last_signature = self._signature(assumed_model, ())
        self.checks = 0
        self.searches = 0
        self.switches = 0
        self.outcomes: dict[str, int] = {}
        self._capped_reported = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def plan_id(self) -> str:
        """Stable id of the currently adopted plan."""
        return plan_fingerprint(self.plan)

    def summary(self) -> dict:
        """JSON-safe decision tally for result metadata and ``stats()``."""
        return {
            "plan_id": self.plan_id,
            "revision": self.revision,
            "checks": self.checks,
            "searches": self.searches,
            "switches": self.switches,
            "outcomes": dict(self.outcomes),
        }

    # ------------------------------------------------------------------
    # Model revision
    # ------------------------------------------------------------------

    def revised_model(
        self, middleware: "Middleware"
    ) -> tuple[CostModel, tuple[tuple[int, str], ...]]:
        """The cost model as reality currently looks, plus blocked channels.

        Observed per-channel means (assumed costs where under-observed)
        from the middleware's monitor; channels whose breaker refuses
        access get their unit cost multiplied by the finite
        ``breaker_penalty`` so the search avoids them without declaring
        them incapable.
        """
        monitor = middleware.monitor
        base = (
            monitor.estimated_model()
            if monitor is not None
            else middleware.cost_model
        )
        penalty = self.config.breaker_penalty
        cs: list[float] = []
        cr: list[float] = []
        blocked: list[tuple[int, str]] = []
        for i in range(base.m):
            s = base.sorted_cost(i)
            r = base.random_cost(i)
            if not math.isinf(s) and not middleware.access_allowed(
                i, AccessType.SORTED
            ):
                s = max(s, 1.0) * penalty
                blocked.append((i, "sorted"))
            if not math.isinf(r) and not middleware.access_allowed(
                i, AccessType.RANDOM
            ):
                r = max(r, 1.0) * penalty
                blocked.append((i, "random"))
            cs.append(s)
            cr.append(r)
        return CostModel(tuple(cs), tuple(cr)), tuple(blocked)

    @staticmethod
    def _signature(
        model: CostModel, blocked: tuple[tuple[int, str], ...]
    ) -> tuple:
        """Quantized scenario key deciding whether a re-search is due.

        Unit costs are bucketed on a ~25% log grid: running means jitter
        on every observation, and re-optimizing over sub-bucket noise
        would burn estimator runs on plans the margin test rejects
        anyway. A genuinely drifting channel crosses buckets quickly.
        """

        def bucket(cost: float) -> float:
            if math.isinf(cost):
                return math.inf
            if cost <= 0.0:
                return -math.inf
            return round(math.log(cost, 1.25))

        quantized = tuple(
            (bucket(model.sorted_cost(i)), bucket(model.random_cost(i)))
            for i in range(model.m)
        )
        return (quantized, blocked)

    # ------------------------------------------------------------------
    # Remaining-cost projection
    # ------------------------------------------------------------------

    def projected_remaining(
        self, plan: SRGPlan, middleware: "Middleware", model: CostModel
    ) -> float:
        """Projected Eq. 1 cost still ahead if ``plan`` runs from here.

        The plan is simulated on the sample (scaled to ``n_total``, as the
        estimator prices it), then the run's *sunk* work is subtracted
        per channel: the sorted prefix depths actually descended
        (including cache-served positions -- progress is progress) and
        the probes actually performed. What remains is priced under the
        revised ``model``. Clamped at zero per channel: work already done
        beyond a plan's forecast is sunk, never refunded.

        The replay is answered from the optimizer's stored comparison
        boxes when one holds the plan (a candidate's always does: the
        search just priced it). Capability masks never change mid-run
        (penalties are finite), so the assumed model's index is the one
        every re-search used.
        """
        index = self.optimizer.index_for(
            self.sample, self.assumed_model, self.no_wild_guesses
        )
        schedule = tuple(plan.schedule)
        counts = index.box_answer(
            self.fn, self._sample_k, check_depths(plan.depths, self.sample.m), schedule
        )
        if counts is None:
            counts = index.simulate(self.fn, self._sample_k, plan.depths, schedule)
        stats = middleware.stats
        total = 0.0
        for i in range(model.m):
            done_s = middleware.depth(i)
            done_r = stats.random_counts[i] + stats.cached_random_counts[i]
            rem_s = max(0.0, counts.sorted_counts[i] * self._scale - done_s)
            rem_r = max(0.0, counts.random_counts[i] * self._scale - done_r)
            unit_s = model.sorted_cost(i)
            unit_r = model.random_cost(i)
            if rem_s > 0.0 and not math.isinf(unit_s):
                total += rem_s * unit_s
            if rem_r > 0.0 and not math.isinf(unit_r):
                total += rem_r * unit_r
        return total

    # ------------------------------------------------------------------
    # The checkpoint decision
    # ------------------------------------------------------------------

    def _publish(
        self, middleware: "Middleware", outcome: str, **fields: object
    ) -> None:
        """One decision into the obs ledger: metric counter + trace event."""
        metrics = middleware.metrics
        if metrics is not None:
            metrics.inc("repro_replan_total", outcome=outcome)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        trace = middleware.trace
        if trace is not None:
            trace.emit(
                "replan",
                middleware.stats.total_accesses,
                outcome=outcome,
                revision=self.revision,
                plan_id=self.plan_id,
                **fields,
            )

    def maybe_replan(self, middleware: "Middleware") -> Optional[SRGPlan]:
        """Evaluate one checkpoint; returns the new plan on a switch.

        Returns ``None`` whenever the engine should keep its current
        policy -- which is the overwhelmingly common case: off mode, not
        yet ``check_every`` accesses since the last evaluation, no drift,
        an unchanged revised model, a candidate that fails the margin
        test, or the switch cap. The caller swaps its Select policy (and
        nothing else) when a plan comes back.
        """
        config = self.config
        if config.mode == "off":
            return None
        total = middleware.stats.total_accesses
        if total - self._last_check < config.check_every:
            return None
        self._last_check = total
        self.checks += 1
        if self.switches >= config.max_switches:
            if not self._capped_reported:
                self._capped_reported = True
                self._publish(middleware, "capped")
            return None
        monitor = middleware.monitor
        if config.mode == "drift":
            if monitor is None or not monitor.drifted(config.drift_tolerance):
                return None
        revised, blocked = self.revised_model(middleware)
        signature = self._signature(revised, blocked)
        if signature == self._last_signature:
            self._publish(middleware, "unchanged")
            return None
        self._last_signature = signature
        self.searches += 1
        candidate = self.optimizer.plan(
            self.sample,
            self.fn,
            self.k,
            self.n_total,
            revised,
            no_wild_guesses=self.no_wild_guesses,
            warm_start=[self.plan.depths],
        )
        remaining_current = self.projected_remaining(
            self.plan, middleware, revised
        )
        remaining_candidate = self.projected_remaining(
            candidate, middleware, revised
        )
        if remaining_candidate < remaining_current * (1.0 - config.margin):
            previous = self.plan_id
            self.plan = candidate
            self.revision += 1
            self.switches += 1
            if monitor is not None:
                # Fresh drift window anchored to the observed reality just
                # acted on (not the penalty-inflated search model), so the
                # same divergence does not re-trigger forever but a
                # recovering breaker still registers as change.
                monitor.rebase()
            self._publish(
                middleware,
                "switched",
                from_plan=previous,
                remaining_current=remaining_current,
                remaining_candidate=remaining_candidate,
                blocked_channels=len(blocked),
            )
            return candidate
        self._publish(
            middleware,
            "kept",
            remaining_current=remaining_current,
            remaining_candidate=remaining_candidate,
        )
        return None
