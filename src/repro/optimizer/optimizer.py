"""The optimizer facade: sample + scheme + schedule -> SR/G plan.

:class:`NCOptimizer` packages Section 7's pipeline:

1. pick an initial global schedule ``H_0`` by benefit/cost ranking;
2. Delta-optimization: run the configured search scheme against the
   simulation estimator under ``H_0``;
3. H-optimization: re-optimize the schedule at the chosen depths
   (heuristic mode keeps ``H_0``; exhaustive mode simulates permutations).

This mirrors the paper's alternating approximation: "we first identify the
optimal depth with respect to some initial schedule, then identify the
optimal scheduling with respect to the identified depths."
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Sequence

from repro.data.dataset import Dataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.optimizer.estimator import CostEstimator
from repro.optimizer.plan import SRGPlan
from repro.optimizer.schedule import ScheduleOptimizer, benefit_cost_schedule
from repro.optimizer.search import HillClimb, SearchScheme
from repro.scoring.functions import ScoringFunction
from repro.sources.cost import CostModel


class NCOptimizer:
    """Produces a cost-optimized :class:`SRGPlan` for a query and scenario.

    Args:
        scheme: the Delta-search scheme; defaults to :class:`HillClimb`,
            the paper's pick.
        schedule_optimizer: how ``H`` is chosen; defaults to the
            benefit/cost heuristic.
        metrics: optional :class:`~repro.obs.MetricsRegistry` threaded
            into every estimator this optimizer builds.
        trace: optional :class:`~repro.obs.TraceRecorder` receiving
            ``phase`` events (schedule / delta-search / h-optimization,
            tick-stamped with the estimator's cumulative run counter).
        clock: optional monotonic time source (e.g.
            ``time.perf_counter``). When provided, per-phase wall times
            are recorded in plan notes (``phase_seconds``) and the
            ``repro_optimizer_phase_seconds_total`` metric. The default
            (``None``) reads no clock at all, keeping the optimizer free
            of ambient wall-clock access on serving paths.
    """

    def __init__(
        self,
        scheme: Optional[SearchScheme] = None,
        schedule_optimizer: Optional[ScheduleOptimizer] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.scheme = scheme if scheme is not None else HillClimb()
        self.schedule_optimizer = (
            schedule_optimizer
            if schedule_optimizer is not None
            else ScheduleOptimizer(mode="heuristic")
        )
        self.metrics = metrics
        self.trace = trace
        self.clock = clock

    def _phase(self, estimator: CostEstimator, name: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(
                "phase", estimator.runs, phase=name, **fields
            )

    def plan(
        self,
        sample: Dataset,
        fn: ScoringFunction,
        k: int,
        n_total: int,
        cost_model: CostModel,
        no_wild_guesses: bool = True,
        min_sample_k: Optional[int] = None,
        warm_start: Optional[Sequence[Sequence[float]]] = None,
    ) -> SRGPlan:
        """Optimize ``(Delta, H)`` for the query on the given scenario.

        ``min_sample_k`` opts into bootstrap amplification of the sample
        when proportional scaling would simulate with a tiny retrieval
        size (see :class:`CostEstimator`).

        ``warm_start`` passes depth vectors believed near-optimal (e.g.
        a previous winning plan on the same scenario) to the search
        scheme, when the scheme supports them (:class:`HillClimb` does);
        schemes without a ``warm_starts`` parameter ignore the hint.
        Warm starts never replace the scheme's canonical start points,
        so they can only add evaluations, not degrade the plan.
        """
        estimator = CostEstimator(
            sample,
            fn,
            k,
            n_total,
            cost_model,
            no_wild_guesses=no_wild_guesses,
            min_sample_k=min_sample_k,
            metrics=self.metrics,
        )
        clock = self.clock
        phase_seconds: dict[str, float] = {}
        t_phase = clock() if clock is not None else 0.0

        def finish_phase(name: str) -> float:
            if clock is None:
                return 0.0
            now = clock()
            phase_seconds[name] = now - t_phase
            if self.metrics is not None:
                self.metrics.inc(
                    "repro_optimizer_phase_seconds_total",
                    now - t_phase,
                    phase=name,
                )
            return now

        self._phase(estimator, "schedule", scheme=self.scheme.describe())
        initial_schedule = benefit_cost_schedule(sample, cost_model)
        # The estimator's default schedule is the identity; thread H_0
        # through explicitly for both phases.
        start_runs = estimator.runs

        class _Scheduled:
            """Estimator view pinning the schedule during Delta search."""

            sample = estimator.sample
            fn = estimator.fn
            cost_model = estimator.cost_model

            @property
            def runs(self) -> int:
                return estimator.runs

            @staticmethod
            def estimate(depths, schedule=None):
                return estimator.estimate(
                    depths, schedule if schedule is not None else initial_schedule
                )

        t_phase = finish_phase("schedule")
        self._phase(estimator, "delta_search")
        search_kwargs: dict[str, object] = {}
        if warm_start is not None:
            try:
                params = inspect.signature(self.scheme.search).parameters
            except (TypeError, ValueError):  # pragma: no cover - exotic callables
                params = {}
            if "warm_starts" in params:
                search_kwargs["warm_starts"] = warm_start
        result = self.scheme.search(
            _Scheduled(), **search_kwargs  # type: ignore[arg-type]
        )
        t_phase = finish_phase("delta_search")
        self._phase(estimator, "h_optimization")
        schedule = self.schedule_optimizer.optimize(
            estimator, result.depths, initial=initial_schedule
        )
        cost = estimator.estimate(result.depths, schedule)
        finish_phase("h_optimization")
        done_fields: dict[str, object] = {
            "cost": cost,
            "fallbacks": estimator.fallbacks,
        }
        if clock is not None:
            done_fields["phase_seconds"] = dict(phase_seconds)
        self._phase(estimator, "done", **done_fields)
        notes: dict[str, object] = {
            "scheme": self.scheme.describe(),
            "sample_size": sample.n,
            "sample_k": estimator.sample_k,
            "kernel_runs": estimator.kernel_runs,
            "box_hits": estimator.box_hits,
            "reference_runs": estimator.reference_runs,
            "fallbacks": estimator.fallbacks,
            "warm_started": bool(search_kwargs),
        }
        if clock is not None:
            notes["phase_seconds"] = phase_seconds
        return SRGPlan(
            depths=result.depths,
            schedule=schedule,
            estimated_cost=cost,
            estimator_runs=estimator.runs - start_runs,
            notes=notes,
        )
