"""Simulation-based plan cost estimation (Section 7.3).

Boolean optimizers estimate plan costs analytically from per-predicate
selectivities; top-k queries aggregate predicates through an *arbitrary*
monotone function, so the aggregate effect "cannot be quantified by
analytic composition ... but only by simulation runs". The estimator
therefore *executes* each candidate SR/G plan on a small sample database:

* the sample plays the database, with the same cost model and wild-guess
  setting as the real scenario;
* the retrieval size is scaled proportionally,
  ``k_s = max(1, round(k * s / n))``;
* the measured sample cost is scaled back by ``n / s``.

Each plan is priced by replaying the algorithm on a
:class:`~repro.optimizer.kernel.SampleIndex` built once per estimator
(:meth:`SampleIndex.simulate`): per-plan access counts, or the exception
the engine would raise, bitwise-identical by construction to stepping
:class:`~repro.core.framework.FrameworkNC` object by object over a fresh
:class:`~repro.sources.middleware.Middleware`. That engine run is
:func:`reference_cost`, the replay's oracle, with three uses:

* the differential tests and benchmarks compare the replay against it;
* when the replay raises an internal error (a kernel bug, not a plan
  the engine rejects too), that one plan is priced by the reference
  engine and counted (:attr:`CostEstimator.fallbacks`,
  ``repro_estimator_fallbacks_total{reason="internal_error"}``); the
  next plan tries the replay again;
* with contracts armed (``REPRO_CONTRACTS``, :mod:`repro.contracts`)
  every replay outcome, box answers and errors included, is priced by
  the reference engine too, and any disagreement raises
  :class:`~repro.exceptions.ContractViolationError`. Unarmed, the
  estimator never runs the reference engine but for a fallback.

Results are memoized per ``(Delta, H)`` in an LRU of
:data:`CACHE_SIZE` entries so search schemes revisiting a configuration
(hill-climbing does constantly) pay once; the run counter still reports
*distinct* simulation runs, the optimization-overhead metric of the
scheme-comparison experiment.

Behind that exact-key memo sits a **comparison-box memo**. The replay
reads the depths only through the SR tests ``l_i > delta_i``, and each
replay returns the box of depths that answer every test it made alike
(:attr:`SimulationCounts.box`). The boxes live on the
:class:`~repro.optimizer.kernel.SampleIndex`, keyed by ``(F, sample_k,
schedule)``, so every estimator handed one index shares them:
:class:`~repro.optimizer.NCOptimizer` keeps one index per sample,
capability masks and wild-guess setting, and initial searches and drift
replans alike answer from earlier searches' replays (the replay reads
the unit costs not at all, docs/PERF.md). On an exact-key miss the
estimator scans the boxes stored for its key, newest first; a plan
inside one takes that replay's counts without replaying. Such a *box
answer* counts as a distinct run and a ``kernel`` run, exactly like a
fresh replay, and is cross-checked like one under armed contracts.
Only fresh replays that returned (and passed any cross-check) store a
box; a fallback stores none. Box answers are counted
(:attr:`CostEstimator.box_hits`, ``repro_estimator_box_hits_total``),
and an index keeps at most :data:`CACHE_SIZE` boxes, oldest dropped
first. A sample amplified through ``min_sample_k`` replays on a private
index.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

from repro.contracts import env_enabled
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.exceptions import ContractViolationError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.kernel import SampleIndex, check_depths
from repro.scoring.functions import ScoringFunction
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware

#: Plan key: exact depth floats + the schedule permutation. Depths are
#: produced deterministically by the search schemes, so exact equality is
#: the correct notion of "same plan" -- rounding (an earlier revision
#: rounded to 6 digits) collides distinct fine-step hill-climb depths.
PlanKey = tuple[tuple[float, ...], tuple[int, ...]]

#: Capacity of the plan-cost memo, and separately the cap on the
#: comparison boxes one sample index stores; the oldest entry goes first.
CACHE_SIZE = 65536


class CostEstimator:
    """Estimates full-database SR/G plan costs by sample simulation.

    Args:
        sample: the sample database (true-distribution or dummy).
        fn: the query's scoring function.
        k: the query's retrieval size (on the full database).
        n_total: the full database size the estimate scales to.
        cost_model: the scenario's access costs.
        no_wild_guesses: mirror of the real middleware's setting.
        metrics: optional :class:`~repro.obs.MetricsRegistry` fed with
            run/cache/fallback counters (``repro_estimator_*``,
            docs/OBSERVABILITY.md).
        index: optional :class:`~repro.optimizer.kernel.SampleIndex` over
            ``sample`` with the cost model's capability masks and the same
            wild-guess setting, shared with other estimators together
            with its stored boxes. Built privately when ``None``, and
            ignored when ``min_sample_k`` amplifies the sample.
    """

    def __init__(
        self,
        sample: Dataset,
        fn: ScoringFunction,
        k: int,
        n_total: int,
        cost_model: CostModel,
        no_wild_guesses: bool = True,
        min_sample_k: Optional[int] = None,
        max_amplified_size: int = 5000,
        metrics: Optional[MetricsRegistry] = None,
        index: Optional[SampleIndex] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {n_total}")
        if sample.m != cost_model.m:
            raise ValueError("sample width and cost model width differ")
        if fn.arity != sample.m:
            raise ValueError("scoring function arity and sample width differ")
        if index is not None and (
            index.sample is not sample
            or index.no_wild_guesses != no_wild_guesses
            or index.sorted_capable != cost_model.sorted_capabilities
            or index.random_capable != cost_model.random_capabilities
        ):
            raise ValueError(
                "index was built over another sample, capability masks "
                "or wild-guess setting"
            )
        if min_sample_k is not None:
            if min_sample_k < 1:
                raise ValueError(f"min_sample_k must be >= 1, got {min_sample_k}")
            plain_k = max(1, round(k * sample.n / n_total))
            if plain_k < min_sample_k:
                # Proportional scaling would simulate an unrealistically
                # tiny retrieval; bootstrap-amplify the sample until the
                # scaled retrieval size is meaningful (capped to bound
                # simulation cost).
                from repro.optimizer.sampling import bootstrap_sample

                target = min(
                    max_amplified_size,
                    max(sample.n, -(-min_sample_k * n_total // k)),
                )
                if target > sample.n:
                    sample = bootstrap_sample(sample, target, seed=0)
                    index = None
        self.sample = sample
        self.fn = fn
        self.k = k
        self.n_total = n_total
        self.cost_model = cost_model
        self.no_wild_guesses = no_wild_guesses
        self.sample_k = max(1, round(k * sample.n / n_total))
        self.scale = n_total / sample.n
        self._cache: OrderedDict[PlanKey, float] = OrderedDict()
        self._box_hits = 0
        self._runs = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._path_runs = {"kernel": 0, "reference": 0}
        self._fallbacks = 0
        self._index = index
        self._armed = env_enabled()
        self._metrics = metrics

    def _m_inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, value, **labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def runs(self) -> int:
        """Distinct simulation runs performed (the optimizer's overhead).

        One per distinct plan simulated, however it was priced; armed
        cross-checks do not add to it.
        """
        return self._runs

    @property
    def cache_hits(self) -> int:
        """Estimates answered from the plan-cost memo."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Estimates that required a fresh simulation."""
        return self._cache_misses

    @property
    def box_hits(self) -> int:
        """Fast-path outcomes answered from a comparison box, unreplayed.

        Each is also counted in :attr:`runs` and :attr:`kernel_runs`.
        """
        return self._box_hits

    @property
    def kernel_runs(self) -> int:
        """Plans priced by the per-plan replay, box answers included."""
        return self._path_runs["kernel"]

    @property
    def reference_runs(self) -> int:
        """Reference engine runs: fallbacks, and armed cross-checks.

        Zero unless the replay raised an internal error or contracts are
        armed, where it equals :attr:`kernel_runs` plus the fallbacks.
        """
        return self._path_runs["reference"]

    @property
    def fallbacks(self) -> int:
        """Plans priced by the reference engine after an internal error.

        Each is a kernel bug: the plan's cost is still exact, only
        wall-clock suffers, and the next plan tries the replay again.
        Counted in ``repro_estimator_fallbacks_total`` and surfaced in
        ``NCOptimizer`` plan notes.
        """
        return self._fallbacks

    def cache_info(self) -> dict:
        """Memo statistics: hits, misses, current size, and the cap."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._cache),
            "cap": CACHE_SIZE,
        }

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def _key(
        self, depths: Sequence[float], schedule: Sequence[int]
    ) -> PlanKey:
        return (
            tuple(float(d) for d in depths),
            tuple(int(p) for p in schedule),
        )

    def _cache_get(self, key: PlanKey) -> Optional[float]:
        cost = self._cache.get(key)
        if cost is not None:
            self._cache.move_to_end(key)
        return cost

    def _cache_put(self, key: PlanKey, cost: float) -> None:
        self._cache[key] = cost
        self._cache.move_to_end(key)
        if len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def _reference(self, plan: PlanKey) -> float:
        cost = reference_cost(self, *plan)
        self._path_runs["reference"] += 1
        self._m_inc("repro_estimator_runs_total", path="reference")
        return cost

    def _cross_check(self, plan: PlanKey, outcome: object) -> None:
        """Armed contracts: the reference engine must reach ``outcome``.

        ``outcome`` is the replay's cost, or the type of its error.
        """
        try:
            reference: object = self._reference(plan)
        except (ReproError, ValueError) as exc:
            reference = type(exc)
        if reference != outcome:
            depths, schedule = plan
            raise ContractViolationError(
                f"plan-cost replay disagrees with the reference engine for "
                f"plan depths={depths} schedule={schedule}: kernel cost "
                f"{outcome!r}, reference cost {reference!r}"
            )

    def _ensure_index(self) -> SampleIndex:
        if self._index is None:
            self._index = SampleIndex(
                self.sample,
                self.cost_model,
                no_wild_guesses=self.no_wild_guesses,
            )
        return self._index

    def _simulate(self, plan: PlanKey) -> float:
        """Cost of one uncached plan: box memo, then a fresh replay.

        Every call counts one run. A plan the engine itself would reject
        raises its error. A plan inside a stored comparison box takes that
        replay's counts instead of replaying. An internal replay error
        prices this plan on the reference engine instead.
        """
        depths, schedule = plan
        self._runs += 1
        index = self._ensure_index()
        # Range-checked first: a box may extend past [0, 1].
        counts = index.box_answer(
            self.fn, self.sample_k, check_depths(depths, self.sample.m), schedule
        )
        replayed = counts is None
        if counts is None:
            try:
                counts = index.simulate(self.fn, self.sample_k, depths, schedule)
            except (ReproError, ValueError) as exc:
                # Conditions the reference engine raises too (unanswerable
                # query, bad plan): genuine errors, not kernel faults.
                if self._armed:
                    self._cross_check(plan, type(exc))
                raise
            except Exception:
                self._fallbacks += 1
                self._m_inc("repro_estimator_fallbacks_total", reason="internal_error")
                return self._reference(plan)
        cost = counts.cost(self.cost_model) * self.scale
        self._path_runs["kernel"] += 1
        self._m_inc("repro_estimator_runs_total", path="kernel")
        if not replayed:
            self._box_hits += 1
            self._m_inc("repro_estimator_box_hits_total")
        if self._armed:
            self._cross_check(plan, cost)
        if replayed:
            index.store_box(self.fn, self.sample_k, schedule, counts, CACHE_SIZE)
        return cost

    # ------------------------------------------------------------------
    # Public estimation API
    # ------------------------------------------------------------------

    def estimate(
        self,
        depths: Sequence[float],
        schedule: Optional[Sequence[int]] = None,
    ) -> float:
        """Estimated full-database cost of the SR/G plan ``(Delta, H)``."""
        key = self._key(
            depths, schedule if schedule is not None else range(self.sample.m)
        )
        cost = self._cache_get(key)
        if cost is not None:
            self._cache_hits += 1
            self._m_inc("repro_estimator_cache_total", event="hit")
            return cost
        self._cache_misses += 1
        self._m_inc("repro_estimator_cache_total", event="miss")
        cost = self._simulate(key)
        self._cache_put(key, cost)
        return cost


def reference_cost(
    estimator: CostEstimator,
    depths: Sequence[float],
    schedule: Optional[Sequence[int]] = None,
) -> float:
    """The reference engine's price of one SR/G plan on ``estimator``'s sample.

    Steps :class:`~repro.core.framework.FrameworkNC` over a fresh
    :class:`~repro.sources.middleware.Middleware` on the sample, with the
    estimator's function, scaled retrieval size, cost model and
    wild-guess setting, and scales the Eq. 1 cost back exactly as
    :meth:`CostEstimator.estimate` does. It raises what the engine raises
    and touches none of the estimator's memos or counters. This is the
    per-plan replay's oracle (module docstring).
    """
    middleware = Middleware.over(
        estimator.sample,
        estimator.cost_model,
        no_wild_guesses=estimator.no_wild_guesses,
    )
    policy = SRGPolicy(depths, schedule)
    FrameworkNC(middleware, estimator.fn, estimator.sample_k, policy).run()
    return middleware.stats.total_cost() * estimator.scale
