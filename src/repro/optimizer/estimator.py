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

Two kinds of execution produce that sample cost:

* the **reference engine** builds a fresh
  :class:`~repro.sources.middleware.Middleware` and steps
  :class:`~repro.core.framework.FrameworkNC` object-by-object -- the
  engine itself, trivially correct, but re-sorting the sample and paying
  the full access-layer machinery on every call. It is the
  differential-test oracle and the only fallback;
* the **fast path** replays the same algorithm plan by plan on a
  :class:`~repro.optimizer.kernel.SampleIndex` built once per estimator
  (:meth:`SampleIndex.simulate`), bitwise-identical by construction.

The fast path yields per-plan access counts or the exception the engine
would raise, under one trust ladder. ``vectorized`` selects the mode:
``False`` is reference-only; ``"auto"`` (the default) replays the first
:data:`AUTO_VERIFY_RUNS` fast-path outcomes against the reference engine
and *permanently falls back* to it on a disagreement or an internal
kernel error; ``True`` trusts the fast path and turns a disagreement
into :class:`~repro.exceptions.KernelMismatchError`. Every fallback is
counted (:attr:`CostEstimator.fallbacks`, and
``repro_estimator_fallbacks_total`` labelled ``reason=verify_mismatch``
or ``internal_error``), never silent.

Results are memoized per ``(Delta, H)`` in a bounded LRU so search
schemes revisiting a configuration (hill-climbing does constantly) pay
once; the run counter still reports *distinct* simulation runs, the
optimization-overhead metric of the scheme-comparison experiment.

Behind that exact-key memo sits a **comparison-box memo**. The fast
path reads the depths only through the SR tests ``l_i > delta_i``, and
each replay returns the box of depths that answer every test it made
alike (:attr:`SimulationCounts.box`). On an exact-key miss the estimator
scans the boxes stored for the same schedule, newest first; a plan
inside one takes that replay's counts without replaying (docs/PERF.md
gives the exactness argument). Such a *box answer* is a fast-path
outcome in every respect: it counts as a distinct run and a ``kernel``
run and uses up the ``"auto"`` verify budget exactly like a fresh
replay, so it is cross-checked under the same trust ladder. Only fresh
fast-path replays that returned and passed any cross-check store a box;
the reference engine stores none. Box answers are counted
(:attr:`CostEstimator.box_hits`, ``repro_estimator_box_hits_total``),
and the stored boxes share the memo's ``cache_size`` cap.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Optional, Sequence, Union

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.exceptions import KernelMismatchError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.kernel import SampleIndex, SimulationCounts, check_depths
from repro.scoring.functions import ScoringFunction
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware

#: Plan key: exact depth floats + the schedule permutation. Depths are
#: produced deterministically by the search schemes, so exact equality is
#: the correct notion of "same plan" -- rounding (an earlier revision
#: rounded to 6 digits) collides distinct fine-step hill-climb depths.
PlanKey = tuple[tuple[float, ...], tuple[int, ...]]

#: How many fast-path outcomes ``vectorized="auto"`` cross-checks
#: against the reference engine before trusting it outright.
AUTO_VERIFY_RUNS = 3


class CostEstimator:
    """Estimates full-database SR/G plan costs by sample simulation.

    Args:
        sample: the sample database (true-distribution or dummy).
        fn: the query's scoring function.
        k: the query's retrieval size (on the full database).
        n_total: the full database size the estimate scales to.
        cost_model: the scenario's access costs.
        no_wild_guesses: mirror of the real middleware's setting.
        vectorized: ``True`` | ``False`` | ``"auto"`` -- see the module
            docstring. ``"auto"`` is the default.
        verify: cross-check policy for fast-path outcomes. ``None``
            (default) verifies the first :data:`AUTO_VERIFY_RUNS`
            fast-path outcomes in ``"auto"`` mode and none in
            ``True`` mode; ``True`` verifies every outcome; ``False``
            verifies none.
        cache_size: LRU capacity of the plan-cost memo, and separately
            the cap on stored comparison boxes, oldest dropped first
            (``None`` = unbounded, the pre-bounding behaviour; serving
            processes should keep the default cap).
        metrics: optional :class:`~repro.obs.MetricsRegistry` fed with
            run/cache/fallback counters (``repro_estimator_*``,
            docs/OBSERVABILITY.md).
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
        vectorized: Union[bool, str] = "auto",
        verify: Optional[bool] = None,
        cache_size: Optional[int] = 65536,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {n_total}")
        if sample.m != cost_model.m:
            raise ValueError("sample width and cost model width differ")
        if fn.arity != sample.m:
            raise ValueError("scoring function arity and sample width differ")
        if vectorized not in (True, False, "auto"):
            raise ValueError(
                f'vectorized must be True, False or "auto", got {vectorized!r}'
            )
        if cache_size is not None and cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
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
        self.sample = sample
        self.fn = fn
        self.k = k
        self.n_total = n_total
        self.cost_model = cost_model
        self.no_wild_guesses = no_wild_guesses
        self.sample_k = max(1, round(k * sample.n / n_total))
        self.scale = n_total / sample.n
        self.vectorized = vectorized
        self.verify = verify
        self.cache_size = cache_size
        self._cache: OrderedDict[PlanKey, float] = OrderedDict()
        # Comparison boxes per schedule (oldest first), and the schedules
        # in storing order for eviction.
        self._boxes: dict[tuple[int, ...], list[SimulationCounts]] = {}
        self._box_order: deque[tuple[int, ...]] = deque()
        self._box_hits = 0
        self._runs = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._path_runs = {"kernel": 0, "reference": 0}
        self._fallbacks = 0
        self._index: Optional[SampleIndex] = None
        self._kernel_enabled = vectorized in (True, "auto")
        if verify is True:
            self._verify_remaining = float("inf")
        elif verify is None and vectorized == "auto":
            self._verify_remaining = float(AUTO_VERIFY_RUNS)
        else:
            self._verify_remaining = 0.0
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

        One per distinct plan simulated, independent of execution path;
        verification replays do not add to it.
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
        """Simulations executed on the per-plan fast-path replay."""
        return self._path_runs["kernel"]

    @property
    def reference_runs(self) -> int:
        """Simulations executed on the reference engine (incl. cross-checks)."""
        return self._path_runs["reference"]

    @property
    def fallbacks(self) -> int:
        """Times the fast path was abandoned for the reference engine.

        Non-zero means a spot-check disagreed or a kernel raised an
        internal error in ``"auto"`` mode; results stay identical (the
        reference engine takes over for good), only wall-clock suffers,
        so each abandonment is counted here, labelled by reason in
        ``repro_estimator_fallbacks_total``, and surfaced in
        ``NCOptimizer`` plan notes.
        """
        return self._fallbacks

    @property
    def kernel_active(self) -> bool:
        """Whether new simulations currently take the fast path."""
        return self._kernel_enabled

    def cache_info(self) -> dict:
        """Memo statistics: hits, misses, current size, and the cap."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._cache),
            "cap": self.cache_size,
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
        if self.cache_size is not None:
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _box_get(
        self, depths: tuple[float, ...], schedule: tuple[int, ...]
    ) -> Optional[SimulationCounts]:
        """The newest stored replay whose comparison box holds ``depths``."""
        for counts in reversed(self._boxes.get(schedule, ())):
            lo, hi = counts.box  # type: ignore[misc]
            for a, d, b in zip(lo, depths, hi):
                if not a <= d < b:
                    break
            else:
                return counts
        return None

    def _box_put(
        self, schedule: tuple[int, ...], counts: SimulationCounts
    ) -> None:
        if counts.box is None:
            return
        self._boxes.setdefault(schedule, []).append(counts)
        self._box_order.append(schedule)
        if self.cache_size is not None and len(self._box_order) > self.cache_size:
            oldest = self._box_order.popleft()
            boxes = self._boxes[oldest]
            del boxes[0]
            if not boxes:
                del self._boxes[oldest]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def _reference_cost(
        self, depths: tuple[float, ...], schedule: tuple[int, ...]
    ) -> float:
        middleware = Middleware.over(
            self.sample,
            self.cost_model,
            no_wild_guesses=self.no_wild_guesses,
        )
        policy = SRGPolicy(depths, schedule)
        engine = FrameworkNC(middleware, self.fn, self.sample_k, policy)
        engine.run()
        self._path_runs["reference"] += 1
        self._m_inc("repro_estimator_runs_total", path="reference")
        return middleware.stats.total_cost() * self.scale

    def _reference_run(self, plan: PlanKey) -> float:
        self._runs += 1
        return self._reference_cost(*plan)

    def _ensure_index(self) -> SampleIndex:
        if self._index is None:
            self._index = SampleIndex(
                self.sample,
                self.cost_model,
                no_wild_guesses=self.no_wild_guesses,
            )
        return self._index

    def _fall_back(self, reason: str) -> None:
        self._fallbacks += 1
        self._m_inc("repro_estimator_fallbacks_total", reason=reason)
        self._kernel_enabled = False

    def _simulate(self, plan: PlanKey) -> float:
        """Cost of one uncached plan under the trust ladder.

        A plan the engine itself would reject raises its error, counted
        in ``runs`` but not in a path counter. A rejected fast-path
        attempt still counts as a ``kernel`` run; the reference engine's
        cost is returned in its place. A plan inside a stored comparison
        box takes that replay's counts instead of replaying.
        """
        if not self._kernel_enabled:
            return self._reference_run(plan)
        depths, schedule = plan
        try:
            # Range-checked first: a box may extend past [0, 1].
            counts = self._box_get(
                check_depths(depths, self.sample.m), schedule
            )
            replayed = counts is None
            if counts is None:
                counts = self._ensure_index().simulate(
                    self.fn, self.sample_k, depths, schedule
                )
        except (ReproError, ValueError):
            # Conditions the reference engine raises too (unanswerable
            # query, bad plan): genuine errors, not kernel faults.
            self._runs += 1
            raise
        except Exception:
            if self.vectorized is True:
                raise
            self._fall_back("internal_error")
            return self._reference_run(plan)
        cost = counts.cost(self.cost_model) * self.scale
        self._runs += 1
        self._path_runs["kernel"] += 1
        self._m_inc("repro_estimator_runs_total", path="kernel")
        if not replayed:
            self._box_hits += 1
            self._m_inc("repro_estimator_box_hits_total")
        if self._verify_remaining > 0:
            self._verify_remaining -= 1
            reference = self._reference_cost(depths, schedule)
            if reference != cost:
                if self.vectorized is True:
                    raise KernelMismatchError(
                        f"kernel cost {cost!r} != reference cost "
                        f"{reference!r} for plan depths={depths} "
                        f"schedule={schedule}"
                    )
                self._fall_back("verify_mismatch")
                return reference
        if replayed:
            self._box_put(schedule, counts)
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
