"""Cost-based optimization: search the SR/G plan space (Section 7).

The optimizer picks an SR/G plan ``(Delta, H)`` -- per-predicate
sorted-depth thresholds plus a global random-access schedule -- minimizing
estimated access cost for the query and cost scenario at hand:

* :mod:`repro.optimizer.sampling` -- sample databases (true-distribution
  subsamples or the paper's worst-case "dummy" uniform samples);
* :mod:`repro.optimizer.estimator` -- simulation-based cost estimation
  (Section 7.3): run the plan on the sample with retrieval size scaled
  proportionally, then scale the cost back up; its
  :func:`~repro.optimizer.estimator.reference_cost` runs the engine
  itself as the replay's oracle;
* :mod:`repro.optimizer.kernel` -- the flat fast-path replay of the SR/G
  engine the estimator uses to simulate plans without instantiating the
  middleware stack (bitwise-identical costs, docs/PERF.md);
* :mod:`repro.optimizer.search` -- the Delta-search schemes of
  Section 7.2: Naive exhaustive grid, query-driven Strategies, and
  multi-restart HClimb hill climbing;
* :mod:`repro.optimizer.schedule` -- global schedule ``H`` optimization
  (benefit/cost ranking a la MPro, optionally exhaustive for small ``m``);
* :mod:`repro.optimizer.optimizer` -- the :class:`NCOptimizer` facade
  producing an :class:`SRGPlan`;
* :mod:`repro.optimizer.replan` -- mid-flight adaptive replanning: fold
  observed costs / breaker state back into the model at engine
  checkpoints and switch plans on projected-remaining-cost improvement.
"""

from repro.optimizer.estimator import CostEstimator, reference_cost
from repro.optimizer.kernel import SampleIndex, SimulationCounts
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.optimizer.sampling import (
    bootstrap_sample,
    dummy_uniform_sample,
    histogram_of,
    histogram_sample,
    online_sample,
    sample_from_dataset,
)
from repro.optimizer.replan import (
    ReplanConfig,
    ReplanController,
    plan_fingerprint,
)
from repro.optimizer.schedule import ScheduleOptimizer, benefit_cost_schedule
from repro.optimizer.search import (
    HillClimb,
    NaiveGrid,
    SearchResult,
    SearchScheme,
    Strategies,
)

__all__ = [
    "SRGPlan",
    "CostEstimator",
    "reference_cost",
    "SampleIndex",
    "SimulationCounts",
    "NCOptimizer",
    "ReplanConfig",
    "ReplanController",
    "plan_fingerprint",
    "SearchScheme",
    "SearchResult",
    "NaiveGrid",
    "Strategies",
    "HillClimb",
    "ScheduleOptimizer",
    "benefit_cost_schedule",
    "sample_from_dataset",
    "dummy_uniform_sample",
    "bootstrap_sample",
    "online_sample",
    "histogram_of",
    "histogram_sample",
]
