"""repro: unified cost-based optimization for top-k queries over web sources.

A from-scratch reproduction of Hwang & Chang, "Optimizing Access Cost for
Top-k Queries over Web Sources: A Unified Cost-based Approach" (ICDE 2005 /
UIUC TR). The library provides:

* a simulated web-source substrate with the paper's access/cost model
  (:mod:`repro.sources`, :mod:`repro.data`);
* Framework NC -- the general-yet-specific algorithm space -- and its
  engine (:mod:`repro.core`);
* the cost-based optimizer searching SR/G plans (:mod:`repro.optimizer`);
* the specialized baselines of the literature (:mod:`repro.algorithms`);
* bounded-concurrency execution (:mod:`repro.parallel`);
* fault tolerance for flaky sources -- injection, retry/backoff,
  circuit breakers, graceful degradation (:mod:`repro.faults`);
* unified observability -- one metrics registry every layer feeds and a
  deterministic structured access trace (:mod:`repro.obs`);
* the benchmark harness regenerating the paper's experiments
  (:mod:`repro.bench`).

Quickstart::

    from repro import (
        CostModel, Middleware, Min, NC, uniform,
    )

    data = uniform(n=1000, m=2, seed=7)
    costs = CostModel.uniform(2, cs=1.0, cr=10.0)
    mw = Middleware.over(data, costs)
    result = NC().run(mw, Min(2), k=5)
    print(result.objects, result.total_cost())
"""

from repro.algorithms import (
    CA,
    FA,
    NC,
    NRA,
    BruteForce,
    MPro,
    QuickCombine,
    SRCombine,
    StreamCombine,
    TA,
    TopKAlgorithm,
    Upper,
)
from repro.core import (
    FrameworkNC,
    FrameworkTG,
    RandomPolicy,
    RoundRobinPolicy,
    ScoreState,
    SelectPolicy,
    SRGPolicy,
)
from repro.data import (
    Dataset,
    anticorrelated,
    clustered,
    correlated,
    dataset1,
    gaussian,
    hotels_dataset,
    mixture,
    restaurants_dataset,
    uniform,
    zipf_skewed,
)
from repro.exceptions import (
    BudgetExceededError,
    CapabilityError,
    DuplicateAccessError,
    ExhaustedSourceError,
    NotMonotoneError,
    OptimizationError,
    ReproError,
    RetryExhaustedError,
    ServiceOverloadError,
    SourceFaultError,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
    UnanswerableQueryError,
    WildGuessError,
)
from repro.faults import (
    BreakerPolicy,
    BreakerState,
    chaos_middleware,
    CircuitBreaker,
    FaultInjectingSource,
    FaultProfile,
    faulty_sources_for,
    RetryPolicy,
)
from repro.obs import (
    MetricsRegistry,
    TraceEvent,
    TraceRecorder,
    build_timeline,
    format_timeline,
    read_trace,
)
from repro.optimizer import (
    CostEstimator,
    bootstrap_sample,
    HillClimb,
    NaiveGrid,
    NCOptimizer,
    ScheduleOptimizer,
    SRGPlan,
    Strategies,
    benefit_cost_schedule,
    dummy_uniform_sample,
    sample_from_dataset,
)
from repro.analysis import (
    competitive_ratio,
    format_trace_summary,
    instance_profile,
    offline_optimal,
    summarize_trace,
)
from repro.parallel import ParallelResult
from repro.query import ParsedQuery, QueryError, parse_query, run_query
from repro.service import QueryServer, ServerConfig, Session
from repro.scoring import (
    Avg,
    Geometric,
    Max,
    Median,
    Min,
    Monotone,
    Product,
    ScoringFunction,
    WeightedSum,
    check_monotone,
)
from repro.sources import (
    AccessStats,
    CachedSource,
    CacheStats,
    CallbackSource,
    ConstantLatency,
    CostModel,
    CostMonitor,
    LatencyModel,
    Middleware,
    NoisyLatency,
    SimulatedSource,
    SourceCache,
)
from repro.types import Access, AccessType, QueryResult, RankedObject

__version__ = "1.0.0"

__all__ = [
    # types
    "Access",
    "AccessType",
    "QueryResult",
    "RankedObject",
    # scoring
    "ScoringFunction",
    "Min",
    "Max",
    "Avg",
    "WeightedSum",
    "Product",
    "Geometric",
    "Median",
    "Monotone",
    "check_monotone",
    # data
    "Dataset",
    "dataset1",
    "uniform",
    "gaussian",
    "zipf_skewed",
    "correlated",
    "anticorrelated",
    "clustered",
    "mixture",
    "restaurants_dataset",
    "hotels_dataset",
    # sources
    "SimulatedSource",
    "CallbackSource",
    "CostModel",
    "AccessStats",
    "Middleware",
    "CostMonitor",
    "LatencyModel",
    "ConstantLatency",
    "NoisyLatency",
    "SourceCache",
    "CachedSource",
    "CacheStats",
    # core
    "ScoreState",
    "SelectPolicy",
    "SRGPolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "FrameworkNC",
    "FrameworkTG",
    # algorithms
    "TopKAlgorithm",
    "BruteForce",
    "FA",
    "TA",
    "NRA",
    "CA",
    "MPro",
    "Upper",
    "QuickCombine",
    "StreamCombine",
    "SRCombine",
    "NC",
    # optimizer
    "SRGPlan",
    "CostEstimator",
    "NCOptimizer",
    "NaiveGrid",
    "Strategies",
    "HillClimb",
    "ScheduleOptimizer",
    "benefit_cost_schedule",
    "sample_from_dataset",
    "dummy_uniform_sample",
    "bootstrap_sample",
    # parallel
    "ParallelResult",
    # query front end
    "parse_query",
    "run_query",
    "ParsedQuery",
    "QueryError",
    # service
    "QueryServer",
    "ServerConfig",
    "Session",
    # analysis
    "offline_optimal",
    "competitive_ratio",
    "instance_profile",
    "summarize_trace",
    "format_trace_summary",
    # faults
    "FaultProfile",
    "FaultInjectingSource",
    "faulty_sources_for",
    "chaos_middleware",
    "RetryPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    # observability
    "MetricsRegistry",
    "TraceRecorder",
    "TraceEvent",
    "read_trace",
    "build_timeline",
    "format_timeline",
    # exceptions
    "ReproError",
    "CapabilityError",
    "WildGuessError",
    "DuplicateAccessError",
    "ExhaustedSourceError",
    "UnanswerableQueryError",
    "NotMonotoneError",
    "OptimizationError",
    "BudgetExceededError",
    "SourceFaultError",
    "TransientSourceError",
    "SourceTimeoutError",
    "SourceUnavailableError",
    "RetryExhaustedError",
    "ServiceOverloadError",
]
