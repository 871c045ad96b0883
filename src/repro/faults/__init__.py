"""Fault tolerance for flaky web sources (contract: docs/FAULTS.md).

Real deep-web sources time out, rate-limit, and die mid-query. This
package makes that regime first-class and survivable:

* :class:`FaultProfile` / :class:`FaultInjectingSource` -- deterministic,
  seed-driven chaos over any :class:`~repro.sources.base.Source`:
  transient errors, timeouts, slow responses, permanent outages, per
  access type;
* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  seeded jitter, enforced *inside* the middleware so every retry is
  charged into the Eq. 1 cost accounting;
* :class:`CircuitBreaker` / :class:`BreakerPolicy` -- per-source
  closed/open/half-open breakers that fail fast on dead sources and let
  NC-family engines degrade to bound-only answers instead of crashing;
* :func:`faulty_sources_for` / :func:`chaos_middleware` -- one-call
  construction of a fault-injected, retry-enabled middleware over a
  dataset, for tests, benchmarks and the CLI's chaos flags.
"""

from __future__ import annotations

from typing import Optional

from repro.data.dataset import Dataset
from repro.faults.breaker import (
    BreakerPolicy,
    BreakerSignal,
    BreakerState,
    CircuitBreaker,
    breakers_for,
    degraded_predicates,
)
from repro.faults.injector import (
    FaultInjectingSource,
    FaultProfile,
    faulty_sources_for,
)
from repro.faults.retry import RetryPolicy
from repro.sources.cost import CostModel

__all__ = [
    "FaultProfile",
    "FaultInjectingSource",
    "faulty_sources_for",
    "RetryPolicy",
    "BreakerPolicy",
    "BreakerSignal",
    "BreakerState",
    "CircuitBreaker",
    "breakers_for",
    "degraded_predicates",
    "chaos_middleware",
]


def chaos_middleware(
    dataset: Dataset,
    cost_model: CostModel,
    profile: FaultProfile,
    seed: int = 0,
    retry_policy: Optional[RetryPolicy] = None,
    breaker_policy: Optional[BreakerPolicy] = None,
    **middleware_kwargs,
):
    """A metered middleware whose sources misbehave deterministically.

    Mirrors :meth:`Middleware.over` but wraps every simulated source in a
    :class:`FaultInjectingSource` and arms the middleware with the given
    retry and breaker policies (library defaults when omitted -- pass
    ``RetryPolicy(max_attempts=1)`` to disable retrying).
    """
    # Imported lazily: the middleware itself depends on this package's
    # breaker and retry modules.
    from repro.sources.middleware import Middleware

    if cost_model.m != dataset.m:
        raise ValueError(
            f"cost model covers {cost_model.m} predicates but dataset has "
            f"{dataset.m}"
        )
    sources = faulty_sources_for(
        dataset,
        profile,
        seed=seed,
        sorted_capable=cost_model.sorted_capabilities,
        random_capable=cost_model.random_capabilities,
    )
    return Middleware(
        sources,
        cost_model,
        n_objects=dataset.n,
        retry_policy=retry_policy if retry_policy is not None else RetryPolicy(),
        breaker_policy=breaker_policy,
        **middleware_kwargs,
    )
