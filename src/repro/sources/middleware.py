"""The middleware access layer every algorithm runs against.

:class:`Middleware` is the single gate between algorithms and sources. It

* prices and counts every access (Eq. 1 accounting via
  :class:`~repro.sources.stats.AccessStats`);
* enforces the **no wild guesses** rule (Section 3.2, footnote 1): a random
  access may only target an object previously seen from some sorted access;
* rejects **duplicate score retrievals** in strict mode -- random accesses
  are not progressive, so refetching a known score is an algorithm bug;
* exposes the sorted-access side-effect state (last-seen scores ``l_i``,
  depths, exhaustion) that bound reasoning builds on;
* serves **cache hits free of charge** (docs/SERVICE.md): accesses a
  cross-query :class:`~repro.sources.cache.SourceCache` view answers
  without touching a web source are recorded as uncharged hits, so a
  warm-started query replays shared prefixes and memoized probes at zero
  Eq. 1 cost;
* absorbs **source faults** (docs/FAULTS.md): transient failures are
  retried under a :class:`~repro.faults.RetryPolicy` with every attempt
  charged into Eq. 1, and a per-source
  :class:`~repro.faults.CircuitBreaker` fails fast on predicates that
  keep dying, surfacing :class:`~repro.exceptions.SourceUnavailableError`
  so engines can degrade to bound-only answers.

Running every algorithm -- the NC framework and all baselines -- through
this one layer is what makes the paper's cross-algorithm cost comparisons
exact and the unification claims directly testable.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache -> middleware)
    from repro.sources.cache import SourceCache

from repro.contracts import ContractChecker, resolve_checker
from repro.data.dataset import Dataset
from repro.exceptions import (
    BudgetExceededError,
    CapabilityError,
    DuplicateAccessError,
    ExhaustedSourceError,
    RetryExhaustedError,
    SourceUnavailableError,
    TransientSourceError,
    WildGuessError,
)
from repro.faults.breaker import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    breakers_for,
    degraded_predicates,
)
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.sources.base import Source
from repro.sources.cost import CostModel
from repro.sources.monitor import CostMonitor
from repro.sources.simulated import sources_for
from repro.sources.stats import AccessStats
from repro.types import Access, AccessType

#: Serial numbers for :attr:`Middleware.gate_epoch`, unique process-wide,
#: so an epoch can never repeat (as an ``id()`` may after collection).
_EPOCHS = itertools.count(1)
_serial = attrgetter("serial")
_exhaustions = attrgetter("exhaustions")


class _Channel:
    """One source channel's per-access handles, bound at its first access.

    The channel's breaker, its Eq. 1 unit cost and its three per-access
    counter series (``None`` without a metrics registry), so an access
    reads them instead of re-deriving them from ``(predicate, kind)``.
    """

    __slots__ = ("breaker", "cost", "accesses", "charged", "cached")

    def __init__(self, middleware: "Middleware", predicate: int, kind: AccessType):
        self.breaker = middleware._breakers[(predicate, kind)]
        cost_model = middleware._cost_model
        self.cost = (
            cost_model.sorted_cost(predicate)
            if kind is AccessType.SORTED
            else cost_model.random_cost(predicate)
        )
        metrics = middleware._metrics
        if metrics is None:
            self.accesses = self.charged = self.cached = None
            return
        labels = {"predicate": predicate, "kind": kind.value}
        self.accesses = metrics.counter("repro_accesses_total", **labels)
        self.charged = metrics.counter("repro_access_cost_total", **labels)
        self.cached = metrics.counter("repro_cached_accesses_total", **labels)


class Middleware:
    """Metered, rule-enforcing access layer over a set of sources.

    Args:
        sources: one source per predicate.
        cost_model: per-predicate unit costs; its capability pattern must
            match the sources'.
        n_objects: size of the object universe. Derived automatically from
            simulated sources; must be given for custom sources.
        no_wild_guesses: enforce the seen-before-probe rule. Disable only
            for scenarios where the object universe is known up front (e.g.
            probe-only MPro settings).
        strict: raise on duplicate score retrievals and accesses to
            exhausted lists. Disable to get permissive (but still metered)
            behaviour.
        record_log: keep the full chronological access log on the stats.
        budget: optional hard cap on total access cost (Eq. 1). An access
            that would exceed it raises
            :class:`~repro.exceptions.BudgetExceededError` *before* being
            performed, so spending never passes the cap.
        retry_policy: how transient source faults are retried; ``None``
            (the default) performs exactly one attempt per access. Every
            attempt -- retries included -- is charged and counted.
        breaker_policy: tuning of the per-source circuit breakers; the
            library default when ``None``. Breakers only change behaviour
            once sources actually fail.
        monitor: optional :class:`~repro.sources.monitor.CostMonitor` fed
            with the simulated duration of every successful access whose
            source reports one (e.g. the fault injector).
        contracts: runtime contract checking (:mod:`repro.contracts`).
            ``True`` arms a default :class:`ContractChecker`; an explicit
            checker instance is used as-is; the default ``False`` still
            honours the ``REPRO_CONTRACTS`` environment switch. When
            armed, every delivered score is checked against ``[0, 1]``
            and every last-seen bound ``l_i`` against monotonicity, and
            engines add threshold/interval checks on top.
        breakers: optional pre-built breaker map ``(predicate, kind) ->
            CircuitBreaker`` covering every channel. The serving layer
            (docs/SERVICE.md) passes one map to every per-query
            middleware so outage knowledge is shared across sessions;
            shared breakers are *not* rewound by :meth:`reset` (they
            outlive any one query). ``None`` builds private breakers.
        clock_base: offset added to this middleware's access count when
            consulting breakers. Breaker cooldowns elapse in recorded
            accesses; per-query middlewares start their counts at zero,
            so the serving layer passes the accesses recorded by earlier
            sessions to keep shared breakers' cooldowns meaningful.
        metrics: optional :class:`~repro.obs.MetricsRegistry` the
            middleware feeds every accounting event into (accesses,
            Eq. 1 cost, cache hits, retries, faults, backoff, breaker
            transitions, budget and breaker rejections) -- the unified
            cross-layer ledger of docs/OBSERVABILITY.md. Shared
            registries are never reset by :meth:`reset`.
        trace: optional :class:`~repro.obs.TraceRecorder` receiving the
            structured, tick-stamped event log of the run (ticks are
            this middleware's access-count clock plus ``clock_base``).
    """

    def __init__(
        self,
        sources: Sequence[Source],
        cost_model: CostModel,
        n_objects: Optional[int] = None,
        no_wild_guesses: bool = True,
        strict: bool = True,
        record_log: bool = False,
        budget: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        monitor: Optional[CostMonitor] = None,
        contracts: Union[bool, ContractChecker, None] = False,
        breakers: Optional[
            Mapping[tuple[int, AccessType], CircuitBreaker]
        ] = None,
        clock_base: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if len(sources) != cost_model.m:
            raise ValueError(
                f"{len(sources)} sources but cost model covers {cost_model.m} "
                "predicates"
            )
        for i, source in enumerate(sources):
            if cost_model.supports_sorted(i) and not source.supports_sorted:
                raise CapabilityError(
                    f"cost model prices sorted access on predicate {i} but the "
                    "source does not support it"
                )
            if cost_model.supports_random(i) and not source.supports_random:
                raise CapabilityError(
                    f"cost model prices random access on predicate {i} but the "
                    "source does not support it"
                )
        if n_objects is None:
            # Wrappers (e.g. FaultInjectingSource) proxy their inner
            # source's size, so derivation is duck-typed, not type-tested.
            sizes = {
                source.size
                for source in sources
                if hasattr(source, "size")
            }
            if len(sizes) != 1:
                raise ValueError(
                    "n_objects could not be derived; pass it explicitly"
                )
            n_objects = sizes.pop()
        if n_objects < 1:
            raise ValueError("n_objects must be >= 1")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._budget = budget
        self._sources = list(sources)
        self._cost_model = cost_model
        self._n = n_objects
        self._no_wild_guesses = no_wild_guesses
        self._strict = strict
        self._record_log = record_log
        self._retry_policy = retry_policy
        self._breaker_policy = (
            breaker_policy if breaker_policy is not None else BreakerPolicy()
        )
        self._monitor = monitor
        self._metrics = metrics
        self._trace = trace
        self._contracts = resolve_checker(contracts)
        self._stats = AccessStats(cost_model, record_log=record_log)
        self._seen: set[int] = set()
        self._delivered: set[tuple[int, int]] = set()
        self._read_limits()
        if clock_base < 0:
            raise ValueError(f"clock_base must be >= 0, got {clock_base}")
        self._clock_base = clock_base
        # One breaker per source *channel* (predicate x access kind): a dead
        # random-access channel must not take down the same source's healthy
        # sorted stream -- that stream is exactly what the NRA-style
        # degradation falls back to (docs/FAULTS.md). A serving layer may
        # inject a shared map instead, so breaker knowledge survives the
        # per-query middleware.
        if breakers is not None:
            missing = [
                (i, kind)
                for i in range(len(self._sources))
                for kind in AccessType
                if (i, kind) not in breakers
            ]
            if missing:
                raise ValueError(
                    f"shared breaker map is missing channels {missing}"
                )
            self._breakers = dict(breakers)
            self._breakers_shared = True
        else:
            self._breakers = breakers_for(
                len(self._sources), self._breaker_policy
            )
            self._breakers_shared = False
        # What moves the gate epoch from outside this middleware: the
        # breaker map's BreakerSignal (breakers_for gives a map one; a
        # hand-built map may carry several) and the exhaustion serial of
        # each shared SourceCache the sources are views of, since another
        # session's fetch can run out a list this one stands at the end of.
        self._signals = tuple(
            {id(b.signal): b.signal for b in self._breakers.values()}.values()
        )
        caches = (getattr(source, "cache", None) for source in self._sources)
        self._caches = tuple(
            {id(cache): cache for cache in caches if cache is not None}.values()
        )
        self._invalidate_epoch()
        # What every access reads and no access changes, resolved once
        # (docs/RUNTIME.md, "The per-access path"): the capability flags,
        # each source's free-serving hook, the sources with a sorted list,
        # and per channel, at its first access, its breaker, unit cost and
        # counter series.
        self._sorted_ok = tuple(cost_model.sorted_capabilities)
        self._random_ok = tuple(cost_model.random_capabilities)
        self._serves_free = [
            getattr(source, "serves_free", None) for source in self._sources
        ]
        self._listed = [
            source if source.supports_sorted else None
            for source in self._sources
        ]
        self._sorted_channels: list[Optional[_Channel]] = [None] * len(sources)
        self._random_channels: list[Optional[_Channel]] = [None] * len(sources)
        self._retry_rng = (
            retry_policy.fresh_rng() if retry_policy is not None else None
        )
        if retry_policy is not None and retry_policy.timeout is not None:
            for source in self._sources:
                deadline_setter = getattr(source, "set_deadline", None)
                if deadline_setter is not None:
                    deadline_setter(retry_policy.timeout)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def over(
        cls,
        dataset: Dataset,
        cost_model: CostModel,
        no_wild_guesses: bool = True,
        strict: bool = True,
        record_log: bool = False,
        budget: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        monitor: Optional[CostMonitor] = None,
        contracts: Union[bool, ContractChecker, None] = False,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> "Middleware":
        """Build a middleware over simulated sources for ``dataset``.

        Source capabilities are derived from the cost model (``inf`` cost =
        unsupported), so a single :class:`CostModel` fully specifies a
        scenario.
        """
        if cost_model.m != dataset.m:
            raise ValueError(
                f"cost model covers {cost_model.m} predicates but dataset has "
                f"{dataset.m}"
            )
        sources = sources_for(
            dataset,
            sorted_capable=cost_model.sorted_capabilities,
            random_capable=cost_model.random_capabilities,
        )
        return cls(
            sources,
            cost_model,
            n_objects=dataset.n,
            no_wild_guesses=no_wild_guesses,
            strict=strict,
            record_log=record_log,
            budget=budget,
            retry_policy=retry_policy,
            breaker_policy=breaker_policy,
            monitor=monitor,
            contracts=contracts,
            metrics=metrics,
            trace=trace,
        )

    @classmethod
    def warm(
        cls,
        cache: "SourceCache",
        cost_model: CostModel,
        n_objects: Optional[int] = None,
        no_wild_guesses: bool = True,
        strict: bool = True,
        record_log: bool = False,
        budget: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        monitor: Optional[CostMonitor] = None,
        contracts: Union[bool, ContractChecker, None] = False,
        breakers: Optional[
            Mapping[tuple[int, AccessType], CircuitBreaker]
        ] = None,
        clock_base: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> "Middleware":
        """A per-query middleware warm-started from a cross-query cache.

        Builds fresh :class:`~repro.sources.cache.CachedSource` views over
        ``cache`` (docs/SERVICE.md): the query replays the cached sorted
        prefixes and random-access memos -- reconstructing ``AccessStats``
        side effects and the implied ``l_i`` bounds -- at **zero charged
        cost**; only accesses beyond the cached frontier reach (and pay)
        the real sources. :meth:`reset` rewinds the per-query views and
        accounting while leaving the shared cache intact.
        """
        return cls(
            cache.views(),
            cost_model,
            n_objects=n_objects,
            no_wild_guesses=no_wild_guesses,
            strict=strict,
            record_log=record_log,
            budget=budget,
            retry_policy=retry_policy,
            breaker_policy=breaker_policy,
            monitor=monitor,
            contracts=contracts,
            breakers=breakers,
            clock_base=clock_base,
            metrics=metrics,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of predicates."""
        return len(self._sources)

    @property
    def n_objects(self) -> int:
        """Size of the object universe."""
        return self._n

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def stats(self) -> AccessStats:
        """The live access accounting of this middleware."""
        return self._stats

    @property
    def no_wild_guesses(self) -> bool:
        return self._no_wild_guesses

    @property
    def budget(self) -> Optional[float]:
        """The configured cost cap, or ``None`` for unbounded."""
        return self._budget

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        """The active retry policy (``None`` = single attempt per access)."""
        return self._retry_policy

    @property
    def monitor(self) -> Optional[CostMonitor]:
        """The attached cost monitor, if any."""
        return self._monitor

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The attached metrics registry, if any (docs/OBSERVABILITY.md)."""
        return self._metrics

    @property
    def trace(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, if any (docs/OBSERVABILITY.md)."""
        return self._trace

    @property
    def contracts(self) -> Optional[ContractChecker]:
        """The armed contract checker, or ``None`` when checking is off.

        Engines consult this to add their threshold/interval contracts on
        top of the middleware's per-access score and bound checks.
        """
        return self._contracts

    def _now(self) -> int:
        """The breaker clock: accesses recorded, plus the serving offset."""
        return self._clock_base + self._stats.total_accesses

    def breaker_state(self, predicate: int, kind: AccessType) -> BreakerState:
        """The circuit-breaker state of one source channel, right now."""
        return self._breakers[(predicate, kind)].state(self._now())

    # ------------------------------------------------------------------
    # The gate epoch (docs/RUNTIME.md, "Choice sets and the gate epoch")
    # ------------------------------------------------------------------

    def _invalidate_epoch(self) -> None:
        """Move the epoch, and make the next read look at everything."""
        self._gate_epoch = next(_EPOCHS)
        self._epoch_serial = -1
        self._epoch_expiry = -math.inf

    @property
    def gate_epoch(self) -> int:
        """A serial that moves whenever a necessary-choice set may change.

        Moves when a sorted list becomes exhausted (by this session's
        fetch or, through a shared cache, another's), when a breaker of
        the map changes its open/closed stamp (in this session or in any
        other sharing the map), when the clock reaches the earliest
        half-open tick of a breaker open at the last move, and on
        :meth:`reset`. Between moves every :meth:`access_allowed` and
        :meth:`exhausted` answer stays the same, so together with an
        object's undetermined predicates the epoch fixes that object's
        admitted necessary choices (Definition 2) and engines cache those
        per epoch (docs/RUNTIME.md).
        """
        serial = sum(map(_serial, self._signals)) + sum(
            map(_exhaustions, self._caches)
        )
        now = self._now()
        if serial != self._epoch_serial or now >= self._epoch_expiry:
            expiry = math.inf
            for breaker in self._breakers.values():
                half_open_at = breaker.half_open_at
                if half_open_at is not None and now < half_open_at < expiry:
                    expiry = half_open_at
            self._gate_epoch = next(_EPOCHS)
            self._epoch_serial = serial
            self._epoch_expiry = expiry
        return self._gate_epoch

    def access_allowed(self, predicate: int, kind: AccessType) -> bool:
        """Whether the channel's breaker admits an attempt right now.

        ``True`` for closed breakers and for half-open ones (a trial is
        permitted); ``False`` while the breaker is open. Engines use this
        to steer scheduling away from tripped sources without paying for
        rejected accesses.
        """
        return self._breakers[(predicate, kind)].allows(self._now())

    def degraded_predicates(self) -> list[int]:
        """Predicates with at least one channel currently refusing accesses.

        Evaluates the shared :func:`~repro.faults.breaker.
        degraded_predicates` helper at this middleware's live clock --
        the same helper (and therefore the same answer) the serving
        layer's ``QueryServer.stats()`` reports.
        """
        return degraded_predicates(self._breakers, self._now())

    def remaining_budget(self) -> Optional[float]:
        """Budget left to spend (``None`` when unbounded)."""
        if self._budget is None:
            return None
        return self._budget - self._stats.total_cost()

    def charged_cost(self, access: Access) -> float:
        """What performing ``access`` right now would charge (Eq. 1 terms).

        Zero when a shared :class:`~repro.sources.cache.SourceCache` view
        would serve it without touching the web source; the cost model's
        unit cost otherwise. Engines use this to keep affordable-only
        scheduling (``degrade_on_budget``) from discarding free hits.
        """
        serves_free = self._serves_free[access.predicate]
        if serves_free is not None and serves_free(access):
            return 0.0
        return self._cost_model.access_cost(access)

    def _charge(self, access: Access, cost: float) -> None:
        """Refuse an access whose cost would overrun the budget.

        Callers call it only when a budget is set.
        """
        budget = self._budget
        assert budget is not None
        if self._stats.total_cost() + cost > budget + 1e-12:
            if self._metrics is not None:
                self._metrics.inc(
                    "repro_budget_rejections_total",
                    predicate=access.predicate,
                    kind=access.kind.value,
                )
            if self._trace is not None:
                self._emit(
                    "budget_rejected",
                    access,
                    cost=cost,
                    remaining=self.remaining_budget(),
                )
            raise BudgetExceededError(
                f"access costing {cost:g} would exceed the remaining budget "
                f"of {self.remaining_budget():g} (cap {self._budget:g})"
            )

    @property
    def seen(self) -> frozenset[int]:
        """Objects discovered by sorted access so far."""
        return frozenset(self._seen)

    @property
    def seen_count(self) -> int:
        """How many objects sorted access has discovered (O(1), no copy)."""
        return len(self._seen)

    def is_seen(self, obj: int) -> bool:
        """Whether ``obj`` has been discovered by a sorted access."""
        return obj in self._seen

    def last_seen(self, predicate: int) -> float:
        """Current last-seen bound ``l_i`` of one predicate."""
        return self._sources[predicate].last_seen

    @property
    def limits(self) -> list[float]:
        """The snapshot ``[l_1, ..., l_m]`` of every last-seen bound.

        Re-read in full after every sorted-access attempt, on every exit
        path, and on :meth:`reset` -- the only events that advance or
        rewind this middleware's sorted cursors. All ``m`` values are
        re-read, not only the accessed one, because a shared cache's late
        exhaustion can move another predicate's ``l``. Each refresh
        builds a new list and none is ever mutated, so a reader can tell
        a refresh by identity (:class:`~repro.core.state.ScoreState` and
        the bound indexes read it, docs/RUNTIME.md). Do not mutate it.
        """
        return self._limits

    def _read_limits(self) -> None:
        self._limits = [source.last_seen for source in self._sources]

    def depth(self, predicate: int) -> int:
        """Sorted accesses performed on one predicate."""
        return self._sources[predicate].depth

    def exhausted(self, predicate: int) -> bool:
        """Whether a predicate's sorted list is fully consumed."""
        source = self._listed[predicate]
        return source is not None and source.exhausted

    def supports_sorted(self, predicate: int) -> bool:
        """Whether sorted access is available on ``predicate``."""
        return self._sorted_ok[predicate]

    def supports_random(self, predicate: int) -> bool:
        """Whether random access is available on ``predicate``."""
        return self._random_ok[predicate]

    def sorted_predicates(self) -> list[int]:
        """Predicates with sorted access available."""
        return [i for i, ok in enumerate(self._sorted_ok) if ok]

    def random_predicates(self) -> list[int]:
        """Predicates with random access available."""
        return [i for i, ok in enumerate(self._random_ok) if ok]

    def object_ids(self) -> range:
        """The full object universe.

        Only available when wild guesses are allowed -- under the
        no-wild-guess assumption a middleware cannot enumerate objects it
        has not discovered.
        """
        if self._no_wild_guesses:
            raise WildGuessError(
                "the object universe is not enumerable under no-wild-guesses"
            )
        return range(self._n)

    def was_delivered(self, predicate: int, obj: int) -> bool:
        """Whether the score of ``obj`` on ``predicate`` was already fetched."""
        return (predicate, obj) in self._delivered

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------

    def _emit(self, event: str, access: Access, **fields: object) -> None:
        """Record one predicate-scoped trace event at the current tick.

        Callers test ``self._trace`` first, so no keyword dict is built
        when nothing records.
        """
        assert self._trace is not None
        self._trace.emit(
            event,
            self._now(),
            predicate=access.predicate,
            kind=access.kind.value,
            **fields,
        )

    def _breaker_transition(
        self, access: Access, before: BreakerState, after: BreakerState
    ) -> None:
        """Publish a breaker state change to the metrics and trace layers."""
        if before is after:
            return
        if self._metrics is not None:
            self._metrics.inc(
                "repro_breaker_transitions_total",
                predicate=access.predicate,
                kind=access.kind.value,
                to=after.value,
            )
        if self._trace is not None:
            self._emit(
                "breaker", access, from_state=before.value, to_state=after.value
            )

    def _gate(self, access: Access, breaker: CircuitBreaker) -> None:
        """Fail fast (uncharged) when the channel's breaker is open."""
        if not breaker.allows(self._now()):
            if self._metrics is not None:
                self._metrics.inc(
                    "repro_breaker_rejections_total",
                    predicate=access.predicate,
                    kind=access.kind.value,
                )
            if self._trace is not None:
                self._emit("breaker_rejected", access)
            if self._monitor is not None:
                self._monitor.observe_unavailable(access)
            raise SourceUnavailableError(
                "circuit breaker is open; access refused without charge",
                predicate=access.predicate,
                obj=access.obj,
                kind=str(access.kind),
            )

    def _observe(self, access: Access) -> None:
        """Feed a successful attempt's simulated duration to the monitor."""
        if self._monitor is None:
            return
        duration = getattr(
            self._sources[access.predicate], "last_duration", None
        )
        if duration is not None:
            self._monitor.observe(access, duration)

    def _observe_failure(self, access: Access) -> None:
        """Feed a *failed* attempt's simulated duration to the monitor.

        Failed and retried attempts consume real time at a web source
        (often the full deadline, for timeouts); a monitor that only saw
        successes would under-estimate exactly the sources that are
        misbehaving. Duck-typed on ``last_fault_duration`` (set by
        :class:`~repro.faults.FaultInjectingSource`).
        """
        if self._monitor is None:
            return
        duration = getattr(
            self._sources[access.predicate], "last_fault_duration", None
        )
        if duration is not None:
            self._monitor.observe_failure(access, duration)

    def _execute(
        self,
        access: Access,
        channel: _Channel,
        attempt: Callable[[], object],
        cached: bool = False,
    ) -> object:
        """Run one logical access under the retry policy and breaker.

        Every attempt -- retries included -- is budget-checked, charged,
        and counted before the source is touched: failed requests against
        web sources cost real money (docs/FAULTS.md). Transient faults
        are retried up to the policy's attempt cap; exhaustion raises
        :class:`~repro.exceptions.RetryExhaustedError` and counts one
        logical failure against the breaker. Permanent outages trip the
        breaker immediately.

        An access ``cached`` by the cross-query source cache skips all of
        that: nothing is requested from a web source, so nothing is
        charged, retried, or held against a breaker -- the delivery is
        recorded as a free cache hit (docs/SERVICE.md).
        """
        if cached:
            result = attempt()
            self._stats.record_cached(access)
            if channel.cached is not None:
                channel.cached.inc()
            if self._trace is not None:
                self._emit("cache_hit", access, obj=access.obj)
            return result
        breaker = channel.breaker
        policy = self._retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        cost = channel.cost
        last_error: Optional[Exception] = None
        for attempt_no in range(1, max_attempts + 1):
            if attempt_no > 1:
                assert policy is not None and self._retry_rng is not None
                pause = policy.backoff(attempt_no - 1, self._retry_rng)
                self._stats.record_backoff(pause)
                if self._metrics is not None:
                    self._metrics.inc(
                        "repro_backoff_time_total",
                        pause,
                        predicate=access.predicate,
                        kind=access.kind.value,
                    )
                if self._trace is not None:
                    self._emit(
                        "backoff", access, pause=pause, attempt=attempt_no
                    )
            if self._budget is not None:
                self._charge(access, cost)
            self._stats.record(access)
            if attempt_no > 1:
                self._stats.record_retry(access)
            self._record_charged(access, channel, attempt_no)
            try:
                result = attempt()
            except SourceUnavailableError:
                self._record_fault(access, attempt_no, permanent=True)
                before = breaker.state(self._now())
                breaker.record_failure(self._now(), permanent=True)
                self._breaker_transition(
                    access, before, breaker.state(self._now())
                )
                raise
            except TransientSourceError as exc:
                # Includes SourceTimeoutError: both are retryable.
                self._record_fault(access, attempt_no, permanent=False)
                last_error = exc
                continue
            if not breaker.healthy:
                # A healthy breaker stays closed through a success, with
                # nothing to record or publish; any other is walked.
                before = breaker.state(self._now())
                breaker.record_success()
                self._breaker_transition(
                    access, before, breaker.state(self._now())
                )
            if self._monitor is not None:
                self._observe(access)
            return result
        before = breaker.state(self._now())
        tripped = breaker.record_failure(self._now())
        self._breaker_transition(access, before, breaker.state(self._now()))
        raise RetryExhaustedError(
            f"all {max_attempts} attempt(s) failed"
            + ("; circuit opened" if tripped else ""),
            predicate=access.predicate,
            obj=access.obj,
            kind=str(access.kind),
            attempts=max_attempts,
            last_error=last_error,
        )

    def _record_charged(
        self, access: Access, channel: _Channel, attempt_no: int
    ) -> None:
        """Publish one charged attempt to the metrics and trace layers."""
        if channel.accesses is not None:
            channel.accesses.inc()
            channel.charged.inc(channel.cost)
            if attempt_no > 1:
                self._metrics.inc(
                    "repro_retries_total",
                    predicate=access.predicate,
                    kind=access.kind.value,
                )
        if self._trace is not None:
            self._emit(
                "access",
                access,
                obj=access.obj,
                cost=channel.cost,
                attempt=attempt_no,
            )

    def _record_fault(
        self, access: Access, attempt_no: int, permanent: bool
    ) -> None:
        """Publish one faulted attempt: stats, monitor, metrics, trace."""
        self._stats.record_fault(access)
        self._observe_failure(access)
        if self._metrics is not None:
            self._metrics.inc(
                "repro_faults_total",
                predicate=access.predicate,
                kind=access.kind.value,
                permanent=str(permanent).lower(),
            )
        if self._trace is not None:
            self._emit(
                "fault", access, attempt=attempt_no, permanent=permanent
            )

    def sorted_access(self, predicate: int) -> Optional[tuple[int, float]]:
        """Perform ``sa_i``: fetch the next object of predicate ``i``.

        Charges ``cs_i`` and returns ``(obj, score)``. Accessing an
        exhausted list raises in strict mode (it can never help) and
        otherwise charges the access and returns ``None``. Under a retry
        policy, transient source faults are retried (each attempt
        charged); an open circuit breaker refuses the access up front.
        """
        if not self._sorted_ok[predicate]:
            raise CapabilityError(
                f"predicate {predicate}: sorted access not in cost model"
            )
        try:
            access = Access.sorted(predicate)
            channel = self._sorted_channels[predicate]
            if channel is None:
                channel = self._sorted_channels[predicate] = _Channel(
                    self, predicate, AccessType.SORTED
                )
            serves_free = self._serves_free[predicate]
            cached = serves_free is not None and serves_free(access)
            if not cached:
                self._gate(access, channel.breaker)
            source = self._sources[predicate]
            if source.exhausted:
                if self._budget is not None:
                    self._charge(access, channel.cost)
                if self._strict:
                    raise ExhaustedSourceError(
                        f"predicate {predicate}: sorted list exhausted"
                    )
                self._stats.record(access)
                self._record_charged(access, channel, attempt_no=1)
                return None
            result = self._execute(access, channel, source.sorted_access, cached)
            if source.exhausted:
                self._gate_epoch = next(_EPOCHS)
            if result is None:  # pragma: no cover - guarded by exhaustion check
                return None
            obj, score = result
            if self._contracts is not None:
                self._contracts.observe_sorted(predicate, score, source.last_seen)
            self._seen.add(obj)
            self._delivered.add((predicate, obj))
            return obj, score
        finally:
            self._read_limits()

    def random_access(self, predicate: int, obj: int) -> float:
        """Perform ``ra_i(u)``: fetch the exact score of ``u`` on ``i``.

        Charges ``cr_i``. Enforces no-wild-guesses and, in strict mode,
        rejects refetching a score already delivered (by either access
        type). Under a retry policy, transient source faults are retried
        (each attempt charged); an open circuit breaker refuses the
        access up front.
        """
        if not self._random_ok[predicate]:
            raise CapabilityError(
                f"predicate {predicate}: random access not in cost model"
            )
        access = Access.random(predicate, obj)
        channel = self._random_channels[predicate]
        if channel is None:
            channel = self._random_channels[predicate] = _Channel(
                self, predicate, AccessType.RANDOM
            )
        serves_free = self._serves_free[predicate]
        cached = serves_free is not None and serves_free(access)
        if not cached:
            self._gate(access, channel.breaker)
        if self._no_wild_guesses and obj not in self._seen:
            raise WildGuessError(
                f"random access to object {obj} before it was seen from any "
                "sorted access"
            )
        if self._strict and (predicate, obj) in self._delivered:
            raise DuplicateAccessError(
                f"score of object {obj} on predicate {predicate} was already "
                "retrieved; random accesses must not be repeated"
            )
        source = self._sources[predicate]
        score = self._execute(
            access, channel, lambda: source.random_access(obj), cached
        )
        if self._contracts is not None:
            self._contracts.check_score(predicate, obj, float(score))  # type: ignore[arg-type]
        self._delivered.add((predicate, obj))
        return float(score)  # type: ignore[arg-type]

    def perform(self, access: Access):
        """Dispatch a descriptor to the right access method.

        Every access, the engines' included, goes through
        :meth:`sorted_access` or :meth:`random_access`: they are the
        access layer's one entry point, where profilers and benchmarks
        time it. ``sa_i`` descriptors are interned, so a sorted access
        rebuilds nothing. Returns whatever the underlying access
        returns: ``(obj, score)`` or ``None`` for sorted accesses, a
        ``float`` score for random ones.
        """
        if access.kind is AccessType.SORTED:
            return self.sorted_access(access.predicate)
        assert access.obj is not None
        return self.random_access(access.predicate, access.obj)

    def reset(self) -> None:
        """Rewind sources and zero all accounting for a fresh run.

        Everything *per-query* is rewound: access counts and cost (which
        also restores the full budget), the seen/delivered sets, private
        circuit breakers, the retry jitter stream, and the attached cost
        monitor -- so a reset middleware replays a run bit-for-bit.

        Cross-query state survives on purpose: cached-source views rewind
        only their cursors (the shared :class:`~repro.sources.cache.
        SourceCache` stays warm), an injected shared breaker map is left
        untouched (outage knowledge outlives any one query), and attached
        metrics registries and trace recorders are never cleared -- they
        are cumulative observability ledgers, not per-run accounting.
        """
        for source in self._sources:
            source.reset()
        self._read_limits()
        self._stats = AccessStats(self._cost_model, record_log=self._record_log)
        self._seen.clear()
        self._delivered.clear()
        if not self._breakers_shared:
            for breaker in self._breakers.values():
                breaker.reset()
        self._invalidate_epoch()
        self._retry_rng = (
            self._retry_policy.fresh_rng()
            if self._retry_policy is not None
            else None
        )
        if self._monitor is not None:
            self._monitor.reset()
        if self._contracts is not None:
            self._contracts.reset()
