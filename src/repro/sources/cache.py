"""The cross-query source cache: amortizing access cost over a query stream.

The paper's metric is access cost (Eq. 1), and its whole premise is that
web-source accesses dominate query time and money. Yet the accesses one
query pays for are not consumed by it: a sorted prefix of predicate ``i``
is valid for *every* later query over the same source (the prefix and its
implied last-seen bound ``l_i`` are properties of the source, not of the
query), and a random-access result ``ra_i(u)`` is a plain immutable fact.
Fagin et al.'s middleware model assumes exactly this amortizable access
pattern; a serving system (docs/SERVICE.md) exploits it.

:class:`SourceCache` owns the real per-predicate sources and memoizes

* the **sorted prefix** each source has delivered so far (in order, with
  the exhaustion fact once the list ends), and
* every **random-access score** delivered.

Queries never touch the real sources directly; each query gets fresh
:class:`CachedSource` *views* (:meth:`SourceCache.views`), which replay
the cached prefix from position zero -- so the query performs its full
logical access sequence and computes byte-identical answers -- and only
fall through to the real source beyond the cached frontier. The metering
:class:`~repro.sources.middleware.Middleware` recognizes view-served
accesses (via :meth:`CachedSource.serves_free`) and records them as
**uncharged** cache hits: Eq. 1 charges only accesses that actually reach
a web source.

Eviction is logical-time based (no wall clock; reproducibility is a
correctness property here, see :mod:`repro.determinism`): the serving
layer advances :meth:`tick` once per completed query, entries idle for
``ttl`` ticks expire, and a ``max_entries`` bound evicts least-recently
used predicates wholesale. Eviction only runs at tick boundaries --
between queries -- so a live view can never observe a truncated prefix;
a view that outlives an eviction of its entry fails loudly instead of
serving stale positions.

Under the async serving layer (docs/RUNTIME.md) "between queries" is no
longer a global condition -- one session finishing (and ticking) can
overlap another session's live views. :meth:`retain` / :meth:`release`
close that hole: each in-flight query pins the cache for its lifetime,
ticks taken while pinned still advance the TTL clock but *defer* the
eviction sweep, and the last release runs the pending sweep. Both
servers pin every session (``QueryServer._lifecycle`` ticks before it
releases), so a served tick's sweep always runs at the last release.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.data.dataset import Dataset
from repro.exceptions import ReproError
from repro.obs.metrics import CounterSeries, MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.sources.base import Source
from repro.sources.cost import CostModel
from repro.sources.simulated import sources_for
from repro.types import Access, AccessType


class CacheStats:
    """Hit/miss/eviction accounting of one :class:`SourceCache`."""

    def __init__(self) -> None:
        self.sorted_hits = 0
        self.sorted_misses = 0
        self.random_hits = 0
        self.random_misses = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        """Accesses served from cache (never charged)."""
        return self.sorted_hits + self.random_hits

    @property
    def misses(self) -> int:
        """Accesses that fell through to a real source (charged)."""
        return self.sorted_misses + self.random_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of all accesses served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Plain-dict summary for reports and the service ``stats`` op."""
        return {
            "sorted_hits": self.sorted_hits,
            "sorted_misses": self.sorted_misses,
            "random_hits": self.random_hits,
            "random_misses": self.random_misses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"rate={self.hit_rate:.2f})"
        )


class _PredicateEntry:
    """The cached state of one predicate's source."""

    __slots__ = ("prefix", "exhausted", "memo", "last_touch", "generation")

    def __init__(self) -> None:
        self.prefix: list[tuple[int, float]] = []
        self.exhausted = False
        self.memo: dict[int, float] = {}
        self.last_touch = 0
        self.generation = 0

    @property
    def records(self) -> int:
        return len(self.prefix) + len(self.memo)

    def clear(self) -> None:
        self.prefix.clear()
        self.memo.clear()
        self.exhausted = False
        self.generation += 1


class SourceCache:
    """Shared memo of sorted prefixes and random-access results.

    Args:
        sources: the real sources, one per predicate. The cache owns them
            exclusively from here on: their cursors always sit at the
            cached frontier, and nothing else may advance or reset them.
        ttl: idle time-to-live in ticks (:meth:`tick` units -- the serving
            layer ticks once per completed query). ``None`` disables
            expiry.
        max_entries: bound on the total number of cached records (prefix
            elements plus random memos) enforced at tick boundaries by
            evicting least-recently-used predicates wholesale. ``None``
            disables the bound.
        metrics: optional :class:`~repro.obs.MetricsRegistry` fed with
            cache hits, misses and evictions
            (``repro_cache_*_total``, docs/OBSERVABILITY.md).
        trace: optional :class:`~repro.obs.TraceRecorder` receiving
            ``eviction`` events (tick-stamped with the cache's own
            eviction clock).
    """

    def __init__(
        self,
        sources: Sequence[Source],
        ttl: Optional[int] = None,
        max_entries: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if not sources:
            raise ValueError("a cache needs at least one source")
        if ttl is not None and ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._sources = list(sources)
        self._ttl = ttl
        self._max_entries = max_entries
        self._entries = [_PredicateEntry() for _ in self._sources]
        self._clock = 0
        self._stats = CacheStats()
        self._metrics = metrics
        self._trace = trace
        # (predicate, kind) -> bound hit / miss series, bound on first use.
        self._hit_series: dict[tuple[int, str], CounterSeries] = {}
        self._miss_series: dict[tuple[int, str], CounterSeries] = {}
        self._pins = 0
        self._sweep_pending = False
        #: Moves each time a cached list is found exhausted: a view's
        #: ``exhausted`` can turn true through another view's fetch, and
        #: each middleware over views reads this to notice (its
        #: ``gate_epoch``, docs/RUNTIME.md).
        self.exhaustions = 0

    @classmethod
    def over(
        cls,
        dataset: Dataset,
        cost_model: Optional[CostModel] = None,
        ttl: Optional[int] = None,
        max_entries: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> "SourceCache":
        """A cache over fresh simulated sources for ``dataset``.

        When a ``cost_model`` is given, source capabilities are derived
        from it (``inf`` cost = unsupported), mirroring
        :meth:`Middleware.over <repro.sources.middleware.Middleware.over>`.
        """
        if cost_model is not None and cost_model.m != dataset.m:
            raise ValueError(
                f"cost model covers {cost_model.m} predicates but dataset "
                f"has {dataset.m}"
            )
        sources = sources_for(
            dataset,
            sorted_capable=(
                cost_model.sorted_capabilities if cost_model is not None else None
            ),
            random_capable=(
                cost_model.random_capabilities if cost_model is not None else None
            ),
        )
        return cls(
            sources,
            ttl=ttl,
            max_entries=max_entries,
            metrics=metrics,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of predicates covered."""
        return len(self._sources)

    @property
    def stats(self) -> CacheStats:
        """Live hit/miss/eviction accounting."""
        return self._stats

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The attached metrics registry, if any (docs/OBSERVABILITY.md)."""
        return self._metrics

    @property
    def trace(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, if any (docs/OBSERVABILITY.md)."""
        return self._trace

    def attach_observability(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        """Wire a registry/recorder into an already-built cache.

        The serving layer uses this to point a user-supplied cache at the
        server's shared ledger; counters recorded before attachment stay
        in :attr:`stats` only. Passing ``None`` leaves that slot as-is.
        """
        if metrics is not None:
            self._metrics = metrics
            self._hit_series.clear()
            self._miss_series.clear()
        if trace is not None:
            self._trace = trace

    @property
    def clock(self) -> int:
        """The logical eviction clock (ticks elapsed)."""
        return self._clock

    @property
    def entry_count(self) -> int:
        """Total cached records (prefix elements plus random memos)."""
        return sum(entry.records for entry in self._entries)

    def warmth(self, predicate: int) -> int:
        """Cached sorted-prefix depth of one predicate."""
        return len(self._entries[predicate].prefix)

    def memo_size(self, predicate: int) -> int:
        """Cached random-access results of one predicate."""
        return len(self._entries[predicate].memo)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def view(self, predicate: int) -> "CachedSource":
        """A fresh per-query view of one predicate (cursor at zero).

        Creating a view touches the predicate (LRU recency, see
        :meth:`_touch`).
        """
        if not 0 <= predicate < self.m:
            raise ValueError(f"predicate {predicate} out of range")
        self._touch(predicate)
        return CachedSource(self, predicate)

    def views(self) -> list["CachedSource"]:
        """Fresh per-query views of every predicate, in predicate order.

        Build one query's middleware from one ``views()`` call; views
        replay the shared prefix independently, so concurrent sessions
        each get their own cursors over the same cached data.
        """
        return [self.view(i) for i in range(self.m)]

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    @property
    def pinned(self) -> bool:
        """Whether any in-flight query currently holds a pin."""
        return self._pins > 0

    def retain(self) -> None:
        """Pin the cache for the lifetime of one in-flight query.

        While pinned, :meth:`tick` still advances the TTL clock but the
        eviction sweep is deferred -- no live view (this query's or any
        concurrent one's) can have its entry truncated underneath it.
        Pair every ``retain()`` with exactly one :meth:`release`.
        """
        self._pins += 1

    def release(self) -> None:
        """Drop one query's pin; the last release runs any deferred sweep.

        Running the sweep here -- not at the next tick -- keeps TTL/LRU
        timing aligned with the sync entry points' (the sweep observes the
        same clock the deferring tick advanced) and guarantees a burst of
        cancelled or completed queries leaves no eviction debt behind.
        """
        if self._pins <= 0:
            raise ReproError("SourceCache.release() without a matching retain()")
        self._pins -= 1
        if self._pins == 0 and self._sweep_pending:
            self._sweep_pending = False
            self._sweep()

    def tick(self) -> int:
        """Advance the logical clock and run eviction; returns evictions.

        The serving layer calls this once per completed query. Eviction
        is safe only while no query is in flight: pinned, the sweep is
        deferred to the last :meth:`release`, and this call reports
        ``0`` evictions; unpinned (a direct caller between queries), it
        runs immediately. The servers tick while still pinned, so their
        sweeps always run at the last release.
        """
        self._clock += 1
        if self._pins > 0:
            self._sweep_pending = True
            if self._metrics is not None:
                self._metrics.set_gauge("repro_cache_entries", self.entry_count)
                self._metrics.set_gauge("repro_cache_clock", self._clock)
            return 0
        return self._sweep()

    def _sweep(self) -> int:
        """TTL-expire and LRU-bound the cache; returns evictions."""
        evicted = 0
        if self._ttl is not None:
            for i, entry in enumerate(self._entries):
                if entry.records and self._clock - entry.last_touch >= self._ttl:
                    self._evict(i)
                    evicted += 1
        if self._max_entries is not None:
            while self.entry_count > self._max_entries:
                victim = self._lru_predicate()
                if victim is None:
                    break
                self._evict(victim)
                evicted += 1
        if self._metrics is not None:
            self._metrics.set_gauge("repro_cache_entries", self.entry_count)
            self._metrics.set_gauge("repro_cache_clock", self._clock)
        return evicted

    def _lru_predicate(self) -> Optional[int]:
        candidates = [
            (entry.last_touch, i)
            for i, entry in enumerate(self._entries)
            if entry.records
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def _evict(self, predicate: int) -> None:
        """Drop one predicate's cached state and rewind its real source."""
        records = self._entries[predicate].records
        self._entries[predicate].clear()
        self._sources[predicate].reset()
        self._stats.evictions += 1
        if self._metrics is not None:
            self._metrics.inc(
                "repro_cache_evictions_total", predicate=predicate
            )
            self._metrics.set_gauge(
                "repro_cache_entries", self.entry_count
            )
        if self._trace is not None:
            self._trace.emit(
                "eviction",
                self._clock,
                predicate=predicate,
                records=records,
            )

    def _series(
        self,
        bound: dict[tuple[int, str], CounterSeries],
        name: str,
        predicate: int,
        kind: str,
    ) -> CounterSeries:
        """One channel's ``name`` series from ``bound``, bound on first use."""
        series = bound.get((predicate, kind))
        if series is None:
            assert self._metrics is not None
            series = bound[predicate, kind] = self._metrics.counter(
                name, predicate=predicate, kind=kind
            )
        return series

    def _record_hit(self, predicate: int, kind: str) -> None:
        """Count one view-served (uncharged) access into stats + metrics."""
        if kind == "sorted":
            self._stats.sorted_hits += 1
        else:
            self._stats.random_hits += 1
        if self._metrics is not None:
            self._series(
                self._hit_series, "repro_cache_hits_total", predicate, kind
            ).inc()

    def _record_miss(self, predicate: int, kind: str) -> None:
        """Count one fell-through (charged) access into stats + metrics."""
        if kind == "sorted":
            self._stats.sorted_misses += 1
        else:
            self._stats.random_misses += 1
        if self._metrics is not None:
            self._series(
                self._miss_series, "repro_cache_misses_total", predicate, kind
            ).inc()

    def invalidate(self, predicate: Optional[int] = None) -> None:
        """Drop cached state (one predicate, or everything) explicitly.

        The sources-changed escape hatch: after invalidation, later
        queries repay the evicted accesses at the real sources.
        """
        targets = range(self.m) if predicate is None else [predicate]
        for i in targets:
            if self._entries[i].records or self._entries[i].exhausted:
                self._evict(i)

    # ------------------------------------------------------------------
    # Internal access API (used by CachedSource views only)
    # ------------------------------------------------------------------

    def _touch(self, predicate: int) -> None:
        """Stamp one predicate as used at the current clock.

        Recency is stamped when a view is created and at every access a
        view serves (hit or miss) -- never by reads of ``last_seen``,
        ``exhausted`` or ``serves_free``, so eviction order does not
        depend on how often an engine consults its bounds.
        """
        self._entries[predicate].last_touch = self._clock

    def _extend_prefix(self, predicate: int) -> Optional[tuple[int, float]]:
        """Fetch the next sorted element from the real source and cache it."""
        source = self._sources[predicate]
        entry = self._entries[predicate]
        result = source.sorted_access()
        self._record_miss(predicate, "sorted")
        if result is None:
            exhausted = True
        else:
            entry.prefix.append(result)
            exhausted = source.exhausted
        if exhausted and not entry.exhausted:
            entry.exhausted = True
            self.exhaustions += 1
        return result

    def _fetch_random(self, predicate: int, obj: int) -> float:
        """Fetch one random-access score from the real source and cache it."""
        entry = self._entries[predicate]
        score = self._sources[predicate].random_access(obj)
        self._record_miss(predicate, "random")
        entry.memo[obj] = score
        return score

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        depths = [len(entry.prefix) for entry in self._entries]
        return f"SourceCache(m={self.m}, depths={depths}, {self._stats!r})"


class CachedSource(Source):
    """One query's view of one cached predicate.

    Implements the full Section 3.2 :class:`~repro.sources.base.Source`
    interface by replaying the shared cached prefix from position zero
    and falling through to the real source beyond it, so a query over a
    warm cache performs exactly the access sequence a cold run would --
    same deliveries, same last-seen bounds ``l_i``, same answer -- while
    everything inside the cached frontier is served without touching (or
    paying) the source.

    Views are single-query objects: build fresh ones per query via
    :meth:`SourceCache.views`. :meth:`reset` rewinds only the view's
    cursor; the shared cache is deliberately left intact (that is the
    whole point of the serving layer's warm middlewares).
    """

    def __init__(self, cache: SourceCache, predicate: int):
        self._cache = cache
        self._predicate = predicate
        self._inner = cache._sources[predicate]
        # The real source's capability never changes: read it once.
        self._supports_sorted = self._inner.supports_sorted
        self._generation = cache._entries[predicate].generation
        self._cursor = 0
        self._last_duration: Optional[float] = None

    # ------------------------------------------------------------------
    # View plumbing
    # ------------------------------------------------------------------

    @property
    def cache(self) -> SourceCache:
        """The shared cache this view reads through."""
        return self._cache

    @property
    def predicate(self) -> int:
        """The predicate index this view serves."""
        return self._predicate

    def _live_entry(self) -> _PredicateEntry:
        entry = self._cache._entries[self._predicate]
        if entry.generation != self._generation:
            raise ReproError(
                f"cache entry of predicate {self._predicate} was evicted "
                "under a live view; views are single-query objects -- "
                "build fresh ones after eviction"
            )
        return entry

    def serves_free(self, access: Access) -> bool:
        """Whether this access would be served from cache (uncharged).

        The metering middleware consults this before charging: a ``True``
        answer means the access never reaches a web source, so Eq. 1
        records it as a free cache hit.
        """
        entry = self._live_entry()
        if access.kind is AccessType.SORTED:
            return self._cursor < len(entry.prefix)
        assert access.obj is not None
        return access.obj in entry.memo

    # ------------------------------------------------------------------
    # Source interface
    # ------------------------------------------------------------------

    @property
    def supports_sorted(self) -> bool:
        return self._supports_sorted

    @property
    def supports_random(self) -> bool:
        return self._inner.supports_random

    @property
    def size(self) -> int:
        """Size of the underlying source's list (when it exposes one)."""
        return self._inner.size  # type: ignore[attr-defined]

    def sorted_access(self) -> Optional[tuple[int, float]]:
        entry = self._live_entry()
        self._cache._touch(self._predicate)
        if self._cursor < len(entry.prefix):
            result = entry.prefix[self._cursor]
            self._cursor += 1
            self._cache._record_hit(self._predicate, "sorted")
            self._last_duration = None
            return result
        if entry.exhausted:
            return None
        result = self._cache._extend_prefix(self._predicate)
        self._last_duration = getattr(self._inner, "last_duration", None)
        if result is not None:
            self._cursor += 1
        return result

    def random_access(self, obj: int) -> float:
        entry = self._live_entry()
        self._cache._touch(self._predicate)
        if obj in entry.memo:
            self._cache._record_hit(self._predicate, "random")
            self._last_duration = None
            return entry.memo[obj]
        score = self._cache._fetch_random(self._predicate, obj)
        self._last_duration = getattr(self._inner, "last_duration", None)
        return score

    @property
    def last_seen(self) -> float:
        entry = self._live_entry()
        if self._cursor == 0:
            return 1.0
        if entry.exhausted and self._cursor >= len(entry.prefix):
            return 0.0
        return entry.prefix[self._cursor - 1][1]

    @property
    def depth(self) -> int:
        return self._cursor

    @property
    def exhausted(self) -> bool:
        entry = self._live_entry()
        return (
            self._supports_sorted
            and entry.exhausted
            and self._cursor >= len(entry.prefix)
        )

    @property
    def last_duration(self) -> Optional[float]:
        """Simulated duration of the last *fetched* access (``None`` on hits)."""
        return self._last_duration

    @property
    def last_fault_duration(self) -> Optional[float]:
        """Time burned by the real source's last failed attempt, if any.

        Delegated to the underlying source (fault-injecting wrappers
        expose it); cache hits never fail, so this only moves when an
        access actually fell through to the source.
        """
        return getattr(self._inner, "last_fault_duration", None)

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Forward the per-access deadline to the real source, if it has one.

        Cache hits are not subject to deadlines -- nothing is requested.
        """
        setter = getattr(self._inner, "set_deadline", None)
        if setter is not None:
            setter(deadline)

    def reset(self) -> None:
        """Rewind only this view's cursor; the shared cache stays intact."""
        self._cursor = 0
        self._last_duration = None
