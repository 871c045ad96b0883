"""The unified metrics registry: one place every counter reconciles.

Before this layer existed the library kept five disconnected counter
piles -- :class:`~repro.sources.stats.AccessStats`,
:class:`~repro.sources.cache.CacheStats`,
:class:`~repro.sources.monitor.CostMonitor`, the
:class:`~repro.optimizer.estimator.CostEstimator` hit/miss/fallback
counters and ``QueryServer.stats()`` -- each with its own snapshot
format and no way to check that they agree. :class:`MetricsRegistry` is
the single labeled-counter/gauge API those layers now feed (each keeps
its cheap local counters; the registry is the cross-layer ledger):

* every *charged* access increments ``repro_accesses_total`` and adds
  its Eq. 1 price to ``repro_access_cost_total``;
* every cache-served access increments ``repro_cached_accesses_total``
  (and the cache's own ``repro_cache_hits_total``), so
  ``charged + cached == recorded`` is checkable from one snapshot;
* faults, retries, backoff time, breaker transitions, budget and
  breaker rejections, evictions, estimator runs and pool failures all
  land in the same namespace (catalog: docs/OBSERVABILITY.md).

:meth:`MetricsRegistry.snapshot` renders a deterministic JSON-safe dict;
:meth:`MetricsRegistry.render_prometheus` renders the standard
Prometheus text exposition format for scraping.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

#: Label rendering order is alphabetical by label name, which makes every
#: series key -- and therefore every snapshot and exporter line --
#: deterministic regardless of call-site keyword order.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series(name: str, labels: LabelSet) -> str:
    """The canonical series key, Prometheus-style: ``name{k="v",...}``."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Labeled counters and gauges with one deterministic snapshot.

    Counters only ever increase (:meth:`inc`); gauges hold the latest
    value (:meth:`set_gauge`). Series are keyed by ``(name, labels)``
    with labels coerced to strings and sorted by label name, so two
    registries fed the same events compare equal snapshot-for-snapshot.

    The registry is deliberately forgiving about unknown names: layers
    register whatever they emit, and :meth:`describe` attaches optional
    help text that the Prometheus exporter surfaces as ``# HELP`` lines.
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelSet, float]] = {}
        self._gauges: dict[str, dict[LabelSet, float]] = {}
        self._help: dict[str, str] = {}
        # Call-site label items (with their value types, so 1, 1.0 and
        # True stay apart) -> the sorted LabelSet they render to.
        self._labelsets: dict[tuple, LabelSet] = {}

    def _labels(self, labels: Mapping[str, object]) -> LabelSet:
        """:func:`_labelset`, memoized per call-site keyword order."""
        if not labels:
            return ()
        key = (*labels.items(), *map(type, labels.values()))
        try:
            return self._labelsets[key]
        except KeyError:
            found = self._labelsets[key] = _labelset(labels)
            return found
        except TypeError:  # an unhashable label value
            return _labelset(labels)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def describe(self, name: str, help_text: str) -> None:
        """Attach help text to a metric name (shown by the exporter)."""
        self._help[name] = help_text

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (>= 0) to a counter series."""
        if value < 0:
            raise ValueError(
                f"counters only increase; got {value} for {name!r}"
            )
        series = self._counters.setdefault(name, {})
        key = self._labels(labels)
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value``."""
        self._gauges.setdefault(name, {})[self._labels(labels)] = float(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """One counter series' current value (0.0 when never incremented)."""
        return self._counters.get(name, {}).get(self._labels(labels), 0.0)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        """One gauge series' current value (``None`` when never set)."""
        return self._gauges.get(name, {}).get(self._labels(labels))

    def total(self, name: str) -> float:
        """Sum of a counter across all of its label sets."""
        return sum(self._counters.get(name, {}).values())

    def counter_names(self) -> list[str]:
        """All counter names recorded so far, sorted."""
        return sorted(self._counters)

    def series(self, name: str) -> Iterator[tuple[LabelSet, float]]:
        """Every (labels, value) pair of one counter, deterministic order."""
        for labels in sorted(self._counters.get(name, {})):
            yield labels, self._counters[name][labels]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe, deterministic dump of every series.

        Counter and gauge series render under their canonical
        Prometheus-style keys (:func:`render_series`), sorted, so two
        identical runs produce byte-identical serialized snapshots.
        """
        return {
            "counters": {
                render_series(name, labels): value
                for name in sorted(self._counters)
                for labels, value in sorted(self._counters[name].items())
            },
            "gauges": {
                render_series(name, labels): value
                for name in sorted(self._gauges)
                for labels, value in sorted(self._gauges[name].items())
            },
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (``# HELP``/``# TYPE``)."""
        lines: list[str] = []
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
        ):
            for name in sorted(table):
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} {kind}")
                for labels in sorted(table[name]):
                    value = table[name][labels]
                    lines.append(f"{render_series(name, labels)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every series (help text is kept)."""
        self._counters.clear()
        self._gauges.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)})"
        )
