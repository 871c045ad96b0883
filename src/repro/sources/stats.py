"""Access accounting: the Eq. 1 cost function made concrete.

:class:`AccessStats` counts, per predicate, the sorted and random accesses
an algorithm performed and aggregates them against a
:class:`~repro.sources.cost.CostModel`:

    total cost = sum_i ns_i * cs_i  +  sum_i nr_i * cr_i        (Eq. 1)

Optionally it records the full access log, which the tests use to recompute
costs independently and which powers trace-style output in the examples.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sources.cost import CostModel
from repro.types import Access, AccessType


def eq1_cost(
    cost_model: CostModel, ns: Sequence[int], nr: Sequence[int]
) -> float:
    """Price per-predicate access counts under Eq. 1.

    The single implementation of ``sum_i ns_i*cs_i + sum_i nr_i*cr_i``,
    shared by :meth:`AccessStats.total_cost` and the plan-cost
    kernel (:mod:`repro.optimizer.kernel`) so both paths accumulate terms
    in the identical order and agree bitwise.
    """
    if cost_model.m != len(ns) or cost_model.m != len(nr):
        raise ValueError("cost model width mismatch")
    total = 0.0
    for i in range(cost_model.m):
        if ns[i]:
            total += ns[i] * cost_model.sorted_cost(i)
        if nr[i]:
            total += nr[i] * cost_model.random_cost(i)
    return total


class AccessStats:
    """Counts and (optionally) logs every access of a run."""

    def __init__(self, cost_model: CostModel, record_log: bool = False):
        self._cost_model = cost_model
        self._ns = [0] * cost_model.m
        self._nr = [0] * cost_model.m
        self._cached_s = [0] * cost_model.m
        self._cached_r = [0] * cost_model.m
        self._retries_s = [0] * cost_model.m
        self._retries_r = [0] * cost_model.m
        self._faults_s = [0] * cost_model.m
        self._faults_r = [0] * cost_model.m
        self._backoff = 0.0
        # Running sum of ns_i + nr_i: the middleware's breaker clock
        # reads it on every gate check, so it must not re-sum the lists.
        self._total = 0
        self._log: Optional[list[Access]] = [] if record_log else None

    @property
    def cost_model(self) -> CostModel:
        """The cost model accesses are priced against."""
        return self._cost_model

    @property
    def m(self) -> int:
        return self._cost_model.m

    def record(self, access: Access) -> None:
        """Count one access (and log it when logging is enabled)."""
        if access.kind is AccessType.SORTED:
            self._ns[access.predicate] += 1
        else:
            self._nr[access.predicate] += 1
        self._total += 1
        if self._log is not None:
            self._log.append(access)

    def record_cached(self, access: Access) -> None:
        """Count one access served from a cross-query cache, uncharged.

        Cache hits never reach a web source, so they are deliberately
        *excluded* from ``ns_i``/``nr_i`` and from Eq. 1: the paper's
        cost function prices source requests, and a hit makes none. The
        separate counters make amortization visible (charged cost per
        query falls as the cache warms; docs/SERVICE.md).
        """
        if access.kind is AccessType.SORTED:
            self._cached_s[access.predicate] += 1
        else:
            self._cached_r[access.predicate] += 1
        if self._log is not None:
            self._log.append(access)

    def record_retry(self, access: Access) -> None:
        """Count one retry attempt (an attempt beyond an access's first).

        Retry attempts are *additionally* recorded as ordinary accesses via
        :meth:`record` -- they are real, charged requests -- so these
        counters make the overhead of flaky sources visible without
        changing Eq. 1.
        """
        if access.kind is AccessType.SORTED:
            self._retries_s[access.predicate] += 1
        else:
            self._retries_r[access.predicate] += 1

    def record_fault(self, access: Access) -> None:
        """Count one failed (faulted) attempt on an access."""
        if access.kind is AccessType.SORTED:
            self._faults_s[access.predicate] += 1
        else:
            self._faults_r[access.predicate] += 1

    def record_backoff(self, delay: float) -> None:
        """Accumulate virtual time spent backing off between retries."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._backoff += delay

    @property
    def sorted_counts(self) -> tuple[int, ...]:
        """``ns_i``: sorted accesses performed per predicate."""
        return tuple(self._ns)

    @property
    def random_counts(self) -> tuple[int, ...]:
        """``nr_i``: random accesses performed per predicate."""
        return tuple(self._nr)

    @property
    def total_sorted(self) -> int:
        return sum(self._ns)

    @property
    def total_random(self) -> int:
        return sum(self._nr)

    @property
    def total_accesses(self) -> int:
        """``sum_i ns_i + nr_i``, kept as a running total (O(1))."""
        return self._total

    @property
    def cached_sorted_counts(self) -> tuple[int, ...]:
        """Sorted accesses served free from a cross-query cache, per predicate."""
        return tuple(self._cached_s)

    @property
    def cached_random_counts(self) -> tuple[int, ...]:
        """Random accesses served free from a cross-query cache, per predicate."""
        return tuple(self._cached_r)

    @property
    def total_cached(self) -> int:
        """All cache-served (uncharged) accesses across predicates and kinds."""
        return sum(self._cached_s) + sum(self._cached_r)

    @property
    def retry_sorted_counts(self) -> tuple[int, ...]:
        """Retry attempts (beyond each access's first) per predicate, sorted."""
        return tuple(self._retries_s)

    @property
    def retry_random_counts(self) -> tuple[int, ...]:
        """Retry attempts (beyond each access's first) per predicate, random."""
        return tuple(self._retries_r)

    @property
    def total_retries(self) -> int:
        """All retry attempts across predicates and access kinds."""
        return sum(self._retries_s) + sum(self._retries_r)

    @property
    def fault_sorted_counts(self) -> tuple[int, ...]:
        """Failed attempts per predicate, sorted accesses."""
        return tuple(self._faults_s)

    @property
    def fault_random_counts(self) -> tuple[int, ...]:
        """Failed attempts per predicate, random accesses."""
        return tuple(self._faults_r)

    @property
    def total_faults(self) -> int:
        """All failed attempts across predicates and access kinds."""
        return sum(self._faults_s) + sum(self._faults_r)

    @property
    def backoff_time(self) -> float:
        """Virtual time spent in retry backoff (not part of Eq. 1 cost)."""
        return self._backoff

    @property
    def log(self) -> list[Access]:
        """The chronological access log (raises unless logging was enabled)."""
        if self._log is None:
            raise ValueError("access logging was not enabled for this run")
        return list(self._log)

    def total_cost(self, cost_model: Optional[CostModel] = None) -> float:
        """Eq. 1 total cost, under this run's model or an alternative one.

        Pricing under an alternative model supports what-if analyses
        ("what would this schedule have cost had random access been 10x").
        Accesses on an access type the alternative model marks unsupported
        price to ``inf``, faithfully signalling the schedule is infeasible
        there.
        """
        model = cost_model if cost_model is not None else self._cost_model
        return eq1_cost(model, self._ns, self._nr)

    def merge(self, other: "AccessStats") -> None:
        """Fold another stats object's counts into this one (same model width)."""
        if other.m != self.m:
            raise ValueError("cannot merge stats of different widths")
        for i in range(self.m):
            self._ns[i] += other._ns[i]
            self._nr[i] += other._nr[i]
            self._cached_s[i] += other._cached_s[i]
            self._cached_r[i] += other._cached_r[i]
            self._retries_s[i] += other._retries_s[i]
            self._retries_r[i] += other._retries_r[i]
            self._faults_s[i] += other._faults_s[i]
            self._faults_r[i] += other._faults_r[i]
        self._backoff += other._backoff
        self._total += other._total
        if self._log is not None and other._log is not None:
            self._log.extend(other._log)

    def snapshot(self) -> dict:
        """Plain-dict summary for reports and serialization."""
        return {
            "sorted_counts": self.sorted_counts,
            "random_counts": self.random_counts,
            "total_sorted": self.total_sorted,
            "total_random": self.total_random,
            "total_cost": self.total_cost(),
            "total_cached": self.total_cached,
            "total_retries": self.total_retries,
            "total_faults": self.total_faults,
            "backoff_time": self.backoff_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AccessStats(sorted={self.total_sorted}, random={self.total_random}, "
            f"cost={self.total_cost():g})"
        )
