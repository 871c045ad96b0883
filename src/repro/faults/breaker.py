"""Per-source circuit breakers: fail fast instead of hammering dead sources.

A :class:`CircuitBreaker` guards one predicate's source inside the
middleware. It follows the classic three-state protocol, adapted to this
library's deterministic, clockless simulation: "time" is the
middleware-wide count of recorded access attempts, so cooldowns elapse as
the query performs work elsewhere and runs replay exactly.

* **closed** -- accesses flow through; consecutive logical-access failures
  are counted.
* **open** -- reached after ``failure_threshold`` consecutive failures (or
  immediately on a permanent :class:`~repro.exceptions.
  SourceUnavailableError`); the middleware rejects accesses *without
  charging them* until ``cooldown`` further attempts have been recorded
  elsewhere.
* **half_open** -- after the cooldown, one trial access is let through;
  success closes the breaker, failure re-opens it for another cooldown.

The degradation contract built on top of this state machine is specified
in docs/FAULTS.md.

Every breaker reports changes of its open/closed stamp to a
:class:`BreakerSignal` it shares with the other breakers of its map, so a
middleware can cache which channels admit accesses and re-read the
breakers only after a transition (docs/RUNTIME.md, "Choice sets and the
gate epoch").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.types import AccessType


class BreakerState(enum.Enum):
    """The three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs shared by every breaker of one middleware.

    Attributes:
        failure_threshold: consecutive logical-access failures that trip
            the breaker (permanent outages trip it immediately).
        cooldown: recorded access attempts that must elapse middleware-wide
            before an open breaker offers a half-open trial.
    """

    failure_threshold: int = 3
    cooldown: int = 16

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {self.cooldown}")


class BreakerSignal:
    """A transition counter shared by every breaker of one breaker map.

    ``serial`` moves whenever any of those breakers' open/closed stamp
    changes (opened, re-opened, closed or reset), wherever the change
    came from -- another session's middleware included, since the
    serving layer injects one map into every session. A reader that saw
    the same ``serial`` twice knows no breaker of the map changed
    between the reads; what the clock alone changes (an open breaker
    reaching its half-open tick) is predictable from
    :attr:`CircuitBreaker.half_open_at` instead.
    """

    __slots__ = ("serial",)

    def __init__(self) -> None:
        self.serial = 0


class CircuitBreaker:
    """Failure-counting state machine guarding one predicate's source.

    Args:
        policy: threshold and cooldown; the library default when ``None``.
        signal: the :class:`BreakerSignal` this breaker reports its
            transitions to; a private one when ``None``. Breakers of one
            map share one signal (:func:`breakers_for` does this).
    """

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        signal: BreakerSignal | None = None,
    ):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.signal = signal if signal is not None else BreakerSignal()
        self._failures = 0
        self._opened_at: int | None = None

    def _stamp(self, opened_at: int | None) -> None:
        """Set the open/closed stamp, signalling when it changes."""
        if opened_at != self._opened_at:
            self._opened_at = opened_at
            self.signal.serial += 1

    def state(self, now: int) -> BreakerState:
        """The breaker's state at attempt-count ``now``."""
        if self._opened_at is None:
            return BreakerState.CLOSED
        if now - self._opened_at < self.policy.cooldown:
            return BreakerState.OPEN
        return BreakerState.HALF_OPEN

    def allows(self, now: int) -> bool:
        """Whether an access may be attempted (closed or half-open trial)."""
        return self.state(now) is not BreakerState.OPEN

    @property
    def healthy(self) -> bool:
        """Closed with no failure counted: :meth:`record_success` is a no-op.

        The state is then closed at every clock value, so a caller may
        skip a success's before/after state reads.
        """
        return self._opened_at is None and not self._failures

    @property
    def half_open_at(self) -> int | None:
        """The tick from which an open breaker offers a trial (``None`` closed).

        The one state change that needs no call on the breaker: until
        this tick (or the next signalled transition) :meth:`allows`
        answers the same at every clock value.
        """
        if self._opened_at is None:
            return None
        return self._opened_at + self.policy.cooldown

    def record_success(self) -> None:
        """A logical access succeeded: close and forget past failures."""
        self._failures = 0
        self._stamp(None)

    def record_failure(self, now: int, permanent: bool = False) -> bool:
        """A logical access failed; returns whether the breaker is now open.

        A failure during a half-open trial re-opens immediately, as does a
        permanent outage; otherwise the breaker opens once consecutive
        failures reach the policy's threshold.
        """
        trial_failed = self.state(now) is BreakerState.HALF_OPEN
        self._failures += 1
        if (
            permanent
            or trial_failed
            or self._failures >= self.policy.failure_threshold
        ):
            self._stamp(now)
            return True
        return False

    def reset(self) -> None:
        """Rewind to pristine closed state (middleware reset)."""
        self._failures = 0
        self._stamp(None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "closed" if self._opened_at is None else f"opened@{self._opened_at}"
        return f"CircuitBreaker({status}, failures={self._failures})"


def breakers_for(
    m: int, policy: BreakerPolicy | None = None
) -> dict[tuple[int, AccessType], CircuitBreaker]:
    """One breaker per source channel, for sharing across middlewares.

    The serving layer (docs/SERVICE.md) builds this map once and injects
    it into every per-query middleware (``Middleware(..., breakers=...)``)
    so that a source tripped by one session fails fast for every later
    session instead of each query rediscovering the outage at full price.
    The map's breakers share one :class:`BreakerSignal`, so every
    middleware holding the map sees a transition any session caused.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    chosen = policy if policy is not None else BreakerPolicy()
    signal = BreakerSignal()
    return {
        (i, kind): CircuitBreaker(chosen, signal)
        for i in range(m)
        for kind in AccessType
    }


def degraded_predicates(
    breakers: Mapping[tuple[int, AccessType], CircuitBreaker], now: int
) -> list[int]:
    """Predicates with at least one channel refusing accesses at ``now``.

    The single shared implementation behind both
    ``Middleware.degraded_predicates()`` and ``QueryServer.stats()``:
    breaker state is a function of the access-count clock, so the two
    layers only agree when they evaluate the *same* scan at the *same*
    clock -- previously each kept its own copy (the server's pinned to a
    stale clock base), and the answers could diverge mid-query.
    """
    return sorted(
        {
            predicate
            for (predicate, _kind), breaker in breakers.items()
            if not breaker.allows(now)
        }
    )
