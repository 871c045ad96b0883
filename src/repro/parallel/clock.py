"""A minimal virtual clock for simulated concurrent execution.

The engine's wave core issues accesses in waves; each access occupies one
of ``c`` connections for its latency. The clock advances by each wave's
makespan, so elapsed time reflects what a real bounded-concurrency client
would observe, without any real sleeping.
"""

from __future__ import annotations


class VirtualClock:
    """Tracks simulated elapsed time."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance(self, duration: float) -> None:
        """Move time forward; durations must be nonnegative."""
        if duration < 0:
            raise ValueError(f"cannot advance by negative duration {duration}")
        self._now += duration

    def run_wave(self, durations: list[float], concurrency: int) -> float:
        """Advance by the makespan of a wave of accesses.

        With ``len(durations) <= concurrency`` every access starts
        immediately, so the wave's makespan is the longest duration. (The
        executor never builds waves beyond the concurrency bound; this is
        asserted here to keep the model honest.)
        """
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if len(durations) > concurrency:
            raise ValueError(
                f"wave of {len(durations)} accesses exceeds concurrency "
                f"{concurrency}"
            )
        makespan = max(durations, default=0.0)
        self.advance(makespan)
        return makespan
