"""Pacing: mapping virtual access latencies onto the asyncio loop.

The engines decide *what* to access on the deterministic tick/virtual
clocks (:mod:`repro.parallel.clock`, docs/RUNTIME.md); the pacer is the
one place where virtual durations become real ``await``\\ s, so that
independent accesses -- and independent queries sharing one event loop --
overlap in wall-clock time the way they would against real web sources.

Determinism discipline (RL104): the pacer never *reads* a wall clock.
It only ever waits -- ``asyncio.sleep`` -- and every engine decision is
taken before or after the wait on state that does not depend on how long
the wait really took. Scaling to zero (the default) turns a wait into a
bare cooperative yield, which keeps the interleaving of concurrent
sessions deterministic under a fixed submission order: ready tasks
round-robin in FIFO order, no timers involved.

At scale zero a pacer built with ``yield_every > 1`` yields only on its
first wait and on every ``yield_every``-th one after it, counting waits
(accesses, or waves), never time. The server builds such a pacer, one per
session, when it has a single execution slot: no other session can run
in the turns it skips, and each skipped turn is a full event-loop
iteration saved per access. Other coroutines -- transports, a caller's
``cancel`` -- still get a turn within :data:`YIELD_EVERY` waits.
"""

from __future__ import annotations

import asyncio

#: Waits between event-loop yields of a lone session's pacer at scale 0.
#: This is the cancel-landing bound: a session that holds the server's
#: only execution slot performs at most this many accesses (or waves)
#: between two turns of any other coroutine, so a cancel or a transport
#: line waits at most that long per turn. 32 accesses are about 1.5 ms
#: of engine and access-layer time on the tcp-hot perfbench workload
#: (traced, calibrated, 2-core x86_64, Python 3.11), an eighth of its
#: median request, while the event-loop turns per access drop 32-fold.
YIELD_EVERY = 32


class Pacer:
    """Awaits virtual durations, scaled into real seconds.

    Args:
        time_scale: real seconds per unit of virtual latency. ``0.0``
            (the default) never sleeps on a timer: a wait degrades to
            ``asyncio.sleep(0)``, a pure cooperative yield, so runs are
            as fast as the hardware allows *and* deterministically
            interleaved. Positive scales make latency-bearing sources
            occupy real wall-clock time, which is what the E22 serving
            benchmark overlaps across clients.
        yield_every: at scale zero, yield on the first wait and then on
            every ``yield_every``-th one (the module docstring); the
            default ``1`` yields on every wait. The count is this pacer's
            own, so a pacer with a cadence paces one run. Positive scales
            ignore it: every wait sleeps.
    """

    def __init__(self, time_scale: float = 0.0, yield_every: int = 1):
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        if yield_every < 1:
            raise ValueError(f"yield_every must be >= 1, got {yield_every}")
        self.time_scale = time_scale
        self.yield_every = yield_every
        self._waits = 0

    async def wait(self, duration: float) -> None:
        """Occupy one connection for ``duration`` units of virtual time.

        At a positive scale this sleeps; at scale zero it yields to the
        event loop on the pacer's first wait and every ``yield_every``-th
        one after it, and returns at once on the others. The yield points
        are where concurrent sessions interleave and where cancellation
        can land (never inside an access's synchronous charge-and-fetch
        section).
        """
        if duration < 0:
            raise ValueError(f"cannot wait a negative duration {duration}")
        if self.time_scale > 0.0:
            await asyncio.sleep(duration * self.time_scale)
            return
        waits = self._waits
        self._waits = waits + 1
        if waits % self.yield_every == 0:
            await asyncio.sleep(0)

    async def wave(self, durations: list[float]) -> None:
        """Wait out one wave of concurrent accesses: its makespan.

        Accesses within a wave all start together (the executor never
        builds waves beyond the concurrency bound), so the wave's real
        duration is the longest member's -- one sleep, not a sum.
        """
        await self.wait(max(durations, default=0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pacer(time_scale={self.time_scale}, yield_every={self.yield_every})"
