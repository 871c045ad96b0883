"""Async concurrent-access runtime (docs/RUNTIME.md).

The deterministic asyncio execution mode:
:class:`~repro.core.framework.FrameworkNC`'s async drivers run the NC
engine with latency waits that yield to the event loop (so independent
accesses -- and independent queries -- overlap in wall-clock time), and
:class:`Pacer` is the single point where virtual durations become real
``await``\\ s. Eq. 1 charging, the Theorem-1 stopping rule, and answer
bytes stay deterministic: all decisions run on the tick/virtual clocks,
never wall time.
"""

from repro.runtime.engine import AnswerCallback
from repro.runtime.pacing import Pacer

__all__ = ["AnswerCallback", "Pacer"]
