"""Bounded-concurrency execution over NC plans (Section 9.1.1).

Total access cost measures resource usage; web sources additionally allow
concurrent accesses, trading elapsed time against server load. The paper
models concurrency as *bounded* and builds parallelization on top of the
sequential access-minimizing plan. :class:`~repro.core.framework.FrameworkNC`
built with ``concurrency=c > 1`` implements that: it speculatively
batches up to ``c`` compatible accesses that the sequential NC schedule
would want, executes them under the :class:`VirtualClock`, and its
``execute()`` reports both the (essentially unchanged) total cost and the
reduced elapsed time (makespan) as a :class:`ParallelResult`.
"""

from repro.parallel.clock import VirtualClock
from repro.types import ParallelResult

__all__ = ["ParallelResult", "VirtualClock"]
