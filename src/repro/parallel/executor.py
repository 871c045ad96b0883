"""The former bounded-concurrency executor: now an alias of the engine.

The wave core lives in :class:`~repro.core.framework.FrameworkNC`, chosen
by ``concurrency > 1`` (Section 9.1.1).
"""

from repro.core.framework import FrameworkNC

# perfbench/spans.py imports this name and wraps its ``run``.
ParallelExecutor = FrameworkNC
