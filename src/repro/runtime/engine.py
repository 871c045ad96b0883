"""The async engine's answer callback type, and its former class name.

The async drivers (``run_async``, ``execute_async``, ``stream``) live on
:class:`~repro.core.framework.FrameworkNC` (docs/RUNTIME.md).
"""

from typing import Awaitable, Callable

from repro.core.framework import FrameworkNC
from repro.types import RankedObject

#: Progressive-answer callback: awaited once per confirmed answer, in
#: rank order, before processing continues.
AnswerCallback = Callable[[RankedObject], Awaitable[None]]

# perfbench/spans.py imports this name and wraps its ``run_async``.
AsyncExecutor = FrameworkNC
