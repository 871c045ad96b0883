"""Wall-clock calibration against a fixed reference computation.

The benchmark runs on small shared machines whose CPU speed drifts by
tens of percent between runs and within one.  Every timed interval is
therefore rescaled to *reference speed*: the harness interleaves
:func:`reference_work` with the workload (between requests, or at round
barriers), and divides each interval by the median reference duration
measured around it.  A machine-wide slowdown stretches both by the same
factor and cancels out.

The reference (:func:`reference_work`) is a miniature top-k computation
of the same flavour as the system under test and lives here, outside
``src/``, so no change to the program can move it.  Its answer is checked
on every call so the work can never be skipped.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

import numpy as np

#: Objects per predicate in one reference call (about 2-4 ms on a 2020s core).
REFERENCE_OBJECTS = 1000
#: Checksum of ``reference_work()``.
REFERENCE_CHECKSUM = 471.252152
#: Calibrated time is expressed in milliseconds of a machine on which one
#: reference call takes exactly this long.
REFERENCE_MS = 2.5
#: Reference samples (nearest in time) behind one interval's speed.
WINDOW = 4


def reference_work(n: int = REFERENCE_OBJECTS) -> float:
    """The fixed reference computation; returns its checksum.

    A miniature of the measured program's own work: three score columns
    from an LCG, per-column sorted orders (``sorted``), a numpy sort, and
    a threshold-style top-10 walk down the sorted lists with a dict of
    seen objects and a heap.  Its memory footprint and instruction mix
    resemble a served query's, so machine-wide slowdowns hit both alike.
    """
    x = 12345
    cols = []
    for _ in range(3):
        col = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            col.append(x / 2147483647.0)
        cols.append(col)
    orders = [sorted(range(n), key=col.__getitem__, reverse=True) for col in cols]
    total = float(np.sort(np.array(cols), axis=1)[:, -10:].sum())
    seen: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for depth in range(n):
        for order in orders:
            obj = order[depth]
            if obj in seen:
                continue
            score = min(cols[0][obj], cols[1][obj], cols[2][obj])
            seen[obj] = score
            if len(heap) < 10:
                heapq.heappush(heap, (score, obj))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, obj))
        threshold = min(cols[i][orders[i][depth]] for i in range(3))
        if len(heap) == 10 and heap[0][0] >= threshold:
            break
    return round(total + sum(score for score, _obj in heap) + len(seen), 6)


class Calibrator:
    """Records reference samples and rescales intervals to reference ms."""

    def __init__(self) -> None:
        self._mid: list[float] = []
        self._dur: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Run the reference ``count`` times, recording each duration."""
        for _ in range(count):
            start = time.perf_counter()
            checksum = reference_work()
            end = time.perf_counter()
            if checksum != REFERENCE_CHECKSUM:
                raise RuntimeError(
                    f"reference computation returned {checksum}, "
                    f"expected {REFERENCE_CHECKSUM}"
                )
            self._mid.append((start + end) / 2.0)
            self._dur.append(end - start)

    @property
    def samples(self) -> int:
        return len(self._dur)

    def local_reference(self, start: float, end: float) -> float:
        """Median reference duration of the samples nearest ``[start, end]``."""
        if not self._dur:
            raise RuntimeError("no reference samples recorded")
        lo = bisect.bisect_left(self._mid, start)
        hi = bisect.bisect_right(self._mid, end)
        # Widen the window alternately on both sides until it is full.
        while hi - lo < WINDOW and (lo > 0 or hi < len(self._mid)):
            if lo > 0:
                lo -= 1
            if hi - lo < WINDOW and hi < len(self._mid):
                hi += 1
        return statistics.median(self._dur[lo:hi])

    def to_ms(self, start: float, end: float) -> float:
        """Calibrated milliseconds of the interval ``[start, end]``."""
        return (end - start) / self.local_reference(start, end) * REFERENCE_MS

    def speed(self) -> float:
        """Median reference duration of the whole run, in raw ms."""
        return statistics.median(self._dur) * 1e3
