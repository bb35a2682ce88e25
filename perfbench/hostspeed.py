"""Host-speed calibration: converts host seconds to reference seconds.

The benchmark runs on shared virtual machines whose speed swings by 2-4x
within seconds as neighbours come and go.  A fixed pure-Python loop,
run between every two timed samples, measures the host's speed right
then; a sample's host seconds are scaled by how much slower or faster
than :data:`REFERENCE_SECONDS` the loops on either side of it ran.  The
loop is interpreter-bound, like the simulator, in two parts: dict reads
and writes, method calls and small-integer formatting on a small table,
then slotted-object allocation and attribute updates spread over a
16 K-entry table that, like the simulator's object graph, reaches past
the core's private caches.  Scaling by both parts tracked the simulator
more closely than the small table alone.  It is benchmark code: no
change to the program can move it, so a slower program still reads
slower.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

#: Iterations of the small-table part of the calibration loop.
ITERATIONS = 100_000
#: Iterations of the object part of the calibration loop.
OBJECT_ITERATIONS = 50_000

#: Seconds the calibration loop takes on the reference host (a quiet
#: 2-vCPU virtual machine, Python 3.11; 0.027 s for the small-table part,
#: 0.026 s for the object part); a reference second is host time scaled
#: to that speed.
REFERENCE_SECONDS = 0.053


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


class _Entry:
    __slots__ = ("key", "count", "last")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0
        self.last: Any = None


def calibrate() -> float:
    """Host seconds one run of the calibration loop takes."""
    t0 = time.perf_counter()
    table: dict = {}
    counter = _Counter()
    for i in range(ITERATIONS):
        key = i & 511
        table[key] = table.get(key, 0) + i
        counter.add(len(str(key)))
    entries: dict = {}
    recent = []
    x = 1
    for i in range(OBJECT_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0x3FFF
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = _Entry(key)
        entry.count += 1
        entry.last = (i, key)
        recent.append(entry)
        if len(recent) > 4096:
            recent = recent[2048:]
    return time.perf_counter() - t0


class HostSpeed:
    """Times calls in reference seconds, calibrating between them."""

    def __init__(self) -> None:
        self._last = calibrate()

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Call *fn*; return its result and its duration in host seconds
        and in reference seconds.

        An exception from *fn* propagates before the next calibration.
        """
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = calibrate()
        scale = REFERENCE_SECONDS / ((self._last + after) / 2)
        self._last = after
        return result, elapsed, elapsed * scale
