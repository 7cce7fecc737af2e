"""Timing that survives a drifting CPU.

On a small shared VM the speed of a core drifts by up to 2x over a few
seconds, so a raw wall-clock reading of the same work moves by tens of
percent between runs. Every timed region here is followed by a short, fixed
reference loop, and the region's wall time is scaled by how fast that loop
ran around it::

    scaled = raw * REF_NOMINAL_S / median(readings around the region)

``REF_NOMINAL_S`` is the reference loop's typical time on the machine the
benchmark was calibrated on (see the README), so scaled times read as
seconds on that machine at its usual speed. The garbage left by the previous
region is collected before each region starts.
"""

from __future__ import annotations

import gc
import math
import time

REF_NOMINAL_S = 0.00075
REF_ITERATIONS = 3

_GRAPH = {i: ((i * 7 + 3) % 400, (i * 13 + 1) % 400, (i * 29 + 5) % 400) for i in range(400)}


def _reference_work() -> int:
    """A fixed pure-Python walk over dicts, sets and tuples, the same mix of
    operations the engine's heap walks spend their time on."""
    total = 0
    for start in range(4):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for child in _GRAPH[node]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        total += len(seen) + hash(tuple(sorted(seen)[:8])) % 7
    return total


def reference_seconds() -> float:
    """Median time of one reference iteration, right now."""
    samples = []
    for _ in range(REF_ITERATIONS):
        start = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


class Meter:
    """Times regions between reference readings.

    Every region is recorded as (raw seconds, index of the reading taken
    just before it); a reading follows every region. ``seconds`` scales a
    region by the median of the six readings centred on it, so a drift that
    lasts longer than a region moves region and readings together, while a
    single disturbed reading cannot scale a region on its own. Regions are
    scaled only after the run, when the readings after them exist.
    """

    WINDOW = 3  # readings taken on each side of a region

    def __init__(self) -> None:
        self.readings: list[float] = []

    def reading(self) -> int:
        """Take a reference reading; return its index."""
        self.readings.append(reference_seconds())
        return len(self.readings) - 1

    def start(self) -> None:
        """Collect garbage, then take the reading the next region follows."""
        gc.collect()
        self.reading()

    def measure(self, fn, *args):
        """Run ``fn(*args)`` as one region; return (result, region)."""
        before = len(self.readings) - 1
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        self.reading()
        return result, (raw, before)

    def seconds(self, region: tuple[float, int]) -> float:
        raw, before = region
        window = self.readings[max(0, before - self.WINDOW + 1):before + self.WINDOW + 1]
        return raw * REF_NOMINAL_S / median(window)

    def total(self, regions) -> float:
        return sum(self.seconds(r) for r in regions)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)
