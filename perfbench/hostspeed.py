"""Host speed, from a fixed reference kernel timed between the jobs.

On a shared host the speed of the benchmark's core switches by 1.5x to 2x
in spells that last from seconds to minutes, and a whole run can fall in a
slow one. A job slows with the host, and so does any other CPU-bound Python
code run beside it. So the run times `kernel`, a fixed piece of pure-Python
work (objects, dicts, sorting, JSON) that uses the standard library only and
none of gridlay, about every CAL_EVERY_S seconds between two jobs. A job's
time is then scaled by REF_NS over the median kernel time of the samples
taken from WINDOW_S before the job to WINDOW_S after it: it reads as the
job would take when the kernel takes REF_NS. The speed also jitters from
one kernel run to the next; the window's median smooths that out, and the
jitter left in single jobs averages out over a job's runs and the pool.
A change to gridlay cannot move the kernel, so it moves the scaled times
as much as the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import statistics
import time

CAL_EVERY_S = 0.1
WINDOW_S = 1.0
# The kernel's time in the fast state of the host the benchmark was built on
# (a 2-vCPU Xeon VM, Python 3.11). Scaled times are in ms at that speed.
REF_NS = 4_000_000


class _Point:
    __slots__ = ("x", "y", "layer")

    def __init__(self, x: int, y: int, layer: str):
        self.x, self.y, self.layer = x, y, layer


def kernel() -> int:
    """A fixed amount of object, dict, sort and JSON work; returns a checksum."""
    rng = random.Random(1)
    pts = [_Point(rng.randrange(10**6), rng.randrange(10**6), f"m{i % 5}") for i in range(1600)]
    by_layer: dict[str, list[_Point]] = {}
    for p in pts:
        by_layer.setdefault(p.layer, []).append(p)
    close = 0
    for row in by_layer.values():
        row.sort(key=lambda p: (p.x, p.y))
        close += sum(1 for a, b in zip(row, row[1:]) if b.x - a.x < 500)
    doc = [{"layer": p.layer, "xy": [p.x, p.y, p.x + 10, p.y + 10], "purpose": "drawing"}
           for p in pts[:600]]
    back = json.loads(json.dumps(doc))
    return close + sum(e["xy"][0] for e in back)


def sample() -> tuple[int, int]:
    """(midpoint ns, duration ns) of one kernel run, garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
    finally:
        if enabled:
            gc.enable()
    return (t0 + t1) // 2, t1 - t0


class Speed:
    """Kernel samples of one run, in time order, and the scaling they give."""

    def __init__(self):
        self.at: list[int] = []
        self.ns: list[int] = []

    def sample(self) -> None:
        at, ns = sample()
        self.at.append(at)
        self.ns.append(ns)

    def due(self) -> bool:
        return not self.at or time.perf_counter_ns() - self.at[-1] >= CAL_EVERY_S * 1e9

    def scale(self, t0: int, t1: int) -> float:
        """REF_NS over the median kernel time of the samples around [t0, t1].

        Those are the samples from WINDOW_S before t0 to WINDOW_S after t1,
        or the nearest one when that window holds none.
        """
        w = int(WINDOW_S * 1e9)
        i = bisect.bisect_left(self.at, t0 - w)
        j = bisect.bisect_right(self.at, t1 + w)
        if i == j:
            i = min(max(bisect.bisect_left(self.at, t0) - 1, 0), len(self.at) - 1)
            j = i + 1
        return REF_NS / statistics.median(self.ns[i:j])
