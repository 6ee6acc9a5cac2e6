"""Machine-speed probe: request latencies in seconds at a fixed host speed.

The host is shared, and the speed of the same Python call drifts by up to
2x over minutes and swings for seconds at a time as other load comes and
goes.  Medians over one run cannot undo a drift that lasts the whole run,
so every latency is also scaled by the host's speed at the time it was
measured.  The speed comes from a probe: a fixed pure-Python kernel that
never touches the library (Horner's rule over plain slotted quaternion
objects, the kind of interpreter work the library does), run between
requests, outside their timed region, PROBE_BURST times in a row at
most every PROBE_EVERY_S (bursts, so that a CLI command of a few hundred
milliseconds still has a dozen probes around it).  A request's latency
is multiplied by PROBE_NOMINAL_S over the median probe time within
WINDOW_S of it; a change to the library cannot move the probe.  The
probe only speaks for the processor it ran on, so the benchmark process
and the CLI commands it starts keep to one processor (`pin`).

Measured on the host the benchmark was defined on (2 shared cores, Python
3.11.7), the probe tracks the library: over 3-s stretches the time of a
repeated 256-node contour integral varied by 9-17% (coefficient of
variation), its ratio to the probe time by 2%.
"""

import os
import random
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_EVERY_S = 0.1
PROBE_BURST = 5
WINDOW_S = 0.5
# The probe's median time on the defining host at the speed it ran at most
# often; a constant, so that scaled figures are seconds at that speed.
PROBE_NOMINAL_S = 250e-6


class _Q:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    def __mul__(a, b):
        return _Q(a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                  a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                  a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                  a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)

    def __add__(a, b):
        return _Q(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z)


_RNG = random.Random(1110)
_POLY = [_Q(*(_RNG.gauss(0.0, 1.0) for _ in range(4))) for _ in range(17)]
_POINTS = [_Q(*(_RNG.gauss(0.0, 0.5) for _ in range(4))) for _ in range(8)]


def kernel():
    """The probe's fixed work: a degree-16 polynomial at eight points."""
    out = []
    for p in _POINTS:
        acc = _Q(0.0, 0.0, 0.0, 0.0)
        for a in _POLY:
            acc = acc * p + a
        out.append(acc)
    return out


def probe_once():
    t0 = perf_counter()
    kernel()
    return t0, perf_counter() - t0


def pin():
    """Keep this process, and the processes it starts, on one processor
    (the highest-numbered one it may use), where the probe runs too."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Speed:
    """Probe times along a run, and the scale factor they give."""

    def __init__(self):
        self.times = array("d")     # midpoint of each probe
        self.costs = array("d")     # its duration, seconds
        self._last = float("-inf")

    def sample(self, repeats):
        for _ in range(repeats):
            t0, cost = probe_once()
            self.times.append(t0 + cost / 2.0)
            self.costs.append(cost)
            self._last = t0 + cost

    def maybe_sample(self):
        """Probe if the last probe is more than PROBE_EVERY_S ago."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample(PROBE_BURST)

    def scale(self, start, end):
        """PROBE_NOMINAL_S over the median probe time within WINDOW_S of
        [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed probe near a timed interval")
        return PROBE_NOMINAL_S / statistics.median(self.costs[lo:hi])
