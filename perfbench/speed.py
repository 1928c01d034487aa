"""The reference loop that measures the host's current Python speed.

On a shared host the speed of a virtual CPU swings by tens of percent within
a second and drifts over minutes, and the swing moves a forcelab op and a
fixed pure-Python loop alike.  The benchmark times this loop next to every
measured interval and reports the interval scaled to the speed at which the
loop takes REFERENCE_S.  The loop calls no forcelab code, so a change to
forcelab moves scaled times exactly as it moves wall time.
"""

from __future__ import annotations

import time

# Typical time of one ``reference()`` call on the 2-CPU host that defined
# the benchmark; scaled times are seconds at that speed.
REFERENCE_S = 1.0e-3


def reference() -> list:
    """A fixed mix of tuple, dict, str and sort work, about 1 ms."""
    table = {}
    for k in range(1500):
        row = (k, k * 7 % 13, str(k))
        table[row[1], k % 50] = row
        table.get((k % 11, 3))
    return sorted(table.values())


def time_reference() -> float:
    """Wall seconds of one ``reference()`` call."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scaled(wall_s: float, reference_s: float) -> float:
    """``wall_s`` at the speed where the reference loop takes REFERENCE_S."""
    return wall_s * REFERENCE_S / reference_s
