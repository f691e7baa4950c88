"""A fixed pure-Python load that gauges how fast the machine runs right now.

The host's speed drifts between regimes about 1.5 to 2 times apart that last
from seconds to minutes, and every timing of a run moves with it. The
benchmark times this load next to the timed work and gives every timing at
the reference speed, at which one round of the load takes ``ROUND_S``:

    time at reference speed = measured time * ROUND_S / measured round time

The load imports nothing from csemigroups, so no change to the package moves
it; a change that makes the package slower or faster moves the scaled
timings by the same factor as the measured ones. The load works on sets of
integer tuples and small dicts, as the package does.
"""

from __future__ import annotations

import time

# Seconds one round took on the reference machine in its fast regime (see README.md).
ROUND_S = 0.006


def _round():
    # small (about 0.2 MB), so that it adds little to the worker's peak memory
    pts = {(i, j) for i in range(40) for j in range(40) if (i * 7 + j * 5) % 11}
    hits = 0
    for _ in range(8):
        for i, j in pts:
            if (i + 3, j + 5) in pts and (i - 1, j) not in pts:
                hits += 1
    d = {}
    for k in range(30000):
        d[k % 977] = d.get(k % 977, 0) + k
    return hits + len(d)


def round_time(rounds):
    """Mean seconds per round over ``rounds`` rounds."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        _round()
    return (time.perf_counter() - t0) / rounds
