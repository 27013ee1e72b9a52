"""A fixed piece of reference work, timed between proofs.

The benchmark runs on shared hosts whose speed drifts by a third or more
within minutes, for every program alike. The reference work is timed right
before and right after each proof; the proof's time over the mean of those
two is its time in reference units, which that drift cancels out of. The
work mixes what a proof spends its time on: interpreted Python with small
function calls, dict traffic, and numpy passes over a few megabytes.
"""

from __future__ import annotations

import time

import numpy as np

_VALUES = np.random.default_rng(0).random(200_000)


def _step(i: int) -> int:
    return (i * 7 + 3) % 13


def reference_s() -> float:
    """Seconds the reference work takes now; about 20 ms on a 2-core host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += _step(i)
    table = {}
    for i in range(30_000):
        table[i ^ 0x5A5A] = i
    acc += sum(table.get(i, 0) for i in range(0, 30_000, 3))
    a = _VALUES.copy()
    a.sort()
    acc += int(np.cumsum(a)[-1]) + int((a > 0.5).nonzero()[0].size)
    seconds = time.perf_counter() - t0
    if acc <= 0:
        raise AssertionError("reference work computed nothing")
    return seconds
