"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's timings are taken on shared hosts whose single-core speed
drifts: the same pure-Python loop runs up to 2.4 times as long for minutes
at a time, and CPU time drifts with wall time, so the slowdown is not time
spent descheduled.  ``sample()`` times a fixed mix of the kinds of work the program
does (dict and set bookkeeping, XOR of wide Python integers, numpy
arithmetic on a distance matrix).  None of it calls epschain, so a change
to the program leaves it alone.
"""

from __future__ import annotations

import random
import time

import numpy as np


def _bookkeeping() -> int:
    seen, order, total = set(), {}, 0
    for i in range(120_000):
        key = (i * 7919) % 40_009
        if key not in seen:
            seen.add(key)
            order[key] = len(order)
        total += order[key] & 7
    return total


def _wide_xor() -> int:
    rng = random.Random(20210119)
    pivots: dict[int, int] = {}
    for _ in range(700):
        col = rng.getrandbits(12_000)
        while col:
            low = col.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = col
                break
            col ^= p
    return len(pivots)


def _distances() -> int:
    x = np.random.default_rng(20210119).random((500, 2))
    total = 0
    for _ in range(3):
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
        total += int((d <= 0.1).sum())
    return total


KERNELS = (_bookkeeping, _wide_xor, _distances)

# The time ``sample()`` is scaled to: a time t measured while the kernel took
# c seconds is reported as t * REFERENCE_S / c.  The kernel takes about this
# long on a 2-vCPU VM at its usual speed, so reported times stay close to
# what such a machine shows.
REFERENCE_S = 0.075


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    for k in KERNELS:
        k()
    return time.perf_counter() - t0
