"""Machine-speed calibration.

The benchmark shares its machine with other tenants, and the speed of the
CPUs it gets drifts by more than half over tens of seconds.  A median over
one run cannot remove a drift that lasts the whole run, so every timing is
rescaled by the speed measured next to it: `calibrate()` times a fixed mix
of the work navstruct does (interpreter loops over lists, dicts and a heap,
numpy calls on 3-vectors, and numpy over an 800-row array), and a time t
measured while the calibration took c seconds is reported as
t * CALIBRATION_REF_S / c, the time on a machine where it takes
CALIBRATION_REF_S.  The mix uses no navstruct code, so a change to the
program cannot move it.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

# About the calibration's median time on a 2-CPU x86-64 sandbox (Python 3.11,
# numpy 2.4), so that rescaled times read close to wall seconds there.
CALIBRATION_REF_S = 0.2
ROUNDS = 40_000

_ROWS = np.linspace(0.0, 1.0, 2400).reshape(800, 3)
_DIR = np.array([0.3, -0.5, 0.8])


def calibrate() -> float:
    """Seconds one pass of the fixed work mix takes now."""
    start = time.perf_counter()
    heap: list[int] = []
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(ROUNDS):
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 255] = table.get(i & 255, 0) + i
        if i % 8 == 0:
            acc += float(np.dot(np.cross(_DIR, _ROWS[i % 800]), _DIR))
        if i % 400 == 0:
            pvec = np.cross(_DIR[None, :], _ROWS)
            acc += float(np.einsum("ij,ij->i", _ROWS, pvec).sum())
    if acc != acc:  # keeps the result live; never true for finite input
        raise ArithmeticError("calibration produced NaN")
    return time.perf_counter() - start
