"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine a process's CPU time is not a fixed price of
its work: when other guests load the host, the same op takes two to three
times the CPU time (measured on this benchmark's 2-vCPU Xeon host, where
no hardware instruction counter is available).  The benchmark therefore
runs this kernel between ops and scales each op's CPU time by
REFERENCE_MS / (the kernel's CPU time around that op), so that every time
it reports reads in milliseconds of a host running at reference speed.

The kernel never changes and touches no multiprice code.  It mixes the
three kinds of work the workloads do: a Python loop over small tuples and
dicts with math.exp and sorting (like the assortment oracle), per-arrival
numpy argmax over fancy-indexed rows (like the engine steppers), and dense
row updates of a 1 MB tableau (like the simplex).
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the CPU ms of one kernel() call on the host named above when it is
# quiet, inferred, not measured: under load an `adversary --n 100 --k 1
# --trials 4` call took 62.5 kernel times, and that call took 28.4 ms on the
# quiet host.  The value cancels out of any ratio of two results; this one
# makes them read as quiet-host ms.  The program does not slow down by quite
# the same factor as the kernel, so results are comparable only when taken
# in the same state of the host (README, "Limits of the scaling").
REFERENCE_MS = 0.45

_rng = np.random.default_rng(12345)
_TABLEAU = _rng.random((121, 1000))
_WILLING = _rng.integers(0, 3, size=(60, 100))
_BIDS = _rng.random((100, 3))
_UTILITIES = [tuple(_rng.normal(size=8)) for _ in range(8)]


def kernel():
    acc = 0.0
    for us in _UTILITIES:
        pi = [us[p] * 10.0 + p for p in range(8)]
        order = sorted(range(8), key=lambda p: -pi[p])
        weight, value, best = 1.0, 0.0, (0.0, ())
        for end, p in enumerate(order, 1):
            w = math.exp(us[p])
            weight += w
            value += w * pi[p]
            if value / weight > best[0]:
                best = (value / weight, tuple(sorted(order[:end])))
        acc += best[0]

    rows = np.arange(_BIDS.shape[0])
    per_arrival = _BIDS[rows[None, :], _WILLING]
    cost = np.zeros(_BIDS.shape[0])
    for t in range(_WILLING.shape[0]):
        i = int(np.argmax(per_arrival[t] - cost))
        cost[i] += 0.1

    tab = _TABLEAU.copy()
    for k in range(6):
        e = int(np.argmin(tab[-1]))
        r = (k * 17) % 120
        tab[r] /= tab[r, e] + 1.0
        for q in range(0, tab.shape[0], 4):
            if q != r:
                tab[q] -= tab[q, e] * tab[r]
    return acc + float(cost.sum()) + float(tab[0, 0])


def kernel_ms(reps=2):
    """CPU ms of one kernel() call, averaged over `reps` calls."""
    c0 = time.process_time_ns()
    for _ in range(reps):
        kernel()
    return (time.process_time_ns() - c0) / 1e6 / reps
