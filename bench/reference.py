"""Machine-speed reference for the benchmark's time metrics.

On a small shared machine the speed of a core changes by up to about 1.8x
within seconds, depending on what other guests do, and CPU time grows with
wall time (the instructions themselves run slower). A fixed reference
kernel, timed right before and after each measured operation, gives the
slowdown in force at that moment; the benchmark divides the operation's
wall and CPU seconds by it, so its time metrics read as seconds at the
reference speed ``REFERENCE_S`` stands for. A change to trapeval cannot
move the kernel, so it moves the scaled times just as it moves raw ones.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# About what reference() takes on the 2-core guest the baseline was taken
# on when no other guest slows it down (its fastest runs over 30 s).
REFERENCE_S = 0.024

_VECTOR = np.arange(50_000, dtype=np.float64)


def reference() -> float:
    """Seconds a fixed kernel takes now: a pure-Python dict-update loop
    (the evaluation, dataset and losses code is pure Python) and numpy
    element-wise passes over a 400 kB array. It calls no BLAS routine,
    whose threads would keep spinning into the measured operation."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(120_000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
    for _ in range(16):
        np.sqrt(_VECTOR * 1.0001 + 0.5).sum()
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep the calling thread on one CPU, so the reference kernel and the
    operation it calibrates run on the same core: the cores of a shared
    guest slow down independently. Threads started earlier (OpenBLAS's)
    keep their affinity."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def slowdown() -> float:
    """Current slowdown against ``REFERENCE_S``: median of three runs."""
    return statistics.median(reference() for _ in range(3)) / REFERENCE_S
