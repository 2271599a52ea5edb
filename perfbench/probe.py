"""Host-speed probe: a fixed kernel, timed next to every run, that the run times are scaled by.

The benchmark host is two vCPUs of a shared machine. Timed with a fixed
pure-Python loop, each vCPU runs up to 25% faster or slower than its median
for stretches of 20-60 s, and the two vCPUs do so independently of each other.
A whole run sits inside one such stretch, so a measuring window's median moves
with the host, not the program. Timing this kernel on the same vCPUs just
before and just after each run measures the stretch the run met, and

    normalised time = run time * REF_S / kernel time

is the run time at the speed where the kernel takes REF_S. The kernel is part
of the benchmark, not of gridsync, so a change to the program moves the run
time and leaves the kernel alone.
"""

from __future__ import annotations

import os
import time

import numpy as np

REF_S = 0.35  # kernel seconds on one vCPU of the 2-vCPU host the benchmark was built on
_KEYS = np.random.default_rng(0).random(2_000_000)


def kernel_s() -> float:
    """Time one pass of the kernel: an interpreted loop, then two NumPy argsorts."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i % 7
    for _ in range(2):
        _KEYS[np.argsort(_KEYS)]
    return time.perf_counter() - start


def seconds(cpus: list[int]) -> float:
    """Mean kernel time over ``cpus``, pinned to each in turn; the affinity is restored after."""
    saved = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_s())
    finally:
        os.sched_setaffinity(0, saved)
    return sum(times) / len(times)


def normalised(value_s: float, kernel: float) -> float:
    """A time measured while the kernel took ``kernel`` seconds, scaled to REF_S."""
    return value_s * REF_S / kernel
