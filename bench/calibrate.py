"""A fixed CPU kernel that reads the host's speed at the moment it runs.

The benchmark's VM shares its host, and its speed changes in spells of tens
of seconds: identical cold scans take anywhere from 2.0 s to 4.0 s.  Every
sample therefore times this kernel just before and just after its timed
region, in the same process, and the benchmark reports its timings scaled
to a host on which the kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel time

The kernel runs no eiskron code and touches no eiskron cache, so a change to
eiskron moves the scaled timings exactly as it moves the measured ones; only
the host's speed is divided out.  Its two halves, an interpreter loop and
products of 40,000-bit integers, are the two kinds of work the workloads
spend their time on (the glue around the q-series layer, and the packed
big-integer multiplies under ``convolve_int``).
"""

from __future__ import annotations

import multiprocessing
import random
import time

REFERENCE_S = 0.06  # the kernel's time in the fast spells of a 2-vCPU Xeon VM

_LOOP = 400_000
_PRODUCTS = 60
_BITS = 40_000
_REPEATS = 3


def _once(a: int, b: int) -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    for _ in range(_PRODUCTS):
        a * b
    return time.perf_counter() - t0


def _median_s() -> float:
    """The median of three repeats, so that one interruption of a repeat
    does not count as a slow host."""
    rng = random.Random(0)
    a, b = rng.getrandbits(_BITS), rng.getrandbits(_BITS)
    return sorted(_once(a, b) for _ in range(_REPEATS))[_REPEATS // 2]


def _child(barrier, conn) -> None:
    barrier.wait()
    conn.send(_median_s())
    conn.close()


def kernel_s(processes: int = 1) -> float:
    """Seconds the kernel takes now, on as many processes as the workload runs.

    A parallel workload's pool runs on every vCPU, and the vCPUs' speeds
    drift apart, so its kernel runs once per process, all at the same time.
    The pool hands out tasks as workers free up, so its wall time follows
    the harmonic mean of the per-process times, which is what is returned.
    """
    if processes == 1:
        return _median_s()
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(processes)
    children, conns = [], []
    for _ in range(processes):
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child, args=(barrier, send))
        child.start()
        send.close()
        children.append(child)
        conns.append(recv)
    try:
        times = [conn.recv() for conn in conns]
    finally:
        for child in children:
            child.join()
    return processes / sum(1 / t for t in times)
