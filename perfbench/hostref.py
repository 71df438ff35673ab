"""Host-speed reference: a fixed kernel timed between operations.

The benchmark host is a 2-vCPU share of a larger machine whose speed drifts by
up to a third over minutes, equally in CPU time and wall time, so whole runs
of the same code read slower or faster.  Every operation is preceded by one
timing of this kernel, and ``run.py`` rescales to the kernel's nominal time
both the seconds per operation and the set-up time sampled just before:

    run_s = median(operation s) * NOMINAL_S / median(reference s)

In sets of ten seeds on that host the spread of ``run_s`` (quartile distance
over the median) was 0.04-0.12 rescaled against 0.05-0.29 as measured.  The
rescaling helps least on the array-bound workloads, whose passes track the
kernel less closely than the interpreted ones.

The kernel is the benchmark's own code, never the program's, so a change to
the program moves ``run_s`` in full while a slower host moves the operation
and the kernel together.  It mixes three kinds of work: an interpreted loop
over small numpy calls, whole-array numpy passes over a working set larger
than L2, and float-to-text formatting.  One timing is the geometric mean of
the three parts' times.
"""
from __future__ import annotations

import math
import time

#: Time of one reference timing on the machine in ``machine.json``; it only
#: sets the scale of the rescaled ``run_s``.
NOMINAL_S = 0.065

#: The whole-array part's input and scratch buffer: 2 MiB each, together twice
#: the L2 of that machine, made once so the reference adds little to peak
#: memory.
_ARRAYS = None


def reference_s() -> float:
    """Time the kernel once; the geometric mean of its parts, in seconds."""
    global _ARRAYS
    import numpy as np

    if _ARRAYS is None:
        _ARRAYS = np.random.default_rng(0).random(1 << 18), np.empty(1 << 18)
    values, scratch = _ARRAYS

    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    xs = np.empty(1200)
    ys = np.empty(1200)
    n = 0
    for _ in range(1200):
        cx, cy = rng.uniform(), rng.uniform()
        if n and np.any(np.hypot(xs[:n] - cx, ys[:n] - cy) < 0.001):
            continue
        xs[n], ys[n] = cx, cy
        n += 1

    t1 = time.perf_counter()
    for _ in range(12):
        np.multiply(values, 1.5, out=scratch)
        scratch += 0.25
        np.cumsum(scratch[scratch > 0.9])
        np.copyto(scratch, values)
        scratch.sort()

    t2 = time.perf_counter()
    "\n".join(f"{i},{v!r},{v * 2:.17g}" for i, v in enumerate(values[:20000]))
    t3 = time.perf_counter()
    return math.prod((t1 - t0, t2 - t1, t3 - t2)) ** (1 / 3)
