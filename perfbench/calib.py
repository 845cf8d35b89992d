"""Speed calibration: a fixed piece of work, timed between ops.

This machine's speed drifts by 10-20 % over seconds to minutes (other
tenants share its cores), which would swamp the differences the benchmark
has to resolve.  The worker times a kernel every CAL_EVERY_S seconds
between ops, and run.py scales each measured time t to the reference speed:
t * k_ref / k, with k the median kernel time around the measurement.

In-process workloads use ``kernel()``, pure-Python work.  cli-oneshot uses
``spawn_kernel()``, the start of a bare interpreter, because most of a CLI
op is process start-up, which speeds up and slows down less than a hot
loop does: on eight seeds the spread of its op_p50_ms was 0.097 scaled by
``kernel()`` and 0.023 scaled by ``spawn_kernel()``.
"""

import cmath
import gc
import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# seconds: each kernel's median on the reference machine
K_REF = 1.5e-3
K_SPAWN_REF = 11e-3
CAL_EVERY_S = 0.05


def kernel() -> float:
    """Seconds taken by a mix of what the program does: Fraction arithmetic,
    modular products of word-sized and two-word integers, complex exp and
    log, and dict and list traffic.  The garbage collector is off, so that
    the program's heap does not change it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        acc, d, z = Fraction(0), {}, 0j
        big, mod = 3, 7 ** 19
        for i in range(1, 300):
            acc += Fraction(i % 7 + 1, i)
            big = big * (i + 5) % mod
            z += cmath.exp(-complex(0.5, i % 5) * math.log(i + 0.5))
            d[i] = (i * i) % 97
        sum(sorted(d.values()))
        return perf_counter() - t
    finally:
        if gc_was_on:
            gc.enable()


def spawn_kernel() -> float:
    """Seconds taken to start and end `python -S -c pass`."""
    t = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter() - t
