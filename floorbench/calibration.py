"""A fixed calibration kernel that tracks how fast this machine runs right now.

On a shared host the speed of one CPU drifts by up to 1.6x in phases of
seconds to tens of seconds, for the interpreter and for numpy/scipy alike
(process CPU time drifts with wall time, so it is not steal).  Each
repetition times this kernel right before and right after its run, and the
benchmark rescales the repetition's times by the mean of the two, to a machine
on which the kernel takes :data:`REFERENCE_S`.  The kernel uses only Python, numpy and
scipy, never the simulator, so a change to the simulator moves the rescaled
times exactly as it moves the raw ones.  On a 2-vCPU VM whose CPU
flipped between two speeds (this kernel at 6 ms or 10 ms) every few seconds,
ten 25 s runs of each workload (seeds 6-15) spread 0.19 / 0.52 / 0.11 / 0.10
raw (fine_flash / coarse_day / mpc_bank / year_2sku_warm; interquartile range
over median of ``server_periods_per_s``), 0.10 / 0.04 / 0.08 / 0.07 rescaled
per repetition, and 0.18 / 0.08 / 0.10 / 0.12 rescaled by the median kernel
time of the whole run.  A probe timed concurrently in another process or
thread tracked a run's speed worse still.

The mix follows the simulator's: interpreted float arithmetic and attribute
access, small-array numpy calls, and a sparse LU factorization with
back-substitutions on a 2-D grid Laplacian.
"""

from __future__ import annotations

import statistics
import time

#: Median time of one :func:`_kernel` call on the reference machine (a 2-vCPU
#: x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread).
REFERENCE_S = 0.008
#: Kernel calls per measurement; their median is the measurement.
SAMPLES = 11


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _build():
    import numpy as np
    from scipy import sparse

    n = 40
    line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sparse.identity(n)
    matrix = (
        sparse.kron(line, eye) + sparse.kron(eye, line) + 0.01 * sparse.identity(n * n)
    ).tocsc()
    rhs = np.linspace(0.0, 1.0, n * n)
    small = np.linspace(1.0, 2.0, 64)
    return matrix, rhs, small


_INPUTS = None


def _kernel() -> float:
    import numpy as np
    from scipy.sparse.linalg import splu

    matrix, rhs, small = _INPUTS
    point = _Point(0.5, 0.25)
    acc = 0.0
    for i in range(6000):
        point.x = point.x * 0.999 + point.y * 0.001
        acc += point.x * (i & 7)
    for _ in range(400):
        acc += float(np.dot(small, small * 0.5 + 1.0))
    lu = splu(matrix)
    for _ in range(4):
        acc += float(lu.solve(rhs)[0])
    return acc


def kernel_s() -> float:
    """Median wall time of :data:`SAMPLES` kernel calls, after a warm-up call."""
    global _INPUTS
    if _INPUTS is None:
        _INPUTS = _build()
    _kernel()
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed(kernel_times: list[float]) -> float:
    """How much slower than the reference machine a repetition went (>1 = slower).

    The median of the kernel times taken around it, over :data:`REFERENCE_S`.
    """
    return statistics.median(kernel_times) / REFERENCE_S
