"""Host-speed reference for the benchmark's timings.

On a shared host the speed a process gets changes by 1.3-1.6x for seconds to
minutes at a time, so raw solve times from two runs of the same code differ by
more than the benchmark's bounds. A fixed reference kernel, timed right before
and right after a short solve, tracks that speed: for an m=100 solve of about
50 ms the ratio of its time to the adjacent reference time stayed within 1%
while raw times swung 20%. Such timings are reported scaled to the
reference's nominal speed:

    calibrated = raw * REF_NOMINAL_S / reference time

It follows the speed of work like its own, many small numpy calls; it did
not follow solves dominated by dense LAPACK on 1000x1000 matrices, so
``workloads.Workload.calibrated`` says which workloads scale their solve
times.

The kernel does the kinds of work the solvers do (small LAPACK SVDs with the
Python overhead around them, elementwise shrinkage, matrix-vector products)
on fixed data made here, never by the package under test, so no change to
the package moves it. numpy is imported when a Reference is made, not with
this module, so that importing it leaves set-up time alone.
"""

from __future__ import annotations

import statistics
import time

# About one kernel call on a 2-vCPU cloud host in its faster state; on the
# same host the call takes up to 10 ms while the host is busy with others.
REF_NOMINAL_S = 0.006
# Calls per measurement; the first warms the caches and is not counted.
REF_CALLS = 5


class Reference:
    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((100, 100))
        self.block = rng.standard_normal((300, 300))
        self.vec = rng.standard_normal(300)

    def kernel(self):
        np = self.np
        s = 0.0
        for _ in range(6):
            s += np.linalg.svd(self.small, compute_uv=False)[0]
        b = self.block
        for _ in range(3):
            s += float(np.abs(np.sign(b) * np.maximum(np.abs(b) - 0.5, 0.0)).sum())
        for _ in range(20):
            s += float((b @ self.vec)[0])
        return s

    def seconds(self):
        """Median time of one kernel call, over REF_CALLS - 1 warm calls."""
        times = []
        for _ in range(REF_CALLS):
            t = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times[1:])
