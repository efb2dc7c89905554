"""The core's momentary speed, sampled during the workload.

The benchmark runs on shared virtual machines whose cores change speed
under their neighbours' load: a fixed pure-Python loop takes anywhere
from 1x to 2x its quiet time from one second to the next, and the slow and
fast phases also drift over minutes.  Item wall times carry that factor.

``SpeedProbe`` interleaves two fixed reference kernels with the workload in
the same thread: a SIGALRM interval timer runs both every ``INTERVAL_S`` and
records how long each took.  ``int_dict`` is dict updates of integers, the
shape of the library's exact ``Cyclo`` sums and residue loops; ``mpmath``
is 50-digit complex arithmetic in a private mpmath context, the shape of
its zeta, gamma and Mellin evaluations.  Contention slows the two by
different amounts, and each tracks the workload of its own shape best, so
a workload names the kernel it is timed against (``SPEED_KERNEL``).
Neither kernel uses the adelic library, so a library change does not move
them.

``SpeedProbe.reference`` turns a span of wall time into reference
seconds: the wall time minus the kernels' own time in it, times the
kernel's reference time over its median time around that span.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import mpmath

INTERVAL_S = 0.025
# Each kernel's time, sampled this way, in a quiet phase of the baseline
# machine (2 vCPUs, Intel Xeon at 2.1 GHz); "both" is their sum.
REFERENCE_S = {"int_dict": 0.2e-3, "mpmath": 0.26e-3, "both": 0.46e-3}
WINDOW_S = 0.1  # samples this far either side of a span also count
MIN_SAMPLES = 5  # and at least this many, the nearest ones

_MP = mpmath.MPContext()
_MP.dps = 50


def int_dict_kernel():
    terms: dict[int, int] = {}
    for i in range(1, 1000):
        k = (i * 7919) % 97
        terms[k] = terms.get(k, 0) + (i * 2654435761) % 1000003
    return terms


def mpmath_kernel():
    x = _MP.mpf(1) / 3
    y = _MP.mpc(0.3, 1.7)
    for i in range(5):
        y = y * x + _MP.exp(y / (i + 2))
        x = _MP.sqrt(x + i)
    return y


class SpeedProbe:
    """Kernel samples taken every INTERVAL_S while started.

    A sample runs inside a signal handler, between two bytecodes of the
    interrupted code, so it lies wholly inside or wholly outside any span
    whose ends were read with ``time.perf_counter``."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each sample's end
        self.took: dict[str, list[float]] = {k: [] for k in REFERENCE_S}
        self.spent = [0.0]  # spent[i]: the kernels' time in the first i samples

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the library's garbage is not the kernels' time
        t0 = time.perf_counter()
        int_dict_kernel()
        t1 = time.perf_counter()
        mpmath_kernel()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t2)
        self.took["int_dict"].append(t1 - t0)
        self.took["mpmath"].append(t2 - t1)
        self.took["both"].append(t2 - t0)
        self.spent.append(self.spent[-1] + t2 - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        out = {"samples": len(self.at)}
        for kernel, took in self.took.items():
            q1, median, q3 = statistics.quantiles(took, n=4)
            out[kernel] = {"q1": q1, "median": median, "q3": q3}
        return out

    def wall(self, t0: float, t1: float) -> float:
        """The span's wall time net of the samples taken inside it."""
        inside = self.spent[bisect.bisect_right(self.at, t1)] - self.spent[
            bisect.bisect_left(self.at, t0)]
        return t1 - t0 - inside

    def factor(self, t0: float, t1: float, kernel: str) -> float:
        """The kernel's reference time over its median time around [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            # widen towards the nearer neighbour
            before = t0 - self.at[lo - 1] if lo > 0 else float("inf")
            after = self.at[hi] - t1 if hi < len(self.at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return REFERENCE_S[kernel] / statistics.median(self.took[kernel][lo:hi])

    def reference(self, t0: float, t1: float, kernel: str) -> float:
        """The span's time in reference seconds."""
        return self.wall(t0, t1) * self.factor(t0, t1, kernel)
