"""Host-speed calibration for timings taken on a shared, drifting host.

On the 2-vCPU hosts this benchmark was written on, the same solve takes from
320 to 650 ms depending on what neighbouring tenants do, with CPU time
tracking wall time: the processor itself runs slower, in swings that last
from a second to longer than a run. Raw wall times therefore vary more
between runs than any regression bound the benchmark can afford.

The remedy is a fixed reference kernel, timed between solves in the process
that runs them. It does the same kind of work as the solvers (small complex
matrix products, a Cholesky solve, per-element Python) but lives here, in the
benchmark, so no change to ``isacbeam`` can move it. A solve's calibrated
time is its wall time divided by the kernel's slowdown around it
(:func:`slowdown_over`), the slowdown being kernel time over ``NOMINAL_S``:
the time the solve would have taken at the speed the kernel ran at when
``NOMINAL_S`` was recorded. Raw wall times are reported beside every
calibrated one.

Never edit the kernel or the constants: calibrated figures are only
comparable while both stay as they are.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg

REPS = 300
REACH = 8.0
MARGIN_S = 0.1
# The kernel's time at the reference speed: close to the fastest it ran on the
# reference host (2-vCPU x86 VM, numpy 2.4.6 with OpenBLAS 0.3.31, one BLAS
# thread). A fixed scale; calibrated times are in milliseconds at this speed.
NOMINAL_S = 0.015


class Calibrator:
    """Times the reference kernel and turns wall times into calibrated ones."""

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(0xCA11)))
        self._w = rng.standard_normal((16, 10)) + 1j * rng.standard_normal((16, 10))
        self._b = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        s = rng.standard_normal((8, 8))
        self._spd = s @ s.T + 8.0 * np.eye(8)
        self._eye = np.eye(8)
        self.samples: list = []
        self._kernel(REPS // 10)

    def _kernel(self, reps: int) -> float:
        acc = 0.0
        w, b, spd, eye = self._w, self._b, self._spd, self._eye
        for _ in range(reps):
            r = w @ w.conj().T
            g = b.conj().T @ b
            x = (r[:2, :2] * g).real
            inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(spd, lower=True), eye)
            acc += float(np.trace(inv)) + float(np.abs(r).sum()) + x[0, 0]
            for k in range(4):
                acc += float(np.log1p(abs(w[k, 0])))
        return acc

    def sample(self) -> float:
        """Time one kernel run; records (midpoint, slowdown) and returns the slowdown."""
        t0 = perf_counter()
        self._kernel(REPS)
        t1 = perf_counter()
        factor = (t1 - t0) / NOMINAL_S
        self.samples.append((0.5 * (t0 + t1), factor))
        return factor

    def summary(self) -> dict:
        s = np.asarray([f for _, f in self.samples])
        return {
            "kernel_samples": int(s.size),
            "slowdown_median": float(np.median(s)) if s.size else None,
            "slowdown_min": float(s.min()) if s.size else None,
            "slowdown_max": float(s.max()) if s.size else None,
        }


def slowdown_over(start: float, end: float, samples) -> float:
    """Mean slowdown over the interval [start, end] of one process, from that
    process's (time, slowdown) kernel samples.

    Samples are taken between solves, never during one, so the estimate
    averages those within ``REACH`` interval-lengths (at least ``MARGIN_S``)
    of it. Smoothing over a few seconds beat both the two adjacent samples
    and a whole-run median: on the reference host it brought run-to-run
    spreads of mean solve time to 4-6% for 0.5 s solves and ~10% for 4 s
    solves, whose speed the small-matrix kernel tracks least well.
    """
    reach = max(REACH * (end - start), MARGIN_S)
    near = [f for t, f in samples if start - reach <= t <= end + reach]
    if not near:
        near = [min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
    return float(np.mean(near))
