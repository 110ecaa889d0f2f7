"""Host-speed reference for the timed metrics.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes (other tenants on the same cores, caches and memory
bus).  `Reference` times one fixed kernel that uses only the standard
library and numpy, never potdeg, so no change to the program moves it.  It
mixes the resources the workloads use: exact rational arithmetic and
dictionary traffic in the interpreter, elementwise numpy passes over arrays
larger than the L2 cache, and a BLAS matrix product on the pinned threads.

A run's times are scaled by NOMINAL_S / (the median of its reference times),
so a metric reads in seconds on a host where the kernel takes NOMINAL_S.  Raw
wall-clock seconds are reported beside every scaled figure.

The kernel runs in a child process, so its arrays stay out of the workload's
peak RSS; the workload's process waits while it runs.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# about the kernel's time on a 2-vCPU Xeon (family 6, model 143) guest; only a
# scale, so that scaled figures read near wall-clock seconds
NOMINAL_S = 0.25


def _kernel(X, A, keys) -> float:
    s = Fraction(0)
    for i in range(1, 4000):
        s = s * Fraction(2, 3) + Fraction(i % 97, i % 89 + 1)
    table = {}
    for k in keys:
        table[k] = table.get(k ^ 1, 0) + k
    y = 0.0
    for _ in range(4):
        y += float(np.sqrt(X * X + 1.0).sum())
    B = A
    for _ in range(36):
        B = A @ B
        B /= np.abs(B).max()
    return float(s.numerator % 7) + len(table) + y + float(B[0, 0])


def _serve():
    """The child's loop: one timed kernel per line read, its seconds written back."""
    rng = np.random.default_rng(12345)
    data = (rng.normal(size=2_000_000), rng.normal(size=(320, 320)),
            rng.permutation(1 << 17).tolist())
    for _ in sys.stdin:
        t0 = time.perf_counter()
        _kernel(*data)
        print(time.perf_counter() - t0, flush=True)


class Reference:
    """A child process that times the kernel on request; use as a context manager."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self()          # warm-up
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    _serve()
