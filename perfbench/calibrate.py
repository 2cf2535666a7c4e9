"""Host-speed calibration for the time metrics.

On a shared host the CPU runs at a speed that drifts by tens of percent over
seconds to minutes, which no amount of repetition averages out.  The harness
therefore times this fixed kernel right before and right after every timed
job, and rescales a short job by the host's speed at that moment:

    scaled = raw * CALIB_REF_S / mean(kernel before, kernel after)

A scaled time reads as the wall time on this host at its reference speed;
the raw times are printed beside it.  The kernel mixes interpreted scalar
arithmetic with small LAPACK calls, like the lossprobe hot paths, and it
does not depend on lossprobe, so a change to lossprobe moves the scaled
times as much as the raw ones.

An interval longer than MAX_SCALED_S outlasts the host's speed regimes, so
the two kernel runs at its edges do not represent it; it is reported raw.
Of the three workloads this applies to `verify` (about 20 s per job, spent
mostly in multi-threaded BLAS, which the kernel does not imitate).
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the 2-vCPU Intel Xeon host the benchmark was defined
# on; a fixed constant, so scaled times compare across runs and commits
CALIB_REF_S = 0.06
MAX_SCALED_S = 5.0

_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_REPEATS = 3000


def _kernel() -> float:
    m = np.diag([1.5, 1.5, 2.5, 2.5])
    acc = 0.0
    for k in range(_REPEATS):
        acc += float(np.linalg.eigvalsh(m + 0.5j * _OMEGA).min())
        for j in range(1, 40):
            acc += (j + 0.5) ** 0.5 / (j + k)
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(raw: float, before: float, after: float) -> float:
    """`raw` seconds at the reference host speed, given the kernel times around it."""
    if raw > MAX_SCALED_S:
        return raw
    return raw * CALIB_REF_S / (0.5 * (before + after))
