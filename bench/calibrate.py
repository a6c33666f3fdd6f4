"""Machine-speed calibration: a fixed kernel timed next to every measurement.

On a shared 2-core Xeon virtual machine the speed of a core drifted by
15-40 % over tens of seconds while the process held the CPU (CPU time
tracked wall time): the machine switched between a fast and a slow state
every 10-20 s.  Timing this kernel between pipeline runs and scaling each
run's wall time by ``REFERENCE_S`` over the mean kernel time before and
after it cancels most of the drift: in a 100 s trial of ``chain`` runs,
each timed next to the kernel's small-matrix loop, the medians of 17 s
stretches moved by +-14 %, the loop's by +-18 %, their ratio by +-3 %.

The kernel mixes what the pipeline spends its time on: Python-level loops
over 4x4 ``expm`` and Cholesky, and one dense complex 120x120 eigensolve.
"""

import statistics
import time

import numpy as np
from scipy.linalg import expm

# median kernel time on that 2-core Xeon machine with one BLAS thread;
# scaled times read as seconds on it at its usual speed
REFERENCE_S = 0.010
_REPEATS = 3

_rng = np.random.default_rng(0)
_SMALL = 0.01 * _rng.standard_normal((4, 4))
_DENSE = _rng.standard_normal((120, 120)) + 1j * _rng.standard_normal((120, 120))
_DENSE = _DENSE + _DENSE.conj().T


def _kernel():
    m = np.eye(4)
    for _ in range(200):
        m = expm(_SMALL) @ m
        np.linalg.cholesky(m @ m.T)
    np.linalg.eigh(_DENSE)


def kernel_seconds():
    """Median of a few timed repetitions of the kernel."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
