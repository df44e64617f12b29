"""Fixed calibration work that measures how fast the machine is right now.

The host the benchmark was built on runs the same work up to 1.8 times
faster in windows of a few seconds to a minute, for reasons outside the
process (CPU time equals wall time, so it is not stolen time).
``calibrate()`` times a fixed piece of work that does not call erestab:
scalar root finding on small numpy arrays, the kind of interpreter-bound
work of the off-line equilibrium locus scan.  ``run.py`` interleaves it with
the workload's passes and scales times by ``REFERENCE_S`` over the
calibration's time around them, so that a change of machine speed cancels
while a change of erestab leaves the calibration as it is.

Of the kernels tried (this one, a dense Hermitian eigensolve the size of
the Morse operator at K = 128, an adaptive ODE integration, and their sum),
this one tracked the speed of every workload best; NOTES.md has the numbers.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import brentq

# Median ``calibrate()`` time on the machine described in NOTES.md.  Scaled
# times are seconds on a machine where calibration takes this long.
REFERENCE_S = 0.09

_MASSES = np.array([0.25, 0.5, 0.25])
_XS = np.array([-1.0, 0.0, 1.0])
_ROOT_XS = np.linspace(0.05, 0.95, 400)


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    for x in _ROOT_XS:
        brentq(
            lambda y: float(np.sum(_MASSES / ((x - _XS) ** 2 + y * y) ** 1.5)) - 1.0,
            1e-3, 50.0, xtol=1e-14,
        )
    return time.perf_counter() - t0
