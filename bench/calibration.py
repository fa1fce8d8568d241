"""Machine-speed calibration for the timed metrics.

The 2-vCPU VM on a shared host that the reference figures come from runs
at two speeds about 1.4 to 1.8 times apart, switching every few seconds to
minutes (see the README).  A fixed kernel that does not touch the program is timed between
commands; each command's wall time is scaled by ``REFERENCE_S`` over the
kernel times measured just before and just after it.  The scaled time is
the command's wall time at the reference speed, so a slow spell of the
machine moves it little while a change to the program moves it in full.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

# kernel time in the fast state of that VM (2 vCPU Intel Xeon, Python 3.11,
# numpy 2.4, one BLAS thread): the reference speed of the scaled metrics
REFERENCE_S = 0.0110

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((5, 9))
_MEDIUM = _RNG.standard_normal((40, 40))


def kernel():
    """About 11 ms of the kinds of work the program does: Python integer
    and Fraction arithmetic, small SVDs, dict building and JSON encoding."""
    acc = 0
    for i in range(24000):
        acc += i * i
    total = sum(Fraction(i, 7) + Fraction(3, i + 1) for i in range(1200))
    for _ in range(80):
        np.linalg.svd(_SMALL, compute_uv=False)
    np.linalg.svd(_MEDIUM)
    json.dumps({str(i): i for i in range(4000)})
    return acc, total


def measure():
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
