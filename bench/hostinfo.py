"""Host stanza and the calibration kernel that tells code from host.

This host's speed moves by a fifth from one second to the next (other
tenants), so a raw time says more about the neighbours than about the
code.  The kernel is a few milliseconds of fixed work — one NumPy part,
one pure-Python part, the two kinds of time the engine spends — run right
before and after every measured request.  A time is reported as
``measured * REFERENCE_KERNEL_S / kernel``: seconds on a host where the
kernel takes :data:`REFERENCE_KERNEL_S`.  ``bench/README.md``, "Host and
noise", has what that bought on each workload.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

#: The kernel's time on this repo's reference container when it is quiet.
REFERENCE_KERNEL_S = 0.013
NOISY_SPREAD = 0.10


def host_stanza() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def kernel() -> float:
    """Run the fixed work once; the seconds it took."""
    start = time.perf_counter()
    values = (np.arange(120_000, dtype=np.float64) * 0.6180339887) % 1.0
    np.argsort(values)
    total = 0
    for i in range(200_000):
        total += i & 7
    return time.perf_counter() - start


def normalised(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def scale_of(kernels) -> float:
    """What turns times measured around *kernels* into reference-host times."""
    return REFERENCE_KERNEL_S / statistics.mean(kernels)


def calibrate(repeats: int = 9) -> float:
    """The kernel's best time of *repeats*: the host with nobody in the way."""
    return min(kernel() for _ in range(repeats))


def calib_spread(before: float, after: float) -> float:
    return abs(after - before) / before
