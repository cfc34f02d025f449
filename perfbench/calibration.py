"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the speed of one vCPU moves between levels up to 1.7x apart,
and a level can hold for many seconds, so the wall time of a CLI call says as
much about the host as about the program.  Every repetition therefore times a
fixed kernel just before and just after its CLI call, in the same process,
and the benchmark scales the measured times by it (run.py says how).
The kernel uses no shiftlab code, so a change to the program moves only the
measured times, not the kernel.

The kernel computes the singular values of a fixed dense 300x300 matrix.
Its time tracked the host's level more steadily than an interpreted-Python
loop did, even on identity-check, whose hot path is interpreted Python
(perfbench/README.md gives the figures).
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.010   # kernel time that wall_s and setup_s are scaled to
SAMPLES = 3           # timed calls of the kernel before and again after the CLI call

_MATRIX = np.random.default_rng(12345).normal(size=(300, 300))


def _kernel():
    np.linalg.svd(_MATRIX, compute_uv=False)


def warm_up():
    _kernel()


def sample():
    """Seconds taken by SAMPLES calls of the kernel, one by one."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(kernel_times):
    """Factor that takes a time measured beside these kernel times to the
    speed at which the kernel takes REFERENCE_S (their median)."""
    return REFERENCE_S / statistics.median(kernel_times)
