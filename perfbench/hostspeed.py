"""Host-speed normalisation of wall times.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, and CPU time drifts with wall time, so raw medians of separate
runs do not agree.  A fixed kernel of the same kind of work as the library
(small scipy LPs, small numpy k-means steps, Python call overhead) is
timed before the first operation of a run and after every operation, and
the run's times are scaled by ``REFERENCE_S`` over the median kernel time.
The median ignores a single kernel run that a brief stall slowed.  The
kernel uses only numpy and scipy, so a change to the library cannot move
it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

from .oracle import partial_matching_emd

#: Kernel wall time that defines one normalised second.
REFERENCE_S = 0.4
#: (support size, LP solves) per kernel run: per-pair sized and stacked sized.
_LPS = ((8, 100), (24, 8))
_KMEANS_STEPS = 120


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    rng = np.random.default_rng(20160)
    problems = [
        (count, [rng.normal(size=(size, 2)), rng.uniform(1, 40, size),
                 rng.normal(size=(size, 2)), rng.uniform(1, 40, size)])
        for size, count in _LPS
    ]
    points = rng.normal(size=(1000, 10))
    start = time.perf_counter()
    for count, problem in problems:
        for _ in range(count):
            partial_matching_emd(*problem)
    centers = points[:8].copy()
    for _ in range(_KMEANS_STEPS):
        labels = ((points[:, None, :] - centers[None]) ** 2).sum(axis=-1).argmin(axis=1)
        centers = np.array([
            points[labels == c].mean(axis=0) if (labels == c).any() else centers[c]
            for c in range(len(centers))
        ])
    return time.perf_counter() - start


class HostClock:
    """Collects kernel times across one run; ``scale`` converts its times."""

    def __init__(self) -> None:
        self.kernel_times: List[float] = [kernel_seconds()]

    def tick(self) -> None:
        """Time the kernel once more; call after every operation."""
        self.kernel_times.append(kernel_seconds())

    @property
    def scale(self) -> float:
        """Multiply a wall time of this run by this to normalise it."""
        return REFERENCE_S / statistics.median(self.kernel_times)
