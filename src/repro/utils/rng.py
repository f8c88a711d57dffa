"""Deterministic random-number-generator construction.

Every stochastic choice in the library (workload shapes, value
distributions) flows through a :class:`numpy.random.Generator` built here,
so a (workload, seed) pair always produces the identical trace — a
requirement for the paper's Figure 14 methodology, which reruns the same
program under two latency configurations and relies on the misses landing
on the same instructions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(seed)
