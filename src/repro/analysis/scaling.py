"""Weak/strong scaling metrics and the confidence intervals reported in Sec. 5.2."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["weak_scaling_efficiency", "parallel_efficiency", "confidence_interval"]


def weak_scaling_efficiency(times: Sequence[float]) -> list[float]:
    """Weak-scaling efficiency relative to the first measurement.

    With constant work per process, perfect weak scaling keeps the time
    constant, so efficiency at point ``i`` is ``t[0] / t[i]``.
    """
    times = list(times)
    if not times:
        return []
    if times[0] <= 0:
        raise ValueError("times must be positive")
    return [times[0] / t for t in times]


def parallel_efficiency(times: Sequence[float], procs: Sequence[int]) -> list[float]:
    """Strong-scaling parallel efficiency ``t0 * p0 / (t_i * p_i)``."""
    times = list(times)
    procs = list(procs)
    if len(times) != len(procs) or not times:
        raise ValueError("times and procs must be non-empty and equally long")
    base = times[0] * procs[0]
    return [base / (t * p) for t, p in zip(times, procs)]


def confidence_interval(
    samples: Sequence[float], *, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Mean and confidence interval of repeated measurements.

    Returns ``(mean, lower, upper)`` using the Student-t distribution, which is
    the 95% CI of the mean reported in the paper's weak-scaling plots.
    """
    import scipy.stats  # imported here: it costs more than the rest of ``import repro``

    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    mean = float(np.mean(arr))
    if arr.size == 1:
        return mean, mean, mean
    sem = float(scipy.stats.sem(arr))
    if sem == 0.0:
        return mean, mean, mean
    half = float(sem * scipy.stats.t.ppf(0.5 + confidence / 2.0, arr.size - 1))
    return mean, mean - half, mean + half
