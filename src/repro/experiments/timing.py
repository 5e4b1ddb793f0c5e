"""Warmed, interleaved best-of-N timing for the compression-scaling sweep.

Every speedup the repository reports divides two wall times; measuring the
baseline once and cold (first-touch allocation, lazy imports, BLAS thread
spin-up) while the contender runs warm systematically inflates the ratio.
:func:`best_of_pair` makes both sides of every comparison use the same
protocol: ``repeats`` fresh runs, best (minimum) wall time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

__all__ = ["best_of_pair"]


def best_of_pair(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    *,
    repeats: int = 3,
) -> Tuple[float, Any, float, Any]:
    """Best-of-``repeats`` wall times of two callables, interleaved.

    Timing all baseline repeats in one block and all candidate repeats in
    another lets machine-speed drift (shared tenancy, frequency scaling)
    land entirely on one side of the ratio; interleaving pairs each baseline
    run with an adjacent candidate run so a slow epoch penalizes both.
    Returns ``(best_baseline, last_baseline_result, best_candidate,
    last_candidate_result)``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best_base = best_cand = float("inf")
    base_result: Any = None
    cand_result: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        base_result = baseline()
        best_base = min(best_base, time.perf_counter() - t0)
        t0 = time.perf_counter()
        cand_result = candidate()
        best_cand = min(best_cand, time.perf_counter() - t0)
    return best_base, base_result, best_cand, cand_result
