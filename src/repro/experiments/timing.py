"""Warmed, interleaved best-of-N timing for the compression-scaling sweep.

Every speedup the repository reports divides two wall times; measuring the
baseline once and cold (first-touch allocation, lazy imports, BLAS thread
spin-up) while the contender runs warm systematically inflates the ratio.
These helpers make both sides of every comparison use the same protocol:
``repeats`` fresh runs, best (minimum) wall time, repeat count stamped into
the record.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, List

__all__ = [
    "bench_repeats",
    "best_of_pair",
    "PairTimingResult",
]

_REPEATS_ENV = "REPRO_BENCH_REPEATS"


def bench_repeats(default: int = 3) -> int:
    """Timing repeats per measurement (override with ``REPRO_BENCH_REPEATS``)."""
    raw = os.environ.get(_REPEATS_ENV)
    if not raw:
        return default
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{_REPEATS_ENV} must be a positive integer, got {raw!r}")
    return value


class PairTimingResult(tuple):
    """The 4-tuple of :func:`best_of_pair`, plus both sides' raw samples.

    Unpacks as ``(best_baseline, baseline_result, best_candidate,
    candidate_result)``; :attr:`baseline_samples` / :attr:`candidate_samples`
    hold the per-repeat wall times in repeat order (interleaved protocol:
    sample ``i`` of both lists ran back to back).
    """

    baseline_samples: List[float]
    candidate_samples: List[float]

    def __new__(
        cls,
        best_base: float,
        base_result: Any,
        best_cand: float,
        cand_result: Any,
        baseline_samples: List[float],
        candidate_samples: List[float],
    ) -> "PairTimingResult":
        self = super().__new__(cls, (best_base, base_result, best_cand, cand_result))
        self.baseline_samples = list(baseline_samples)
        self.candidate_samples = list(candidate_samples)
        return self


def best_of_pair(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    *,
    repeats: int = 3,
) -> PairTimingResult:
    """Best-of-``repeats`` wall times of two callables, interleaved.

    Timing all baseline repeats in one block and all candidate repeats in
    another lets machine-speed drift (shared tenancy, frequency scaling)
    land entirely on one side of the ratio; interleaving pairs each baseline
    run with an adjacent candidate run so a slow epoch penalizes both.
    Returns a :class:`PairTimingResult` unpacking as ``(best_baseline,
    last_baseline_result, best_candidate, last_candidate_result)``, with the
    per-repeat raw samples on ``.baseline_samples`` / ``.candidate_samples``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    base_samples: List[float] = []
    cand_samples: List[float] = []
    base_result: Any = None
    cand_result: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        base_result = baseline()
        base_samples.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        cand_result = candidate()
        cand_samples.append(time.perf_counter() - t0)
    return PairTimingResult(
        min(base_samples), base_result, min(cand_samples), cand_result,
        base_samples, cand_samples,
    )
