"""Recorded solve graphs kept for replay (factorize once, solve many).

The paper's runtime ablation contrasts DTD, which pays graph discovery on
every execution, with a PTG-style representation that discovers once and
re-executes.  :class:`SolvePlans` is the discover-once end for the solve
phase: the first solve of a (right-hand-side width, execution policy) pair
records its :class:`~repro.pipeline.builder.SolveGraphBuilder`; later solves
of that pair :meth:`~repro.pipeline.builder.SolveGraphBuilder.rebind` the
recorded builder to the new right-hand side and run the existing graph.

Plans are owned by whoever owns the factorization's lifetime (the
:class:`~repro.api.StructuredSolver`), never by the factor itself: the factor
is what :mod:`repro.service.persistence` pickles, and a factor -> plan ->
factor edge would be a reference cycle holding every block of it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator, Type

import numpy as np

from repro.pipeline.builder import SolveGraphBuilder
from repro.pipeline.policy import ExecutionPolicy

__all__ = ["SolvePlans"]


class SolvePlans:
    """A small LRU of recorded solve builders for one factorization.

    A plan is keyed by the number of right-hand-side columns and the
    execution policy with its per-execution switches (``trace`` /
    ``metrics``) cleared -- everything that shapes the recorded graph.  A
    plan leaves the cache while it executes (:meth:`checkout`), so a
    concurrent solve of the same key records its own, and returns only after
    a clean execution: a task error or a timeout drops it and the next solve
    records afresh.  A cached plan recorded against another factor object is
    ignored, so replacing the factorization invalidates by itself.
    """

    #: Plans kept per factorization; a serving process sees a handful of
    #: batch widths, and a parked plan holds one task graph (no RHS blocks).
    CAPACITY = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Any, SolveGraphBuilder]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    @contextmanager
    def checkout(
        self,
        builder_cls: Type[SolveGraphBuilder],
        factor: Any,
        b: np.ndarray,
        policy: ExecutionPolicy,
    ) -> Iterator[SolveGraphBuilder]:
        """The builder to solve ``b`` with: a rebound plan, or a fresh recording.

        Counts the choice on ``policy.metrics``
        (``repro_solve_plan_replays_total`` / ``..._records_total``).
        """
        shape = np.shape(b)
        key = (shape[1] if len(shape) == 2 else 1, replace(policy, trace=False, metrics=None))
        with self._lock:
            plan = self._plans.pop(key, None)
        replayed = plan is not None and plan.factor is factor
        if replayed:
            plan.rebind(b, policy)
        else:
            plan = builder_cls(factor, b, policy=policy)
        if policy.metrics is not None:
            from repro.obs.runtime_metrics import record_solve_plan

            record_solve_plan(policy.metrics, policy.backend, replayed=replayed)
        yield plan
        plan.release()
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.CAPACITY:
                self._plans.popitem(last=False)
