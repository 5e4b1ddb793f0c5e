"""RHS-panel plumbing shared by every task-graph solve builder.

Panel decomposition of a multi-RHS block, one-step iterative refinement, and
a columnwise-safe operator application (some operators --
``BLR2Matrix.matvec`` among them -- only accept vectors).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

__all__ = ["column_panels", "apply_operator", "refine_once"]


def refine_once(
    solve_fn: Callable[[np.ndarray], np.ndarray], op: Any, bm: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """One iterative-refinement step: ``x + solve(b - A x)``.

    The single implementation shared by the task-graph solve builders and the
    sequential facade path, so the refinement semantics cannot drift between
    backends.  All arguments are 2-D ``(n, k)`` blocks.
    """
    return x + solve_fn(bm - apply_operator(op, x))


def column_panels(k: int, panel_size: Optional[int]) -> List[slice]:
    """Split ``k`` right-hand-side columns into contiguous column panels.

    ``panel_size=None`` (the default of the solve drivers) keeps all columns
    in a single panel, which makes the task-graph solve perform exactly the
    BLAS calls of the sequential reference and therefore stay bit-identical
    to it.  A positive ``panel_size`` yields ``ceil(k / panel_size)``
    independent task chains whose panels overlap inside the runtime.
    """
    if panel_size is not None and panel_size <= 0:
        raise ValueError(f"panel_size must be positive, got {panel_size}")
    if k <= 0:
        return []
    if panel_size is None or panel_size >= k:
        return [slice(0, k)]
    return [slice(s, min(s + panel_size, k)) for s in range(0, k, panel_size)]


def apply_operator(op: Any, x: np.ndarray) -> np.ndarray:
    """Apply a matvec-like operator to a vector or a block of columns.

    ``op`` may be a dense array, an object with a ``matvec`` method or a bare
    callable.  Operators that only support vectors are applied column by
    column.
    """
    if isinstance(op, np.ndarray):
        return op @ x
    matvec = op.matvec if hasattr(op, "matvec") else op
    if x.ndim == 1:
        return matvec(x)
    try:
        y = np.asarray(matvec(x))
        if y.shape == x.shape:
            return y
    except ValueError:
        pass
    return np.column_stack([matvec(x[:, j]) for j in range(x.shape[1])])
