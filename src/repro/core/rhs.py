"""Right-hand-side validation shared by the ULV solvers.

Every solve entry point (the sequential ``*ULVFactor.solve`` references, the
task-graph solve builders in :mod:`repro.pipeline.solve` and the
:class:`~repro.api.StructuredSolver` facade) accepts either a vector of
length ``n`` or a matrix of shape ``(n, k)`` holding ``k`` right-hand sides.
These helpers normalize both forms to a float64, C-contiguous ``(n, k)``
working copy -- accepting Fortran-ordered and non-contiguous views, and
copying only when the input does not already require a conversion -- and
raise a clear error for anything else (wrong dimensionality, wrong leading
dimension, or an empty 0-column block), instead of letting a mis-shaped array
surface as a cryptic reshape/broadcast failure deep inside the leaf kernels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["check_rhs_shape", "validate_rhs"]


def check_rhs_shape(b: np.ndarray, n: int, *, name: str = "b") -> None:
    """Shape-validate a right-hand side without converting or copying it.

    Raises :class:`ValueError` for anything that is not a length-``n`` vector
    or an ``(n, k)`` matrix with ``k >= 1``.  Use this for cheap fail-fast
    checks before expensive work; the converting/copying normalization lives
    in :func:`validate_rhs`.
    """
    shape = np.shape(b)
    if len(shape) not in (1, 2):
        raise ValueError(
            f"{name} must be a vector of length {n} or a matrix of shape "
            f"({n}, k); got a {len(shape)}-D array of shape {shape}"
        )
    if shape[0] != n:
        raise ValueError(
            f"{name} must have {n} rows to match the matrix; got shape {shape}"
        )
    if len(shape) == 2 and shape[1] == 0:
        raise ValueError(
            f"{name} has 0 columns (shape {shape}); a solve needs at least "
            "one right-hand side"
        )


def validate_rhs(b: np.ndarray, n: int, *, name: str = "b") -> Tuple[np.ndarray, bool]:
    """Validate a right-hand side against a matrix of dimension ``n``.

    Fortran-ordered and non-contiguous inputs are accepted and normalized
    (``np.ascontiguousarray`` is applied only when the layout requires it, so
    a conversion never copies twice).

    Parameters
    ----------
    b:
        A vector of length ``n`` or a matrix of shape ``(n, k)`` with
        ``k >= 1``; any memory layout.
    n:
        Dimension of the (square) system matrix.
    name:
        Argument name used in error messages.

    Returns
    -------
    (bm, single):
        ``bm`` is a float64, C-contiguous working copy of shape ``(n, k)``
        (``k == 1`` for a vector input) that never aliases ``b``; ``single``
        is True when the caller should flatten the solution back to a vector.

    Raises
    ------
    ValueError
        If ``b`` is not 1-D or 2-D, its leading dimension is not ``n``, or it
        has 0 columns.
    """
    check_rhs_shape(b, n, name=name)
    arr = np.asarray(b, dtype=np.float64)
    single = arr.ndim == 1
    # ascontiguousarray copies exactly when the layout (or the dtype
    # conversion above) demands it; the explicit copy below only triggers
    # when the working block still aliases the caller's array.
    bm = np.ascontiguousarray(arr).reshape(n, -1)
    if np.shares_memory(bm, np.asarray(b)):
        bm = bm.copy()
    return bm, single
