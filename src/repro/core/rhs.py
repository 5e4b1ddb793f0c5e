"""Right-hand-side validation shared by the ULV solvers.

Every solve entry point (the sequential ``*ULVFactor.solve`` references, the
task-graph solve builders in :mod:`repro.pipeline.solve` and the
:class:`~repro.api.StructuredSolver` facade) accepts either a vector of
length ``n`` or a matrix of shape ``(n, k)`` holding ``k`` right-hand sides.
These helpers normalize both forms to a float64, C-contiguous ``(n, k)``
working copy -- accepting Fortran-ordered and non-contiguous views, and
copying only when the input does not already require a conversion -- and
raise a clear error for anything else (wrong dimensionality, wrong leading
dimension, an empty 0-column block, a complex or non-numeric dtype, or a
NaN/Inf entry), instead of letting a bad array surface as a cryptic failure
-- or a silently wrong or non-finite solution -- deep inside the leaf
kernels, which skip per-call finiteness checks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["as_real_rhs", "check_rhs_shape", "check_rhs_finite", "validate_rhs"]


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


def as_real_rhs(b: np.ndarray, *, name: str = "b") -> np.ndarray:
    """``b`` as a float64 array (no copy when it already is one).

    Raises :class:`ValueError` for a complex or non-numeric dtype: a float64
    conversion would silently drop an imaginary part (numpy only warns) or
    parse strings, and the ULV factors are real.
    """
    arr = np.asarray(b)
    if arr.dtype.kind not in "biuf":
        raise ValueError(
            f"{name} must be real-valued (bool, integer or float); got dtype {arr.dtype}"
        )
    return arr.astype(np.float64, copy=False)


def check_rhs_finite(arr: np.ndarray, *, name: str = "b") -> None:
    """Raise :class:`ValueError` if ``arr`` holds a NaN or an infinity (one O(n) scan)."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite; it contains NaN or Inf entries")


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
        If ``b`` is not 1-D or 2-D, its leading dimension is not ``n``, it
        has 0 columns, its dtype is complex or non-numeric, or it contains a
        NaN or an infinity.
    """
    check_rhs_shape(b, n, name=name)
    arr = as_real_rhs(b, name=name)
    check_rhs_finite(arr, name=name)
    single = arr.ndim == 1
    # ascontiguousarray copies exactly when the layout (or the dtype
    # conversion above) demands it; the explicit copy below only triggers
    # when the working block still aliases the caller's array.
    bm = np.ascontiguousarray(arr).reshape(n, -1)
    if np.shares_memory(bm, np.asarray(b)):
        bm = bm.copy()
    return bm, single
