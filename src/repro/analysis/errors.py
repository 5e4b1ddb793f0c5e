"""Accuracy metrics of the paper (Eq. 18 and Eq. 19).

* Construction error: how well the compressed matrix reproduces the action of
  the dense matrix on a random vector,
  ``||A_dense b - A b|| / ||A_dense b||``.
* Solve error: the accuracy of the factorization applied to the compressed
  matrix itself, ``||b - A^{-1} (A b)|| / ||b||``.
"""

from __future__ import annotations

from typing import Callable, Protocol, Union

import numpy as np

__all__ = ["construction_error", "solve_error", "relative_residual"]


class _SupportsMatvec(Protocol):
    def matvec(self, x: np.ndarray) -> np.ndarray: ...


MatvecLike = Union[np.ndarray, _SupportsMatvec, Callable[[np.ndarray], np.ndarray]]


def _apply(op: MatvecLike, x: np.ndarray) -> np.ndarray:
    # Single operator-dispatch point, shared with the solve builders (it
    # additionally applies vector-only operators columnwise to RHS blocks).
    from repro.pipeline.panels import apply_operator

    return apply_operator(op, x)


def construction_error(
    dense: MatvecLike,
    compressed: MatvecLike,
    *,
    n: int | None = None,
    b: np.ndarray | None = None,
    seed: int = 0,
) -> float:
    """Relative construction error of Eq. 18.

    Parameters
    ----------
    dense:
        The exact operator (dense array, object with ``matvec`` or callable).
    compressed:
        The compressed operator (e.g. an :class:`~repro.formats.hss.HSSMatrix`).
    n:
        Vector length (required when neither operand is a dense array and
        ``b`` is not given).
    b:
        Probe vector; a standard-normal vector is drawn when omitted.
    seed:
        RNG seed for the probe vector.
    """
    if b is None:
        if n is None:
            if isinstance(dense, np.ndarray):
                n = dense.shape[0]
            elif hasattr(dense, "n"):
                n = dense.n  # type: ignore[union-attr]
            else:
                raise ValueError("provide n or b")
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
    exact = _apply(dense, b)
    approx = _apply(compressed, b)
    denom = np.linalg.norm(exact)
    if denom == 0:
        return float(np.linalg.norm(exact - approx))
    return float(np.linalg.norm(exact - approx) / denom)


def solve_error(
    compressed: MatvecLike,
    solver: Callable[[np.ndarray], np.ndarray],
    *,
    n: int | None = None,
    b: np.ndarray | None = None,
    seed: int = 0,
) -> float:
    """Relative forward/backward solve error of Eq. 19: ``||b - A^{-1}(A b)|| / ||b||``."""
    if b is None:
        if n is None:
            if hasattr(compressed, "n"):
                n = compressed.n  # type: ignore[union-attr]
            elif isinstance(compressed, np.ndarray):
                n = compressed.shape[0]
            else:
                raise ValueError("provide n or b")
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
    ab = _apply(compressed, b)
    recovered = solver(ab)
    return float(np.linalg.norm(b - recovered) / np.linalg.norm(b))


def relative_residual(a: MatvecLike, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` for an arbitrary operator and candidate solution."""
    r = b - _apply(a, x)
    return float(np.linalg.norm(r) / np.linalg.norm(b))
