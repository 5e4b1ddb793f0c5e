"""Kernel interfaces.

A kernel maps a pair of points to a real interaction value.  All kernels in
the paper (Table 3) are *radial*: they depend only on the Euclidean distance
between the two points, which lets the assembly code evaluate them on a dense
distance matrix in a fully vectorised way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "RadialKernel", "pairwise_distance"]


def pairwise_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix between rows of ``x`` (m, d) and ``y`` (n, d).

    Uses the expanded form ``(|x|^2 + |y|^2) - 2 x.y`` so the dominant cost is
    a single GEMM, with clipping to guard against negative round-off.  The
    result is built in place in two m x n buffers (the GEMM and the returned
    array), in the association order above.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    x_sq = np.sum(x * x, axis=1)[:, None]
    y_sq = np.sum(y * y, axis=1)[None, :]
    xy = x @ y.T
    xy *= 2.0
    d2 = x_sq + y_sq
    d2 -= xy
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


class Kernel:
    """Base class of all interaction kernels.

    Subclasses implement :meth:`matrix` (pairwise evaluation between two
    coordinate sets).  The kernel name is used by experiment drivers and in
    reports.
    """

    name: str = "kernel"

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate the kernel between all rows of ``x`` and all rows of ``y``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.matrix(x, y)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RadialKernel(Kernel):
    """A kernel that is a function of the Euclidean distance only."""

    def evaluate(self, dist: np.ndarray) -> np.ndarray:
        """Evaluate the kernel on an array of distances (vectorised)."""
        raise NotImplementedError

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.evaluate(pairwise_distance(x, y))

    def value_at_zero(self) -> float:
        """Kernel value at distance zero (the diagonal of the kernel matrix)."""
        return float(self.evaluate(np.zeros(1))[0])
