"""Kernel-matrix assembly.

:class:`KernelMatrix` is a lazy, symmetric-positive-definite view of the dense
interaction matrix ``A[i, j] = kernel(p_i, p_j) + shift * delta_ij``.  Blocks
are assembled on demand so that hierarchical constructions never materialise
the full ``N x N`` matrix unless explicitly asked to.

The diagonal shift makes the matrix strictly diagonally dominant (and hence
SPD), which the Cholesky-based ULV factorizations require.  A diagonal shift
does not change any off-diagonal block, so the low-rank structure exploited by
BLR/BLR2/HSS is unaffected -- this mirrors how the HATRIX and LORAPO test
drivers regularise their Green's-function matrices.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.geometry.points import PointCloud
from repro.kernels.base import Kernel, RadialKernel

__all__ = ["KernelMatrix", "build_dense", "estimate_spd_shift"]

IndexLike = Union[slice, Sequence[int], np.ndarray]

#: Rows of kernel values :func:`estimate_spd_shift` holds at a time.
_SHIFT_PANEL_ROWS = 32


def estimate_spd_shift(kernel: RadialKernel, points: PointCloud, *, sample: int = 256, seed: int = 0) -> float:
    """Estimate a diagonal shift that makes the kernel matrix diagonally dominant.

    The shift is the maximum (over a random sample of rows) of the sum of
    absolute off-diagonal kernel values, which by Gershgorin's theorem
    guarantees positive definiteness once added to the diagonal.  The sampled
    rows are evaluated in panels of 32 (as :meth:`KernelMatrix.matvec` does),
    so the peak temporary is one ``32 x N`` panel, not ``sample x N``; each
    row is summed on its own, so the panel size does not change the result.

    Parameters
    ----------
    kernel:
        A radial kernel.
    points:
        The point cloud.
    sample:
        Number of rows to sample when ``N`` is large (the row sums of radial
        kernels on a uniform grid vary slowly, so a sample is representative).
    seed:
        RNG seed used to choose the sampled rows.
    """
    n = points.n
    rng = np.random.default_rng(seed)
    rows = np.arange(n) if n <= sample else np.sort(rng.choice(n, size=sample, replace=False))
    row_sums = np.empty(rows.size)
    for start in range(0, rows.size, _SHIFT_PANEL_ROWS):
        panel = rows[start : start + _SHIFT_PANEL_ROWS]
        block = kernel.matrix(points.coords[panel], points.coords)
        np.sum(np.abs(block, out=block), axis=1, out=row_sums[start : start + panel.size])
    # Off-diagonal row sums: subtract the self-interaction term of each sampled row.
    row_sums -= np.abs(kernel.value_at_zero())
    # 10% safety margin over the largest sampled row sum
    return float(1.1 * np.max(row_sums))


def _equal_pairs(r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position ``(i, j)`` with ``r[i] == c[j]``, without an ``m x n`` mask.

    Each ``r[i]`` is looked up in the sorted ``c`` (repeats included), so the
    cost is O((m + n) log n) plus the number of matches.
    """
    order = np.argsort(c, kind="stable")
    sorted_c = c[order]
    first = np.searchsorted(sorted_c, r, side="left")
    counts = np.searchsorted(sorted_c, r, side="right") - first
    i = np.repeat(np.arange(r.size), counts)
    # Position k of the matches of r[i] is sorted_c[first[i] + k].
    run_starts = np.cumsum(counts) - counts
    j = order[np.arange(i.size) + np.repeat(first - run_starts, counts)]
    return i, j


class KernelMatrix:
    """Lazy SPD kernel matrix ``A = K + shift * I`` over a point cloud.

    Parameters
    ----------
    kernel:
        The interaction kernel.
    points:
        Point cloud defining rows/columns.
    shift:
        Diagonal shift.  ``"auto"`` (default) estimates a shift that makes the
        matrix diagonally dominant; a float uses that value; ``0`` disables
        the shift.
    """

    def __init__(
        self,
        kernel: Kernel,
        points: PointCloud,
        *,
        shift: Union[float, str] = "auto",
    ) -> None:
        self.kernel = kernel
        self.points = points
        if shift == "auto":
            if not isinstance(kernel, RadialKernel):
                raise ValueError("automatic shift estimation requires a RadialKernel")
            self.shift = estimate_spd_shift(kernel, points)
        else:
            self.shift = float(shift)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.points.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def _resolve(self, idx: IndexLike) -> np.ndarray:
        if isinstance(idx, slice):
            return np.arange(*idx.indices(self.n))
        return np.asarray(idx, dtype=np.intp)

    def block(self, rows: IndexLike, cols: IndexLike) -> np.ndarray:
        """Assemble the dense sub-block ``A[rows, cols]`` (including diagonal shift)."""
        r = self._resolve(rows)
        c = self._resolve(cols)
        block = self.kernel.matrix(self.points.coords[r], self.points.coords[c])
        if self.shift != 0.0:
            i, j = _equal_pairs(r, c)
            block[i, j] += self.shift
        return block

    def diagonal_block(self, start: int, stop: int) -> np.ndarray:
        """Assemble the diagonal block ``A[start:stop, start:stop]``."""
        return self.block(slice(start, stop), slice(start, stop))

    def dense(self) -> np.ndarray:
        """Materialise the full dense matrix (only sensible for moderate N)."""
        a = self.kernel.matrix(self.points.coords, self.points.coords)
        if self.shift != 0.0:
            a[np.diag_indices_from(a)] += self.shift
        return a

    def matvec(self, x: np.ndarray, *, block_rows: int = 2048) -> np.ndarray:
        """Dense matrix-vector product computed in row panels of ``block_rows``.

        Used by the construction-error metric (Eq. 18) without ever holding
        the full dense matrix in memory.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.empty_like(x)
        for start in range(0, self.n, block_rows):
            stop = min(start + block_rows, self.n)
            panel = self.kernel.matrix(self.points.coords[start:stop], self.points.coords)
            y[start:stop] = panel @ x
        if self.shift != 0.0:
            y = y + self.shift * x
        return y

    def __repr__(self) -> str:
        return f"KernelMatrix(kernel={self.kernel!r}, n={self.n}, shift={self.shift:.3g})"


def build_dense(kernel: Kernel, points: PointCloud, *, shift: Union[float, str] = "auto") -> np.ndarray:
    """Convenience wrapper: assemble the full dense SPD kernel matrix."""
    return KernelMatrix(kernel, points, shift=shift).dense()
