"""Dense tile (block) Cholesky factorization -- the DPLASMA / SLATE baseline.

This is the O(N^3) reference of Table 1 and the example DAG of Fig. 6: the
classic right-looking blocked Cholesky expressed as POTRF / TRSM / SYRK / GEMM
tasks on matrix tiles.  It also provides the numerically exact factorization
used as ground truth by the error metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from repro.distribution.strategies import BlockCyclicDistribution, DistributionStrategy
from repro.formats.block_dense import BlockDenseMatrix
from repro.runtime.dtd import DTDRuntime
from repro.runtime.flops import flops_gemm, flops_potrf, flops_syrk, flops_trsm
from repro.runtime.task import AccessMode

__all__ = ["DenseCholeskyFactor", "tile_cholesky_dtd", "build_dense_cholesky_taskgraph"]


@dataclass
class DenseCholeskyFactor:
    """Lower-triangular tile Cholesky factor ``A = L L^T``.

    Attributes
    ----------
    offsets:
        Tile boundaries (same convention as :class:`BlockDenseMatrix`).
    tiles:
        Lower-triangle tiles ``L[(i, j)]`` for ``i >= j``.
    """

    offsets: list[int]
    tiles: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def nblocks(self) -> int:
        return len(self.offsets) - 1

    def to_dense(self) -> np.ndarray:
        """Assemble the dense lower-triangular factor."""
        out = np.zeros((self.n, self.n))
        for (i, j), tile in self.tiles.items():
            out[self.offsets[i] : self.offsets[i + 1], self.offsets[j] : self.offsets[j + 1]] = tile
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` with forward/backward block substitution."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        x = b.reshape(self.n, -1).copy()
        nb = self.nblocks
        # Forward solve L y = b.
        for i in range(nb):
            ri = slice(self.offsets[i], self.offsets[i + 1])
            for j in range(i):
                rj = slice(self.offsets[j], self.offsets[j + 1])
                x[ri] -= self.tiles[(i, j)] @ x[rj]
            x[ri] = scipy.linalg.solve_triangular(self.tiles[(i, i)], x[ri], lower=True)
        # Backward solve L^T x = y.
        for i in reversed(range(nb)):
            ri = slice(self.offsets[i], self.offsets[i + 1])
            for j in range(i + 1, nb):
                rj = slice(self.offsets[j], self.offsets[j + 1])
                x[ri] -= self.tiles[(j, i)].T @ x[rj]
            x[ri] = scipy.linalg.solve_triangular(self.tiles[(i, i)].T, x[ri], lower=False)
        return x[:, 0] if single else x

    def logdet(self) -> float:
        """``log(det(A))`` from the diagonal tiles."""
        total = 0.0
        for i in range(self.nblocks):
            total += 2.0 * float(np.sum(np.log(np.diag(self.tiles[(i, i)]))))
        return total


def tile_cholesky_dtd(
    matrix: BlockDenseMatrix,
    *,
    runtime: Optional[DTDRuntime] = None,
    nodes: int = 1,
    distribution: Optional[DistributionStrategy] = None,
) -> Tuple[DenseCholeskyFactor, DTDRuntime]:
    """Right-looking tile Cholesky through the DTD runtime (Fig. 6's DAG).

    Returns the numerical factor and the runtime holding the recorded graph.
    """
    rt = runtime if runtime is not None else DTDRuntime()
    nb = matrix.nblocks
    factor = DenseCholeskyFactor(offsets=list(matrix.offsets))

    # Working tiles (lower triangle only; symmetry for the upper triangle).
    work: Dict[Tuple[int, int], np.ndarray] = {}
    handles: Dict[Tuple[int, int], object] = {}
    for i in range(nb):
        for j in range(i + 1):
            work[(i, j)] = matrix.block(i, j).copy()
            m, n = work[(i, j)].shape
            handles[(i, j)] = rt.new_handle(f"A[{i},{j}]", nbytes=8 * m * n, row=i, col=j, level=0)

    strategy = distribution if distribution is not None else BlockCyclicDistribution(nodes)
    strategy.assign(rt.handles)

    for k in range(nb):
        bk = matrix.block_shape(k, k)[0]

        def potrf(k=k) -> None:
            work[(k, k)] = np.linalg.cholesky(work[(k, k)])
            factor.tiles[(k, k)] = work[(k, k)]

        rt.insert_task(
            potrf,
            [(handles[(k, k)], AccessMode.RW)],
            name=f"POTRF({k})",
            kind="POTRF",
            flops=flops_potrf(bk),
            phase=k,
        )

        for i in range(k + 1, nb):
            bi = matrix.block_shape(i, k)[0]

            def trsm(i=i, k=k) -> None:
                work[(i, k)] = scipy.linalg.solve_triangular(
                    work[(k, k)], work[(i, k)].T, lower=True
                ).T
                factor.tiles[(i, k)] = work[(i, k)]

            rt.insert_task(
                trsm,
                [(handles[(k, k)], AccessMode.READ), (handles[(i, k)], AccessMode.RW)],
                name=f"TRSM({i},{k})",
                kind="TRSM",
                flops=flops_trsm(bk, bi),
                phase=k,
            )

        for i in range(k + 1, nb):
            bi = matrix.block_shape(i, k)[0]
            for j in range(k + 1, i + 1):
                bj = matrix.block_shape(j, k)[0]
                if i == j:

                    def syrk(i=i, k=k) -> None:
                        work[(i, i)] = work[(i, i)] - work[(i, k)] @ work[(i, k)].T

                    rt.insert_task(
                        syrk,
                        [(handles[(i, k)], AccessMode.READ), (handles[(i, i)], AccessMode.RW)],
                        name=f"SYRK({i},{k})",
                        kind="SYRK",
                        flops=flops_syrk(bi, bk),
                        phase=k,
                    )
                else:

                    def gemm(i=i, j=j, k=k) -> None:
                        work[(i, j)] = work[(i, j)] - work[(i, k)] @ work[(j, k)].T

                    rt.insert_task(
                        gemm,
                        [
                            (handles[(i, k)], AccessMode.READ),
                            (handles[(j, k)], AccessMode.READ),
                            (handles[(i, j)], AccessMode.RW),
                        ],
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        flops=flops_gemm(bi, bj, bk),
                        phase=k,
                    )

    rt.run()
    return factor, rt


def build_dense_cholesky_taskgraph(
    n: int,
    block_size: int,
    *,
    nodes: int = 1,
    distribution: Optional[DistributionStrategy] = None,
    runtime: Optional[DTDRuntime] = None,
) -> DTDRuntime:
    """Symbolic tile-Cholesky task graph for an ``n x n`` matrix (simulation input)."""
    rt = runtime if runtime is not None else DTDRuntime(execution="symbolic")
    offsets = list(range(0, n, block_size)) + [n]
    nb = len(offsets) - 1
    sizes = [offsets[i + 1] - offsets[i] for i in range(nb)]

    handles: Dict[Tuple[int, int], object] = {}
    for i in range(nb):
        for j in range(i + 1):
            handles[(i, j)] = rt.new_handle(
                f"A[{i},{j}]", nbytes=8 * sizes[i] * sizes[j], row=i, col=j, level=0
            )
    strategy = distribution if distribution is not None else BlockCyclicDistribution(nodes)
    strategy.assign(rt.handles)

    for k in range(nb):
        rt.insert_task(
            None,
            [(handles[(k, k)], AccessMode.RW)],
            name=f"POTRF({k})",
            kind="POTRF",
            flops=flops_potrf(sizes[k]),
            phase=k,
        )
        for i in range(k + 1, nb):
            rt.insert_task(
                None,
                [(handles[(k, k)], AccessMode.READ), (handles[(i, k)], AccessMode.RW)],
                name=f"TRSM({i},{k})",
                kind="TRSM",
                flops=flops_trsm(sizes[k], sizes[i]),
                phase=k,
            )
        for i in range(k + 1, nb):
            for j in range(k + 1, i + 1):
                if i == j:
                    rt.insert_task(
                        None,
                        [(handles[(i, k)], AccessMode.READ), (handles[(i, i)], AccessMode.RW)],
                        name=f"SYRK({i},{k})",
                        kind="SYRK",
                        flops=flops_syrk(sizes[i], sizes[k]),
                        phase=k,
                    )
                else:
                    rt.insert_task(
                        None,
                        [
                            (handles[(i, k)], AccessMode.READ),
                            (handles[(j, k)], AccessMode.READ),
                            (handles[(i, j)], AccessMode.RW),
                        ],
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        flops=flops_gemm(sizes[i], sizes[j], sizes[k]),
                        phase=k,
                    )
    return rt
