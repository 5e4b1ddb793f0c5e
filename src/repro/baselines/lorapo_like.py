"""LORAPO-like baseline: BLR tile Cholesky on the asynchronous DTD runtime.

LORAPO (Cao et al., IPDPS 2022) runs the classic right-looking tile Cholesky
on a Block Low-Rank matrix with PaRSEC: POTRF on dense diagonal tiles, TRSM /
SYRK / GEMM on individually compressed low-rank tiles, with recompression
after each rank-additive update.  Its computational complexity is O(N^2) and
its communication is dominated by the trailing-submatrix updates -- the two
properties the paper contrasts with the HSS-ULV (Table 1, Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from repro.distribution.strategies import BlockCyclicDistribution, DistributionStrategy
from repro.formats.blr import BLRMatrix
from repro.lowrank.block import LowRankBlock
from repro.runtime.dtd import DTDRuntime
from repro.runtime.flops import flops_gemm, flops_potrf, flops_qr, flops_syrk, flops_trsm
from repro.runtime.task import AccessMode

__all__ = ["BLRCholeskyFactor", "blr_cholesky_factorize", "build_blr_cholesky_taskgraph"]


@dataclass
class BLRCholeskyFactor:
    """Lower-triangular BLR Cholesky factor.

    Attributes
    ----------
    blr:
        The factorized BLR matrix (for block ranges).
    diag:
        Dense lower-triangular diagonal factors ``L_{k,k}``.
    lower:
        Low-rank sub-diagonal factors ``L_{i,k}`` for ``i > k``.
    """

    blr: BLRMatrix
    diag: Dict[int, np.ndarray] = field(default_factory=dict)
    lower: Dict[Tuple[int, int], LowRankBlock] = field(default_factory=dict)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` with block forward/backward substitution."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        x = b.reshape(self.blr.n, -1).copy()
        nb = self.blr.nblocks
        ranges = [self.blr.block_range(i) for i in range(nb)]
        # Forward: L y = b.
        for i in range(nb):
            for j in range(i):
                x[ranges[i]] -= self.lower[(i, j)].matvec(x[ranges[j]])
            x[ranges[i]] = scipy.linalg.solve_triangular(self.diag[i], x[ranges[i]], lower=True)
        # Backward: L^T x = y.
        for i in reversed(range(nb)):
            for j in range(i + 1, nb):
                x[ranges[i]] -= self.lower[(j, i)].rmatvec(x[ranges[j]])
            x[ranges[i]] = scipy.linalg.solve_triangular(self.diag[i].T, x[ranges[i]], lower=False)
        return x[:, 0] if single else x

    def logdet(self) -> float:
        """``log(det(A))`` from the dense diagonal factors."""
        return float(sum(2.0 * np.sum(np.log(np.diag(d))) for d in self.diag.values()))

    def max_rank(self) -> int:
        """Largest rank among the low-rank factors after all updates."""
        return max((lr.rank for lr in self.lower.values()), default=0)


def blr_cholesky_factorize(
    blr: BLRMatrix,
    *,
    tol: float = 1e-10,
    max_rank: Optional[int] = None,
    runtime: Optional[DTDRuntime] = None,
    nodes: int = 1,
    distribution: Optional[DistributionStrategy] = None,
) -> Tuple[BLRCholeskyFactor, DTDRuntime]:
    """Tile Cholesky of a weak-admissibility BLR matrix through the DTD runtime.

    Parameters
    ----------
    blr:
        The SPD BLR matrix (all off-diagonal tiles low-rank).
    tol, max_rank:
        Recompression parameters applied after every GEMM update
        (LORAPO compresses adaptively to its accuracy threshold).
    runtime, nodes, distribution:
        Runtime/distribution knobs as in the other task-based factorizations;
        LORAPO uses a block-cyclic (tile-to-process-grid) distribution.

    Returns
    -------
    (factor, runtime)
    """
    rt = runtime if runtime is not None else DTDRuntime()
    nb = blr.nblocks
    factor = BLRCholeskyFactor(blr=blr)

    # Working copies (lower triangle).
    diag: Dict[int, np.ndarray] = {i: blr.diag[i].copy() for i in range(nb)}
    low: Dict[Tuple[int, int], LowRankBlock] = {}
    for i in range(nb):
        for j in range(i):
            if blr.is_lowrank(i, j):
                tile = blr.lowrank[(i, j)].copy()
                if max_rank is not None and tile.rank > max_rank:
                    tile = tile.recompress(rank=max_rank, tol=tol)
                low[(i, j)] = tile
            else:
                low[(i, j)] = LowRankBlock.from_dense(blr.dense_offdiag[(i, j)], tol=tol, rank=max_rank)

    handles: Dict[Tuple[int, int], object] = {}
    for i in range(nb):
        for j in range(i + 1):
            if i == j:
                nbytes = diag[i].nbytes
            else:
                nbytes = low[(i, j)].nbytes
            handles[(i, j)] = rt.new_handle(f"A[{i},{j}]", nbytes=nbytes, row=i, col=j, level=0)
    strategy = distribution if distribution is not None else BlockCyclicDistribution(nodes)
    strategy.assign(rt.handles)

    block_sizes = [blr.tree.leaves[i].size for i in range(nb)]

    for k in range(nb):
        bk = block_sizes[k]

        def potrf(k=k) -> None:
            diag[k] = np.linalg.cholesky(diag[k])
            factor.diag[k] = diag[k]

        rt.insert_task(
            potrf,
            [(handles[(k, k)], AccessMode.RW)],
            name=f"POTRF({k})",
            kind="POTRF",
            flops=flops_potrf(bk),
            phase=k,
        )

        for i in range(k + 1, nb):
            rank_ik = low[(i, k)].rank

            def trsm(i=i, k=k) -> None:
                tile = low[(i, k)]
                v_new = scipy.linalg.solve_triangular(diag[k], tile.V, lower=True)
                low[(i, k)] = LowRankBlock(tile.U, v_new)
                factor.lower[(i, k)] = low[(i, k)]

            rt.insert_task(
                trsm,
                [(handles[(k, k)], AccessMode.READ), (handles[(i, k)], AccessMode.RW)],
                name=f"TRSM({i},{k})",
                kind="TRSM",
                flops=flops_trsm(bk, rank_ik),
                phase=k,
            )

        for i in range(k + 1, nb):
            bi = block_sizes[i]
            rank_ik = low[(i, k)].rank
            for j in range(k + 1, i + 1):
                rank_jk = low[(j, k)].rank if j != i else rank_ik
                if i == j:

                    def syrk(i=i, k=k) -> None:
                        tile = low[(i, k)]
                        gram = tile.V.T @ tile.V
                        diag[i] = diag[i] - tile.U @ gram @ tile.U.T

                    rt.insert_task(
                        syrk,
                        [(handles[(i, k)], AccessMode.READ), (handles[(i, i)], AccessMode.RW)],
                        name=f"SYRK({i},{k})",
                        kind="SYRK",
                        flops=flops_gemm(rank_ik, rank_ik, bi) + flops_gemm(bi, bi, rank_ik),
                        phase=k,
                    )
                else:

                    def gemm(i=i, j=j, k=k) -> None:
                        update = low[(i, k)].matmul_lowrank(low[(j, k)].T)
                        low[(i, j)] = low[(i, j)].subtract(update).recompress(rank=max_rank, tol=tol)

                    bj = block_sizes[j]
                    update_rank = min(rank_ik, rank_jk)
                    gemm_flops = (
                        flops_gemm(rank_ik, rank_jk, bk)
                        + flops_gemm(bi, update_rank, rank_ik)
                        + 2.0 * flops_qr(bi, 2 * update_rank)
                        + flops_gemm(bj, update_rank, rank_jk)
                    )
                    rt.insert_task(
                        gemm,
                        [
                            (handles[(i, k)], AccessMode.READ),
                            (handles[(j, k)], AccessMode.READ),
                            (handles[(i, j)], AccessMode.RW),
                        ],
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        flops=gemm_flops,
                        phase=k,
                    )

    rt.run()
    return factor, rt


def build_blr_cholesky_taskgraph(
    n: int,
    leaf_size: int,
    rank: int,
    *,
    nodes: int = 1,
    distribution: Optional[DistributionStrategy] = None,
    runtime: Optional[DTDRuntime] = None,
) -> DTDRuntime:
    """Symbolic LORAPO task graph (BLR tile Cholesky) for simulation.

    Every off-diagonal tile is assumed to carry the given ``rank`` (LORAPO's
    adaptive ranks are capped by its max-rank parameter; a uniform rank is the
    standard model for its cost).
    """
    rt = runtime if runtime is not None else DTDRuntime(execution="symbolic")
    nb = max(n // leaf_size, 1)
    b = leaf_size
    r = min(rank, leaf_size)

    handles: Dict[Tuple[int, int], object] = {}
    for i in range(nb):
        for j in range(i + 1):
            nbytes = 8 * b * b if i == j else 8 * 2 * b * r
            handles[(i, j)] = rt.new_handle(f"A[{i},{j}]", nbytes=nbytes, row=i, col=j, level=0)
    strategy = distribution if distribution is not None else BlockCyclicDistribution(nodes)
    strategy.assign(rt.handles)

    for k in range(nb):
        rt.insert_task(
            None,
            [(handles[(k, k)], AccessMode.RW)],
            name=f"POTRF({k})",
            kind="POTRF",
            flops=flops_potrf(b),
            phase=k,
        )
        for i in range(k + 1, nb):
            rt.insert_task(
                None,
                [(handles[(k, k)], AccessMode.READ), (handles[(i, k)], AccessMode.RW)],
                name=f"TRSM({i},{k})",
                kind="TRSM",
                flops=flops_trsm(b, r),
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
                        flops=flops_gemm(r, r, b) + flops_gemm(b, b, r),
                        phase=k,
                    )
                else:
                    gemm_flops = (
                        flops_gemm(r, r, b)
                        + flops_gemm(b, r, r)
                        + 2.0 * flops_qr(b, 2 * r)
                    )
                    rt.insert_task(
                        None,
                        [
                            (handles[(i, k)], AccessMode.READ),
                            (handles[(j, k)], AccessMode.READ),
                            (handles[(i, j)], AccessMode.RW),
                        ],
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        flops=gemm_flops,
                        phase=k,
                    )
    return rt
