"""Sequential core of the leaf-level (single-level) ULV factorization.

Paper Alg. 1 never looks inside the matrix format: it only needs, per block
row ``i``, a dense diagonal block, a shared skeleton basis, and the coupling
blocks ``S_{i,j}`` against every other row.
:class:`~repro.formats.blr2.BLR2Matrix` presents exactly that *leaf system*
interface and factorizes and solves through the implementation below.
(HODLR factorizes through its exact HSS form instead,
:mod:`repro.core.hodlr_ulv`.)

A leaf system provides::

    n                  # matrix dimension
    nblocks            # number of leaf block rows
    block_range(i)     # slice of rows/cols covered by block i
    rank(i)            # skeleton rank of block row i
    diag               # {i: dense diagonal block}
    bases              # {i: skeleton basis U_i^S with orthonormal columns}
    coupling(i, j)     # skeleton coupling S_{i,j} (rank(i) x rank(j))
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.level_ulv import LevelFactors, check_finite, square_basis, ulv_solve
from repro.core.partial_cholesky import PartialCholeskyResult, partial_cholesky
from repro.core.rhs import validate_rhs

__all__ = ["LeafULVSolveMixin", "assemble_merged_row", "leaf_ulv_factorize_into"]


class LeafULVSolveMixin:
    """Storage, solve and logdet of a leaf-level ULV factor object.

    A leaf factor is a one-level tree: its per-row factors live stacked per
    block shape in one :class:`~repro.core.level_ulv.LevelFactors`
    (``level``), allocated empty from the leaf system and filled in place by
    the factorization, and the solve is one forward kernel, the merged root
    solve and one backward kernel (:mod:`repro.core.level_ulv`).  The
    concrete factor class (:class:`~repro.core.blr2_ulv.BLR2ULVFactor`) is a
    dataclass providing a ``system`` (the leaf system that was factorized), a
    ``level`` field (None until :meth:`__post_init__` allocates it) and
    ``merged_chol`` (Cholesky factor of the permuted skeleton system).  Each row stores the compact-WY
    Householder factors ``V``, ``T``, ``R`` of its skeleton basis, never the
    square ``[U^R U^S]``: ``bases`` builds that on demand for inspection, and
    ``partials`` (partial Cholesky factors per block row) are views into the
    stacks.
    """

    def __post_init__(self) -> None:
        if self.level is None:
            system = self.system
            ranges = [system.block_range(i) for i in range(system.nblocks)]
            if [r.start for r in ranges] != [0] + [r.stop for r in ranges[:-1]]:
                raise ValueError("leaf block rows must tile 0..n in order")
            self.level = LevelFactors(
                [r.stop - r.start for r in ranges],
                [system.rank(i) for i in range(system.nblocks)],
            )

    @property
    def bases(self) -> Dict[int, np.ndarray]:
        """Square ``[U^R U^S]`` per block row, built from the reflectors on demand."""
        return {
            i: square_basis(v, t, self.system.bases[i])
            for i, (v, t, _, _) in enumerate(self.level.node_views())
        }

    @property
    def partials(self) -> Dict[int, PartialCholeskyResult]:
        """Partial Cholesky factors per block row (views into the stacks)."""
        return {i: part for i, (_, _, _, part) in enumerate(self.level.node_views())}

    def _skeleton_offsets(self) -> List[int]:
        return self.level.skeleton_offsets.tolist()

    def check_finite(self) -> None:
        """Raise :class:`numpy.linalg.LinAlgError` if any factor entry is NaN/Inf."""
        check_finite([self.level], self.merged_chol)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` through the ULV factors (Eq. 15).

        ``b`` may be a vector of length ``n`` or a matrix of shape ``(n, k)``.
        """
        bm, single = validate_rhs(b, self.system.n)
        x = ulv_solve([self.level], self.merged_chol, bm)
        return x[:, 0] if single else x

    def logdet(self) -> float:
        """``log(det(A))`` of the factorized approximation."""
        total = 2.0 * float(np.sum(np.log(np.diag(self.merged_chol))))
        for part in self.partials.values():
            if part.redundant_size > 0:
                total += 2.0 * float(np.sum(np.log(np.diag(part.L_rr))))
        return total


def assemble_merged_row(
    merged: np.ndarray, offsets: List[int], i: int, schur: np.ndarray, system
) -> None:
    """Write block row ``i`` of the permuted skeleton system (Fig. 4) into ``merged``.

    Row ``i``'s skeleton Schur complement goes on the diagonal and its
    couplings ``S_{i,j}`` off it.  Rows write disjoint slices, so the task
    graph assembles them concurrently; the sequential reference calls the
    same function row by row.
    """
    rows = slice(offsets[i], offsets[i + 1])
    merged[rows, rows] = schur
    for j in range(system.nblocks):
        if j != i:
            merged[rows, offsets[j] : offsets[j + 1]] = system.coupling(i, j)


def leaf_ulv_factorize_into(factor, system):
    """Run the sequential leaf-level ULV (Alg. 1) and populate ``factor``.

    ``factor`` is a fresh :class:`LeafULVSolveMixin` object whose level
    stacks and ``merged_chol`` are filled in-place; it is also returned.
    This is the reference implementation every task-graph backend is
    validated against, bit for bit.
    """
    nb = system.nblocks
    level = factor.level

    schur: Dict[int, np.ndarray] = {}
    for i in range(nb):
        part = partial_cholesky(level.set_basis(i, system.bases[i], system.diag[i]), system.rank(i))
        schur[i] = level.set_partial(i, part)

    offsets = factor._skeleton_offsets()
    merged = np.zeros((offsets[-1], offsets[-1]))
    for i in range(nb):
        assemble_merged_row(merged, offsets, i, schur[i], system)

    factor.merged_chol = np.linalg.cholesky(merged)
    factor.check_finite()
    return factor
