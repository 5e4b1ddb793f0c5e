"""ULV factorization of a weak-admissibility BLR2 matrix (paper Alg. 1).

The single-level variant of the ULV: after the diagonal product and partial
factorization of every block row, the surviving skeleton-skeleton blocks of
*all* rows (plus all couplings ``S_{i,j}``) are permuted to the lower-right
corner (Fig. 4) and factorized with one dense Cholesky.  Because that final
dense block has size ``nblocks x rank``, the overall complexity approaches
O(N^2) for fixed leaf size -- the motivation for the multi-level HSS-ULV.

The algorithm itself is format-agnostic (it only reads the leaf-system
interface of :mod:`repro.core.leaf_ulv`); this module binds it to
:class:`~repro.formats.blr2.BLR2Matrix`, which presents that interface
natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.core.leaf_ulv import LeafULVSolveMixin, leaf_ulv_factorize_into
from repro.core.level_ulv import LevelFactors
from repro.formats.blr2 import BLR2Matrix

__all__ = ["BLR2ULVFactor", "blr2_ulv_factorize"]


@dataclass
class BLR2ULVFactor(LeafULVSolveMixin):
    """Factors of the BLR2-ULV factorization (Alg. 1).

    Attributes
    ----------
    blr2:
        The factorized BLR2 matrix.
    level:
        The per-row factors stacked per block shape (allocated from
        ``blr2``); ``bases`` / ``partials`` are views into it.
    merged_chol:
        Lower-triangular Cholesky factor of the permuted skeleton system
        (line 3 of Alg. 1).
    """

    blr2: BLR2Matrix
    level: LevelFactors = None  # type: ignore[assignment]
    merged_chol: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def system(self) -> BLR2Matrix:
        """The leaf system this factor was computed from (the BLR2 matrix itself)."""
        return self.blr2


def blr2_ulv_factorize(blr2: BLR2Matrix) -> BLR2ULVFactor:
    """Factorize an SPD BLR2 matrix with the single-level ULV algorithm (Alg. 1)."""
    return leaf_ulv_factorize_into(BLR2ULVFactor(blr2=blr2), blr2)
