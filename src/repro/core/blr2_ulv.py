"""ULV factorization of a weak-admissibility BLR2 matrix (paper Alg. 1).

The single-level variant of the ULV: after the diagonal product and partial
factorization of every block row, the surviving skeleton-skeleton blocks of
*all* rows (plus all couplings ``S_{i,j}``) are permuted to the lower-right
corner (Fig. 4) and factorized with one dense Cholesky.  Because that final
dense block has size ``nblocks x rank``, the overall complexity approaches
O(N^2) for fixed leaf size -- the motivation for the multi-level HSS-ULV.

That is Alg. 2 run on a one-level tree whose root merges every row, so a
BLR2 matrix factorizes with the HSS-ULV code
(:func:`~repro.core.hss_ulv.hss_ulv_factorize`) into an
:class:`~repro.core.hss_ulv.HSSULVFactor`.
"""

from __future__ import annotations

from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize
from repro.formats.blr2 import BLR2Matrix

__all__ = ["blr2_ulv_factorize"]


def blr2_ulv_factorize(blr2: BLR2Matrix) -> HSSULVFactor:
    """Factorize an SPD BLR2 matrix with the single-level ULV algorithm (Alg. 1)."""
    return hss_ulv_factorize(blr2)
