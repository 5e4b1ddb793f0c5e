"""The paper's primary contribution: ULV factorization of structured matrices.

* :mod:`repro.core.partial_cholesky` -- the partial (RR-block) Cholesky step
  shared by all algorithms (Eq. 10-12).
* :mod:`repro.core.level_ulv` -- the level-stacked factor storage (each
  node's basis as compact-WY Householder reflectors), the per-node diagonal
  product and the level kernels: the one implementation of the ULV
  forward/backward substitution, run by every sequential reference and
  every solve graph.
* :mod:`repro.core.hss_ulv` -- the one ULV engine and its sequential
  reference: multi-level HSS-ULV (Alg. 2), and BLR2-ULV (Alg. 1) as a
  one-level tree whose root merges every block row.
* :mod:`repro.core.blr2_ulv` -- BLR2-ULV: the engine on a
  :class:`~repro.formats.blr2.BLR2Matrix`.
* :mod:`repro.core.hodlr_ulv` -- HODLR-ULV: the truncated HSS form of a
  symmetric HODLR matrix, factorized by HSS-ULV.

These are the sequential references.  The same factorizations and solves as
tasks of the DTD runtime (HATRIX-DTD, Sec. 4.2) are the graph builders of
:mod:`repro.pipeline`, reached through
``get_format(name).factorize_dtd / solve_dtd(..., policy=ExecutionPolicy(...))``;
every backend produces bit-identical results to these references.
"""

from repro.core.partial_cholesky import NotPositiveDefinite, partial_cholesky
from repro.core.blr2_ulv import blr2_ulv_factorize
from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize
from repro.core.hodlr_ulv import hodlr_to_hss, hodlr_ulv_factorize

__all__ = [
    "NotPositiveDefinite",
    "partial_cholesky",
    "blr2_ulv_factorize",
    "HSSULVFactor",
    "hss_ulv_factorize",
    "hodlr_to_hss",
    "hodlr_ulv_factorize",
]
