"""The paper's primary contribution: ULV factorization of structured matrices.

* :mod:`repro.core.partial_cholesky` -- the partial (RR-block) Cholesky step
  shared by all algorithms (Eq. 10-12).
* :mod:`repro.core.level_ulv` -- the level-stacked factor storage and the
  level kernels: the one implementation of the ULV forward/backward
  substitution, run by every sequential reference and every solve graph.
* :mod:`repro.core.leaf_ulv` -- the format-agnostic single-level ULV core
  (Alg. 1) over any *leaf system* (shared bases + couplings per block row).
* :mod:`repro.core.blr2_ulv` -- BLR2-ULV: the leaf-ULV core bound to
  :class:`~repro.formats.blr2.BLR2Matrix`.
* :mod:`repro.core.hodlr_ulv` -- HODLR-ULV: the leaf-ULV core over the exact
  leaf view of a symmetric HODLR matrix.
* :mod:`repro.core.hss_ulv` -- multi-level HSS-ULV (Alg. 2), the sequential
  reference implementation.

These are the sequential references.  The same factorizations and solves as
tasks of the DTD runtime (HATRIX-DTD, Sec. 4.2) are the graph builders of
:mod:`repro.pipeline`, reached through
``get_format(name).factorize_dtd / solve_dtd(..., policy=ExecutionPolicy(...))``;
every backend produces bit-identical results to these references.
"""

from repro.core.partial_cholesky import partial_cholesky
from repro.core.leaf_ulv import LeafULVSolveMixin, leaf_ulv_factorize_into
from repro.core.blr2_ulv import BLR2ULVFactor, blr2_ulv_factorize
from repro.core.hodlr_ulv import HODLRLeafSystem, HODLRULVFactor, hodlr_ulv_factorize
from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize

__all__ = [
    "partial_cholesky",
    "LeafULVSolveMixin",
    "leaf_ulv_factorize_into",
    "BLR2ULVFactor",
    "blr2_ulv_factorize",
    "HODLRLeafSystem",
    "HODLRULVFactor",
    "hodlr_ulv_factorize",
    "HSSULVFactor",
    "hss_ulv_factorize",
]
