"""Low-rank compression tools: truncated SVD, shared row bases, ACA, RSVD."""

from repro.lowrank.block import LowRankBlock
from repro.lowrank.svd import truncated_svd, compress_svd, svd_rank
from repro.lowrank.qr import row_basis
from repro.lowrank.aca import aca, compress_aca
from repro.lowrank.rsvd import rsvd, compress_rsvd
from repro.lowrank.interpolative import interpolative_rows

__all__ = [
    "interpolative_rows",
    "LowRankBlock",
    "truncated_svd",
    "compress_svd",
    "svd_rank",
    "row_basis",
    "aca",
    "compress_aca",
    "rsvd",
    "compress_rsvd",
]
