"""Task-graph matrix construction: compression through the DTD runtime.

The last serial phase of the pipeline to fall to the runtime: low-rank
compression (per-block ACA/ID/SVD tasks, shared-basis tasks, nested-basis
translation ops, sibling couplings) expressed as ``insert_task`` graphs on
the pipeline layer's :class:`~repro.pipeline.builder.GraphBuilder` scaffold,
so HSS, BLR2 and HODLR matrices can be *constructed* -- not just factorized
and solved -- on every execution backend (deferred / thread-parallel /
process / distributed), bit-identical to the sequential
``repro.formats.build_*`` references.

Modules
-------
:mod:`~repro.compress.builder`
    :class:`CompressGraphBuilder`, the shared scaffold (kernel matrix,
    cluster tree, compression parameters, static handle byte-size model).
:mod:`~repro.compress.hss` / :mod:`~repro.compress.blr2` /
:mod:`~repro.compress.hodlr`
    The per-format builders and their ``build_*_dtd`` drivers.
:mod:`~repro.compress.verify`
    Structural bit-identity checks shared by the randomized cross-backend
    test harness and the compression-scaling experiment.

Entry points: ``FormatSpec.compress_graph`` in the format registry,
``StructuredSolver.from_kernel(..., compress_runtime=...)``,
``SolverService(compress_runtime=...)`` and
``python -m repro solve --compress-runtime ...``.
"""

from repro.compress.builder import CompressGraphBuilder, compress_through_builder
from repro.compress.blr2 import BLR2CompressBuilder, build_blr2_dtd
from repro.compress.hodlr import HODLRCompressBuilder, build_hodlr_dtd
from repro.compress.hss import HSSCompressBuilder, build_hss_dtd
from repro.compress.verify import (
    assert_compressed_identical,
    compressed_identical,
    compressed_mismatches,
)

__all__ = [
    "CompressGraphBuilder",
    "compress_through_builder",
    "HSSCompressBuilder",
    "build_hss_dtd",
    "BLR2CompressBuilder",
    "build_blr2_dtd",
    "HODLRCompressBuilder",
    "build_hodlr_dtd",
    "compressed_mismatches",
    "compressed_identical",
    "assert_compressed_identical",
]
