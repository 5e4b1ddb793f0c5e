"""STRUMPACK-like baseline: HSS-ULV with fork-join parallelism (Sec. 4.3).

STRUMPACK uses the *same* HSS format and ULV algorithm as HATRIX-DTD, but its
distributed execution is bulk-synchronous: every matrix block is block-cyclic
over a ScaLAPACK process grid, data is shuffled with collectives, and a level
of the HSS tree must complete globally before the next level starts.  Keeping
the numerics identical and changing only the scheduling/distribution isolates
the runtime-system effect, exactly as the paper's comparison does.
"""

from __future__ import annotations

from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize
from repro.distribution.strategies import BlockCyclicDistribution
from repro.formats.hss import HSSMatrix, HSSStructure, build_hss
from repro.kernels.assembly import KernelMatrix
from repro.pipeline.factorize import build_hss_ulv_taskgraph
from repro.runtime.dtd import DTDRuntime

__all__ = ["build_strumpack_hss", "strumpack_factorize", "build_strumpack_taskgraph"]


def build_strumpack_hss(
    kernel_matrix: KernelMatrix,
    *,
    leaf_size: int = 256,
    max_rank: int = 100,
    tol: float = 1e-8,
    method: str = "interpolative",
    seed: int = 0,
) -> HSSMatrix:
    """Construct an HSS matrix the way STRUMPACK does: adaptive rank to a tolerance.

    STRUMPACK compresses to a fixed relative tolerance (1e-8 in the paper's
    Table 2) with the user-supplied maximum rank as a cap, using randomized
    sampling; here the interpolative construction with the same tolerance/cap
    plays that role.
    """
    return build_hss(
        kernel_matrix,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,
        seed=seed,
    )


def strumpack_factorize(hss: HSSMatrix) -> HSSULVFactor:
    """Factorize with the HSS-ULV algorithm (identical numerics to HATRIX-DTD).

    The difference from HATRIX-DTD is purely in the distributed execution
    model, which is captured by :func:`build_strumpack_taskgraph` plus the
    ``forkjoin`` simulation policy.
    """
    return hss_ulv_factorize(hss)


def build_strumpack_taskgraph(
    structure: HSSStructure,
    *,
    nodes: int = 1,
) -> DTDRuntime:
    """Symbolic STRUMPACK task graph: HSS-ULV tasks with block-cyclic distribution.

    The graph must be simulated with ``policy="forkjoin"`` to model the level
    barriers and collective communication of the bulk-synchronous execution.
    """
    return build_hss_ulv_taskgraph(
        structure, nodes=nodes, distribution=BlockCyclicDistribution(nodes)
    )
