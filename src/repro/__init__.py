"""repro: reproduction of "O(N) distributed direct factorization of structured
dense matrices using runtime systems" (HATRIX-DTD, ICPP 2023).

Subpackages
-----------
``repro.geometry``      point clouds, cluster trees, admissibility
``repro.kernels``       Green's-function kernels and kernel-matrix assembly
``repro.lowrank``       SVD / QR / ACA / RSVD / ID compression primitives
``repro.formats``       BlockDense, BLR, BLR2, HSS and HODLR matrix formats
``repro.pipeline``      format-agnostic pipeline: ExecutionPolicy, the
                        factorize/solve graph builders (multi-RHS panels,
                        refinement, replay), format registry
``repro.core``          BLR2-ULV, HSS-ULV and HODLR-ULV sequential
                        references (the contribution)
``repro.compress``      task-graph construction of every format
``repro.service``       SolverService: cached factorizations, batched solves
``repro.runtime``       DTD task runtime, DAG, machine model, simulator
``repro.distribution``  row-cyclic / block-cyclic process distributions
``repro.baselines``     dense Cholesky, LORAPO-like BLR Cholesky, STRUMPACK-like
``repro.analysis``      error metrics, complexity fits, scaling analysis
``repro.experiments``   one driver per paper table/figure
``repro.api``           high-level ``StructuredSolver`` facade
"""

from repro.api import StructuredSolver

__version__ = "1.0.0"

__all__ = ["StructuredSolver", "SolverService", "__version__"]


def __getattr__(name: str):
    # The serving layer (and the metrics it pulls in) loads on first use,
    # not with every ``import repro``.
    if name == "SolverService":
        from repro.service import SolverService

        return SolverService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
