"""The shared compression graph builder scaffold.

Compression is the last phase of the compress -> factorize -> solve pipeline
to be expressed as a task graph: the per-block low-rank approximations
(ACA / interpolative decomposition / SVD row bases), the parent-level basis
translations of the nested formats and the skeleton couplings all become
``insert_task`` calls against the DTD runtime, exactly as the paper demands
for *every* phase of the solver (Sec. 4.2).

:class:`CompressGraphBuilder` extends the pipeline layer's
:class:`~repro.pipeline.builder.GraphBuilder` with what every format's
construction graph shares:

* the lazily assembled :class:`~repro.kernels.assembly.KernelMatrix` being
  compressed (inherited by forked workers, so distributed compression tasks
  evaluate kernel blocks locally and never ship the dense matrix),
* the cluster tree and the compression parameters (``leaf_size`` /
  ``max_rank`` / ``tol`` / ``method`` / ``seed``),
* a static byte-size model for basis/coupling handles (used by the
  distribution strategies and the communication plan).

Concrete builders (:class:`~repro.compress.hss.HSSCompressBuilder`,
:class:`~repro.compress.blr2.BLR2CompressBuilder`,
:class:`~repro.compress.hodlr.HODLRCompressBuilder`) record tasks that
perform *exactly* the operations of the sequential ``formats.build_*``
references, in the same order, with any RNG draws (proxy-column sampling)
precomputed at record time in the sequential order -- so every backend
(deferred / parallel / process / distributed) produces a compressed matrix
bit-identical to the sequential reference.
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.cluster_tree import ClusterTree, build_cluster_tree
from repro.kernels.assembly import KernelMatrix
from repro.pipeline.builder import GraphBuilder
from repro.pipeline.policy import ExecutionPolicy

__all__ = ["CompressGraphBuilder", "compress_through_builder"]


class CompressGraphBuilder(GraphBuilder):
    """Base scaffold for recording one compression task graph.

    Parameters
    ----------
    kernel_matrix:
        The lazily assembled SPD kernel matrix to compress.
    leaf_size:
        Leaf cluster size of the block partition.
    max_rank:
        Cap on every block/skeleton rank (the paper's "max rank").
    tol:
        Optional relative tolerance for adaptive ranks.
    method:
        Format-specific compression scheme; ``None`` selects the format's
        default (:attr:`default_method`), matching the sequential builder.
    seed:
        RNG seed (stored as :attr:`rng_seed`; ``GraphBuilder.seed()`` is the
        state-seeding template hook).  All random draws (proxy sampling,
        randomized SVD) are either precomputed at record time in the
        sequential order or seeded per task, so the recorded graph is
        backend-independent.
    tree:
        Reuse an existing cluster tree instead of building one.
    policy:
        As for :class:`~repro.pipeline.builder.GraphBuilder`.
    """

    #: Compression scheme used when ``method`` is None -- must match the
    #: default of the corresponding sequential ``formats.build_*`` function.
    default_method: str = ""

    def __init__(
        self,
        kernel_matrix: KernelMatrix,
        *,
        leaf_size: int = 256,
        max_rank: Optional[int] = 100,
        tol: Optional[float] = None,
        method: Optional[str] = None,
        seed: int = 0,
        tree: Optional[ClusterTree] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        super().__init__(policy=policy)
        self.kernel_matrix = kernel_matrix
        self.leaf_size = int(leaf_size)
        self.max_rank = max_rank
        self.tol = tol
        self.method = method if method is not None else self.default_method
        self.rng_seed = int(seed)
        self.tree = (
            tree
            if tree is not None
            else build_cluster_tree(kernel_matrix.points, leaf_size=leaf_size)
        )

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.kernel_matrix.n

    def rank_cap(self, m: int) -> int:
        """Static rank bound of a size-``m`` block (for handle byte sizes).

        Actual ranks are only known after the compression tasks run, but the
        handle sizes feed the *static* communication plan, so they must be
        fixed at record time.  The plan and the measured ledger both charge
        ``handle.nbytes``, so any consistent static model keeps them equal.
        """
        r = m if self.max_rank is None else min(int(self.max_rank), m)
        return max(r, 1)

    def basis_nbytes(self, m: int) -> int:
        """Byte-size model of a basis (or basis-info) handle for an ``m``-row cluster."""
        return 8 * m * self.rank_cap(m)

    def coupling_nbytes(self, mi: int, mj: int) -> int:
        """Byte-size model of a skeleton coupling handle."""
        return 8 * self.rank_cap(mi) * self.rank_cap(mj)


def compress_through_builder(builder_cls, kernel_matrix, *, policy=None, **kwargs):
    """Drive one compression builder end-to-end.

    Records the graph under ``policy`` (default: ``deferred``), executes it
    on the policy's backend and returns ``(matrix, runtime)`` -- the same
    contract as the ``factorize_dtd`` / ``solve_dtd`` drivers, so the format
    registry can expose all four entry points uniformly.
    """
    policy = policy if policy is not None else ExecutionPolicy(backend="deferred")
    builder = builder_cls(kernel_matrix, policy=policy, **kwargs)
    builder.execute()
    return builder.result(), builder.runtime
