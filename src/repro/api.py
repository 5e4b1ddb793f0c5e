"""High-level convenience API.

The quickstart workflow of the README:

>>> from repro.api import StructuredSolver
>>> solver = StructuredSolver.from_kernel("yukawa", n=2048, leaf_size=256, max_rank=60)
>>> x = solver.solve(b)                    # direct solve through the ULV factors
>>> X = solver.solve(B)                    # B of shape (n, k): k RHS at once
>>> solver.construction_error(), solver.solve_error()

``StructuredSolver`` is format-agnostic: ``format="hss"`` (default),
``"blr2"`` or ``"hodlr"`` selects the compressed representation from the
pipeline's :mod:`format registry <repro.pipeline.registry>`, and every format
reaches every execution backend through the same machinery.  ``HSSSolver`` is
kept as an alias of the old name.

Execution modes, shared by the factorization (:meth:`StructuredSolver.factorize`)
and the solve (:meth:`StructuredSolver.solve`):

``use_runtime=False`` (or ``"off"``)
    Sequential reference implementation -- the fastest path for small
    problems and the ground truth the other modes are validated against.
``use_runtime=True`` (or ``"immediate"``)
    Expressed as DTD runtime tasks whose bodies execute at insertion time;
    records the full task graph for inspection/simulation.
``use_runtime="parallel"``
    The task graph is recorded first and then executed *out-of-order* on a
    thread pool (``n_workers`` threads) by the event-driven graph executor --
    the shared-memory analogue of the paper's PaRSEC execution.  Use this for
    large problems where the independent per-block tasks dominate.
``use_runtime="process"``
    The task graph is recorded first, *fused* (record-time task coarsening,
    :mod:`repro.runtime.fusion`) and then executed out-of-order on a pool of
    ``n_workers`` forked worker processes -- GIL-free like the distributed
    backend, but with the pool's dynamic load balancing instead of
    owner-computes placement.
``use_runtime="distributed"``
    The task graph is recorded first and then executed across ``nodes`` forked
    worker processes with owner-computes placement from a distribution
    strategy (``distribution="row"`` or ``"block"``), explicit inter-process
    data transfers and communication accounting -- the distributed-memory
    analogue of the paper's deployment.  Sidesteps the GIL entirely.

All modes produce bit-identical factors *and* bit-identical solutions.  The
solve additionally supports blocked multi-RHS panels (``panel_size``) and one
optional iterative-refinement step (``refine=True``, against the exact kernel
operator).  For serving many right-hand sides from a cache of factorizations,
see :class:`repro.service.SolverService`.

The *construction* phase runs through the runtime too:
``from_kernel(..., compress_runtime="parallel")`` (or ``"distributed"`` with
``compress_nodes=``) records the compression as a DTD task graph
(:mod:`repro.compress`) and executes it on the chosen backend, bit-identical
to the sequential build -- completing the compress -> factorize -> solve
pipeline on the runtime end to end.
"""

from __future__ import annotations

from typing import Any, Optional, Union

import numpy as np

from repro.analysis.errors import construction_error, solve_error
from repro.core.rhs import check_rhs_shape
from repro.distribution.strategies import DistributionStrategy
from repro.geometry.points import PointCloud, uniform_grid_2d
from repro.kernels.assembly import KernelMatrix
from repro.kernels.greens import kernel_by_name
from repro.pipeline.plans import SolvePlans
from repro.pipeline.policy import ExecutionPolicy
from repro.pipeline.registry import get_format

__all__ = ["StructuredSolver", "HSSSolver"]


class StructuredSolver:
    """A compressed direct solver for a kernel (Green's function) matrix.

    Combines kernel-matrix assembly, structured compression (HSS, BLR2 or
    HODLR -- any format in the pipeline registry) and the corresponding ULV
    factorization behind a single object.  Use :meth:`from_kernel` or
    :meth:`from_points` to build one.

    ``hss`` is accepted as a constructor alias of ``matrix`` (and stays
    readable/assignable as an attribute) for code written against the
    HSS-only ``HSSSolver``.
    """

    def __init__(
        self,
        kernel_matrix: KernelMatrix,
        matrix: Any = None,
        format: str = "hss",
        factor: Optional[Any] = None,
        *,
        hss: Any = None,
    ) -> None:
        if hss is not None:
            if matrix is not None and matrix is not hss:
                raise ValueError("pass either `matrix` or the legacy `hss`, not both")
            matrix = hss
        if matrix is None:
            raise TypeError("StructuredSolver requires a compressed matrix (matrix=...)")
        self.kernel_matrix = kernel_matrix
        self.matrix = matrix
        self.format = format
        self.factor = factor
        #: DTD runtime that built :attr:`matrix` when compression ran as a
        #: task graph (``compress_runtime=...``); None for a sequential build.
        self.compress_runtime: Any = None
        #: DTD runtime of the most recent task-graph factorization (or None).
        self.factorize_runtime: Any = None
        #: DTD runtime of the most recent task-graph solve (or None).
        self.solve_runtime: Any = None
        #: Recorded solve graphs of :attr:`factor`, replayed by later solves
        #: of the same right-hand-side width and execution policy.
        self._plans = SolvePlans()

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        kernel_name: str,
        points: PointCloud,
        *,
        format: str = "hss",
        leaf_size: int = 256,
        max_rank: int = 100,
        tol: Optional[float] = None,
        method: Optional[str] = None,
        shift: float | str = "auto",
        seed: int = 0,
        compress_runtime: bool | str = False,
        compress_nodes: int = 1,
        compress_workers: int = 4,
        compress_distribution: Optional[Union[str, DistributionStrategy]] = None,
        compress_fusion: Optional[bool] = None,
        compress_trace: bool = False,
        compress_metrics: Optional[Any] = None,
        **kernel_params: float,
    ) -> "StructuredSolver":
        """Build the solver for a named kernel over an explicit point cloud.

        ``format`` names the compressed representation (any registered
        format); ``method`` selects its compression scheme (None: the
        format's default, e.g. ``"interpolative"`` for HSS and ``"svd"`` for
        BLR2/HODLR).

        ``compress_runtime`` selects the execution path of the *construction*
        phase, with the same modes and semantics as ``use_runtime`` on
        :meth:`factorize` / :meth:`solve`: ``False``/``"off"`` (default) is
        the sequential ``formats.build_*`` reference, any runtime backend
        records the compression as a DTD task graph
        (:mod:`repro.compress`) and executes it there -- bit-identical to
        the sequential build.  ``compress_nodes`` / ``compress_workers`` /
        ``compress_distribution`` parameterize the runtime backends (named
        separately from the kernel parameters caught by ``**kernel_params``);
        ``compress_fusion`` toggles record-time task fusion/batching (None:
        fused exactly where required, i.e. ``compress_runtime="process"``);
        ``compress_trace`` records a measured
        :class:`~repro.runtime.tracing.ExecutionTrace` of the compression
        (``solver.compress_runtime.last_trace``); ``compress_metrics``
        accumulates task/memory metrics of the compression into a caller
        :class:`~repro.obs.metrics.MetricsRegistry`.
        The recording runtime is kept on :attr:`compress_runtime` for task
        and communication accounting.
        """
        spec = get_format(format)
        kernel = kernel_by_name(kernel_name, **kernel_params)
        kmat = KernelMatrix(kernel, points, shift=shift)
        policy = ExecutionPolicy.resolve(
            compress_runtime,
            nodes=compress_nodes,
            n_workers=compress_workers,
            distribution=compress_distribution,
            fusion=compress_fusion,
            trace=compress_trace,
            metrics=compress_metrics,
        )
        compress_rt = None
        if policy.uses_runtime:
            if spec.compress_graph is None:
                raise ValueError(
                    f"format {spec.name!r} has no task-graph compression; "
                    "use compress_runtime=False"
                )
            matrix, compress_rt = spec.compress_graph(
                kmat,
                leaf_size=leaf_size,
                max_rank=max_rank,
                tol=tol,
                method=method,
                seed=seed,
                policy=policy,
            )
        else:
            matrix = spec.build(
                kmat,
                leaf_size=leaf_size,
                max_rank=max_rank,
                tol=tol,
                method=method,
                seed=seed,
            )
        solver = cls(kernel_matrix=kmat, matrix=matrix, format=spec.name)
        solver.compress_runtime = compress_rt
        return solver

    @classmethod
    def from_kernel(
        cls,
        kernel_name: str,
        n: int,
        *,
        format: str = "hss",
        leaf_size: int = 256,
        max_rank: int = 100,
        tol: Optional[float] = None,
        method: Optional[str] = None,
        shift: float | str = "auto",
        seed: int = 0,
        compress_runtime: bool | str = False,
        compress_nodes: int = 1,
        compress_workers: int = 4,
        compress_distribution: Optional[Union[str, DistributionStrategy]] = None,
        compress_fusion: Optional[bool] = None,
        compress_trace: bool = False,
        compress_metrics: Optional[Any] = None,
        **kernel_params: float,
    ) -> "StructuredSolver":
        """Build the solver on the paper's uniform 2D grid geometry of ``n`` points."""
        points = uniform_grid_2d(n)
        return cls.from_points(
            kernel_name,
            points,
            format=format,
            leaf_size=leaf_size,
            max_rank=max_rank,
            tol=tol,
            method=method,
            shift=shift,
            seed=seed,
            compress_runtime=compress_runtime,
            compress_nodes=compress_nodes,
            compress_workers=compress_workers,
            compress_distribution=compress_distribution,
            compress_fusion=compress_fusion,
            compress_trace=compress_trace,
            compress_metrics=compress_metrics,
            **kernel_params,
        )

    # -- structure ----------------------------------------------------------
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.matrix.n

    @property
    def hss(self) -> Any:
        """Legacy alias for :attr:`matrix` (from the HSS-only HSSSolver days)."""
        return self.matrix

    @hss.setter
    def hss(self, value: Any) -> None:
        self.matrix = value

    # -- factorization / solve ----------------------------------------------
    def factorize(
        self,
        *,
        use_runtime: bool | str = False,
        nodes: int = 1,
        n_workers: int = 4,
        distribution: Optional[Union[str, DistributionStrategy]] = None,
        fusion: Optional[bool] = None,
        trace: bool = False,
        metrics: Optional[Any] = None,
        data_plane: Optional[str] = None,
        force: bool = False,
    ) -> Any:
        """Compute (and cache) the ULV factorization of the compressed matrix.

        A cached factor is returned as-is regardless of ``use_runtime`` (all
        modes produce identical factors); pass ``force=True`` to discard the
        cache and re-factorize through the requested path, e.g. when timing
        the parallel executor.

        Parameters
        ----------
        use_runtime:
            Selects the execution path.  ``False`` / ``"off"`` (default) uses
            the sequential reference implementation; ``True`` / ``"immediate"``
            runs the factorization through the DTD runtime with task bodies
            executing at insertion time; ``"deferred"`` records the full task
            graph first and then runs it sequentially; ``"parallel"`` records
            the task graph first and then executes it out-of-order on a thread
            pool with ``n_workers`` threads; ``"distributed"`` records the
            task graph first and then executes it across ``nodes`` forked
            worker processes with owner-computes placement (the HATRIX-DTD
            distributed-memory execution model).  All paths produce
            bit-identical factors.
        nodes:
            Number of processes for the data distribution when the runtime is
            used (real worker processes for ``"distributed"``, simulated ranks
            otherwise).
        n_workers:
            Thread count for ``use_runtime="parallel"``.
        distribution:
            Data-distribution strategy for the runtime paths: a
            :class:`~repro.distribution.strategies.DistributionStrategy`
            instance or a name (``"row"`` / ``"block"`` / ``"element"``).
            Default: the paper's row-cyclic distribution.
        fusion:
            Record-time task fusion/batching (None: fused exactly where
            required, i.e. ``use_runtime="process"``).
        trace:
            Record a measured :class:`~repro.runtime.tracing.ExecutionTrace`
            of the factorization; retrieve it with :meth:`last_traces` or
            from ``self.factorize_runtime.last_trace``.
        metrics:
            Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating
            task/comm/memory metrics of the runtime factorization.
        data_plane:
            Wire representation of cross-process edges for
            ``use_runtime="distributed"``: ``"shm"`` (zero-copy shared-memory
            segments, the default) or ``"pickle"`` (full pickled payloads).
        force:
            Re-factorize even when a factor is already cached.
        """
        policy = ExecutionPolicy.resolve(
            use_runtime,
            nodes=nodes,
            n_workers=n_workers,
            distribution=distribution,
            fusion=fusion,
            trace=trace,
            metrics=metrics,
            data_plane=data_plane,
        )
        if force:
            self.factor = None
            self._plans = SolvePlans()
        if self.factor is None:
            spec = get_format(self.format)
            if policy.uses_runtime:
                self.factor, self.factorize_runtime = spec.factorize_dtd(
                    self.matrix, policy=policy
                )
            else:
                self.factor = spec.factorize(self.matrix)
                self.factorize_runtime = None
        return self.factor

    def solve(
        self,
        b: np.ndarray,
        *,
        use_runtime: bool | str = False,
        refine: bool = False,
        nodes: int = 1,
        n_workers: int = 4,
        distribution: Optional[Union[str, DistributionStrategy]] = None,
        panel_size: Optional[int] = None,
        fusion: Optional[bool] = None,
        trace: bool = False,
        metrics: Optional[Any] = None,
        data_plane: Optional[str] = None,
    ) -> np.ndarray:
        """Solve ``A x = b`` (factorizes on first use).

        ``b`` may be a vector of length ``n`` or a matrix of shape ``(n, k)``
        holding ``k`` right-hand sides; the solution has the same shape.

        On the task-graph paths the first solve of a right-hand-side width
        under a given execution policy records the graph; later solves of that
        width and policy rebind the recorded graph to the new ``b`` and run it
        again (``solve_runtime`` is then the same object).  ``trace`` and
        ``metrics`` are switches of one execution and not part of that key;
        ``immediate`` runs its bodies while recording, so it records every
        time.  Recorded graphs are dropped by ``factorize(force=True)`` and by
        any solve that raises.

        Parameters
        ----------
        use_runtime:
            Execution path of the *solve* (the factorization path is chosen
            by :meth:`factorize` and cached).  Same modes and semantics as
            :meth:`factorize`: ``False``/``"off"`` (sequential reference),
            ``True``/``"immediate"``, ``"deferred"``, ``"parallel"``
            (thread pool with ``n_workers`` threads) or ``"distributed"``
            (``nodes`` forked worker processes).  All paths produce
            bit-identical solutions.
        refine:
            Apply one iterative-refinement step against the *exact* kernel
            operator (not the compressed one), recovering accuracy lost to
            loose compression tolerances.
        nodes / n_workers / distribution:
            Runtime-backend parameters, as in :meth:`factorize`.
        panel_size:
            Columns per RHS panel of the task-graph solve; ``None`` keeps all
            ``k`` columns in one panel (bit-identical to the reference).
        fusion:
            Record-time task fusion/batching (None: fused exactly where
            required, i.e. ``use_runtime="process"``).
        trace:
            Record a measured :class:`~repro.runtime.tracing.ExecutionTrace`
            of the task-graph solve; retrieve it with :meth:`last_traces` or
            from ``self.solve_runtime.last_trace``.
        metrics:
            Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating
            task/comm/memory metrics of the task-graph solve.
        data_plane:
            Wire representation of cross-process edges for
            ``use_runtime="distributed"`` (``"shm"`` or ``"pickle"``), as in
            :meth:`factorize`.
        """
        policy = ExecutionPolicy.resolve(
            use_runtime,
            nodes=nodes,
            n_workers=n_workers,
            distribution=distribution,
            panel_size=panel_size,
            fusion=fusion,
            trace=trace,
            metrics=metrics,
            data_plane=data_plane,
        )
        if not policy.uses_runtime and (panel_size is not None or distribution is not None):
            raise ValueError(
                "panel_size and distribution only apply to the task-graph solve "
                "paths; pass use_runtime='parallel'/'distributed'/... with them"
            )
        # Fail fast on a mis-shaped b before the (expensive) factorization;
        # the inner solvers are the single validate-and-copy point.
        check_rhs_shape(b, self.n)
        factor = self.factorize()
        if not policy.uses_runtime:
            x = factor.solve(b)
            if refine:
                from repro.pipeline.panels import refine_once

                bm = np.asarray(b, dtype=np.float64).reshape(self.n, -1)
                x = refine_once(
                    factor.solve, self.kernel_matrix, bm, x.reshape(self.n, -1)
                ).reshape(x.shape)
            return x
        spec = get_format(self.format)
        x, self.solve_runtime = spec.solve_dtd(
            factor, b, policy=policy, refine=refine, matvec=self.kernel_matrix.matvec,
            plans=self._plans,
        )
        return x

    def last_traces(self) -> dict:
        """Measured traces of the most recent traced executions, by phase.

        Returns a dict with any of the keys ``"compress"``, ``"factorize"``,
        ``"solve"`` whose phase both ran through the runtime and was traced
        (``compress_trace=`` / ``factorize(trace=True)`` /
        ``solve(trace=True)``).
        """
        out = {}
        for phase, rt in (
            ("compress", self.compress_runtime),
            ("factorize", self.factorize_runtime),
            ("solve", self.solve_runtime),
        ):
            trace = getattr(rt, "last_trace", None)
            if trace is not None:
                out[phase] = trace
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Fast matrix-vector product with the compressed approximation.

        Applied columnwise for formats whose ``matvec`` only accepts vectors.
        """
        from repro.pipeline.panels import apply_operator

        return apply_operator(self.matrix, x)

    def logdet(self) -> float:
        """Log-determinant of the compressed matrix (useful in geostatistics)."""
        return self.factorize().logdet()

    # -- accuracy -------------------------------------------------------------
    def construction_error(self, *, seed: int = 0) -> float:
        """Eq. 18: relative error of the compressed approximation against the dense matrix."""
        return construction_error(self.kernel_matrix, self.matrix, n=self.n, seed=seed)

    def solve_error(self, *, seed: int = 0, nrhs: int = 1) -> float:
        """Eq. 19: relative error of the factorization applied to the compressed matrix.

        ``nrhs > 1`` probes with a random ``(n, nrhs)`` block instead of a
        single vector (Frobenius-norm relative error).
        """
        if nrhs <= 0:
            raise ValueError(f"nrhs must be positive, got {nrhs}")
        factor = self.factorize()
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(self.n if nrhs == 1 else (self.n, nrhs))
        return solve_error(self.matrix, factor.solve, b=b)

    def __repr__(self) -> str:
        max_rank = getattr(self.matrix, "max_rank", None)
        rank_part = f", max_rank={max_rank()}" if callable(max_rank) else ""
        return (
            f"StructuredSolver(format={self.format!r}, n={self.n}{rank_part}, "
            f"factorized={self.factor is not None})"
        )


#: Backward-compatible alias from the HSS-only era; ``format="hss"`` is the
#: default, so existing code keeps working unchanged.
HSSSolver = StructuredSolver
