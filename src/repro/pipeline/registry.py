"""The format registry: one entry per structured format, all backends for free.

A :class:`FormatSpec` bundles everything the facade, the CLI and the
:class:`~repro.service.SolverService` need to drive one structured format
end-to-end: compression from a kernel matrix, the sequential reference
factorization, and the policy-driven task-graph factorize/solve drivers.
Registering a spec is all it takes for a new format to appear in
``StructuredSolver(format=...)``, ``python -m repro solve --format ...`` and
the service's :class:`~repro.service.solver_service.FactorKey` -- with every
execution backend (sequential / thread-parallel / distributed) inherited from
the shared pipeline scaffold.

The spec callables import their implementations lazily so registering the
built-in formats at import time stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "FormatSpec",
    "register_format",
    "get_format",
    "available_formats",
    "format_titles",
]


@dataclass(frozen=True)
class FormatSpec:
    """Everything the pipeline layer needs to drive one structured format.

    Attributes
    ----------
    name:
        Registry key and CLI ``--format`` value (lowercase).
    title:
        Human-readable name for tables and reports.
    build:
        ``build(kernel_matrix, *, leaf_size, max_rank, tol=None, method=None,
        seed=0)`` -- compress a kernel matrix into the format (``method=None``
        selects the format's default compression).
    factorize:
        ``factorize(matrix) -> factor`` -- the sequential ULV reference.
    factorize_dtd:
        ``factorize_dtd(matrix, *, policy) -> (factor, runtime)`` -- the
        task-graph factorization under an
        :class:`~repro.pipeline.policy.ExecutionPolicy`.
    solve_dtd:
        ``solve_dtd(factor, b, *, policy, refine=False, matvec=None,
        plans=None) -> (x, runtime)`` -- the task-graph solve under a policy.
        ``plans`` is the caller's :class:`~repro.pipeline.plans.SolvePlans`
        (recorded graphs to replay); without one every call records.
    compress_graph:
        ``compress_graph(kernel_matrix, *, leaf_size, max_rank, tol=None,
        method=None, seed=0, policy) -> (matrix, runtime)`` -- the task-graph
        construction under a policy, bit-identical to ``build`` with the same
        arguments.  ``None`` when the format has no graph-built compression
        (the sequential ``build`` is then the only construction path).
    """

    name: str
    title: str
    build: Callable[..., Any]
    factorize: Callable[[Any], Any]
    factorize_dtd: Callable[..., Tuple[Any, Any]]
    solve_dtd: Callable[..., Tuple[Any, Any]]
    default_method: Optional[str] = None
    compress_graph: Optional[Callable[..., Tuple[Any, Any]]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FormatSpec({self.name!r}, title={self.title!r})"


_REGISTRY: Dict[str, FormatSpec] = {}


def register_format(spec: FormatSpec) -> FormatSpec:
    """Add (or replace) a format in the registry and return the spec."""
    _REGISTRY[spec.name] = spec
    return spec


def get_format(name: str) -> FormatSpec:
    """Look up a registered format by name (case-insensitive)."""
    try:
        return _REGISTRY[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown format {name!r}; registered formats: {available_formats()}"
        ) from None


def available_formats() -> Tuple[str, ...]:
    """Registered format names, sorted -- the single source of CLI choices."""
    return tuple(sorted(_REGISTRY))


def format_titles() -> Dict[str, str]:
    """Mapping of registered format name to its display title."""
    return {name: _REGISTRY[name].title for name in available_formats()}


# ---------------------------------------------------------------------------
# Built-in formats.  The wrappers normalize the per-format build signatures
# (compression method names differ) and bind each format to its graph
# builders.
# ---------------------------------------------------------------------------


def _hss_build(kmat, *, leaf_size, max_rank, tol=None, method=None, seed=0):
    from repro.formats.hss import build_hss

    return build_hss(
        kmat,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method if method is not None else "interpolative",
        seed=seed,
    )


def _hss_compress_graph(kmat, *, leaf_size, max_rank, tol=None, method=None, seed=0, policy):
    from repro.compress.hss import build_hss_dtd

    return build_hss_dtd(
        kmat,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,  # None -> the builder's default_method (single source of truth)
        seed=seed,
        policy=policy,
    )


def _hss_factorize(matrix):
    from repro.core.hss_ulv import hss_ulv_factorize

    return hss_ulv_factorize(matrix)


def _hss_factorize_dtd(matrix, *, policy):
    from repro.pipeline.factorize import HSSULVFactorizeBuilder

    builder = HSSULVFactorizeBuilder(matrix, policy=policy)
    builder.execute()
    return builder.result(), builder.runtime


def _hss_solve_dtd(factor, b, *, policy, refine=False, matvec=None, plans=None):
    from repro.pipeline.solve import HSSULVSolveBuilder, solve_through_builder

    return solve_through_builder(
        HSSULVSolveBuilder, factor, b,
        policy=policy, refine=refine, matvec=matvec, default_op=factor.matrix, plans=plans,
    )


def _blr2_build(kmat, *, leaf_size, max_rank, tol=None, method=None, seed=0):
    from repro.formats.blr2 import build_blr2

    return build_blr2(
        kmat,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        basis_method=method if method is not None else "svd",
    )


def _blr2_compress_graph(kmat, *, leaf_size, max_rank, tol=None, method=None, seed=0, policy):
    from repro.compress.blr2 import build_blr2_dtd

    return build_blr2_dtd(
        kmat,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,  # None -> the builder's default_method (single source of truth)
        seed=seed,
        policy=policy,
    )


def _blr2_factorize(matrix):
    from repro.core.blr2_ulv import blr2_ulv_factorize

    return blr2_ulv_factorize(matrix)


def _hodlr_build(kmat, *, leaf_size, max_rank, tol=None, method=None, seed=0):
    from repro.formats.hodlr import build_hodlr

    return build_hodlr(
        kmat,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method if method is not None else "svd",
        seed=seed,
    )


def _hodlr_compress_graph(kmat, *, leaf_size, max_rank, tol=None, method=None, seed=0, policy):
    from repro.compress.hodlr import build_hodlr_dtd

    return build_hodlr_dtd(
        kmat,
        leaf_size=leaf_size,
        max_rank=max_rank,
        tol=tol,
        method=method,  # None -> the builder's default_method (single source of truth)
        seed=seed,
        policy=policy,
    )


def _hodlr_factorize(matrix):
    from repro.core.hodlr_ulv import hodlr_ulv_factorize

    return hodlr_ulv_factorize(matrix)


def _hodlr_factorize_dtd(matrix, *, policy):
    from repro.core.hodlr_ulv import hodlr_to_hss

    return _hss_factorize_dtd(hodlr_to_hss(matrix), policy=policy)


register_format(
    FormatSpec(
        name="hss",
        title="HSS",
        build=_hss_build,
        factorize=_hss_factorize,
        factorize_dtd=_hss_factorize_dtd,
        solve_dtd=_hss_solve_dtd,
        default_method="interpolative",
        compress_graph=_hss_compress_graph,
    )
)

register_format(
    FormatSpec(
        name="blr2",
        title="BLR2",
        build=_blr2_build,
        factorize=_blr2_factorize,
        factorize_dtd=_hss_factorize_dtd,
        solve_dtd=_hss_solve_dtd,
        default_method="svd",
        compress_graph=_blr2_compress_graph,
    )
)

register_format(
    FormatSpec(
        name="hodlr",
        title="HODLR",
        build=_hodlr_build,
        factorize=_hodlr_factorize,
        factorize_dtd=_hodlr_factorize_dtd,
        solve_dtd=_hss_solve_dtd,
        default_method="svd",
        compress_graph=_hodlr_compress_graph,
    )
)
