"""Table 1: measured compute/communication complexity of each method.

The paper's Table 1 is a qualitative survey (O(N^3) dense Cholesky, O(N^2) BLR
tile Cholesky, O(N) HSS-ULV, with the corresponding communication
complexities).  This driver *measures* those exponents from the task graphs
generated by this library: total task flops and total inter-process
communication volume are recorded over a sweep of problem sizes and fitted
with a power law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.complexity import fit_power_law
from repro.baselines.dense_cholesky import build_dense_cholesky_taskgraph
from repro.baselines.lorapo_like import build_blr_cholesky_taskgraph
from repro.baselines.strumpack_like import build_strumpack_taskgraph
from repro.formats.hss import HSSStructure
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy

__all__ = ["Table1Row", "run_table1", "format_table1"]


@dataclass
class Table1Row:
    """One row of the measured complexity table."""

    library: str
    matrix_format: str
    algorithm: str
    paradigm: str
    compute_exponent: float
    comm_exponent: float
    sizes: List[int]
    flops: List[float]
    comm_bytes: List[float]


def _sweep(builder, sizes: Sequence[int], nodes: int) -> tuple[list[float], list[float]]:
    flops: list[float] = []
    comm: list[float] = []
    for n in sizes:
        graph = builder(n).graph
        flops.append(graph.total_flops())
        comm.append(max(graph.communication_bytes(), 1.0))
    return flops, comm


def run_table1(
    *,
    sizes: Sequence[int] = (2048, 4096, 8192, 16384),
    leaf_size: int = 256,
    rank: int = 64,
    nodes: int = 8,
) -> List[Table1Row]:
    """Measure compute and communication scaling exponents for every method.

    Parameters
    ----------
    sizes:
        Problem sizes of the sweep (powers of two, multiples of ``leaf_size``).
    leaf_size, rank:
        Block size and low-rank cap shared by all low-rank methods.
    nodes:
        Number of processes used for the data distribution (communication
        volume is measured across process boundaries).
    """
    rows: List[Table1Row] = []

    def dense_builder(n: int):
        return build_dense_cholesky_taskgraph(n, leaf_size, nodes=nodes)

    def blr_builder(n: int):
        return build_blr_cholesky_taskgraph(n, leaf_size, rank, nodes=nodes)

    def hss_builder(n: int):
        structure = HSSStructure.synthetic(n, leaf_size, rank)
        policy = ExecutionPolicy(backend="deferred", nodes=nodes)
        return HSSULVFactorizeBuilder(structure, policy=policy).record().runtime

    def strumpack_builder(n: int):
        structure = HSSStructure.synthetic(n, leaf_size, rank)
        return build_strumpack_taskgraph(structure, nodes=nodes)

    specs = [
        ("DPLASMA/SLATE (dense)", "Dense", "Tile Cholesky", "Asynchronous", dense_builder),
        ("LORAPO", "BLR", "Tile Cholesky", "Asynchronous", blr_builder),
        ("STRUMPACK", "HSS", "ULV", "Fork-join", strumpack_builder),
        ("HATRIX-DTD", "HSS", "ULV", "Asynchronous", hss_builder),
    ]
    for library, fmt, algo, paradigm, builder in specs:
        flops, comm = _sweep(builder, sizes, nodes)
        compute_fit = fit_power_law(sizes, flops)
        comm_fit = fit_power_law(sizes, comm)
        rows.append(
            Table1Row(
                library=library,
                matrix_format=fmt,
                algorithm=algo,
                paradigm=paradigm,
                compute_exponent=compute_fit.exponent,
                comm_exponent=comm_fit.exponent,
                sizes=list(sizes),
                flops=flops,
                comm_bytes=comm,
            )
        )
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """Render the measured complexity survey as a text table."""
    lines = [
        f"{'Library':<24}{'Format':<8}{'Algorithm':<16}{'Paradigm':<14}"
        f"{'Compute O(N^p)':<16}{'Comm O(N^p)':<12}",
        "-" * 90,
    ]
    for row in rows:
        lines.append(
            f"{row.library:<24}{row.matrix_format:<8}{row.algorithm:<16}{row.paradigm:<14}"
            f"p={row.compute_exponent:<14.2f}p={row.comm_exponent:<10.2f}"
        )
    return "\n".join(lines)
