"""Ablation benchmarks for the design choices discussed (but not measured) in the paper.

Two ablations called out in DESIGN.md:

1. **DTD vs PTG interface** (paper Sec. 4.2 / 5.3.3).  The paper attributes
   HATRIX-DTD's residual weak-scaling loss to the DTD interface discovering the
   whole task graph on every process, and names the Parameterized Task Graph
   (PTG) interface as the lower-overhead alternative it leaves for future work.
   The ablation simulates the same HSS-ULV task graph under both insertion
   models.

2. **Row-cyclic vs block-cyclic distribution for HATRIX-DTD** (paper Sec. 4.3).
   The paper argues a block-cyclic distribution "would generate too much
   communication between tasks on the same row"; the ablation measures exactly
   that communication volume and the resulting simulated time.
"""

from bench_utils import print_table

from repro.distribution.strategies import BlockCyclicDistribution, RowCyclicDistribution
from repro.formats.hss import HSSStructure
from repro.pipeline.factorize import HSSULVFactorizeBuilder
from repro.pipeline.policy import ExecutionPolicy
from repro.runtime.machine import fugaku_like
from repro.runtime.simulator import simulate


def _dtd_vs_ptg():
    rows = []
    for nodes in (16, 64, 128):
        n = 2048 * nodes
        structure = HSSStructure.synthetic(n, 512, 100)
        policy = ExecutionPolicy(backend="deferred", nodes=nodes)
        graph = HSSULVFactorizeBuilder(structure, policy=policy).record().runtime.graph
        machine = fugaku_like(nodes)
        dtd = simulate(graph, machine, policy="async", dtd_mode="dtd")
        ptg = simulate(graph, machine, policy="async", dtd_mode="ptg")
        rows.append((nodes, n, dtd.makespan, ptg.makespan, dtd.runtime_overhead, ptg.runtime_overhead))
    return rows


def test_ablation_dtd_vs_ptg(benchmark):
    rows = benchmark.pedantic(_dtd_vs_ptg, rounds=1, iterations=1)
    body = [f"{'Nodes':<8}{'N':<10}{'DTD time':<12}{'PTG time':<12}{'DTD ovh':<12}{'PTG ovh':<12}", "-" * 66]
    for nodes, n, t_dtd, t_ptg, o_dtd, o_ptg in rows:
        body.append(f"{nodes:<8}{n:<10}{t_dtd:<12.4f}{t_ptg:<12.4f}{o_dtd:<12.4f}{o_ptg:<12.4f}")
    print_table("Ablation: DTD vs PTG task-insertion interface (simulated HSS-ULV)", "\n".join(body))

    # PTG never loses, and its advantage grows with the node count (the DTD
    # discovery overhead grows with the *global* task count).
    for nodes, n, t_dtd, t_ptg, _, _ in rows:
        assert t_ptg <= t_dtd * 1.001
    first_gain = rows[0][2] / rows[0][3]
    last_gain = rows[-1][2] / rows[-1][3]
    assert last_gain >= first_gain


def _row_vs_block_cyclic():
    rows = []
    for nodes in (16, 64, 128):
        n = 2048 * nodes
        structure = HSSStructure.synthetic(n, 512, 100)
        machine = fugaku_like(nodes)
        g_row, g_blk = (
            HSSULVFactorizeBuilder(
                structure, policy=ExecutionPolicy(backend="deferred", nodes=nodes, distribution=d)
            ).record().runtime.graph
            for d in (RowCyclicDistribution(nodes, max_level=structure.max_level), BlockCyclicDistribution(nodes))
        )
        row = simulate(g_row, machine, policy="async")
        blk = simulate(g_blk, machine, policy="async")
        rows.append(
            (nodes, n, row.makespan, blk.makespan, g_row.communication_bytes(), g_blk.communication_bytes())
        )
    return rows


def test_ablation_row_vs_block_cyclic(benchmark):
    rows = benchmark.pedantic(_row_vs_block_cyclic, rounds=1, iterations=1)
    body = [
        f"{'Nodes':<8}{'N':<10}{'row-cyc time':<14}{'blk-cyc time':<14}{'row-cyc MB':<12}{'blk-cyc MB':<12}",
        "-" * 70,
    ]
    for nodes, n, t_row, t_blk, b_row, b_blk in rows:
        body.append(
            f"{nodes:<8}{n:<10}{t_row:<14.4f}{t_blk:<14.4f}{b_row / 1e6:<12.1f}{b_blk / 1e6:<12.1f}"
        )
    print_table("Ablation: row-cyclic vs block-cyclic distribution for HATRIX-DTD", "\n".join(body))

    # The paper's argument (Sec. 4.3): the row-cyclic distribution is the
    # better fit for HSS-ULV with an asynchronous runtime.  At block
    # granularity the communication volumes are close (the paper's stronger
    # claim concerns ScaLAPACK-style *element* block-cyclic distribution of
    # each block), so the assertion is on the simulated factorization time.
    for nodes, n, t_row, t_blk, b_row, b_blk in rows:
        assert t_row <= t_blk * 1.05
    # At scale the row-cyclic distribution is strictly faster.
    assert rows[-1][2] < rows[-1][3]
