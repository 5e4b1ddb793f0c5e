"""Tests for the TaskGraph DAG utilities."""

import pytest

from repro.runtime.dag import TaskGraph
from repro.runtime.data import DataHandle
from repro.runtime.task import Task


def make_graph(edges, flops=None, phases=None, n=None):
    """Build a small graph from an edge list."""
    n_tasks = n if n is not None else (max((max(e) for e in edges), default=-1) + 1)
    g = TaskGraph()
    for i in range(n_tasks):
        g.add_task(
            Task(
                tid=i,
                name=f"t{i}",
                kind="X",
                flops=(flops or {}).get(i, 1.0),
                phase=(phases or {}).get(i, 0),
            )
        )
    for s, d in edges:
        g.add_edge(s, d)
    return g


class TestBasics:
    def test_counts(self):
        g = make_graph([(0, 1), (1, 2)])
        assert g.num_tasks == 3
        assert g.num_edges == 2

    def test_self_edge_ignored(self):
        g = make_graph([], n=1)
        g.add_edge(0, 0)
        assert g.num_edges == 0

    def test_predecessors_successors(self):
        g = make_graph([(0, 2), (1, 2), (2, 3)])
        assert set(g.predecessors(2)) == {0, 1}
        assert g.successors(2) == [3]

    def test_acyclic_detection(self):
        assert make_graph([(0, 1), (1, 2)]).is_acyclic()
        g = make_graph([(0, 1), (1, 2)])
        g.edges.add((2, 0))
        assert not g.is_acyclic()

    def test_topological_order_raises_on_cycle(self):
        g = make_graph([(0, 1)])
        g.edges.add((1, 0))
        with pytest.raises(ValueError):
            g.topological_order()

    def test_validate_insertion_order(self):
        g = make_graph([(0, 1)])
        g.validate_insertion_order()
        g.edges.add((3, 1))
        with pytest.raises(ValueError):
            g.validate_insertion_order()


class TestMetrics:
    def test_total_flops_and_by_kind(self):
        g = TaskGraph()
        g.add_task(Task(tid=0, name="a", kind="POTRF", flops=10))
        g.add_task(Task(tid=1, name="b", kind="GEMM", flops=5))
        g.add_task(Task(tid=2, name="c", kind="GEMM", flops=7))
        assert g.total_flops() == 22
        assert g.flops_by_kind() == {"POTRF": 10, "GEMM": 12}

    def test_critical_path_chain(self):
        g = make_graph([(0, 1), (1, 2)], flops={0: 3, 1: 4, 2: 5})
        assert g.critical_path_flops() == 12

    def test_critical_path_diamond(self):
        g = make_graph([(0, 1), (0, 2), (1, 3), (2, 3)], flops={0: 1, 1: 10, 2: 2, 3: 1})
        assert g.critical_path_flops() == 12

    def test_critical_path_independent_tasks(self):
        g = make_graph([], n=3, flops={0: 5, 1: 7, 2: 3})
        assert g.critical_path_flops() == 7

    def test_critical_path_priorities_chain(self):
        """Priority = flops-weighted distance to the sink (plus 1 per task)."""
        g = make_graph([(0, 1), (1, 2)], flops={0: 3, 1: 4, 2: 5})
        prio = g.critical_path_priorities()
        assert prio[2] == 6.0          # 5 + 1
        assert prio[1] == 11.0         # 4 + 1 + prio[2]
        assert prio[0] == 15.0         # 3 + 1 + prio[1]

    def test_critical_path_priorities_prefer_heavy_branch(self):
        g = make_graph([(0, 1), (0, 2)], flops={0: 1, 1: 100, 2: 2})
        prio = g.critical_path_priorities()
        assert prio[1] > prio[2]
        assert prio[0] == prio[1] + 2.0

    def test_critical_path_priorities_zero_flop_tasks_accumulate_depth(self):
        g = make_graph([(0, 1), (1, 2)], flops={0: 0, 1: 0, 2: 0})
        prio = g.critical_path_priorities()
        assert prio[0] > prio[1] > prio[2] > 0

    def test_tasks_by_phase(self):
        g = make_graph([(0, 1)], phases={0: 0, 1: 1})
        phases = g.tasks_by_phase()
        assert len(phases[0]) == 1 and len(phases[1]) == 1

    def test_communication_bytes(self):
        g = TaskGraph()
        h_local = DataHandle("l", nbytes=100, owner=0)
        h_remote = DataHandle("r", nbytes=50, owner=1)
        from repro.runtime.task import AccessMode, TaskAccess

        t0 = Task(tid=0, name="p", kind="X", accesses=[TaskAccess(h_local, AccessMode.WRITE)])
        t1 = Task(tid=1, name="c", kind="X", accesses=[TaskAccess(h_remote, AccessMode.WRITE)])
        g.add_task(t0)
        g.add_task(t1)
        g.add_edge(0, 1, h_local)
        assert g.communication_bytes() == 100.0

    def test_to_networkx(self):
        g = make_graph([(0, 1), (1, 2)])
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 2

    def test_edge_data_deduplicated(self):
        g = make_graph([], n=2)
        h = DataHandle("h", nbytes=8)
        g.add_edge(0, 1, h)
        g.add_edge(0, 1, h)
        assert len(g.edge_data[(0, 1)]) == 1


class TestMemoisedStructure:
    """Adjacency, priorities and the drainability verdict are computed once
    per graph state, so re-executing a recorded graph recomputes none."""

    def test_repeated_queries_return_the_same_objects(self):
        g = make_graph([(0, 1), (1, 2)])
        assert g.adjacency() is g.adjacency()
        assert g.critical_path_priorities() is g.critical_path_priorities()

    def test_drainability_is_checked_once(self, monkeypatch):
        g = make_graph([(0, 1), (1, 2)])
        calls = []
        real = g._drained_count
        monkeypatch.setattr(g, "_drained_count", lambda: calls.append(1) or real())
        g.validate_drainable()
        g.validate_drainable()
        assert len(calls) == 1

    def test_growth_invalidates(self):
        g = make_graph([(0, 1)])
        succ, _ = g.adjacency()
        prio = g.critical_path_priorities()
        g.validate_drainable()
        g.add_task(Task(tid=2, name="t2", kind="X", flops=5.0))
        g.add_edge(1, 2)
        assert g.adjacency()[0] == {0: [1], 1: [2]} and succ == {0: [1]}
        assert g.critical_path_priorities()[0] == prio[0] + 6.0
        g.edges.add((2, 0))  # even a cycle added behind the graph's back is seen
        with pytest.raises(ValueError, match="cycle"):
            g.validate_drainable()

    def test_a_failed_verdict_is_not_remembered_as_passing(self):
        g = make_graph([(0, 1), (1, 0)])
        for _ in range(2):
            with pytest.raises(ValueError, match="cycle"):
                g.validate_drainable()

    def test_explicit_successor_map_is_honoured(self):
        g = make_graph([(0, 1), (1, 2)])
        assert g.critical_path_priorities({})[0] == 2.0  # no successors known
        assert g.critical_path_priorities()[0] == 6.0
