"""The task DAG: dependency edges, topological checks, critical path.

This is the graph representation of Fig. 6 in the paper: nodes are tasks,
edges are data dependencies (a task cannot start before all predecessors have
finished and their data has been delivered).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

from repro.runtime.data import DataHandle
from repro.runtime.task import Task

__all__ = ["TaskGraph"]


@dataclass
class TaskGraph:
    """A directed acyclic graph of :class:`Task` nodes.

    Attributes
    ----------
    tasks:
        Tasks in insertion order (a valid topological order by construction of
        the DTD runtime).
    edges:
        Set of ``(producer_tid, consumer_tid)`` pairs.
    edge_data:
        Mapping from an edge to the handles carried along it (used to compute
        communication volume).
    """

    tasks: List[Task] = field(default_factory=list)
    edges: Set[Tuple[int, int]] = field(default_factory=set)
    edge_data: Dict[Tuple[int, int], List[DataHandle]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_tid: Dict[int, Task] = {t.tid: t for t in self.tasks}
        # Derived structure (adjacency, priorities, the drainability verdict)
        # memoised until the graph grows, so re-executing a recorded graph
        # recomputes none of it.
        self._memo: Dict[str, Any] = {}
        self._memo_stamp: Tuple[int, int] = (-1, -1)

    # -- construction -------------------------------------------------------
    def add_task(self, task: Task) -> None:
        self.tasks.append(task)
        self._by_tid[task.tid] = task

    def add_edge(self, src: int, dst: int, handle: DataHandle | None = None) -> None:
        if src == dst:
            return
        self.edges.add((src, dst))
        if handle is not None:
            self.edge_data.setdefault((src, dst), [])
            if handle not in self.edge_data[(src, dst)]:
                self.edge_data[(src, dst)].append(handle)

    # -- queries ------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def task(self, tid: int) -> Task:
        return self._by_tid[tid]

    def predecessors(self, tid: int) -> List[int]:
        return [s for (s, d) in self.edges if d == tid]

    def successors(self, tid: int) -> List[int]:
        return [d for (s, d) in self.edges if s == tid]

    def _memoised(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()`` once per graph state (tasks and edges are append-only)."""
        stamp = (len(self.tasks), len(self.edges))
        if stamp != self._memo_stamp:
            self._memo = {}
            self._memo_stamp = stamp
        if name not in self._memo:
            self._memo[name] = compute()
        return self._memo[name]

    def adjacency(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Return ``(successors, predecessors)`` adjacency maps.

        Memoised until a task or an edge is added; callers must treat the
        maps as read-only (tasks without successors/predecessors are absent,
        so look up with ``.get(tid, [])``).
        """
        return self._memoised("adjacency", self._build_adjacency)

    def _build_adjacency(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        succ: Dict[int, List[int]] = defaultdict(list)
        pred: Dict[int, List[int]] = defaultdict(list)
        for s, d in self.edges:
            succ[s].append(d)
            pred[d].append(s)
        return dict(succ), dict(pred)

    def _drained_count(self) -> int:
        """Number of tasks reachable by Kahn's algorithm (== num_tasks iff acyclic)."""
        succ, pred = self.adjacency()
        indeg = {t.tid: len(pred.get(t.tid, [])) for t in self.tasks}
        queue = deque([tid for tid, d in indeg.items() if d == 0])
        seen = 0
        while queue:
            tid = queue.popleft()
            seen += 1
            for nxt in succ.get(tid, []):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        return seen

    def is_acyclic(self) -> bool:
        """True if the graph has no cycles (Kahn's algorithm)."""
        return self._drained_count() == len(self.tasks)

    def topological_order(self) -> List[Task]:
        """Tasks in a topological order (insertion order is one by construction)."""
        if not self.is_acyclic():
            raise ValueError("task graph has a cycle")
        return list(self.tasks)

    def validate_insertion_order(self) -> None:
        """Check that every edge goes from an earlier to a later inserted task."""
        for s, d in self.edges:
            if s >= d:
                raise ValueError(f"edge ({s} -> {d}) violates insertion order")

    def validate_drainable(self) -> None:
        """Fail fast on graphs no scheduler could drain.

        Raises :class:`ValueError` when an edge references a task id that is
        not in the graph, or when the graph has a cycle -- either would leave
        an executor's workers blocked forever.  Shared by the thread-pool and
        the distributed executors; a passing verdict is memoised until the
        graph grows.
        """
        self._memoised("drainable", self._check_drainable)

    def _check_drainable(self) -> bool:
        known = {t.tid for t in self.tasks}
        for s, d in self.edges:
            if s not in known or d not in known:
                raise ValueError(f"edge ({s} -> {d}) references an unknown task")
        drained = self._drained_count()
        if drained != self.num_tasks:
            raise ValueError(
                f"task graph has a cycle ({self.num_tasks - drained} task(s) unreachable)"
            )
        return True

    # -- metrics ------------------------------------------------------------
    def total_flops(self) -> float:
        return float(sum(t.flops for t in self.tasks))

    def flops_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for t in self.tasks:
            out[t.kind] += t.flops
        return dict(out)

    def tasks_by_phase(self) -> Dict[int, List[Task]]:
        out: Dict[int, List[Task]] = defaultdict(list)
        for t in self.tasks:
            out[t.phase].append(t)
        return dict(out)

    def critical_path_flops(self) -> float:
        """Longest path through the DAG weighted by task flops.

        This is the inherent sequential bottleneck: no schedule on any number
        of workers can run faster than the critical path.
        """
        succ, pred = self.adjacency()
        longest: Dict[int, float] = {}
        for task in self.tasks:  # insertion order == topological order
            best_pred = max((longest.get(p, 0.0) for p in pred.get(task.tid, [])), default=0.0)
            longest[task.tid] = best_pred + task.flops
        return max(longest.values(), default=0.0)

    def critical_path_priorities(
        self, succ: Dict[int, List[int]] | None = None
    ) -> Dict[int, float]:
        """Per-task scheduling priority: flops-weighted distance to the sink.

        ``priority[tid]`` is the length of the longest path from ``tid`` to any
        sink of the DAG, weighted by task flops (plus one unit per task so that
        zero-flop tasks such as MERGE still accumulate depth).  A list
        scheduler that always picks the highest-priority ready task runs the
        critical path first, which minimises end-of-graph starvation -- this is
        the classic HLF/CP list-scheduling heuristic.

        ``succ`` may be a precomputed successors map; without one the result
        is memoised (with :meth:`adjacency`) until the graph grows, so treat
        it as read-only.
        """
        if succ is None:
            return self._memoised("priorities", lambda: self._priorities(self.adjacency()[0]))
        return self._priorities(succ)

    def _priorities(self, succ: Dict[int, List[int]]) -> Dict[int, float]:
        priority: Dict[int, float] = {}
        # Reverse insertion order is reverse topological for runtime-built
        # graphs; .get() keeps hand-built graphs with out-of-order edges from
        # crashing (their priorities are then merely approximate).
        for task in reversed(self.tasks):
            best_succ = max((priority.get(s, 0.0) for s in succ.get(task.tid, [])), default=0.0)
            priority[task.tid] = best_succ + task.flops + 1.0
        return priority

    def communication_bytes(self, same_process_free: bool = True) -> float:
        """Total bytes moved along edges whose endpoints live on different processes."""
        total = 0.0
        for (s, d), handles in self.edge_data.items():
            src_proc = self.task(s).owner_process()
            dst_proc = self.task(d).owner_process()
            if same_process_free and src_proc == dst_proc:
                continue
            total += float(sum(h.nbytes for h in handles))
        return total

    def __repr__(self) -> str:
        return f"TaskGraph(tasks={self.num_tasks}, edges={self.num_edges}, flops={self.total_flops():.3g})"
