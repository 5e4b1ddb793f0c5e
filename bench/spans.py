"""The benchmark's own in-memory span recorder.

Spans are recorded from *outside* the program: :func:`install` replaces the
public functions at each layer boundary of ``repro`` with timing wrappers,
in every ``repro`` module that holds a reference to them, and only for the
traced pass.  A span is ``(name, layer, start, end, parent, operation id,
thread)``; spans stay in memory and are written once, as Chrome trace-event
JSON, when the pass ends.  A span's *self time* is its duration minus the
part of that interval covered by its children.

The recorder never runs in the untraced pass, which is where every
end-to-end number comes from.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "SpanRecorder", "install", "LAYERS"]

#: Layer names (= ``repro`` sub-package names, plus the benchmark's own
#: ``op``/``client`` spans), in the order reports list them.
LAYERS = (
    "op", "api", "kernels", "lowrank", "formats", "compress", "core",
    "pipeline", "runtime", "service", "client",
)


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op", "tid")

    def __init__(self, sid: int, name: str, layer: str, start: float,
                 parent: Optional[int], op: Optional[int], tid: int) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanContext:
    __slots__ = ("rec", "span", "prev_op")

    def __init__(self, rec: "SpanRecorder", span: Optional[Span], prev_op) -> None:
        self.rec = rec
        self.span = span
        self.prev_op = prev_op

    def __enter__(self) -> Optional[Span]:
        return self.span

    def __exit__(self, *exc: Any) -> None:
        if self.span is not None:
            self.span.end = time.perf_counter()
            stack = self.rec._local.stack
            stack.pop()
            self.rec._local.op = self.prev_op


class SpanRecorder:
    """Thread-aware span store; off until :attr:`enabled` is set.

    The parent of a span is the innermost open span *on the same thread*;
    task bodies that run on executor threads therefore start their own
    trees, and forked worker processes (other pid) record nothing.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._next_op = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
        return local

    def span(self, name: str, layer: str, *, new_op: bool = False) -> _SpanContext:
        """Context manager recording one span (a no-op while disabled)."""
        if not self.enabled or os.getpid() != self._pid:
            return _SpanContext(self, None, None)
        local = self._state()
        prev_op = local.op
        with self._lock:
            if new_op:
                self._next_op += 1
                local.op = self._next_op
            parent = local.stack[-1].sid if local.stack else None
            span = Span(len(self.spans), name, layer, 0.0, parent, local.op,
                        threading.get_ident())
            self.spans.append(span)
        local.stack.append(span)
        span.start = span.end = time.perf_counter()
        return _SpanContext(self, span, prev_op)

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        """A wrapper of ``func`` that records one span per call."""
        rec = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any):
            if not rec.enabled:
                return func(*args, **kwargs)
            with rec.span(name, layer):
                return func(*args, **kwargs)

        traced.__bench_wrapped__ = func
        return traced

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """``span id -> self time`` (duration minus the union of its children)."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
                lo, hi = max(child.start, edge), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[span.sid] = span.duration - covered
        return out

    def operation_closure(self) -> List[Tuple[float, float]]:
        """Per operation span: ``(duration, sum of self times in its tree)``.

        The two agree when the recorder's parent links and clocks are sound;
        the runner reports the worst relative gap.
        """
        selfs = self.self_times()
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent, []).append(span)
        out = []
        for root in self.spans:
            if root.layer != "op" or root.parent is not None:
                continue
            total, todo = 0.0, [root]
            while todo:
                span = todo.pop()
                total += selfs[span.sid]
                todo.extend(by_parent.get(span.sid, ()))
            out.append((root.duration, total))
        return out

    # -- export ----------------------------------------------------------------
    def to_chrome_events(self, pid: int = 0) -> List[Dict[str, Any]]:
        """Trace-event dicts; ``ts`` is the raw ``perf_counter`` clock in us.

        The clock is CLOCK_MONOTONIC, shared by every process of the
        machine, so the client's and the server's events merge as they are.
        """
        selfs = self.self_times()
        tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in self.spans))}
        events: List[Dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": i,
             "args": {"name": "main" if i == 0 else f"thread-{i}"}}
            for i in tids.values()
        ]
        for span in self.spans:
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X", "pid": pid,
                "tid": tids[span.tid],
                "ts": span.start * 1e6, "dur": span.duration * 1e6,
                "args": {"id": span.sid, "parent": span.parent, "op": span.op,
                         "self_us": selfs[span.sid] * 1e6},
            })
        return events

    def write_chrome_json(self, path: str, *, pid: int = 0,
                          extra: Iterable[Dict[str, Any]] = ()) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_events(pid) + list(extra), fh)
        return path


def _replace_everywhere(original: Any, wrapper: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``.

    ``from x import f`` copies the reference into the importing module, so
    patching the defining module alone would miss those call sites.
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_functions(rec: SpanRecorder, layer: str, module: Any, names: Iterable[str]) -> None:
    for name in names:
        func = getattr(module, name)
        if hasattr(func, "__bench_wrapped__"):
            continue
        _replace_everywhere(func, rec.wrap(func, f"{layer}.{name}", layer))


def _wrap_method(rec: SpanRecorder, cls: Any, method: str, name: str, layer) -> None:
    func = cls.__dict__[method]
    if hasattr(func, "__bench_wrapped__"):
        return
    if callable(layer):
        # The layer depends on the instance (compress builders subclass the
        # pipeline scaffold): resolve it per call.
        pick = layer

        @functools.wraps(func)
        def traced(self, *args: Any, **kwargs: Any):
            if not rec.enabled:
                return func(self, *args, **kwargs)
            lay = pick(self)
            with rec.span(f"{lay}.{name}", lay):
                return func(self, *args, **kwargs)

        traced.__bench_wrapped__ = func
        setattr(cls, method, traced)
    else:
        setattr(cls, method, rec.wrap(func, f"{layer}.{name}", layer))


def install(rec: SpanRecorder) -> None:
    """Wrap the public calls into each layer (idempotent; traced pass only)."""
    import repro.api as api
    # The compress modules are imported only to be loaded: _replace_everywhere
    # patches the references they hold to the functions wrapped below.
    import repro.compress.blr2
    import repro.compress.hodlr
    import repro.compress.hss
    import repro.core.blr2_ulv as blr2_ulv
    import repro.core.hodlr_ulv as hodlr_ulv
    import repro.core.hss_ulv as hss_ulv
    import repro.core.leaf_ulv as leaf_ulv
    import repro.formats.blr2 as f_blr2
    import repro.formats.hodlr as f_hodlr
    import repro.formats.hss as f_hss
    import repro.lowrank.interpolative as lr_id
    import repro.lowrank.qr as lr_qr
    import repro.lowrank.svd as lr_svd
    import repro.pipeline.solve as p_solve
    from repro.kernels.assembly import KernelMatrix
    from repro.pipeline.builder import GraphBuilder
    from repro.pipeline.policy import ExecutionPolicy
    from repro.runtime.dtd import DTDRuntime
    from repro.service.solver_service import SolverService

    _wrap_method(rec, KernelMatrix, "block", "block", "kernels")
    _wrap_functions(rec, "lowrank", lr_id, ["interpolative_rows"])
    _wrap_functions(rec, "lowrank", lr_svd, ["compress_svd", "truncated_svd"])
    _wrap_functions(rec, "lowrank", lr_qr, ["row_basis"])
    _wrap_functions(rec, "formats", f_hss, ["build_hss"])
    _wrap_functions(rec, "formats", f_blr2, ["build_blr2"])
    _wrap_functions(rec, "formats", f_hodlr, ["build_hodlr"])
    _wrap_functions(rec, "core", hss_ulv, ["hss_ulv_factorize"])
    _wrap_functions(rec, "core", blr2_ulv, ["blr2_ulv_factorize"])
    _wrap_functions(rec, "core", hodlr_ulv, ["hodlr_ulv_factorize"])
    for cls in (hss_ulv.HSSULVFactor, leaf_ulv.LeafULVSolveMixin):
        _wrap_method(rec, cls, "solve", "factor_solve", "core")

    def builder_layer(builder: Any) -> str:
        return "compress" if type(builder).__module__.startswith("repro.compress") else "pipeline"

    _wrap_method(rec, GraphBuilder, "record", "record", builder_layer)
    _wrap_functions(rec, "pipeline", p_solve, ["solve_through_builder"])
    _wrap_method(rec, ExecutionPolicy, "execute", "execute", "runtime")
    _wrap_method(rec, DTDRuntime, "fuse", "fuse", "runtime")
    _wrap_method(rec, SolverService, "solver_for", "solver_for", "service")
    _wrap_method(rec, SolverService, "flush", "flush", "service")
    for method in ("factorize", "solve"):
        _wrap_method(rec, api.StructuredSolver, method, method, "api")
