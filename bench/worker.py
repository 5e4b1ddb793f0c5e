"""One workload, one pass, in a fresh process (started by ``run.py``).

Prints one JSON object as the last line of its standard output.  Threads are
pinned before numpy is imported; ``repro`` comes from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import OUT, pin_threads, use_source_tree

pin_threads()
use_source_tree()


def layer_ms_from_server_trace(path: str, t_lo_us: float, t_hi_us: float, ops: int):
    """Per-layer self time (ms per request) of the server's spans in the timed window."""
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)
    layers = {}
    for ev in events:
        if ev.get("ph") == "X" and t_lo_us <= ev["ts"] <= t_hi_us:
            layers[ev["cat"]] = layers.get(ev["cat"], 0.0) + ev["args"]["self_us"] / 1e3 / ops
    return layers, events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, help="JSON size table of this run")
    parser.add_argument("--probe-size", default=None, help="JSON size table of the probes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t-spawn", type=float, default=None)
    args = parser.parse_args(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else time.time()
    size = json.loads(args.size)

    import direct
    import serving
    from spans import SpanRecorder

    serve = args.workload.startswith("serve_")
    if not args.trace:
        module = serving if serve else direct
        result = module.run(args.workload, args.seed, size, t_spawn=t_spawn,
                            setup_only=args.setup_only)
        print(json.dumps(result))
        return 0

    # -- traced pass: probes first (no wrappers installed yet), then spans --
    import probes

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = str(OUT / f"trace-{args.workload}.json")
    layer = probes.run_probes(json.loads(args.probe_size), args.seed)
    rec = SpanRecorder()
    if serve:
        # A shorter window, once against the plain server and once against
        # the wrapped one: their latency ratio is the tracing overhead.
        short = dict(size, rounds=2, cold_keys=1, warmup=min(10, size["warmup"]))
        requests = short["rounds"] * short["per_round"]
        plain = serving.run(args.workload, args.seed, short, t_spawn=t_spawn, setup_only=False)
        result = serving.run(args.workload, args.seed, short, t_spawn=time.time(),
                             setup_only=False, rec=rec, trace_path=trace_path)
        # Client spans give the window; the server's spans inside it give the layers.
        lo = min(s.start for s in rec.spans) * 1e6
        hi = max(s.end for s in rec.spans) * 1e6
        layers, server_events = layer_ms_from_server_trace(
            result["server_trace"], lo, hi, requests)
        selfs = rec.self_times()
        layers["client"] = (sum(selfs[s.sid] for s in rec.spans if s.layer == "client")
                            * 1e3 / requests)
        for ev in server_events:
            ev["pid"] = 1
        rec.write_chrome_json(trace_path, extra=server_events)
        os.unlink(result.pop("server_trace"))  # merged into the one trace file
        closure = rec.operation_closure()
        layer.update(result.pop("in_situ"))
        gap = max((abs(t - d) / d for d, t in closure if d > 0), default=0.0)
        layer["bench.trace_closure_gap"] = gap
        result["attempted"] += 1
        if gap > 0.05:
            result["failed"] += 1
            result["failures"].append(f"trace self times miss the operation time by {gap:.1%}")
        layer["bench.span_overhead_fraction"] = (
            result["metrics"]["latency_p50_ms"] / plain["metrics"]["latency_p50_ms"] - 1.0)
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["failures"] = plain["failures"] + result["failures"]
        del result["metrics"]
    else:
        traced = direct.run_traced(args.workload, args.seed, size, rec, trace_path)
        layers = traced.pop("layer_self_ms")
        layer["bench.span_overhead_fraction"] = traced["span_overhead_fraction"]
        layer["bench.trace_closure_gap"] = traced["trace_closure_gap"]
        layer["loadgen.cpu_share"] = traced["cpu_share"]
        for name in serving.SERVING_LAYER_METRICS:
            layer[name] = 0.0  # no server on this workload's path
        result = {"attempted": traced["attempted"], "failed": traced["failed"],
                  "failures": traced["failures"], "info": {"spans": traced["spans"]}}
    from spans import LAYERS

    for name in LAYERS:
        if name != "op":
            layer[f"self_ms.{name}"] = layers.get(name, 0.0)
    result["metrics"] = layer
    result["trace_file"] = trace_path
    result.setdefault("setup_s", 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
