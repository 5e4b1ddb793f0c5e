"""Compare two result files of ``run.py``: one row per (metric, workload).

    python3 bench/compare.py A.json B.json

A is the base (the parent commit, or the first set of a repeat check), B the
candidate.  Each row gives both medians with their quartiles, the ratio B/A,
the bound BENCHMARK.json fixes for the metric, and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread (quartile distance over median, the
                wider of the two sides) exceeds the bound, so a difference
                of the bound's size cannot be told from noise
``improved``    B is better than A by more than A's own quartile distance
``unchanged``   none of the above

Per-layer metrics have no bound; their rows are informational (``layer``).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from common import load_spec, median, quartiles


def collect(doc: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over every run of a result document."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in doc["runs"]:
        for name, cell in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(cell["value"])
    return out


def side(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = quartiles(values)
    med = median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_vals, b_vals = collect(doc_a), collect(doc_b)
    rows = []
    for key in sorted(set(a_vals) & set(b_vals)):
        workload, name = key
        meta = declared.get(name, {"unit": "", "better": "lower"})
        a, b = side(a_vals[key]), side(b_vals[key])
        base = a["median"]
        ratio = b["median"] / base if base else float("nan")
        change = (b["median"] - base) / abs(base) if base else 0.0
        worse = change if meta["better"] == "lower" else -change
        spread = max(a["spread"], b["spread"])
        bound = meta.get("bound")
        if bound is None:
            verdict = "layer"
        elif worse > bound and worse > spread:
            verdict = "regressed"
        elif spread > bound:
            verdict = "unresolved"
        elif -worse > a["spread"] and worse < 0:
            verdict = "improved"
        else:
            verdict = "unchanged"
        rows.append({"workload": workload, "metric": name, "unit": meta["unit"],
                     "a": a, "b": b, "ratio": ratio, "bound": bound,
                     "spread": spread, "verdict": verdict})
    return rows


def inexact_counts(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Count-valued rows (tasks, messages, bytes, entries) that did not repeat exactly."""
    return [
        r for r in rows
        if r["unit"] in ("count", "bytes")
        and not (r["a"]["q1"] == r["a"]["q3"] == r["b"]["q1"] == r["b"]["q3"])
    ]


def render(rows: List[Dict[str, Any]]) -> str:
    head = (f"{'workload':<20} {'metric':<30} {'A median [q1, q3]':<38} "
            f"{'B median [q1, q3]':<38} {'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        def cell(s: Dict[str, float]) -> str:
            return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"

        bound = f"{r['bound'] * 100:.0f}%" if r["bound"] is not None else "-"
        lines.append(
            f"{r['workload']:<20} {r['metric']:<30} {cell(r['a']):<38} {cell(r['b']):<38} "
            f"{r['ratio']:>7.3f} {bound:>6} {r['spread'] * 100:>6.1f}%  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows = compare(docs[0], docs[1], load_spec())
    print(f"base A: {argv[0]} (git {docs[0]['stamp']['git_sha'][:12]})")
    print(f"cand B: {argv[1]} (git {docs[1]['stamp']['git_sha'][:12]})")
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
