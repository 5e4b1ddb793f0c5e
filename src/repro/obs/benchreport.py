"""Render ``BENCH_runtime.json`` into a human-readable trajectory report.

The ``repro benchreport`` command: turns the machine-readable benchmark
artifact the suite accumulates (``benchmarks/bench_utils.record_bench``)
into a markdown (or self-contained HTML) report with per-row unicode
sparklines of the timing samples and regression deltas against a baseline
artifact -- the same row matching and tolerance semantics as the CI gate
(:mod:`repro.obs.trajectory`), so the report and the gate can never
disagree about what regressed.

Usage::

    python -m repro benchreport                          # committed artifact
    python -m repro benchreport /tmp/bench-current.json --baseline \
        benchmarks/BENCH_runtime.json --html report.html
"""

from __future__ import annotations

import argparse
import html as _html
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.trajectory import (
    load_artifact,
    machine_stamp,
    speedup_rows,
)

__all__ = ["sparkline", "render_markdown", "render_html", "main"]

_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[Any]) -> str:
    """A min-max-scaled unicode sparkline of a numeric sample list."""
    vals = [float(v) for v in values if isinstance(v, (int, float))]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _BARS[0] * len(vals)
    scale = (len(_BARS) - 1) / (hi - lo)
    return "".join(_BARS[int((v - lo) * scale)] for v in vals)


def _fmt_seconds(value: Any) -> str:
    return f"{value:.4f}" if isinstance(value, (int, float)) else "-"


def _fmt_delta(cur: float, base: Optional[float]) -> str:
    if base is None or base <= 0:
        return "-"
    return f"{(cur - base) / base * 100:+.0f}%"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _stamp_line(section: Mapping[str, Any]) -> str:
    stamp = machine_stamp(section)
    if not stamp:
        return ""
    parts = []
    if stamp.get("git_sha"):
        parts.append(f"git `{stamp['git_sha']}`")
    if stamp.get("hostname"):
        parts.append(f"host `{stamp['hostname']}`")
    if stamp.get("cpu_count") is not None:
        parts.append(f"{stamp['cpu_count']} cpu(s)")
    if stamp.get("recorded_at"):
        parts.append(f"recorded {stamp['recorded_at']}")
    return "*" + ", ".join(parts) + "*" if parts else ""


def _compress_section(
    out: List[str], current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> None:
    section = current.get("compress_scaling")
    if not isinstance(section, dict):
        return
    base_section = baseline.get("compress_scaling")
    base_rows: Dict[Any, float] = {}
    if isinstance(base_section, dict):
        base_rows = {key: s for key, s, _n in speedup_rows(base_section)}
    out.append("## Compression scaling")
    stamp = _stamp_line(section)
    if stamp:
        out.append(stamp)
    out.append("")
    rows: List[List[str]] = []
    n_default = section.get("n", 0)
    for row in section.get("rows", ()):
        key = (row.get("format"), row.get("backend"), bool(row.get("fusion", False)))
        speedup = row.get("speedup")
        rows.append([
            str(row.get("format", "-")),
            str(row.get("backend", "-")),
            "on" if row.get("fusion") else "off",
            str(row.get("n", n_default)),
            _fmt_seconds(row.get("sequential_seconds")),
            _fmt_seconds(row.get("wall_seconds")),
            f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else "-",
            sparkline(row.get("wall_samples", ())) or "-",
            _fmt_delta(speedup, base_rows.get(key))
            if isinstance(speedup, (int, float)) else "-",
        ])
    out.extend(_table(
        ["format", "backend", "fusion", "n", "sequential s", "parallel s",
         "speedup", "samples", "vs baseline"],
        rows,
    ))
    out.append("")


def render_markdown(
    current: Mapping[str, Any], baseline: Optional[Mapping[str, Any]] = None
) -> str:
    """The benchmark artifact as a markdown report (sparklines + deltas)."""
    baseline = baseline or {}
    out: List[str] = ["# Benchmark trajectory report", ""]
    _compress_section(out, current, baseline)
    other = sorted(set(current) - {"compress_scaling"})
    if other:
        out.append("## Other recorded sections")
        out.append("")
        out.append(", ".join(f"`{name}`" for name in other))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def render_html(
    current: Mapping[str, Any], baseline: Optional[Mapping[str, Any]] = None
) -> str:
    """Self-contained HTML version of :func:`render_markdown` (no deps)."""
    body: List[str] = []
    in_table = False
    for line in render_markdown(current, baseline).splitlines():
        is_row = line.startswith("|")
        if in_table and not is_row:
            body.append("</table>")
            in_table = False
        if line.startswith("# "):
            body.append(f"<h1>{_html.escape(line[2:])}</h1>")
        elif line.startswith("## "):
            body.append(f"<h2>{_html.escape(line[3:])}</h2>")
        elif is_row:
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-"} for c in cells):
                continue  # the markdown separator row
            tag = "td" if in_table else "th"
            if not in_table:
                body.append("<table>")
                in_table = True
            body.append(
                "<tr>" + "".join(
                    f"<{tag}>{_html.escape(c)}</{tag}>" for c in cells
                ) + "</tr>"
            )
        elif line.strip():
            body.append(f"<p>{_html.escape(line)}</p>")
    if in_table:
        body.append("</table>")
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        "<title>Benchmark trajectory report</title><style>"
        "body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:0.25em 0.6em;text-align:right}"
        "th{background:#eee}</style></head><body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )


def _default_artifact() -> Path:
    return Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_runtime.json"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro benchreport",
        description="Render BENCH_runtime.json into a markdown/HTML report.",
    )
    parser.add_argument(
        "artifact", nargs="?", type=Path, default=_default_artifact(),
        help="benchmark artifact to render (default: the committed one)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline artifact for regression deltas (default: the committed "
        "artifact when rendering another one, else no deltas)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the markdown here instead of stdout",
    )
    parser.add_argument(
        "--html", type=Path, default=None, help="additionally write HTML here"
    )
    args = parser.parse_args(argv)
    current = load_artifact(args.artifact)
    baseline_path = args.baseline
    if baseline_path is None and args.artifact.resolve() != _default_artifact():
        baseline_path = _default_artifact()
    baseline = (
        load_artifact(baseline_path)
        if baseline_path is not None and Path(baseline_path).exists()
        else None
    )
    markdown = render_markdown(current, baseline)
    if args.output is not None:
        args.output.write_text(markdown, encoding="utf-8")
    else:
        print(markdown, end="")
    if args.html is not None:
        args.html.write_text(render_html(current, baseline), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
