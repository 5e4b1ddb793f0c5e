"""Guard the recorded speedup trajectory against regressions.

Thin CLI over :mod:`repro.obs.trajectory`: compares a freshly measured
benchmark artifact (written by the benchmark suite under
``REPRO_BENCH_JSON``) against the committed ``benchmarks/BENCH_runtime.json``
and fails when a parallel/process compression speedup
(``compress_scaling`` rows) regressed past the tolerance, or when the
zero-copy data plane's wire-byte savings over the pickle plane
(``distributed_weak_scaling`` per-plane rows) drop below
``--min-comm-savings``.  Factorize/solve timings, serving throughput and
observability overhead are measured by ``bench/``, not gated here.  Used
by the ``speedup-smoke`` / ``distributed-smoke`` CI jobs::

    REPRO_BENCH_JSON=/tmp/bench-current.json PYTHONPATH=src \
        python -m pytest benchmarks/test_compress_scaling.py -q
    python benchmarks/check_speedup_trajectory.py /tmp/bench-current.json

See the trajectory module for the matching and tolerance semantics (rows
match on section/format/backend/fusion; same-size same-core-count rows gate
at ``--tolerance``, anything cross-size or cross-machine at the lenient
``--cross-size-tolerance``; machine stamps are read backfill-tolerantly).
Failures print a readable diff of every offending row before the non-zero
exit.

The committed baseline itself is validated on every run (raw-sample
spreads within ``--max-sample-spread``): a disturbed run committed as the baseline fails
every gate run loudly instead of silently lowering the floors.  Before
*replacing* ``benchmarks/BENCH_runtime.json`` with a freshly recorded
artifact, validate the refresh::

    python benchmarks/check_speedup_trajectory.py --refresh /tmp/bench-new.json

which additionally requires parity or better (``--refresh-tolerance``,
default 0.9 of every stored gated value on the same machine class) so a
slower-but-committed run can never ratchet the regression floors looser.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Runnable without PYTHONPATH=src (the CI jobs invoke it bare).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.trajectory import (  # noqa: E402
    GATED_BACKENDS,
    SECTIONS,
    check_refresh,
    check_trajectory,
)

__all__ = ["SECTIONS", "GATED_BACKENDS", "main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly measured benchmark JSON")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent / "BENCH_runtime.json",
        help="committed trajectory to compare against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="fraction of the stored speedup a same-size row must reach",
    )
    parser.add_argument(
        "--cross-size-tolerance",
        type=float,
        default=0.25,
        help="fraction required when the stored row measured a different n "
        "or a different core count",
    )
    parser.add_argument(
        "--min-comm-savings",
        type=float,
        default=10.0,
        help="floor on the zero-copy data plane's physical-byte savings "
        "factor over the pickle plane (distributed_weak_scaling rows)",
    )
    parser.add_argument(
        "--max-sample-spread",
        type=float,
        default=2.0,
        help="largest tolerated max/min spread of any raw *_samples list "
        "(hard failure for the committed baseline and --refresh candidates, "
        "warning for fresh measurements)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="validate CURRENT as a proposed replacement for the committed "
        "baseline instead of gating it: the candidate must be baseline-clean "
        "and at parity or better with the stored trajectory",
    )
    parser.add_argument(
        "--refresh-tolerance",
        type=float,
        default=0.9,
        help="with --refresh: fraction of every stored gated value a "
        "same-machine-class candidate row must reach",
    )
    args = parser.parse_args(argv)
    if args.refresh:
        result = check_refresh(
            args.current,
            args.baseline,
            refresh_tolerance=args.refresh_tolerance,
            cross_size_tolerance=args.cross_size_tolerance,
            min_comm_savings=args.min_comm_savings,
            max_sample_spread=args.max_sample_spread,
        )
    else:
        result = check_trajectory(
            args.current,
            args.baseline,
            tolerance=args.tolerance,
            cross_size_tolerance=args.cross_size_tolerance,
            min_comm_savings=args.min_comm_savings,
            max_sample_spread=args.max_sample_spread,
        )
    for line in result.lines:
        print(line)
    print()
    print(result.summary())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
