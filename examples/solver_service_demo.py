#!/usr/bin/env python3
"""SolverService demo: factorize once, serve many right-hand sides.

Simulates a small serving workload: a stream of solve requests against two
different kernel problems arrives in batches.  The service factorizes each
problem once (LRU-cached), stacks the queued right-hand sides into blocked
multi-RHS panels, and executes them as task-graph solves on the thread-pool
backend -- reporting cache behaviour and solves/sec at the end.

Run:  python examples/solver_service_demo.py [N]
"""

import sys
import time

import numpy as np

from repro.service import FactorKey, SolverService


def main(n: int = 1024) -> None:
    rng = np.random.default_rng(0)
    service = SolverService(backend="parallel", n_workers=4, panel_size=8)

    problems = {
        "yukawa": dict(kernel="yukawa", n=n, leaf_size=128, max_rank=40),
        "matern": dict(kernel="matern", n=n, leaf_size=128, max_rank=40),
    }

    print(f"Serving 4 batches x 8 requests against {len(problems)} cached problems (N={n})")
    t0 = time.perf_counter()
    resolved = []  # (problem name, rhs, ticket)
    for batch in range(4):
        for _ in range(8):
            name = "yukawa" if rng.random() < 0.5 else "matern"
            b = rng.standard_normal(n)
            resolved.append((name, b, service.submit(b, **problems[name])))
        service.flush()
        print(
            f"  batch {batch}: queue drained "
            f"(cache: {service.stats.cache_hits} hits / {service.stats.cache_misses} misses, "
            f"{service.stats.batches} batched graph solves so far)"
        )
    wall = time.perf_counter() - t0

    stats = service.stats
    print()
    print(f"  requests             {stats.requests}")
    print(f"  batched graph solves {stats.batches}")
    print(f"  factorizations       {stats.cache_misses} (cached thereafter)")
    print(f"  factor time          {stats.factor_seconds:.3f} s (amortized)")
    print(f"  solve time           {stats.solve_seconds:.3f} s "
          f"({stats.solves_per_sec:.1f} solves/s)")
    print(f"  end-to-end wall      {wall:.3f} s")

    # Accuracy spot check: residual of every served solution against the
    # compressed operator it was solved with.
    worst = 0.0
    for name, b, ticket in resolved:
        spec = problems[name]
        solver = service.solver_for(
            FactorKey.make(
                spec["kernel"], spec["n"],
                leaf_size=spec["leaf_size"], max_rank=spec["max_rank"],
            )
        )
        residual = np.linalg.norm(solver.matvec(ticket.result) - b) / np.linalg.norm(b)
        worst = max(worst, residual)
    print(f"  worst residual       {worst:.3e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1024)
