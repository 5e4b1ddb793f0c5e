#!/usr/bin/env python3
"""Quickstart: compress, factorize and solve a Green's-function system.

Builds the paper's Yukawa kernel matrix on a uniform 2D grid, compresses it
into an HSS matrix, factorizes it with the HSS-ULV algorithm (the paper's core
contribution) and solves a linear system -- then reports the construction and
solve errors of Eq. 18/19.

The factorization can also run through the DTD task runtime: pass
``use_runtime="parallel"`` to :meth:`StructuredSolver.factorize` (or ``--runtime
parallel`` on the ``python -m repro solve`` CLI) to execute the recorded task
graph out-of-order on a thread pool -- the factors are bit-identical.

Run:  python examples/quickstart.py [N]
"""

import sys
import time

import numpy as np

from repro.api import StructuredSolver


def main(n: int = 4096) -> None:
    print(f"Building Yukawa kernel problem with N={n} (uniform 2D grid)...")
    t0 = time.perf_counter()
    solver = StructuredSolver.from_kernel("yukawa", n=n, leaf_size=256, max_rank=64)
    t_build = time.perf_counter() - t0
    print(f"  HSS construction: {t_build:.3f}s   "
          f"(levels={solver.matrix.max_level}, max rank={solver.matrix.max_rank()}, "
          f"memory={solver.matrix.memory_bytes() / 1e6:.1f} MB)")

    t0 = time.perf_counter()
    factor = solver.factorize()
    t_factor = time.perf_counter() - t0
    print(f"  HSS-ULV factorization: {t_factor:.3f}s "
          f"({factor.factor_flops() / 1e9:.2f} GFlop)")

    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    t0 = time.perf_counter()
    x = solver.solve(b)
    t_solve = time.perf_counter() - t0
    print(f"  ULV solve: {t_solve * 1e3:.1f} ms")

    print()
    print(f"  construction error (Eq. 18): {solver.construction_error():.3e}")
    print(f"  solve error        (Eq. 19): {solver.solve_error():.3e}")
    print(f"  residual ||A x - b|| / ||b||: "
          f"{np.linalg.norm(solver.kernel_matrix.matvec(x) - b) / np.linalg.norm(b):.3e}")
    print(f"  log det(A) = {solver.logdet():.4f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4096)
