"""Helpers shared by the benchmark modules: the scale switch and table printing."""

from __future__ import annotations

import os

__all__ = ["full_scale", "print_table"]


def full_scale() -> bool:
    """True when the user asked for paper-scale runs (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false", "False")


def print_table(title: str, body: str) -> None:
    """Print a benchmark table so it appears in the pytest output (-s or summary)."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    print(body)
