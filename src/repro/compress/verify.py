"""Structural bit-identity checks for compressed matrices.

The compression subsystem's contract is *bit*-identity with the sequential
``formats.build_*`` references -- not closeness in norm.  These helpers
compare two compressed matrices of the same format field by field
(``np.array_equal``, no tolerance) and report every mismatch, so the
randomized cross-backend harness and the scaling experiment share one
definition of "identical".
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

__all__ = ["compressed_mismatches", "compressed_identical", "assert_compressed_identical"]


def _cmp_array(label: str, a: Optional[np.ndarray], b: Optional[np.ndarray], out: List[str]) -> None:
    if a is None and b is None:
        return
    if (a is None) != (b is None):
        out.append(f"{label}: one side is None")
    elif not np.array_equal(np.asarray(a), np.asarray(b)):
        out.append(f"{label}: arrays differ")


def _hss_mismatches(a, b) -> List[str]:
    out: List[str] = []
    if set(a.nodes) != set(b.nodes):
        return [f"node keys differ: {sorted(set(a.nodes) ^ set(b.nodes))}"]
    for key in sorted(a.nodes):
        na, nb = a.nodes[key], b.nodes[key]
        if (na.start, na.stop, na.rank) != (nb.start, nb.stop, nb.rank):
            out.append(f"node {key}: range/rank differ")
        _cmp_array(f"node {key}.U", na.U, nb.U, out)
        _cmp_array(f"node {key}.D", na.D, nb.D, out)
        _cmp_array(f"node {key}.skeleton", na.skeleton, nb.skeleton, out)
    if set(a.couplings) != set(b.couplings):
        out.append(f"coupling keys differ: {sorted(set(a.couplings) ^ set(b.couplings))}")
    else:
        for key in sorted(a.couplings):
            _cmp_array(f"coupling {key}", a.couplings[key], b.couplings[key], out)
    return out


def _blr2_mismatches(a, b) -> List[str]:
    out: List[str] = []
    for name in ("diag", "bases", "couplings"):
        da, db = getattr(a, name), getattr(b, name)
        if set(da) != set(db):
            out.append(f"{name} keys differ: {sorted(set(da) ^ set(db))}")
            continue
        for key in sorted(da):
            _cmp_array(f"{name}[{key}]", da[key], db[key], out)
    return out


def _hodlr_mismatches(a, b) -> List[str]:
    out: List[str] = []
    # Pre-order walk, left subtree first, on an explicit stack.
    stack = [(a.root, b.root, "root")]
    while stack:
        na, nb, path = stack.pop()
        if na.is_leaf != nb.is_leaf:
            out.append(f"{path}: leaf/internal mismatch")
            continue
        if (na.start, na.stop) != (nb.start, nb.stop):
            out.append(f"{path}: index range differs")
        if na.is_leaf:
            _cmp_array(f"{path}.dense", na.dense, nb.dense, out)
            continue
        for part in ("upper", "lower"):
            blk_a, blk_b = getattr(na, part), getattr(nb, part)
            _cmp_array(f"{path}.{part}.U", blk_a.U, blk_b.U, out)
            _cmp_array(f"{path}.{part}.V", blk_a.V, blk_b.V, out)
        stack.append((na.right, nb.right, path + ".right"))
        stack.append((na.left, nb.left, path + ".left"))
    return out


_CHECKERS = {"hss": _hss_mismatches, "blr2": _blr2_mismatches, "hodlr": _hodlr_mismatches}


def compressed_mismatches(format_name: str, a: Any, b: Any) -> List[str]:
    """Every structural difference between two compressed matrices (empty = identical)."""
    try:
        checker = _CHECKERS[str(format_name).lower()]
    except KeyError:
        raise ValueError(
            f"no bit-identity checker for format {format_name!r}; "
            f"known formats: {sorted(_CHECKERS)}"
        ) from None
    return checker(a, b)


def compressed_identical(format_name: str, a: Any, b: Any) -> bool:
    """True when the two compressed matrices are bit-identical."""
    return not compressed_mismatches(format_name, a, b)


def assert_compressed_identical(format_name: str, a: Any, b: Any) -> None:
    """Raise :class:`AssertionError` listing every mismatching field."""
    mismatches = compressed_mismatches(format_name, a, b)
    if mismatches:
        preview = "\n  ".join(mismatches[:10])
        raise AssertionError(
            f"{format_name} matrices are not bit-identical "
            f"({len(mismatches)} mismatching fields):\n  {preview}"
        )
