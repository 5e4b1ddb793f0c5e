"""ULV factorization of a symmetric HODLR matrix through its exact HSS form.

HODLR carries an independent low-rank factorisation per off-diagonal block
and no nested bases, so Alg. 2 does not apply to it verbatim.  It does apply
to the same matrix written in HSS form, and that form is exact: restricted to
a cluster ``c``, the row factor of every strict ancestor ``g`` (``g.upper.U``
when ``c`` lies under ``g.left``, ``g.lower.U`` under ``g.right``) spans part
of the block row of ``c``, and the restrictions of all ancestors span all of
it.  :func:`hodlr_to_hss` orthonormalises those restrictions level by level:

* leaf ``i``: ``B_i`` = QR of the stacked factors ``G_i`` (nearest ancestor
  first); the coordinates ``P_i[g] = B_i^T F_g|_i`` are the matching columns
  of the QR's ``R``;
* interior ``c`` with children ``a``, ``b``: transfer ``E_c`` = QR of
  ``[P_a[g]; P_b[g]]`` stacked over the ancestors ``g`` of ``c``, and
  ``P_c[g] = E_c^T [P_a[g]; P_b[g]]``, again columns of ``R``;
* sibling coupling under ``p``: ``S_{2k+1,2k} = P_b[p] P_a[p]^T``.

Ranks are ``min(sum of ancestor ranks, block size)``; nothing is truncated.
A HODLR matrix then factorizes and solves with the HSS-ULV code
(:func:`~repro.core.hss_ulv.hss_ulv_factorize` and the HSS graph builders):
every dense step is one tree node's block, and no step factors a merged
skeleton system of all the leaves.

Requires a *symmetric* HODLR matrix (``lower == (upper.V, upper.U)`` per
node, as :func:`repro.formats.hodlr.build_hodlr` constructs) whose
approximation is positive definite.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize
from repro.formats.hodlr import HODLRMatrix, HODLRNode
from repro.formats.hss import HSSMatrix, HSSNode

__all__ = ["hodlr_to_hss", "hodlr_ulv_factorize"]


def _orthonormalise(stacked: List[np.ndarray], rows: int) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Reduced QR of the column stack ``[F_1, F_2, ...]``: ``Q`` and each ``F``'s block of ``R``."""
    if not stacked:
        return np.zeros((rows, 0)), []
    q, r = np.linalg.qr(np.hstack(stacked))
    bounds = np.cumsum([f.shape[1] for f in stacked])[:-1]
    return q, np.split(r, bounds, axis=1)


def _check_symmetric(node: HODLRNode) -> None:
    if not (
        np.array_equal(node.lower.U, node.upper.V) and np.array_equal(node.lower.V, node.upper.U)
    ):
        raise ValueError(
            f"HODLR node [{node.start}, {node.stop}) is not symmetric: its lower "
            "factors are not its upper factors swapped"
        )


def hodlr_to_hss(hodlr: HODLRMatrix) -> HSSMatrix:
    """The exact HSS form of a symmetric HODLR matrix on the same cluster tree.

    Each HSS leaf references its HODLR leaf's dense block (no copy).  The
    construction is plain QR of fixed column stacks, so it is deterministic.

    Raises
    ------
    ValueError
        If a node's lower factors are not its upper factors swapped.
    """
    nodes: Dict[Tuple[int, int], HSSNode] = {}
    couplings: Dict[Tuple[int, int, int], np.ndarray] = {}

    def convert(node: HODLRNode, level: int, index: int, factors: List[np.ndarray]):
        """Fill ``node``'s HSS data; return its coordinates ``P[g]`` per ancestor factor."""
        hss_node = HSSNode(level=level, index=index, start=node.start, stop=node.stop)
        nodes[(level, index)] = hss_node
        if node.is_leaf:
            hss_node.D = node.dense
            hss_node.U, coords = _orthonormalise(factors, node.size)
        else:
            _check_symmetric(node)
            split = node.left.size
            left = convert(
                node.left, level + 1, 2 * index, [node.upper.U] + [f[:split] for f in factors]
            )
            right = convert(
                node.right, level + 1, 2 * index + 1, [node.lower.U] + [f[split:] for f in factors]
            )
            couplings[(level + 1, 2 * index + 1, 2 * index)] = right[0] @ left[0].T
            if level == 0:
                return []  # the root has no ancestors and hence no basis
            width = left[0].shape[0] + right[0].shape[0]
            stacked = [np.vstack([pa, pb]) for pa, pb in zip(left[1:], right[1:])]
            hss_node.U, coords = _orthonormalise(stacked, width)
        hss_node.rank = hss_node.U.shape[1]
        return coords

    convert(hodlr.root, 0, 0, [])
    return HSSMatrix(tree=hodlr.tree, nodes=nodes, couplings=couplings)


def hodlr_ulv_factorize(hodlr: HODLRMatrix) -> HSSULVFactor:
    """Factorize a symmetric positive definite HODLR matrix with the ULV algorithm.

    The HSS-ULV factorization (Alg. 2) of :func:`hodlr_to_hss`; the
    sequential reference every task-graph backend is validated against.

    Raises
    ------
    ValueError
        If the HODLR matrix is not symmetric.
    numpy.linalg.LinAlgError
        If a redundant diagonal block or the root block is not positive
        definite (the HODLR approximation of an SPD matrix can lose
        definiteness when the compression error exceeds the smallest
        eigenvalue).
    """
    return hss_ulv_factorize(hodlr_to_hss(hodlr))
