"""ULV factorization of a symmetric HODLR matrix through a truncated HSS form.

HODLR carries an independent low-rank factorisation per off-diagonal block
and no nested bases, so Alg. 2 does not apply to it verbatim.  It does apply
to the same matrix written in HSS form.  Restricted to a cluster ``c``, the
row factor of every strict ancestor ``g`` (``g.upper.U`` when ``c`` lies
under ``g.left``, ``g.lower.U`` under ``g.right``) spans part of the block
row of ``c``, and the restrictions of all ancestors span all of it.  An exact
HSS form must keep all of that span, so its ranks are the sums of the
ancestor ranks and grow with depth.  :func:`hodlr_to_hss` instead keeps only
the part of it above the HODLR's own error level, level by level:

* every off-diagonal block is in SVD form, ``U = u diag(s)`` with ``V``
  orthonormal (:func:`~repro.formats.hodlr.compress_offdiagonal` builds
  every block so).  The ancestor factor ``F_g`` of a cluster under
  ``g.left`` is ``U``, and ``U V^T = U Q^T`` with ``Q`` orthonormal; under
  ``g.right`` it is ``V``, and ``V U^T = V diag(s) u^T``.  So ``F_g`` gets
  the column weights ``w_g = 1`` or ``w_g = ||U_j|| = s``, and
  ``F_g diag(w_g)`` has the singular values of the block row it stands
  for, without a QR;
* leaf ``i``: ``B_i`` = the leading columns of the column-pivoted QR of the
  weighted stack ``[F_g diag(w_g)]`` (nearest ancestor first) whose
  ``|R_kk|`` exceed ``tau`` (:func:`~repro.lowrank.qr.truncated_pivoted_qr`,
  which stops factoring there); the coordinates are
  ``P_i[g] = B_i^T F_g|_i``, from the *unweighted* factors;
* interior ``c`` with children ``a``, ``b``: transfer ``E_c`` from the same
  truncated pivoted QR of ``[P_a[g]; P_b[g]] diag(w_g)`` stacked over the
  ancestors ``g`` of ``c``, and ``P_c[g] = E_c^T [P_a[g]; P_b[g]]``;
* sibling coupling under ``p``: ``S_{2k+1,2k} = P_b[p] P_a[p]^T``.

``tau`` is :data:`TRUNCATION_FACTOR` times the largest, over the HODLR's
truncated blocks (those below full rank), of the smallest singular value
each block kept, its smallest ``||U_j||`` (``0`` when no block was
truncated): a fixed fraction of the HODLR's own truncation level, so the
HSS form adds an error well below the HODLR's and its ranks stay near the
block ranks instead of their sums.
No kernel entry is evaluated again.  A HODLR matrix then factorizes and
solves with the HSS-ULV code (:func:`~repro.core.hss_ulv.hss_ulv_factorize`
and the HSS graph builders): every dense step is one tree node's block, and
no step factors a merged skeleton system of all the leaves.

Requires a *symmetric* HODLR matrix (``lower == (upper.V, upper.U)`` per
node) with its blocks in SVD form, as :func:`repro.formats.hodlr.build_hodlr`
constructs it, whose approximation is positive definite.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize
from repro.formats.hodlr import HODLRMatrix, HODLRNode
from repro.formats.hss import HSSMatrix, HSSNode
from repro.lowrank.qr import truncated_pivoted_qr

__all__ = ["TRUNCATION_FACTOR", "hodlr_to_hss", "hodlr_ulv_factorize"]

#: ``tau`` relative to the HODLR's own truncation level (the largest of its
#: truncated blocks' smallest kept singular values).  One tenth keeps the HSS
#: form's construction error at the HODLR's own: at 1.0 it was 1.9-3.3x the
#: HODLR's error, while 0.1 measured 1.00x on yukawa, laplace, gaussian and
#: matern.
TRUNCATION_FACTOR = 0.1

#: A weighted factor: ``F`` and the column weights of its ancestor block.
Weighted = Tuple[np.ndarray, np.ndarray]

#: Column norms of ``V`` further than this from 1 mean a block is not in SVD form.
_SVD_FORM_TOLERANCE = 1e-8


def _truncate(
    factors: List[Weighted], rows: int, tau: float
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Truncated basis of the weighted stack ``[F diag(w), ...]`` and each ``F``'s coordinates."""
    widths = [f.shape[1] for f, _ in factors]
    stack = np.empty((rows, sum(widths)), order="F")
    col = 0
    for (f, weight), width in zip(factors, widths):
        np.multiply(f, weight, out=stack[:, col : col + width])
        col += width
    q, _ = truncated_pivoted_qr(stack, tau)
    basis = np.ascontiguousarray(q)
    return basis, [basis.T @ f for f, _ in factors]


def _check_block(node: HODLRNode) -> None:
    if not (
        np.array_equal(node.lower.U, node.upper.V) and np.array_equal(node.lower.V, node.upper.U)
    ):
        raise ValueError(
            f"HODLR node [{node.start}, {node.stop}) is not symmetric: its lower "
            "factors are not its upper factors swapped"
        )
    if np.any(np.abs(np.linalg.norm(node.upper.V, axis=0) - 1.0) > _SVD_FORM_TOLERANCE):
        raise ValueError(
            f"HODLR node [{node.start}, {node.stop}) is not in SVD form: the "
            "columns of its upper block's V are not unit vectors"
        )


def _block_weights(root: HODLRNode) -> Tuple[Dict[int, np.ndarray], float]:
    """``id(node) -> ||U_j||`` of the upper block per interior node, and ``tau``."""
    weights: Dict[int, np.ndarray] = {}
    level = 0.0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        _check_block(node)
        block = node.upper
        weights[id(node)] = s = np.linalg.norm(block.U, axis=0)
        if 0 < block.rank < min(block.shape):  # a full-rank block was not truncated
            level = max(level, float(s.min()))
        stack += [node.left, node.right]
    return weights, TRUNCATION_FACTOR * level


def hodlr_to_hss(hodlr: HODLRMatrix) -> HSSMatrix:
    """The truncated HSS form of a symmetric HODLR matrix on the same cluster tree.

    Each HSS leaf references its HODLR leaf's dense block (no copy).  The
    construction is pivoted QR of fixed column stacks, so it is deterministic.

    Raises
    ------
    ValueError
        If a node's lower factors are not its upper factors swapped, or its
        upper block's ``V`` has columns that are not unit vectors (the block
        is not in SVD form).
    """
    weights, tau = _block_weights(hodlr.root)
    nodes: Dict[Tuple[int, int], HSSNode] = {}
    couplings: Dict[Tuple[int, int, int], np.ndarray] = {}

    def convert(node: HODLRNode, level: int, index: int, factors: List[Weighted]):
        """Fill ``node``'s HSS data; return its coordinates ``P[g]`` per ancestor factor."""
        hss_node = HSSNode(level=level, index=index, start=node.start, stop=node.stop)
        nodes[(level, index)] = hss_node
        if node.is_leaf:
            hss_node.D = node.dense
            hss_node.U, coords = _truncate(factors, node.size, tau)
        else:
            split = node.left.size
            s = weights[id(node)]
            left = convert(
                node.left, level + 1, 2 * index,
                [(node.upper.U, np.ones_like(s))] + [(f[:split], w) for f, w in factors],
            )
            right = convert(
                node.right, level + 1, 2 * index + 1,
                [(node.lower.U, s)] + [(f[split:], w) for f, w in factors],
            )
            couplings[(level + 1, 2 * index + 1, 2 * index)] = right[0] @ left[0].T
            if level == 0:
                return []  # the root has no ancestors and hence no basis
            width = left[0].shape[0] + right[0].shape[0]
            stacked = [
                (np.vstack([pa, pb]), w) for pa, pb, (_, w) in zip(left[1:], right[1:], factors)
            ]
            hss_node.U, coords = _truncate(stacked, width, tau)
        hss_node.rank = hss_node.U.shape[1]
        return coords

    convert(hodlr.root, 0, 0, [])
    return HSSMatrix(tree=hodlr.tree, nodes=nodes, couplings=couplings)


def hodlr_ulv_factorize(hodlr: HODLRMatrix) -> HSSULVFactor:
    """Factorize a symmetric positive definite HODLR matrix with the ULV algorithm.

    The HSS-ULV factorization (Alg. 2) of :func:`hodlr_to_hss`, whose
    ``operator`` is ``hodlr`` so that refinement corrects toward the HODLR;
    the sequential reference every task-graph backend is validated against.

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
    factor = hss_ulv_factorize(hodlr_to_hss(hodlr))
    factor.operator = hodlr
    return factor
