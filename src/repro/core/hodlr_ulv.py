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

* every ancestor factor ``F_g`` carries the weight ``R_g``, the triangular
  factor of the *far* side of ``g``'s block (``F_g W_g^T = F_g R_g^T Q_g^T``
  with ``Q_g`` orthonormal), so ``F_g R_g^T`` has the singular values of the
  block row it stands for.  ``R_g`` is the ``R`` of a QR of the far factor
  (``diag(+-s)`` for a block in SVD form, ``U = u diag(s)`` with ``V``
  orthonormal, as ``"svd"`` and ``"rsvd"`` build it);
* leaf ``i``: ``B_i`` = the leading columns of the column-pivoted QR of the
  weighted stack ``[F_g R_g^T]`` (nearest ancestor first) whose ``|R_kk|``
  exceed ``tau``; the coordinates are ``P_i[g] = B_i^T F_g|_i``, from the
  *unweighted* factors;
* interior ``c`` with children ``a``, ``b``: transfer ``E_c`` from the same
  truncated pivoted QR of ``[P_a[g]; P_b[g]] R_g^T`` stacked over the
  ancestors ``g`` of ``c``, and ``P_c[g] = E_c^T [P_a[g]; P_b[g]]``;
* sibling coupling under ``p``: ``S_{2k+1,2k} = P_b[p] P_a[p]^T``.

``tau`` is :data:`TRUNCATION_FACTOR` times the largest, over the HODLR's
truncated blocks (those below full rank), of the smallest singular value
each block kept (``0`` when no block was truncated): a fixed fraction of
the HODLR's own truncation level, so the HSS form adds an error well below
the HODLR's and its ranks stay near the block ranks instead of their sums.
No kernel entry is evaluated again.  A HODLR matrix then factorizes and
solves with the HSS-ULV code (:func:`~repro.core.hss_ulv.hss_ulv_factorize`
and the HSS graph builders): every dense step is one tree node's block, and
no step factors a merged skeleton system of all the leaves.

Requires a *symmetric* HODLR matrix (``lower == (upper.V, upper.U)`` per
node, as :func:`repro.formats.hodlr.build_hodlr` constructs) whose
approximation is positive definite.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr

from repro.core.hss_ulv import HSSULVFactor, hss_ulv_factorize
from repro.formats.hodlr import HODLRMatrix, HODLRNode
from repro.formats.hss import HSSMatrix, HSSNode

__all__ = ["TRUNCATION_FACTOR", "hodlr_to_hss", "hodlr_ulv_factorize"]

#: ``tau`` relative to the HODLR's own truncation level (the largest of its
#: truncated blocks' smallest kept singular values).  One tenth keeps the HSS
#: form's construction error at the HODLR's own: at 1.0 it was 1.9-3.3x the
#: HODLR's error, while 0.1 measured 1.00x on yukawa, laplace, gaussian and
#: matern.
TRUNCATION_FACTOR = 0.1

#: A weighted factor: ``F`` and the upper-triangular weight ``R_g`` of its
#: ancestor's far side.
Weighted = Tuple[np.ndarray, np.ndarray]


def _smallest_singular_value(r_u: np.ndarray, r_v: np.ndarray) -> float:
    """Smallest singular value of ``U V^T`` from the triangular factors of ``U`` and ``V``."""
    return float(np.linalg.svd(r_u @ r_v.T, compute_uv=False)[-1])


def _truncate(
    factors: List[Weighted], rows: int, tau: float
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Truncated basis of the weighted stack ``[F R^T, ...]`` and each ``F``'s coordinates."""
    widths = [f.shape[1] for f, _ in factors]
    stack = np.empty((rows, sum(widths)), order="F")
    col = 0
    for (f, weight), width in zip(factors, widths):
        stack[:, col : col + width] = f @ weight.T
        col += width
    k = 0
    if stack.shape[1]:
        # scipy's default workspace selects LAPACK's unblocked path: query the
        # blocked path's workspace instead.
        lwork = int(dgeqp3(stack, lwork=-1, overwrite_a=True)[3][0])
        qr, _, taus, _, info = dgeqp3(stack, lwork=lwork, overwrite_a=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqp3 failed with info={info}")
        k = int(np.count_nonzero(np.abs(np.diag(qr)) > tau))
    if k == 0:
        return np.zeros((rows, 0)), [np.zeros((0, width)) for width in widths]
    q, _, info = dorgqr(qr[:, :k], taus[:k], overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed with info={info}")
    basis = np.ascontiguousarray(q)
    return basis, [basis.T @ f for f, _ in factors]


def _check_symmetric(node: HODLRNode) -> None:
    if not (
        np.array_equal(node.lower.U, node.upper.V) and np.array_equal(node.lower.V, node.upper.U)
    ):
        raise ValueError(
            f"HODLR node [{node.start}, {node.stop}) is not symmetric: its lower "
            "factors are not its upper factors swapped"
        )


def _block_weights(root: HODLRNode) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]], float]:
    """``id(node) -> (R of upper.U, R of upper.V)`` per interior node, and ``tau``."""
    weights: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    level = 0.0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        _check_symmetric(node)
        block = node.upper
        r_u, r_v = np.linalg.qr(block.U, mode="r"), np.linalg.qr(block.V, mode="r")
        weights[id(node)] = (r_u, r_v)
        if 0 < block.rank < min(block.shape):  # a full-rank block was not truncated
            level = max(level, _smallest_singular_value(r_u, r_v))
        stack += [node.left, node.right]
    return weights, TRUNCATION_FACTOR * level


def hodlr_to_hss(hodlr: HODLRMatrix) -> HSSMatrix:
    """The truncated HSS form of a symmetric HODLR matrix on the same cluster tree.

    Each HSS leaf references its HODLR leaf's dense block (no copy).  The
    construction is pivoted QR of fixed column stacks, so it is deterministic.

    Raises
    ------
    ValueError
        If a node's lower factors are not its upper factors swapped.
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
            r_u, r_v = weights[id(node)]
            left = convert(
                node.left, level + 1, 2 * index,
                [(node.upper.U, r_v)] + [(f[:split], w) for f, w in factors],
            )
            right = convert(
                node.right, level + 1, 2 * index + 1,
                [(node.lower.U, r_u)] + [(f[split:], w) for f, w in factors],
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
