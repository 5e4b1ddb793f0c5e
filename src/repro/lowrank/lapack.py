"""BLAS and LAPACK routines called through scipy's Cython exports, with the GIL released.

scipy's f2py wrappers (``scipy.linalg.blas`` / ``scipy.linalg.lapack``) hold
the GIL for the whole call and copy every argument that is not a contiguous
Fortran array.  The same routines are exported as C function pointers by
``scipy.linalg.cython_blas`` / ``cython_lapack``, in capsules named by their
C signature.  A ``ctypes`` function over such a pointer releases the GIL
while it runs, so the node kernels of a thread-parallel factorization run
concurrently, and it takes a sub-block in place, by its leading dimension.

Arrays are column-major: an ``(m, n)`` argument is an array (or view) with
unit row stride, typically the ``.T`` of a C-ordered block.  Every routine
here works in place on the arrays it is given; the wrappers only read the
shapes and strides and pass every argument by address, as Fortran does.
"""

from __future__ import annotations

import ctypes
import re
from typing import Dict, Tuple

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

__all__ = ["dlaqps", "dpotrf", "dsyr2k", "dsyrk", "dtrsm"]

#: The C signature of each routine used, with scipy's ``double`` typedef as ``d``.
_SIGNATURES = {
    "dsyr2k": (cython_blas, "char *, char *, int *, int *, d *, d *, int *, d *, int *, d *, d *, int *"),
    "dsyrk": (cython_blas, "char *, char *, int *, int *, d *, d *, int *, d *, d *, int *"),
    "dtrsm": (cython_blas, "char *, char *, char *, char *, int *, int *, d *, d *, int *, d *, int *"),
    "dpotrf": (cython_lapack, "char *, int *, d *, int *, int *"),
    "dlaqps": (
        cython_lapack,
        "int *, int *, int *, int *, int *, d *, int *, int *, d *, d *, d *, d *, d *, int *",
    ),
}
_SCALARS = {"char *": ctypes.c_char, "int *": ctypes.c_int, "d *": ctypes.c_double}
_ARRAY_DTYPES = {"int *": np.dtype(np.intc), "d *": np.dtype(np.float64)}
_loaded: Dict[str, Tuple[object, Tuple[str, ...]]] = {}


def _routine(name: str):
    """``(ctypes function, argument kinds)`` of ``name``, loaded once.

    The capsule's name is its C signature; any signature but the expected
    one is refused before the pointer is ever called.
    """
    found = _loaded.get(name)
    if found is None:
        module, expected = _SIGNATURES[name]
        capsule = module.__pyx_capi__[name]
        get_name = ctypes.pythonapi.PyCapsule_GetName
        get_name.restype, get_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
        get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
        get_pointer.restype = ctypes.c_void_p
        get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
        signature = get_name(capsule)
        normalized = re.sub(r"__pyx_t_\w+_d\b", "d", signature.decode())
        if normalized != f"void ({expected})":
            raise ImportError(f"scipy's {name} has an unexpected signature: {signature.decode()}")
        kinds = tuple(expected.split(", "))
        prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(kinds))
        found = _loaded[name] = (prototype(get_pointer(capsule, signature)), kinds)
    return found


def _call(name: str, *args) -> None:
    """Call ``name`` with each argument by address: arrays as they are, scalars in C storage."""
    function, kinds = _routine(name)
    if len(args) != len(kinds):
        raise TypeError(f"{name} takes {len(kinds)} arguments, got {len(args)}")
    keep, addresses = [], []
    for kind, arg in zip(kinds, args):
        if isinstance(arg, np.ndarray):
            if kind not in _ARRAY_DTYPES or arg.dtype != _ARRAY_DTYPES[kind]:
                raise TypeError(f"{name}: a {arg.dtype} array where {kind} is expected")
            addresses.append(arg.__array_interface__["data"][0])
        else:
            scalar = _SCALARS[kind](arg.encode() if kind == "char *" else arg)
            keep.append(scalar)
            addresses.append(ctypes.addressof(scalar))
    function(*addresses)


def _ld(a: np.ndarray) -> int:
    """Leading dimension of a column-major ``a`` (unit row stride)."""
    m, n = a.shape
    if a.dtype != np.float64 or (m > 1 and a.strides[0] != a.itemsize):
        raise ValueError("a column-major float64 array (unit row stride) is expected")
    if n <= 1:
        return max(1, m)
    ld, rest = divmod(a.strides[1], a.itemsize)
    if rest or ld < max(1, m):
        raise ValueError("a column-major float64 array (unit row stride) is expected")
    return ld


def dsyr2k(
    uplo: str, trans: str, alpha: float, a: np.ndarray, b: np.ndarray, beta: float, c: np.ndarray
) -> None:
    """``C := alpha (op(A) op(B)^T + op(B) op(A)^T) + beta C`` on the ``uplo`` triangle of ``C``, in place.

    ``op(X)`` is ``X`` (``trans="N"``, ``A`` and ``B`` of shape ``(n, k)``) or
    ``X^T`` (``trans="T"``, shape ``(k, n)``).
    """
    n, k = a.shape if trans == "N" else a.shape[::-1]
    if b.shape != a.shape or c.shape != (n, n):
        raise ValueError("dsyr2k needs A and B of one shape and a square C to match")
    if n and k:
        _call("dsyr2k", uplo, trans, n, k, alpha, a, _ld(a), b, _ld(b), beta, c, _ld(c))


def dsyrk(uplo: str, alpha: float, a: np.ndarray, beta: float, c: np.ndarray) -> None:
    """``C := alpha A A^T + beta C`` on the ``uplo`` triangle of ``C``, in place."""
    n, k = a.shape
    if c.shape != (n, n):
        raise ValueError("dsyrk needs A of shape (n, k) and C of shape (n, n)")
    if n and k:
        _call("dsyrk", uplo, "N", n, k, alpha, a, _ld(a), beta, c, _ld(c))


def dtrsm(side: str, uplo: str, trans: str, a: np.ndarray, b: np.ndarray) -> None:
    """``B := op(A)^{-1} B`` (``side="L"``) or ``B op(A)^{-1}`` (``side="R"``), in place.

    ``A`` is the ``uplo`` triangle (non-unit diagonal) and ``op(A)`` is ``A``
    or ``A^T`` for ``trans`` ``"N"`` or ``"T"``.
    """
    m, n = b.shape
    if a.shape != ((m, m) if side == "L" else (n, n)):
        raise ValueError("dtrsm: the triangle does not match the right-hand side")
    if m and n:
        _call("dtrsm", side, uplo, trans, "N", m, n, 1.0, a, _ld(a), b, _ld(b))


def dpotrf(uplo: str, a: np.ndarray) -> int:
    """Cholesky factor of the ``uplo`` triangle of ``a``, in place; returns LAPACK's ``info``."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("dpotrf needs a square matrix")
    if not n:
        return 0
    info = np.zeros(1, dtype=np.intc)
    _call("dpotrf", uplo, n, a, _ld(a), info)
    return int(info[0])


def dlaqps(
    offset: int,
    nb: int,
    a: np.ndarray,
    jpvt: np.ndarray,
    tau: np.ndarray,
    vn1: np.ndarray,
    vn2: np.ndarray,
    auxv: np.ndarray,
    f: np.ndarray,
) -> int:
    """One blocked step of ``dgeqp3``: up to ``nb`` pivoted Householder columns of ``a``.

    ``a`` is the ``(m, n)`` trailing column block of the matrix being
    factored, whose first ``offset`` rows are already factored; ``jpvt``,
    ``tau``, ``vn1`` and ``vn2`` are the matching slices of the pivots,
    reflector scalars and partial column norms; ``auxv`` holds ``nb`` and
    ``f`` at least ``n * nb`` doubles.  Returns the number of columns
    factored.
    """
    m, n = a.shape
    if len(jpvt) < n or len(vn1) < n or len(vn2) < n or len(auxv) < nb or f.size < n * nb:
        raise ValueError("dlaqps: a work array is too short")
    if len(tau) < min(nb, m - offset):
        raise ValueError("dlaqps: tau is too short")
    kb = np.zeros(1, dtype=np.intc)
    _call("dlaqps", m, n, offset, nb, kb, a, _ld(a), jpvt, tau, vn1, vn2, auxv, f, max(1, n))
    return int(kb[0])
