"""Symmetric matrix-vector products through numpy's bundled OpenBLAS.

numpy links its BLAS privately and offers no symmetric product, but the
OpenBLAS that numpy's wheels bundle in ``numpy.libs`` exports the CBLAS
``dsymv`` under the ILP64 name ``scipy_cblas_dsymv64_``. It reads one
triangle of a symmetric matrix, half the memory of a gemv. The library is
looked up on the first product, not on import; where it or the symbol is
missing, ``symv`` is ``K.dot(v)``.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

_ROW_MAJOR, _UPPER = 101, 121  # CBLAS_ORDER and CBLAS_UPLO enum values


@functools.cache
def _dsymv():
    """The bound ``scipy_cblas_dsymv64_`` of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        fn = getattr(lib, "scipy_cblas_dsymv64_", None)
        if fn is None:
            continue
        size, ptr = ctypes.c_int64, ctypes.c_void_p
        # order, uplo, n, alpha, A, lda, x, incx, beta, y, incy
        fn.argtypes = [ctypes.c_int, ctypes.c_int, size, ctypes.c_double, ptr, size,
                       ptr, size, ctypes.c_double, ptr, size]
        fn.restype = None
        return fn
    return None


def _fits(K: np.ndarray, v: np.ndarray) -> bool:
    """True if dsymv may read K and v as they lie in memory: K a read-only,
    C-contiguous (n, n) float64 matrix and v a contiguous (n,) float64 vector."""
    return (K.dtype == np.float64 and K.ndim == 2 and K.shape[0] == K.shape[1]
            and K.flags.c_contiguous and not K.flags.writeable
            and v.dtype == np.float64 and v.shape == K.shape[:1] and v.flags.c_contiguous)


def symv(K: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``K @ v`` for a symmetric K, computed from K's upper triangle.

    The caller guarantees the symmetry; K's entries below the diagonal are not
    read. K must be read-only, so that it stays symmetric. Where no dsymv is
    bound, or K and v are not laid out as ``_fits`` requires, this is
    ``K.dot(v)``. The forward error obeys gemv's bound, gamma_n * |K| |v|.
    """
    fn = _dsymv()
    if fn is None or not _fits(K, v):
        return K.dot(v)
    n = v.shape[0]
    # BLAS need not read y when beta is 0; zeros keep a NaN of an uninitialised
    # buffer out of the result on a build that scales y by beta anyway
    out = np.zeros(n)
    fn(_ROW_MAJOR, _UPPER, n, 1.0, K.ctypes.data, n, v.ctypes.data, 1, 0.0,
       out.ctypes.data, 1)
    return out
