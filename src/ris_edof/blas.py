"""Gram-matrix eigenvalues through LAPACK routines of numpy's own OpenBLAS.

numpy's wheels bundle an ILP64 OpenBLAS whose symbols carry a ``scipy_``
prefix and a ``64_`` suffix. ``zherk`` forms one triangle of the Gram
matrix, half the flops of ``a @ a.conj().T`` and with no conjugate copy;
``zheev_2stage`` with jobz='N' returns its eigenvalues through the two-stage
tridiagonal reduction. The library is found as ``perfbench/run.py`` finds
it and resolved on the first call of `load`, not at import.
"""

import ctypes
import functools
import glob
import os
from typing import NamedTuple

import numpy as np

from .errors import NumericError


class Lapack(NamedTuple):
    library: str  # basename of the shared library
    zherk: object
    zheev_2stage: object


@functools.cache
def load() -> Lapack | None:
    """The two routines from numpy's bundled OpenBLAS, or None when that
    build does not export them (Accelerate, MKL, a source build)."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        try:
            zherk, zheev = lib.scipy_zherk_64_, lib.scipy_zheev_2stage_64_
        except AttributeError:
            continue
        i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        z = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
        d = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        c, length = ctypes.c_char_p, ctypes.c_size_t  # hidden Fortran string length
        zherk.argtypes = [c, c, i64, i64, f64, z, i64, f64, z, i64, length, length]
        zheev.argtypes = [c, c, i64, z, i64, d, z, i64, d, i64, length, length]
        zherk.restype = zheev.restype = None
        return Lapack(os.path.basename(path), zherk, zheev)
    return None


def gram_eigvalsh(lapack: Lapack, a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the smaller-side Gram matrix of ``a``: A A^H
    when ``a`` has no more rows than columns, otherwise A^H A."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    rows, cols = a.shape
    # LAPACK reads the row-major ``a`` as its cols x rows transpose F, and
    # F^H F = conj(A A^H), F F^H = conj(A^H A) have the same eigenvalues
    trans, n, k = (b"C", rows, cols) if rows <= cols else (b"N", cols, rows)
    c_n, ld = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
    gram = np.empty((n, n), dtype=np.complex128)
    lapack.zherk(b"L", trans, c_n, ctypes.c_int64(k), ctypes.c_double(1.0), a,
                 ctypes.c_int64(max(cols, 1)), ctypes.c_double(0.0), gram, ld, 1, 1)
    values = np.empty(n)
    rwork = np.empty(max(1, 3 * n - 2))
    info = ctypes.c_int64(0)

    def zheev(work: np.ndarray, lwork: int) -> None:
        lapack.zheev_2stage(b"N", b"L", c_n, gram, ld, values, work,
                            ctypes.c_int64(lwork), rwork, info, 1, 1)
        if info.value != 0:
            raise NumericError(
                f"LAPACK zheev_2stage returned info = {info.value} on a "
                f"{n} x {n} Gram matrix",
                {"routine": "zheev_2stage", "info": info.value, "n": n},
            )

    query = np.empty(1, dtype=np.complex128)
    zheev(query, -1)  # the workspace query writes the optimal size
    work = np.empty(max(1, int(query[0].real)), dtype=np.complex128)
    zheev(work, work.size)
    return values
