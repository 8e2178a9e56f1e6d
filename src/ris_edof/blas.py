"""Gram matrices and their eigenvalues for the Monte Carlo draws: the one
place that picks the library they run on.

numpy's wheels bundle an ILP64 OpenBLAS whose symbols carry a ``scipy_``
prefix and a ``64_`` suffix. When it exports ``zherk``, ``zheev_2stage``
and its thread-count getter and setter, `load` returns all four. ``zherk``
forms one triangle of the Gram matrix, half the flops of ``a @ a.conj().T``
and with no conjugate copy; ``zheev_2stage`` with jobz='N' returns its
eigenvalues through the two-stage tridiagonal reduction; `one_thread` pins
the library for a block of calls: the draws, and the correlation spectrum's
``numpy.linalg.eigvalsh``, which runs on the same OpenBLAS. Otherwise
(Accelerate, MKL, a source build) `load` gives None, and `gram` and
`eigvalsh` run ``np.matmul`` and ``np.linalg.eigvalsh``. `composite_kernel`
names the path. The library is found as ``perfbench/run.py`` finds it, on the
first call of `load`.
"""

import contextlib
import ctypes
import functools
import glob
import os
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import NumericError


class Lapack(NamedTuple):
    library: str  # basename of the shared library
    zherk: object
    zheev_2stage: object
    get_threads: object  # OpenBLAS's thread-count getter and setter
    set_threads: object


@functools.cache
def load() -> Lapack | None:
    """The two routines and the thread-count getter and setter from numpy's
    bundled OpenBLAS, or None when that build does not export all four."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        try:
            zherk, zheev = lib.scipy_zherk_64_, lib.scipy_zheev_2stage_64_
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        z = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
        d = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        c, length = ctypes.c_char_p, ctypes.c_size_t  # hidden Fortran string length
        zherk.argtypes = [c, c, i64, i64, f64, z, i64, f64, z, i64, length, length]
        zheev.argtypes = [c, c, i64, z, i64, d, z, i64, d, i64, length, length]
        zherk.restype = zheev.restype = None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return Lapack(os.path.basename(path), zherk, zheev, get, set_)
    return None


def composite_kernel() -> dict:
    """The library and routines that `gram` and `eigvalsh` run on, and the
    OpenBLAS thread count inside `one_thread` (None on the numpy path)."""
    lapack = load()
    if lapack is None:
        return {"library": "numpy.linalg", "routines": ["matmul", "eigvalsh"],
                "blas_threads": None}
    return {"library": lapack.library, "routines": ["zherk", "zheev_2stage"],
            "blas_threads": 1}


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """OpenBLAS on one thread inside the block; the old count is restored
    after it, also when the block raises. On the numpy path, nothing
    changes."""
    lapack = load()
    if lapack is None:
        yield
        return
    old = lapack.get_threads()
    lapack.set_threads(1)
    try:
        yield
    finally:
        lapack.set_threads(old)


def gram(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The smaller-side Gram matrix of ``a``, written into ``out`` (n x n,
    n = min(a.shape)) and returned: A A^H when ``a`` has no more rows than
    columns, otherwise A^H A. ``zherk`` writes only the lower triangle, and
    the strict upper triangle of ``out`` keeps what it held; the numpy path
    writes the whole product."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    rows, cols = a.shape
    n = min(rows, cols)
    if out.shape != (n, n):
        raise ValueError(f"Gram buffer shape {out.shape} is not {(n, n)}")
    lapack = load()
    if lapack is None:
        left, right = (a, a.conj().T) if rows <= cols else (a.conj().T, a)
        return np.matmul(left, right, out=out)
    # LAPACK reads the row-major ``a`` as its cols x rows transpose F, and
    # F^H F = conj(A A^H), F F^H = conj(A^H A) have the same eigenvalues
    trans, k = (b"C", cols) if rows <= cols else (b"N", rows)
    lapack.zherk(b"L", trans, ctypes.c_int64(n), ctypes.c_int64(k),
                 ctypes.c_double(1.0), a, ctypes.c_int64(max(cols, 1)),
                 ctypes.c_double(0.0), out, ctypes.c_int64(max(n, 1)), 1, 1)
    return out


def eigvalsh(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix whose lower triangle
    ``gram`` holds. The kernel path overwrites ``gram``."""
    lapack = load()
    if lapack is None:
        return np.linalg.eigvalsh(gram)
    n = gram.shape[0]
    c_n, ld = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
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
