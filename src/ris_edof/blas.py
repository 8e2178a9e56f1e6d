"""Gram matrices and eigenvalues for the Monte Carlo draws and the
correlation spectrum: the one place that picks the library and the routine
they run on.

numpy's wheels bundle an ILP64 OpenBLAS whose symbols carry a ``scipy_``
prefix and a ``64_`` suffix. `ROUTINES` and `SYEVD` are the one list of
routines: for each buffer dtype a Gram routine and its eigensolvers
(``zherk`` and ``zheev_2stage``; the single-precision ``cherk``, the
one-stage ``cheev`` and ``cheev_2stage``), and the real symmetric
``dsyevd``. When the library exports every routine they name and its
thread-count getter and setter, `load` binds them all, with the name of
the CPU kernels OpenBLAS picked (`blas_core`); adding or dropping a routine
is an edit of that table alone.

``zherk`` adds one triangle of a row chunk's Gram matrix into the draw's,
half the flops of ``a.conj().T @ a`` and with no conjugate copy; the
``heev`` routines with jobz='N' return its eigenvalues.
``dsyevd`` is the routine numpy's own ``numpy.linalg.eigvalsh`` imports from
this library, and `eigvalsh` runs it as numpy does on each float64
correlation block, in place: numpy would first copy the block into a
column-major buffer of its own, a second block's worth of memory per solver
thread that ``tracemalloc`` cannot see. `one_thread` pins the library for a
block of calls: the draws and the spectrum's blocks. Otherwise (Accelerate,
MKL, a source build) `load` gives None, and `gram` and `eigvalsh` run
``np.matmul`` and ``np.linalg.eigvalsh``. `composite_kernel` names the draws'
path and `eigensolver` each solve's routine. The library is found as
``perfbench/run.py`` finds it, on the first call of `load`.

Precision follows the buffers: `gram` runs ``zherk`` on complex128 and
``cherk`` on complex64, and the numpy path keeps the dtype it is given. Each
precision has its own eigensolver, because the two-stage reduction pays off
at a different rank in each (`eigensolver`). On numpy's OpenBLAS on one
BLAS thread, the one-stage ``cheev`` solves complex64 Gram matrices faster
than ``cheev_2stage``, alone and two at once, at the desk columns' ranks,
and the two meet near rank 1300 (CHEEV_MAX_RANK), above which the two-stage
solver wins; in complex128 ``zheev_2stage`` is already faster than ``zheev``
at rank 624, so it runs at every rank. The README's Install section gives
the timings. Which callers draw in complex64 is `ris_edof.cli`'s choice.
"""

import contextlib
import ctypes
import functools
import glob
import os
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError


class Lapack(NamedTuple):
    library: str  # basename of the shared library
    routines: dict  # name in ROUTINES or SYEVD -> the library's function
    get_threads: object  # OpenBLAS's thread-count getter and setter
    set_threads: object
    core: str | None  # the CPU kernels OpenBLAS picked, None when it does not say


class _Array:
    """A ctypes argtype for numpy arrays of one dtype and layout. Its
    ``from_param`` refuses an array of another dtype, or not laid out as
    ``flags`` says, as ``np.ctypeslib.ndpointer`` does, and passes the
    array's data pointer. ndpointer passes the array's ``ctypes`` object,
    whose pointer cast leaves two objects in a reference cycle per array
    argument (CPython bpo-12836) that only the cyclic collector frees."""

    def __init__(self, dtype, flags: str):
        self.ndpointer = np.ctypeslib.ndpointer(dtype, flags=flags)

    def from_param(self, array: np.ndarray) -> ctypes.c_void_p:
        self.ndpointer.from_param(array)
        return ctypes.c_void_p(array.ctypes.data)


class _Routines(dict):
    """dtype -> routine names; a dtype with no row raises one error that
    names it."""

    def __missing__(self, dtype):
        raise ValidationError(
            f"no routines for {dtype}; use complex128 or complex64", "dtype"
        )


# the largest complex64 rank that `eigvalsh` solves with the one-stage
# ``cheev``; larger ones run ``cheev_2stage`` (see the module docstring)
CHEEV_MAX_RANK = 1300
# dtype of the buffers -> the Gram routine, the eigensolver up to
# CHEEV_MAX_RANK and the one above it, as the manifest names them
ROUTINES = _Routines({
    np.dtype(np.complex128): ("zherk", "zheev_2stage", "zheev_2stage"),
    np.dtype(np.complex64): ("cherk", "cheev", "cheev_2stage"),
})
# the eigensolver of a float64 matrix, the routine ``numpy.linalg.eigvalsh``
# runs on it
SYEVD = "dsyevd"


@functools.cache
def load() -> Lapack | None:
    """Every routine that ROUTINES and SYEVD name, the thread-count getter
    and setter and the core name from numpy's bundled OpenBLAS, or None when
    that build does not export all of these functions."""
    argtypes = _argtypes()
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        try:
            routines = {name: getattr(lib, f"scipy_{name}_64_") for name in argtypes}
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        for name, routine in routines.items():
            routine.argtypes, routine.restype = argtypes[name], None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return Lapack(os.path.basename(path), routines, get, set_, _core_name(lib))
    return None


def _argtypes() -> dict[str, list]:
    """The ctypes argtypes of each routine that ROUTINES and SYEVD name, by
    family: ``herk``, ``heev`` (one- and two-stage alike) and ``syevd``."""
    i64 = ctypes.POINTER(ctypes.c_int64)
    c, length = ctypes.c_char_p, ctypes.c_size_t  # hidden Fortran string length
    # syevd's matrix in LAPACK's column-major layout, then 1-d arrays
    f, ints = _Array(np.float64, "F_CONTIGUOUS"), _Array(np.int64, "C_CONTIGUOUS")
    argtypes = {SYEVD: [c, c, i64, f, i64, f, f, i64, ints, i64, i64, length, length]}
    for dtype, (herk, *heevs) in ROUTINES.items():
        real = np.finfo(dtype).dtype
        z, d = _Array(dtype, "C_CONTIGUOUS"), _Array(real, "C_CONTIGUOUS")
        scalar = ctypes.POINTER(np.ctypeslib.as_ctypes_type(real))
        argtypes[herk] = [c, c, i64, i64, scalar, z, i64, scalar, z, i64,
                          length, length]
        for heev in heevs:
            argtypes[heev] = [c, c, i64, z, i64, d, z, i64, d, i64, length, length]
    return argtypes


def _core_name(lib) -> str | None:
    """OpenBLAS's name for the CPU kernels it picked at load time
    (``SkylakeX``, ``Haswell``, ...), or None when the build does not say."""
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    name = corename()
    return name.decode() if name else None


def composite_kernel() -> dict:
    """The library and, per precision, the routines that `gram` and
    `eigvalsh` run on (the Gram routine, then each eigensolver), the
    largest rank that runs the first complex64 eigensolver, and the
    OpenBLAS thread count inside `one_thread` (None on the numpy path)."""
    lapack = load()
    if lapack is None:
        pair = ["matmul", "eigvalsh"]
        return {"library": "numpy.linalg",
                "routines": {dtype.name: pair for dtype in ROUTINES},
                "cheev_max_rank": None,
                "blas_threads": None}
    return {"library": lapack.library,
            "routines": {dtype.name: list(dict.fromkeys(names))
                         for dtype, names in ROUTINES.items()},
            "cheev_max_rank": CHEEV_MAX_RANK,
            "blas_threads": 1}


def blas_core() -> str | None:
    """The CPU kernels numpy's OpenBLAS runs (its core name), or None on
    the numpy path or when the build does not say. Kept out of
    `composite_kernel`: the same routines may round differently on another
    core's kernels, but the output contract is recorded per library."""
    lapack = load()
    return None if lapack is None else lapack.core


def eigensolver(dtype, n: int) -> str:
    """The routine `eigvalsh` runs on an n x n matrix of ``dtype``."""
    if load() is None:
        return "eigvalsh"
    if np.dtype(dtype) == np.float64:
        return SYEVD
    _, small, large = ROUTINES[np.dtype(dtype)]
    return small if n <= CHEEV_MAX_RANK else large


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """OpenBLAS on one thread inside the block; the old count is restored
    after it, also when the block raises. On the numpy path, nothing
    changes. The count is the whole process's, so pins taken on two threads
    at once must nest inside one outer pin that outlives both: otherwise
    the first to end restores the old count under the other, whose calls
    then run unpinned (and complex64 results move with the count)."""
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


def gram(rows: np.ndarray, out: np.ndarray, accumulate: bool = False) -> np.ndarray:
    """Writes rows^H rows into ``out`` (k x k for k columns of ``rows``), or
    adds it to what ``out`` holds when ``accumulate``, in the precision of
    ``out``, and returns ``out``. Called once per row chunk of A, with
    ``accumulate`` from the second chunk on, it forms A^H A. ``zherk`` and
    ``cherk`` (beta 0, then 1) write only the lower triangle, and the strict
    upper triangle of ``out`` keeps what it held; the numpy path writes the
    whole product."""
    rows = np.ascontiguousarray(rows, dtype=out.dtype)
    k = rows.shape[1]
    if out.shape != (k, k):
        raise ValidationError(f"Gram buffer shape {out.shape} is not {(k, k)}", "out")
    lapack = load()
    if lapack is None:
        if accumulate:
            out += rows.conj().T @ rows
            return out
        return np.matmul(rows.conj().T, rows, out=out)
    herk = lapack.routines[ROUTINES[out.dtype][0]]
    scalar = np.ctypeslib.as_ctypes_type(out.real.dtype)
    # LAPACK reads the row-major ``rows`` as its k x r transpose F, and
    # F F^H = conj(rows^H rows) has the same eigenvalues
    ld = ctypes.c_int64(max(k, 1))
    herk(b"L", b"N", ctypes.c_int64(k), ctypes.c_int64(len(rows)), scalar(1.0),
         rows, ld, scalar(float(accumulate)), out, ld, 1, 1)
    return out


def eigvalsh(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix whose lower triangle
    ``gram`` holds: float64 for a float64 or complex128 ``gram``, float32 for
    a complex64 one. The kernel path reads ``gram`` column by column, as
    LAPACK does, and overwrites it. A float64 ``gram`` runs ``dsyevd`` with
    numpy's arguments, so its values are ``numpy.linalg.eigvalsh``'s bit for
    bit, and in Fortran order, as the correlation blocks come, it is solved
    with no copy."""
    lapack = load()
    if lapack is None:
        return np.linalg.eigvalsh(gram)
    if gram.dtype == np.float64:
        return _syevd(lapack.routines[SYEVD], np.asfortranarray(gram))
    n = gram.shape[0]
    name = eigensolver(gram.dtype, n)
    heev = lapack.routines[name]
    real = gram.real.dtype
    c_n, ld = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
    values = np.empty(n, dtype=real)
    rwork = np.empty(max(1, 3 * n - 2), dtype=real)
    info = ctypes.c_int64(0)

    def solve(work: np.ndarray, lwork: int) -> None:
        heev(b"N", b"L", c_n, gram, ld, values, work, ctypes.c_int64(lwork),
             rwork, info, 1, 1)
        _check(info, name, n)

    query = np.empty(1, dtype=gram.dtype)
    solve(query, -1)  # the workspace query writes the optimal size
    work = np.empty(max(1, int(query[0].real)), dtype=gram.dtype)
    solve(work, work.size)
    return values


def _syevd(dsyevd, matrix: np.ndarray) -> np.ndarray:
    """``dsyevd`` with jobz='N' and uplo='L' on the Fortran-order ``matrix``
    itself, after the workspace query that ``numpy.linalg.eigvalsh`` makes
    too."""
    n = matrix.shape[0]
    c_n, ld = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
    values = np.empty(n)
    info = ctypes.c_int64(0)

    def solve(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int) -> None:
        dsyevd(b"N", b"L", c_n, matrix, ld, values, work, ctypes.c_int64(lwork),
               iwork, ctypes.c_int64(liwork), info, 1, 1)
        _check(info, SYEVD, n)

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    solve(work, -1, iwork, -1)  # the workspace query writes the optimal sizes
    work = np.empty(max(1, int(work[0])))
    iwork = np.empty(max(1, int(iwork[0])), dtype=np.int64)
    solve(work, work.size, iwork, iwork.size)
    return values


def _check(info: ctypes.c_int64, name: str, n: int) -> None:
    """Raises when LAPACK ``name`` reported a nonzero info on an n x n
    matrix."""
    if info.value != 0:
        raise NumericError(
            f"LAPACK {name} returned info = {info.value} on a {n} x {n} matrix",
            {"routine": name, "info": info.value, "n": n},
        )
