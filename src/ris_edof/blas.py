"""Gram matrices and their eigenvalues for the Monte Carlo draws: the one
place that picks the library and the routine they run on.

numpy's wheels bundle an ILP64 OpenBLAS whose symbols carry a ``scipy_``
prefix and a ``64_`` suffix. When it exports ``zherk``, ``zheev_2stage``,
their single-precision twins ``cherk`` and ``cheev_2stage``, the one-stage
``cheev``, and its thread-count getter and setter, `load` returns all seven,
with the name of the CPU kernels OpenBLAS picked (`blas_core`). ``zherk``
adds one triangle of a row chunk's Gram matrix into the draw's, half the
flops of ``a.conj().T @ a`` and with no conjugate copy; the ``heev``
routines with jobz='N' return its eigenvalues; `one_thread` pins the library
for a block of calls: the draws, and the correlation spectrum's
``numpy.linalg.eigvalsh``, which runs on the same OpenBLAS. Otherwise
(Accelerate, MKL, a source build) `load` gives None, and `gram` and
`eigvalsh` run ``np.matmul`` and ``np.linalg.eigvalsh``. `composite_kernel`
names the path. The library is found as ``perfbench/run.py`` finds it, on the
first call of `load`.

Precision follows the buffers: `gram` runs ``zherk`` on complex128 and
``cherk`` on complex64, and the numpy path keeps the dtype it is given. Each
precision has its own eigensolver, because the two-stage reduction pays off
at a different rank in each (`eigensolver`). Measured on a 2-core VM with
numpy's OpenBLAS (core SkylakeX) on one BLAS thread, medians of 7:

- complex64 at rank 624: ``cheev`` (``chetrd`` + ``ssterf``, the same
  arguments) takes 27-29 ms against 39-43 ms for ``cheev_2stage``, and two
  solves at once, as a worker's two threads run them, 38-57 against
  68-76 ms; at rank 1021, 131-150 against 149-209 ms;
- whole complex64 ensembles at one worker (4 draws on synthetic spectra,
  alternating): ``cheev`` is 1.36x faster at rank 624, 1.18x at 1021,
  1.05x at 1150 and 1.00x at 1300, and 0.99x and 0.98x at 1600 and 2000;
  one solve at rank 2000 takes 0.71-0.94 s with ``cheev_2stage`` and
  0.93-0.94 s with ``cheev``, and at rank 3980 6.95 against 8.21 s. So
  complex64 Gram matrices up to CHEEV_MAX_RANK = 1300 run ``cheev``: every
  desk column (ranks 624, 793 and 1021), and the 12-wavelength panels at a
  sixth and a twelfth of a wavelength (1044, 1056); the 32-wavelength
  draws (rank 3980) run ``cheev_2stage``;
- complex128 at rank 624: ``zheev_2stage`` takes 58-65 ms against 77-79 ms
  for the one-stage ``zheev``, and two at once 91-95 against 111-117 ms; at
  rank 1021, 204-208 against 288-298 ms. So complex128 runs
  ``zheev_2stage`` at every rank.

Only the EDoF products draw in complex64, and only when a gate on the run's
own first draws finds that single precision does not move the EDoF (see
`ris_edof.cli`); everything else, and every library caller, stays in
complex128.
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
    cherk: object  # the single-precision twins of the two above
    cheev_2stage: object
    cheev: object  # the one-stage solver for complex64 ranks up to CHEEV_MAX_RANK
    get_threads: object  # OpenBLAS's thread-count getter and setter
    set_threads: object
    core: str | None  # the CPU kernels OpenBLAS picked, None when it does not say


# the largest complex64 rank that `eigvalsh` solves with the one-stage
# ``cheev``; larger ones run ``cheev_2stage`` (see the module docstring)
CHEEV_MAX_RANK = 1300
# dtype of the buffers -> the Gram routine, the eigensolver up to
# CHEEV_MAX_RANK and the one above it, as the manifest names them
ROUTINES = {
    np.dtype(np.complex128): ("zherk", "zheev_2stage", "zheev_2stage"),
    np.dtype(np.complex64): ("cherk", "cheev", "cheev_2stage"),
}


@functools.cache
def load() -> Lapack | None:
    """The five routines, the thread-count getter and setter and the core
    name from numpy's bundled OpenBLAS, or None when that build does not
    export all seven functions."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        try:
            zherk, zheev = lib.scipy_zherk_64_, lib.scipy_zheev_2stage_64_
            cherk, cheev_2stage = lib.scipy_cherk_64_, lib.scipy_cheev_2stage_64_
            cheev = lib.scipy_cheev_64_
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        i64 = ctypes.POINTER(ctypes.c_int64)
        c, length = ctypes.c_char_p, ctypes.c_size_t  # hidden Fortran string length
        for herk, heevs, complex_, real in (
            (zherk, (zheev,), np.complex128, np.float64),
            (cherk, (cheev_2stage, cheev), np.complex64, np.float32),
        ):
            z = np.ctypeslib.ndpointer(complex_, flags="C_CONTIGUOUS")
            d = np.ctypeslib.ndpointer(real, flags="C_CONTIGUOUS")
            scalar = ctypes.POINTER(np.ctypeslib.as_ctypes_type(real))
            herk.argtypes = [c, c, i64, i64, scalar, z, i64, scalar, z, i64,
                             length, length]
            herk.restype = None
            for heev in heevs:  # the one- and two-stage solvers share them
                heev.argtypes = [c, c, i64, z, i64, d, z, i64, d, i64,
                                 length, length]
                heev.restype = None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return Lapack(os.path.basename(path), zherk, zheev, cherk, cheev_2stage,
                      cheev, get, set_, _core_name(lib))
    return None


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
    """The routine `eigvalsh` runs on an n x n Gram matrix of ``dtype``."""
    if load() is None:
        return "eigvalsh"
    _, small, large = _names(np.dtype(dtype))
    return small if n <= CHEEV_MAX_RANK else large


def _names(dtype: np.dtype) -> tuple[str, str, str]:
    """The Gram routine's and the two eigensolvers' names for buffers of
    ``dtype``."""
    try:
        return ROUTINES[dtype]
    except KeyError:
        raise ValueError(
            f"no routines for {dtype}; use complex128 or complex64"
        ) from None


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
        raise ValueError(f"Gram buffer shape {out.shape} is not {(k, k)}")
    lapack = load()
    if lapack is None:
        if accumulate:
            out += rows.conj().T @ rows
            return out
        return np.matmul(rows.conj().T, rows, out=out)
    herk = getattr(lapack, _names(out.dtype)[0])
    scalar = np.ctypeslib.as_ctypes_type(out.real.dtype)
    # LAPACK reads the row-major ``rows`` as its k x r transpose F, and
    # F F^H = conj(rows^H rows) has the same eigenvalues
    ld = ctypes.c_int64(max(k, 1))
    herk(b"L", b"N", ctypes.c_int64(k), ctypes.c_int64(len(rows)), scalar(1.0),
         rows, ld, scalar(float(accumulate)), out, ld, 1, 1)
    return out


def eigvalsh(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix whose lower triangle
    ``gram`` holds, float64 for a complex128 ``gram`` and float32 for a
    complex64 one. The kernel path overwrites ``gram``."""
    lapack = load()
    if lapack is None:
        return np.linalg.eigvalsh(gram)
    n = gram.shape[0]
    name = eigensolver(gram.dtype, n)
    heev = getattr(lapack, name)
    real = gram.real.dtype
    c_n, ld = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
    values = np.empty(n, dtype=real)
    rwork = np.empty(max(1, 3 * n - 2), dtype=real)
    info = ctypes.c_int64(0)

    def solve(work: np.ndarray, lwork: int) -> None:
        heev(b"N", b"L", c_n, gram, ld, values, work, ctypes.c_int64(lwork),
             rwork, info, 1, 1)
        if info.value != 0:
            raise NumericError(
                f"LAPACK {name} returned info = {info.value} on a "
                f"{n} x {n} Gram matrix",
                {"routine": name, "info": info.value, "n": n},
            )

    query = np.empty(1, dtype=gram.dtype)
    solve(query, -1)  # the workspace query writes the optimal size
    work = np.empty(max(1, int(query[0].real)), dtype=gram.dtype)
    solve(work, work.size)
    return values
