import ctypes
import gc
import importlib
import inspect
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from draws import channel_draw, draw_eigs, hw_draw, serial_ensemble
from scipy import stats as scipy_stats

from ris_edof import blas, channel_mc
from ris_edof.blas import composite_kernel
from ris_edof.channel_mc import ChannelEnsemble, ensemble_from_spectra, ensemble_stats
from ris_edof.correlation import (
    _clamp_negative,
    _lattice_block,
    _solve,
    effective_rank,
    geometry_spectrum,
    offset_table,
)
from ris_edof.errors import NumericError, ValidationError
from ris_edof.geometry import RisGeometry

SMALL = RisGeometry(3, 3, 0.5, 0.5)  # 49 elements
PRECISIONS = (np.complex128, np.complex64)
LAPACK_ROUTINES = {
    "complex128": ["zherk", "zheev_2stage"],
    "complex64": ["cherk", "cheev", "cheev_2stage"],
}


def mc(geom_t, geom_r, realizations, seed, threads=1):
    """Monte Carlo ensemble over the two panels' correlation spectra."""
    return ensemble_from_spectra(
        geometry_spectrum(geom_t),
        geometry_spectrum(geom_r),
        realizations,
        seed,
        threads=threads,
    )


def used(spectrum):
    """The leading values that the ensemble solves on."""
    return spectrum[: effective_rank(spectrum)]


def test_stream_is_deterministic_per_index():
    flat = np.ones(8) / 8
    a = ensemble_from_spectra(flat, flat, 4, 42).eig_samples
    b = ensemble_from_spectra(flat, flat, 5, 42).eig_samples
    assert np.array_equal(a, b[:4])
    assert not np.array_equal(b[3], b[4])
    assert np.array_equal(a[3], draw_eigs(flat, flat, hw_draw(42, 3, 8, 8)))


def test_hw_moments():
    hw = hw_draw(7, 0, 256, 256)
    assert np.mean(np.abs(hw) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(hw.mean()) < 0.01


def test_composite_scalar_case():
    eigs = ensemble_from_spectra(np.array([1.0]), np.array([1.0]), 1, 1).eig_samples[0]
    assert eigs == pytest.approx([abs(hw_draw(1, 0, 1, 1)[0, 0]) ** 2])


def test_rectangular_draw_uses_smaller_gram():
    dt = geometry_spectrum(RisGeometry(1.5, 1.5, 0.5, 0.5))  # 16 elements
    dr = geometry_spectrum(SMALL)  # 49 elements
    eigs = ensemble_from_spectra(dt, dr, 2, 5).eig_samples[1]
    dt_used, dr_used = used(dt), used(dr)
    hw = hw_draw(5, 1, dr_used.size, dt_used.size)
    a = np.sqrt(dr_used)[:, None] * hw * np.sqrt(dt_used)[None, :]
    full = np.sort(np.linalg.eigvalsh(a @ a.conj().T))[::-1]
    # the 16 x 16 Gram: its values lead the 49 x 49 spectrum, whose other 33
    # are zero up to rounding; the row pads them with exact zeros
    n = dt_used.size
    assert eigs.shape == (dr.size,)
    assert np.max(np.abs(eigs[:n] - full[:n])) <= 1e-12 * full[0]
    assert np.max(np.abs(full[n:])) <= 1e-12 * full[0]
    assert np.all(eigs[n:] == 0.0)
    assert np.all(np.diff(eigs) <= 0)


def test_trace_identity_per_realization():
    dt = geometry_spectrum(SMALL)
    dr = dt
    eigs = ensemble_from_spectra(dt, dr, 3, 5).eig_samples[2]
    dt_used, dr_used = used(dt), used(dr)
    hw = hw_draw(5, 2, dr_used.size, dt_used.size)
    direct = float(np.sum(dr_used[:, None] * np.abs(hw) ** 2 * dt_used[None, :]))
    assert eigs.sum() == pytest.approx(direct, rel=1e-9)


def dense_gram_eigs(dt, dr, hw, dtype=np.complex128):
    """Oracle: ascending eigvalsh of the smaller-side dense Gram product,
    with A formed in float64 and rounded once to ``dtype``."""
    a = (np.sqrt(dr)[:, None] * hw * np.sqrt(dt)[None, :]).astype(dtype)
    gram = a.conj().T @ a if dt.size < dr.size else a @ a.conj().T
    return np.linalg.eigvalsh(gram)


def spectrum_of(size, seed):
    values = np.sort(np.random.default_rng(seed).random(size))[::-1]
    return values / values.sum()


DRAWS = {
    "square": (spectrum_of(40, 1), spectrum_of(40, 2)),
    "tall": (spectrum_of(9, 3), spectrum_of(31, 4)),
    "wide": (spectrum_of(31, 5), spectrum_of(9, 6)),
    "1x1": (np.ones(1), np.ones(1)),
}


@pytest.mark.parametrize("dt, dr", DRAWS.values(), ids=DRAWS.keys())
def test_kernel_path_matches_dense_eigvalsh(lapack, dt, dr):
    # for a denser transmit panel the stream fills H^T
    oracle = dense_gram_eigs(dt, dr, channel_draw(3, 0, dr.size, dt.size))[::-1]
    n = min(dt.size, dr.size)
    assert composite_kernel()["routines"] == LAPACK_ROUTINES
    for dtype in PRECISIONS:
        eigs = ensemble_from_spectra(dt, dr, 1, 3, dtype=dtype).eig_samples[0]
        # 1e-13 in complex128; in complex64 a few ulps per dimension
        tol = max(1e-13, 4 * n * np.finfo(dtype).eps)
        assert np.max(np.abs(eigs[:n] - oracle)) <= tol * oracle[0], dtype
        assert np.all(eigs[n:] == 0.0)


@pytest.fixture
def solved(lapack, monkeypatch):
    """Loads numpy's OpenBLAS with each eigensolver wrapped, and returns
    the list of (routine, n) it appends to on every call: a workspace query
    and a solve per Gram matrix."""
    calls = []

    def counted(name):
        heev = lapack.routines[name]

        def run(*args):
            calls.append((name, args[2].value))
            heev(*args)

        return run

    names = {"zheev_2stage", "cheev", "cheev_2stage"}
    fake = lapack._replace(
        routines=lapack.routines | {name: counted(name) for name in names}
    )
    monkeypatch.setattr(blas, "load", lambda: fake)
    return calls


@pytest.mark.parametrize("rank", [11, 12, 13, 40])
def test_cheev_solves_up_to_its_rank_and_cheev_2stage_above(
    solved, monkeypatch, rank
):
    # the switch moved down to 12 rows: complex64 Gram matrices of rank 11
    # and 12 run the one-stage cheev, those of rank 13 and 40 cheev_2stage,
    # and complex128 ones zheev_2stage at every rank
    monkeypatch.setattr(blas, "CHEEV_MAX_RANK", 12)
    dt, dr = spectrum_of(rank, 10), spectrum_of(rank + 5, 11)
    routines = {np.complex128: "zheev_2stage",
                np.complex64: "cheev" if rank <= 12 else "cheev_2stage"}
    for dtype, routine in routines.items():
        solved.clear()
        ensemble = ensemble_from_spectra(dt, dr, 3, 4, threads=2, dtype=dtype)
        assert ensemble.eigensolver == routine
        assert sorted(solved) == [(routine, rank)] * 6
        tol = max(1e-13, 4 * rank * np.finfo(dtype).eps)
        for i, eigs in enumerate(ensemble.eig_samples):
            hw = channel_draw(4, i, dr.size, dt.size)
            oracle = dense_gram_eigs(dt, dr, hw)[::-1]
            assert np.max(np.abs(eigs[:rank] - oracle)) <= tol * oracle[0]
            assert np.all(eigs[rank:] == 0.0)


def test_cheev_negatives_stay_far_above_the_clamp_floor(
    solved, monkeypatch, half_spectrum
):
    # rank 624 on square 12-wavelength panels, whose Gram matrix reaches
    # down to 0: cheev's rounding negatives stay above -1e-8 of the largest
    # value, a 30,000th of the float32 clamp floor
    eigvalsh, extremes = blas.eigvalsh, []

    def raw(gram):
        values = eigvalsh(gram)
        extremes.append((values[0], values[-1]))
        return values

    monkeypatch.setattr(blas, "eigvalsh", raw)
    ensemble_from_spectra(half_spectrum, half_spectrum, 2, 42, dtype=np.complex64)
    assert {name for name, _ in solved} == {"cheev"}
    assert len(extremes) == 2
    for low, top in extremes:
        assert -1e-8 * top <= low < 0.0, (low, top)


def test_fallback_runs_without_kernels(monkeypatch):
    dt, dr = DRAWS["tall"]
    monkeypatch.setattr(blas, "load", lambda: None)
    pair = ["matmul", "eigvalsh"]
    assert composite_kernel() == {
        "library": "numpy.linalg",
        "routines": {"complex128": pair, "complex64": pair},
        "cheev_max_rank": None,
        "blas_threads": None,
    }
    assert blas.blas_core() is None
    for dtype in PRECISIONS:
        eigs = ensemble_from_spectra(dt, dr, 2, 3, dtype=dtype).eig_samples[1]
        hw = hw_draw(3, 1, dr.size, dt.size)
        oracle = dense_gram_eigs(dt, dr, hw, dtype)[::-1]
        assert oracle.dtype == np.finfo(dtype).dtype
        assert np.array_equal(eigs[: dt.size], np.maximum(oracle, 0.0))
        assert np.all(eigs[dt.size:] == 0.0)


@pytest.mark.parametrize("dtype", PRECISIONS)
@pytest.mark.parametrize("loader", ["lapack", "numpy"])
def test_clamp_raises_on_a_gram_that_is_not_psd(monkeypatch, loader, dtype):
    # -0.01 of the largest eigenvalue is far below the float32 floor of
    # 4 * 2 * eps32 = 9.5e-7 for two values, so it raises in both precisions;
    # -1e-7 is rounding noise in float32 but not in float64
    if loader == "numpy":
        monkeypatch.setattr(blas, "load", lambda: None)
    elif blas.load() is None:
        pytest.skip("numpy's BLAS does not export the LAPACK routines")
    for low, raises in ((-1e-2, True), (-1e-7, dtype == np.complex128)):
        gram = np.diag([1.0, low]).astype(dtype)
        values = blas.eigvalsh(gram)[::-1]
        assert values.dtype == np.finfo(dtype).dtype
        if raises:
            with pytest.raises(NumericError, match="below clamp floor"):
                _clamp_negative(values, "composite eigenvalue")
        else:
            assert np.array_equal(
                _clamp_negative(values, "composite eigenvalue"), [1.0, 0.0]
            )


OPENBLAS_SYMBOLS = (
    "scipy_zherk_64_",
    "scipy_zheev_2stage_64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_cherk_64_",
    "scipy_cheev_2stage_64_",
    "scipy_cheev_64_",
    "scipy_dsyevd_64_",
)


@pytest.fixture
def uncached_load():
    """Clears the cache of `blas.load` before and after the test, so the
    test resolves the library afresh and leaves no fake behind."""
    blas.load.cache_clear()
    yield blas.load
    blas.load.cache_clear()


@pytest.mark.parametrize(
    "missing", [None, *OPENBLAS_SYMBOLS[2:]],
    ids=["all-four", "no-getter", "no-setter", "no-cherk", "no-cheev",
         "no-one-stage-cheev", "no-dsyevd"],
)
def test_load_needs_the_thread_count_functions(monkeypatch, uncached_load, missing):
    def cdll(path):
        # a stand-in symbol takes the argtypes and restype that load sets
        return types.SimpleNamespace(
            **{name: types.SimpleNamespace() for name in OPENBLAS_SYMBOLS
               if name != missing}
        )

    monkeypatch.setattr(blas.glob, "glob", lambda pattern: ["/lib/libfake_openblas.so"])
    monkeypatch.setattr(blas.ctypes, "CDLL", cdll)
    loaded = uncached_load()
    if missing is None:
        assert loaded.library == "libfake_openblas.so"
        # a build without the core-name getter loads, and names no core
        assert loaded.core is None
    else:
        assert loaded is None


@pytest.mark.parametrize(
    "call, field, message",
    [
        (lambda: blas.gram(np.ones((4, 3)), np.empty((2, 2), complex)), "out",
         r"\(2, 2\) is not \(3, 3\)"),
        (lambda: blas.gram(np.ones((4, 3)), np.empty((3, 3), np.float32)), "dtype",
         "no routines for float32"),
        (lambda: blas.eigensolver(np.float32, 3), "dtype", "no routines for float32"),
    ],
    ids=["gram-shape", "gram-dtype", "eigensolver-dtype"],
)
def test_blas_names_the_rejected_argument(lapack, call, field, message):
    with pytest.raises(ValidationError, match=message) as failure:
        call()
    assert failure.value.field == field


def test_lapack_calls_leave_no_reference_cycles(lapack):
    # each array argument reaches LAPACK as a bare data pointer, so a Gram
    # matrix and its solve in each precision, and a correlation block's
    # dsyevd solve, leave nothing for the cyclic collector
    block = _lattice_block(offset_table(RisGeometry(2, 2, 0.5, 0.5)), 1, 1)
    gc.collect()
    gc.disable()
    try:
        for dtype in PRECISIONS:
            rows = np.arange(12.0).reshape(4, 3) + 1j
            blas.eigvalsh(blas.gram(rows, np.empty((3, 3), dtype=dtype)))
        _solve(block)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_ensemble_rejects_zero_realizations():
    with pytest.raises(ValidationError):
        ensemble_from_spectra(np.ones(1), np.ones(1), realizations=0, seed=1)


@pytest.mark.parametrize("realizations", [1, 3])
@pytest.mark.parametrize("threads", [0, -2])
def test_ensemble_rejects_fewer_than_one_thread(monkeypatch, realizations, threads):
    def pinned():
        raise AssertionError("pinned BLAS before validating the thread count")

    monkeypatch.setattr(blas, "one_thread", pinned)
    flat = np.ones(4) / 4
    with pytest.raises(ValidationError, match="threads") as failure:
        ensemble_from_spectra(flat, flat, realizations, 1, threads=threads)
    assert failure.value.field == "threads"


@pytest.mark.parametrize("field", ["dt", "dr"])
def test_ensemble_rejects_spectrum_without_positive_value(monkeypatch, field):
    def pinned():
        raise AssertionError("pinned BLAS before validating the spectra")

    monkeypatch.setattr(blas, "one_thread", pinned)
    spectra = {"dt": np.ones(3) / 3, "dr": np.ones(3) / 3, field: np.zeros(3)}
    with pytest.raises(ValidationError, match="no positive value") as failure:
        ensemble_from_spectra(spectra["dt"], spectra["dr"], 3, 1)
    assert failure.value.field == field


@pytest.fixture
def blas_threads(lapack):
    """Sets OpenBLAS to 2 threads, a count the ensemble must restore, and
    returns its getter; the count from before is restored afterwards."""
    old = lapack.get_threads()
    lapack.set_threads(2)
    yield lapack.get_threads
    lapack.set_threads(old)


@pytest.mark.parametrize("dtype", PRECISIONS)
def test_ensemble_pins_blas_to_one_thread_and_restores(
    lapack, blas_threads, monkeypatch, dtype
):
    # rank 12 runs zheev_2stage in complex128 and the one-stage cheev in
    # complex64
    name = blas.eigensolver(dtype, 12)
    during = []

    def heev(*args):
        during.append(blas_threads())
        lapack.routines[name](*args)

    fake = lapack._replace(routines=lapack.routines | {name: heev})
    monkeypatch.setattr(blas, "load", lambda: fake)
    before = blas_threads()
    ensemble_from_spectra(
        spectrum_of(12, 8), spectrum_of(12, 9), 3, 1, threads=2, dtype=dtype
    )
    # a workspace query and a solve per draw
    assert during == [1] * 6
    assert blas_threads() == before == 2


def test_lapack_info_raises_numeric_error(zheev_info):
    zheev_info(3)
    with pytest.raises(NumericError, match="info = 3") as failure:
        ensemble_from_spectra(np.ones(4) / 4, np.ones(4) / 4, 3, 1)
    assert failure.value.diagnostics["info"] == 3


def test_blas_threads_restored_when_a_draw_raises(blas_threads, zheev_info):
    zheev_info(3)
    with pytest.raises(NumericError, match="info = 3"):
        ensemble_from_spectra(np.ones(4) / 4, np.ones(4) / 4, 3, 1)
    assert blas_threads() == 2


@pytest.fixture
def fast_switching():
    """Switches threads every microsecond, so an update lost between a
    worker's threads shows; the old interval is restored afterwards."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize(
    "geom_t, geom_r",
    [
        (SMALL, SMALL),
        # 25 -> 169 elements; the receive rank at RANK_TOL is 112, so each
        # row pads from at most 25 solved values straight to 169
        (RisGeometry(2, 2, 0.5, 0.5), RisGeometry(2, 2, 1 / 6, 1 / 6)),
        # the same panels swapped: the denser panel transmits, and the
        # stream fills H^T with the 112 transmit modes along its rows
        (RisGeometry(2, 2, 1 / 6, 1 / 6), RisGeometry(2, 2, 0.5, 0.5)),
    ],
    ids=["3-half", "2-half-to-2-sixth", "wide"],
)
def test_worker_count_does_not_change_results(
    geom_t, geom_r, monkeypatch, fast_switching
):
    dt, dr = geometry_spectrum(geom_t), geometry_spectrum(geom_r)
    # the LAPACK kernels, then the numpy fallback, each in both precisions
    for loader in (blas.load, lambda: None):
        monkeypatch.setattr(blas, "load", loader)
        for dtype in PRECISIONS:
            oracle = serial_ensemble(dt, dr, 11, 9, dtype)
            # 1-3 draws leave some of the 2 * threads threads without a draw;
            # 11 split unevenly over 2, 4 and 6 threads
            for realizations in (1, 2, 3, 11):
                for threads in (1, 2, 3):
                    ensemble = ensemble_from_spectra(
                        dt, dr, realizations, 9, threads=threads, dtype=dtype
                    )
                    assert np.array_equal(
                        ensemble.eig_samples, oracle[:realizations]
                    ), (loader, dtype, realizations, threads)
            assert np.all(oracle[:, min(geom_t.n, geom_r.n):] == 0.0)


@pytest.mark.parametrize("loader", ["lapack", "numpy"])
@pytest.mark.parametrize("shape", ["tall", "square", "wide"])
def test_row_chunks_draw_the_stream_in_order(monkeypatch, loader, shape):
    dt, dr = DRAWS[shape]
    if loader == "numpy":
        monkeypatch.setattr(blas, "load", lambda: None)
    elif blas.load() is None:
        pytest.skip("numpy's BLAS does not export the LAPACK routines")
    # chunks of 3 rows: 31 rows split 10 x 3 + 1 and 40 rows 13 x 3 + 1, so
    # each part of A takes 11 or 14 calls of the stream and the Gram matrix
    # as many chunks, the last one ragged
    monkeypatch.setattr(channel_mc, "_CHUNK_ROWS", 3)
    for dtype in PRECISIONS:
        oracle = serial_ensemble(dt, dr, 5, 4, dtype)
        for threads in (1, 2):
            ensemble = ensemble_from_spectra(
                dt, dr, 5, 4, threads=threads, dtype=dtype
            )
            assert np.array_equal(ensemble.eig_samples, oracle), (dtype, threads)


LAYERS = ("correlation", "channel_mc", "edof", "analytic_cdf", "cli")


def test_no_public_function_runs_off_the_main_thread(monkeypatch):
    # perfbench's tracer wraps these functions with one span stack, which
    # only nests spans right when every wrapped call is on one thread
    calls = []

    def record(name, fn):
        def recorded(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return recorded

    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ris_edof.{layer}")
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrapped[fn] = record(f"{layer}.{attr}", fn)
    # each function at every module that holds a reference to it
    for name, module in list(sys.modules.items()):
        if name.startswith("ris_edof."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[obj])
    channel_mc = sys.modules["ris_edof.channel_mc"]
    dt, dr = spectrum_of(12, 8), spectrum_of(12, 9)
    channel_mc.ensemble_from_spectra(dt, dr, 6, 1, threads=2)
    # the spectrum's blocks, a square panel's swap blocks and a rectangle's
    # parity blocks, are solved on the calling thread
    correlation = sys.modules["ris_edof.correlation"]
    for geom in (SMALL, RisGeometry(3, 2, 0.5, 0.5)):
        correlation.geometry_spectrum(geom)
    assert {
        "channel_mc.ensemble_from_spectra",
        "correlation.geometry_spectrum",
        "correlation.eigen_decompose",
    } <= {name for name, _ in calls}
    main = threading.main_thread().ident
    assert [name for name, ident in calls if ident != main] == []


@pytest.mark.parametrize("threads", [1, 2])
def test_one_draw_left_runs_on_the_calling_thread(monkeypatch, threads):
    # the precision gate solves its complex128 draw 0 in a one-draw call; a
    # pool thread would keep its freed buffers in its own arena
    dt, dr = spectrum_of(12, 8), spectrum_of(12, 9)
    expected = serial_ensemble(dt, dr, 1, 5)
    blas_eigvalsh, solved_on = blas.eigvalsh, []

    def eigvalsh(matrix):
        solved_on.append(threading.get_ident())
        return blas_eigvalsh(matrix)

    monkeypatch.setattr(blas, "eigvalsh", eigvalsh)
    ensemble = ensemble_from_spectra(dt, dr, 1, 5, threads=threads)
    assert solved_on == [threading.get_ident()]
    assert np.array_equal(ensemble.eig_samples, expected)


def test_one_worker_overlaps_its_draw_stages(monkeypatch):
    dt, dr = spectrum_of(12, 8), spectrum_of(12, 9)
    # chunks of 3 rows, so each draw stage adds 4 chunks into its Gram matrix
    monkeypatch.setattr(channel_mc, "_CHUNK_ROWS", 3)
    expected = serial_ensemble(dt, dr, 6, 1)
    # each thread's first draw stage waits in its first chunk for the other
    # thread's, so a worker whose draw stages take turns breaks the barrier
    # instead of hanging
    barrier = threading.Barrier(2, timeout=10)
    blas_gram, guard, stage = blas.gram, threading.Lock(), threading.local()
    drawing = {"now": 0, "most": 0}

    def gram(rows, out, accumulate=False):
        # a draw stage runs from its first chunk until its Gram matrix holds
        # all 12 rows
        if not accumulate:
            stage.rows = 0
            with guard:
                drawing["now"] += 1
                drawing["most"] = max(drawing["most"], drawing["now"])
            if not getattr(stage, "met", False):
                stage.met = True
                barrier.wait()
        blas_gram(rows, out, accumulate)
        stage.rows += len(rows)
        if stage.rows == len(dr):
            with guard:
                drawing["now"] -= 1
        return out

    monkeypatch.setattr(blas, "gram", gram)
    ensemble = ensemble_from_spectra(dt, dr, 6, 1, threads=1)
    assert drawing == {"now": 0, "most": 2}
    assert np.array_equal(ensemble.eig_samples, expected)


def heev_workspace(lapack, n: int) -> int:
    """Bytes of the work and rwork arrays that `blas.eigvalsh` gives
    ``zheev_2stage`` on an n x n matrix, from the routine's own workspace
    query."""
    query, rwork = np.empty(1, dtype=np.complex128), np.empty(3 * n - 2)
    lapack.routines["zheev_2stage"](
        b"N", b"L", ctypes.c_int64(n), np.zeros((n, n), dtype=np.complex128),
        ctypes.c_int64(n), np.empty(n), query, ctypes.c_int64(-1), rwork,
        ctypes.c_int64(0), 1, 1,
    )
    return int(query[0].real) * 16 + rwork.nbytes


def traced_call(dt, dr):
    """The tracemalloc peak of a 4-draw call on one worker."""
    tracemalloc.start()
    try:
        ensemble_from_spectra(dt, dr, 4, 7, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draw_threads_hold_one_chunk_each(lapack):
    # 1000 x 200: each draw's Gram matrix sums 16 chunks of at most 64
    # rows; A's real half, which no draw keeps, would take 1.6 MB
    rows, cols = 1000, 200
    dt, dr = spectrum_of(cols, 1), spectrum_of(rows, 2)
    # what does not grow with the panels: the pool's threads and futures,
    # each draw's generators and the ctypes objects of its LAPACK calls,
    # measured on 1 x 1 spectra first, so that it also holds what only the
    # process's first call allocates
    fixed = traced_call(np.ones(1), np.ones(1))
    peak = traced_call(dt, dr)
    # each of the worker's two threads' float64 and complex128 chunks, the
    # roots of the two spectra, its Gram matrix, the solve's workspace and
    # three eigenvalue vectors: the solve's, and the last draw's values and
    # clamped row; and the samples and what does not grow
    chunks = channel_mc._CHUNK_ROWS * cols * (8 + 16)
    roots = (rows + cols) * 8
    gram = cols * cols * 16
    vectors = 3 * cols * 8
    samples = 4 * rows * 8
    per_thread = chunks + roots + gram + heev_workspace(lapack, cols) + vectors
    assert peak < 2 * per_thread + samples + fixed, peak


def test_rank_bounded_by_spectra():
    geom_t = RisGeometry(2, 2, 0.5, 0.5)
    ensemble = mc(geom_t, SMALL, realizations=5, seed=3)
    r_t = effective_rank(ensemble.dt)
    r_r = effective_rank(ensemble.dr)
    for row in ensemble.eig_samples:
        assert np.sum(row > 1e-14 * max(row[0], 1e-300)) <= min(r_t, r_r)


def test_rows_sorted_and_nonnegative():
    ensemble = mc(SMALL, SMALL, realizations=5, seed=3)
    assert np.all(ensemble.eig_samples >= 0)
    assert np.all(np.diff(ensemble.eig_samples, axis=1) <= 0)


def test_stats_on_identical_samples():
    row = np.array([[3.0, 2.0, 1.0]])
    flat = np.ones(3) / 3
    ensemble = ChannelEnsemble(
        np.repeat(row, 4, axis=0), flat, flat, "eigvalsh", "complex128"
    )
    stats = ensemble_stats(ensemble)
    assert np.array_equal(stats.std_profile, np.zeros(3))
    assert np.array_equal(stats.mean_profile, row[0])
    assert stats.eigsum_mean == pytest.approx(6.0)


def test_stats_require_two_realizations():
    flat = np.ones(2) / 2
    ensemble = ChannelEnsemble(np.ones((1, 2)), flat, flat, "eigvalsh", "complex128")
    with pytest.raises(ValidationError):
        ensemble_stats(ensemble)


def test_stats_mean_profile_non_increasing():
    ensemble = mc(SMALL, SMALL, realizations=50, seed=11)
    stats = ensemble_stats(ensemble)
    assert np.all(np.diff(stats.mean_profile) <= 0)
    assert np.all(stats.std_profile >= 0)


def test_eigensum_scalar_channel():
    ensemble = ensemble_from_spectra(
        np.array([1.0]), np.array([1.0]), realizations=500, seed=21
    )
    assert ensemble_stats(ensemble).eigsum_mean == pytest.approx(
        1.0, abs=3 / np.sqrt(500)
    )


def test_eigensum_zero_channel_injected():
    # ensemble_stats needs two realizations
    flat = np.ones(2) / 2
    ensemble = ChannelEnsemble(np.zeros((2, 2)), flat, flat, "eigvalsh", "complex128")
    assert ensemble_stats(ensemble).eigsum_mean == 0.0


def test_eigensum_near_one_small_geometry():
    ensemble = mc(SMALL, SMALL, realizations=300, seed=13)
    assert ensemble_stats(ensemble).eigsum_mean == pytest.approx(1.0, abs=0.05)


def test_swap_symmetry_of_link_ends():
    geom_a = RisGeometry(3, 1.5, 0.5, 0.5)  # 7 x 4 grid
    geom_b = RisGeometry(1.5, 3, 0.25, 0.5)  # 7 x 7 grid
    fwd = mc(geom_a, geom_b, realizations=500, seed=17)
    rev = mc(geom_b, geom_a, realizations=500, seed=18)
    top_fwd = fwd.eig_samples[:, 0]
    top_rev = rev.eig_samples[:, 0]
    ks = scipy_stats.ks_2samp(top_fwd, top_rev).statistic
    assert ks < 0.08


def test_dense_spacing_eigenvalues_concentrate():
    # scaled-down stand-in for the dense-spacing panels: per-index spread of
    # the leading eigenvalues is far below their mean
    geom = RisGeometry(6, 6, 1 / 6, 1 / 6)
    ensemble = mc(geom, geom, realizations=100, seed=42)
    stats = ensemble_stats(ensemble)
    ratio = stats.std_profile[:12] / stats.mean_profile[:12]
    assert ratio.max() < 0.1
