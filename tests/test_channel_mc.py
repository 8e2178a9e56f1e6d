import importlib
import inspect
import sys
import threading
import time
import types

import numpy as np
import pytest
from draws import draw_eigs, hw_draw, serial_ensemble
from scipy import stats as scipy_stats

from ris_edof import blas
from ris_edof.blas import composite_kernel
from ris_edof.channel_mc import ChannelEnsemble, ensemble_from_spectra, ensemble_stats
from ris_edof.correlation import effective_rank, geometry_spectrum
from ris_edof.errors import NumericError, ValidationError
from ris_edof.geometry import RisGeometry

SMALL = RisGeometry(3, 3, 0.5, 0.5)  # 49 elements


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


def dense_gram_eigs(dt, dr, hw):
    """Oracle: ascending eigvalsh of the smaller-side dense Gram product."""
    a = np.sqrt(dr)[:, None] * hw * np.sqrt(dt)[None, :]
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
    eigs = ensemble_from_spectra(dt, dr, 1, 3).eig_samples[0]
    oracle = dense_gram_eigs(dt, dr, hw_draw(3, 0, dr.size, dt.size))[::-1]
    n = min(dt.size, dr.size)
    assert composite_kernel()["routines"] == ["zherk", "zheev_2stage"]
    assert np.max(np.abs(eigs[:n] - oracle)) <= 1e-13 * oracle[0]
    assert np.all(eigs[n:] == 0.0)


def test_fallback_runs_without_kernels(monkeypatch):
    dt, dr = DRAWS["tall"]
    monkeypatch.setattr(blas, "load", lambda: None)
    eigs = ensemble_from_spectra(dt, dr, 2, 3).eig_samples[1]
    assert composite_kernel() == {
        "library": "numpy.linalg", "routines": ["matmul", "eigvalsh"],
        "blas_threads": None,
    }
    oracle = dense_gram_eigs(dt, dr, hw_draw(3, 1, dr.size, dt.size))[::-1]
    assert np.array_equal(eigs[: dt.size], np.maximum(oracle, 0.0))
    assert np.all(eigs[dt.size:] == 0.0)


OPENBLAS_SYMBOLS = (
    "scipy_zherk_64_",
    "scipy_zheev_2stage_64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


@pytest.fixture
def uncached_load():
    """Clears the cache of `blas.load` before and after the test, so the
    test resolves the library afresh and leaves no fake behind."""
    blas.load.cache_clear()
    yield blas.load
    blas.load.cache_clear()


@pytest.mark.parametrize(
    "missing", [None, OPENBLAS_SYMBOLS[2], OPENBLAS_SYMBOLS[3]],
    ids=["all-four", "no-getter", "no-setter"],
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
    else:
        assert loaded is None


def test_run_ensemble_rejects_zero_realizations():
    with pytest.raises(ValidationError):
        ensemble_from_spectra(np.ones(1), np.ones(1), realizations=0, seed=1)


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


def test_ensemble_pins_blas_to_one_thread_and_restores(lapack, blas_threads, monkeypatch):
    during = []

    def zheev(*args):
        during.append(blas_threads())
        lapack.zheev_2stage(*args)

    monkeypatch.setattr(blas, "load", lambda: lapack._replace(zheev_2stage=zheev))
    before = blas_threads()
    ensemble_from_spectra(spectrum_of(12, 8), spectrum_of(12, 9), 3, 1, threads=2)
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
    ],
    ids=["3-half", "2-half-to-2-sixth"],
)
def test_worker_count_does_not_change_results(
    geom_t, geom_r, monkeypatch, fast_switching
):
    dt, dr = geometry_spectrum(geom_t), geometry_spectrum(geom_r)
    # the LAPACK kernels, then the numpy fallback
    for loader in (blas.load, lambda: None):
        monkeypatch.setattr(blas, "load", loader)
        oracle = serial_ensemble(dt, dr, 11, 9)
        # 1-3 draws leave some of the 2 * threads threads without a draw; 11
        # split unevenly over 2, 4 and 6 threads
        for realizations in (1, 2, 3, 11):
            for threads in (1, 2, 3):
                ensemble = ensemble_from_spectra(
                    dt, dr, realizations, 9, threads=threads
                )
                assert np.array_equal(
                    ensemble.eig_samples, oracle[:realizations]
                ), (loader, realizations, threads)
        assert np.all(oracle[:, geom_t.n:] == 0.0)


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
    # the spectrum's blocks are solved on two threads: a square panel's swap
    # blocks and a rectangle's parity blocks
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


def test_one_worker_overlaps_solves_but_not_draw_stages(lapack, monkeypatch):
    dt, dr = spectrum_of(12, 8), spectrum_of(12, 9)
    expected = ensemble_from_spectra(dt, dr, 6, 1).eig_samples
    # each thread's first solve waits for the other thread's, so a worker
    # that solves one draw at a time breaks the barrier instead of hanging
    barrier = threading.Barrier(2, timeout=10)
    solved = threading.local()

    def zheev(*args):
        # args[7] is lwork, -1 on the workspace query
        if args[7].value != -1 and not getattr(solved, "once", False):
            solved.once = True
            barrier.wait()
        lapack.zheev_2stage(*args)

    blas_gram, guard = blas.gram, threading.Lock()
    drawing = {"now": 0, "most": 0}

    def gram(*args):
        with guard:
            drawing["now"] += 1
            drawing["most"] = max(drawing["most"], drawing["now"])
        try:
            time.sleep(0.005)  # holds the stage open for an unlocked thread to join
            return blas_gram(*args)
        finally:
            with guard:
                drawing["now"] -= 1

    monkeypatch.setattr(blas, "load", lambda: lapack._replace(zheev_2stage=zheev))
    monkeypatch.setattr(blas, "gram", gram)
    ensemble = ensemble_from_spectra(dt, dr, 6, 1, threads=1)
    assert drawing["most"] == 1
    assert np.array_equal(ensemble.eig_samples, expected)


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
    ensemble = ChannelEnsemble(np.repeat(row, 4, axis=0), flat, flat)
    stats = ensemble_stats(ensemble)
    assert np.array_equal(stats.std_profile, np.zeros(3))
    assert np.array_equal(stats.mean_profile, row[0])
    assert stats.eigsum_mean == pytest.approx(6.0)


def test_stats_require_two_realizations():
    flat = np.ones(2) / 2
    ensemble = ChannelEnsemble(np.ones((1, 2)), flat, flat)
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
    ensemble = ChannelEnsemble(np.zeros((2, 2)), flat, flat)
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
