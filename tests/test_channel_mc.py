import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ris_edof import blas
from ris_edof.channel_mc import (
    ChannelEnsemble,
    composite_eigs,
    composite_kernel,
    ensemble_from_spectra,
    ensemble_stats,
    realization_stream,
    sample_hw,
)
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


def test_stream_is_deterministic_per_index():
    a = sample_hw(8, 8, realization_stream(42, 3))
    b = sample_hw(8, 8, realization_stream(42, 3))
    c = sample_hw(8, 8, realization_stream(42, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hw_moments():
    hw = sample_hw(256, 256, realization_stream(7, 0))
    assert np.mean(np.abs(hw) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(hw.mean()) < 0.01


def test_composite_scalar_case():
    stream = realization_stream(1, 0)
    h = sample_hw(1, 1, stream)
    eigs = composite_eigs(np.array([1.0]), np.array([1.0]), h)
    assert eigs == pytest.approx([abs(h[0, 0]) ** 2])


def test_composite_zero_spectrum():
    hw = sample_hw(3, 3, realization_stream(1, 0))
    eigs = composite_eigs(np.zeros(3), np.ones(3) / 3, hw)
    assert np.array_equal(eigs, np.zeros(3))


def test_composite_dimension_mismatch():
    hw = sample_hw(3, 4, realization_stream(1, 0))
    with pytest.raises(ValidationError):
        composite_eigs(np.ones(3) / 3, np.ones(3) / 3, hw)


def test_rectangular_draw_uses_smaller_gram():
    dt = geometry_spectrum(RisGeometry(1.5, 1.5, 0.5, 0.5))  # 16 elements
    dr = geometry_spectrum(SMALL)  # 49 elements
    hw = sample_hw(dr.size, dt.size, realization_stream(5, 1))
    eigs = composite_eigs(dt, dr, hw)
    a = np.sqrt(dr)[:, None] * hw * np.sqrt(dt)[None, :]
    full = np.sort(np.linalg.eigvalsh(a @ a.conj().T))[::-1]
    # the 16 x 16 Gram: its values lead the 49 x 49 spectrum, whose other 33
    # are zero up to rounding
    assert eigs.shape == (dt.size,)
    assert np.max(np.abs(eigs - full[: dt.size])) <= 1e-12 * full[0]
    assert np.max(np.abs(full[dt.size:])) <= 1e-12 * full[0]
    assert np.all(np.diff(eigs) <= 0)


def test_trace_identity_per_realization():
    dt = geometry_spectrum(SMALL)
    dr = dt
    hw = sample_hw(dr.size, dt.size, realization_stream(5, 2))
    eigs = composite_eigs(dt, dr, hw)
    direct = float(np.sum(dr[:, None] * np.abs(hw) ** 2 * dt[None, :]))
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
    "zero-spectrum": (np.zeros(5), spectrum_of(5, 7)),
}


@pytest.mark.parametrize("dt, dr", DRAWS.values(), ids=DRAWS.keys())
def test_kernel_path_matches_dense_eigvalsh(lapack, dt, dr):
    hw = sample_hw(dr.size, dt.size, realization_stream(3, 0))
    before = hw.copy()
    eigs = composite_eigs(dt, dr, hw)
    oracle = dense_gram_eigs(dt, dr, hw)[::-1]
    assert composite_kernel()["routines"] == ["zherk", "zheev_2stage"]
    assert eigs.shape == (min(dt.size, dr.size),)
    assert np.max(np.abs(eigs - oracle)) <= 1e-13 * oracle[0]
    assert np.array_equal(hw, before)


def test_fallback_runs_without_kernels(monkeypatch):
    dt, dr = DRAWS["tall"]
    hw = sample_hw(dr.size, dt.size, realization_stream(3, 1))
    before = hw.copy()
    monkeypatch.setattr(blas, "load", lambda: None)
    eigs = composite_eigs(dt, dr, hw)
    assert composite_kernel() == {
        "library": "numpy.linalg", "routines": ["matmul", "eigvalsh"],
        "blas_threads": None,
    }
    assert np.array_equal(eigs, np.maximum(dense_gram_eigs(dt, dr, hw)[::-1], 0.0))
    assert np.array_equal(hw, before)


def test_lapack_info_raises_numeric_error(zheev_info):
    zheev_info(3)
    hw = sample_hw(4, 4, realization_stream(3, 2))
    with pytest.raises(NumericError, match="info = 3") as failure:
        composite_eigs(np.ones(4) / 4, np.ones(4) / 4, hw)
    assert failure.value.diagnostics["info"] == 3


def test_run_ensemble_rejects_zero_realizations():
    with pytest.raises(ValidationError):
        ensemble_from_spectra(np.ones(1), np.ones(1), realizations=0, seed=1)


@pytest.mark.parametrize("field", ["dt", "dr"])
def test_ensemble_rejects_spectrum_without_positive_value(monkeypatch, field):
    def pinned(lapack):
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
    if lapack.set_threads is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
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
    dt_used, dr_used = dt[: effective_rank(dt)], dr[: effective_rank(dr)]
    # the LAPACK kernels, then the numpy fallback
    for loader in (blas.load, lambda: None):
        monkeypatch.setattr(blas, "load", loader)
        # the serial oracle: one draw at a time through sample_hw
        oracle = np.zeros((11, geom_r.n))
        for i in range(11):
            hw = sample_hw(dr_used.size, dt_used.size, realization_stream(9, i))
            row = composite_eigs(dt_used, dr_used, hw)
            oracle[i, : row.size] = row
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
