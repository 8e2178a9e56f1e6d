import numpy as np
import pytest
from scipy import stats as scipy_stats

from ris_edof.channel_mc import (
    ChannelEnsemble,
    composite_eigs,
    ensemble_from_spectra,
    ensemble_stats,
    realization_stream,
    run_ensemble,
    sample_hw,
)
from ris_edof.correlation import effective_rank, geometry_spectrum
from ris_edof.errors import ValidationError
from ris_edof.geometry import RisGeometry

SMALL = RisGeometry(3, 3, 0.5, 0.5)  # 49 elements


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
    assert eigs.shape == (dr.size,)
    assert np.max(np.abs(eigs - full)) <= 1e-12 * full[0]
    assert np.all(eigs[dt.size:] == 0.0)
    assert np.all(np.diff(eigs) <= 0)


def test_trace_identity_per_realization():
    dt = geometry_spectrum(SMALL)
    dr = dt
    hw = sample_hw(dr.size, dt.size, realization_stream(5, 2))
    eigs = composite_eigs(dt, dr, hw)
    direct = float(np.sum(dr[:, None] * np.abs(hw) ** 2 * dt[None, :]))
    assert eigs.sum() == pytest.approx(direct, rel=1e-9)


def test_run_ensemble_rejects_zero_realizations():
    with pytest.raises(ValidationError):
        run_ensemble(SMALL, SMALL, realizations=0, seed=1)


def test_worker_count_does_not_change_results():
    one = run_ensemble(SMALL, SMALL, realizations=12, seed=9, threads=1)
    many = run_ensemble(SMALL, SMALL, realizations=12, seed=9, threads=4)
    assert np.array_equal(one.eig_samples, many.eig_samples)


def test_rank_bounded_by_spectra():
    geom_t = RisGeometry(2, 2, 0.5, 0.5)
    ensemble = run_ensemble(geom_t, SMALL, realizations=5, seed=3)
    r_t = effective_rank(ensemble.dt, 1e-12)
    r_r = effective_rank(ensemble.dr, 1e-12)
    for row in ensemble.eig_samples:
        assert np.sum(row > 1e-14 * max(row[0], 1e-300)) <= min(r_t, r_r)


def test_rows_sorted_and_nonnegative():
    ensemble = run_ensemble(SMALL, SMALL, realizations=5, seed=3)
    assert np.all(ensemble.eig_samples >= 0)
    assert np.all(np.diff(ensemble.eig_samples, axis=1) <= 0)


def test_stats_on_identical_samples():
    row = np.array([[3.0, 2.0, 1.0]])
    ensemble = ChannelEnsemble(
        n_t=3, n_r=3, seed=0, realizations=4, eig_samples=np.repeat(row, 4, axis=0)
    )
    stats = ensemble_stats(ensemble)
    assert np.array_equal(stats.std_profile, np.zeros(3))
    assert np.array_equal(stats.mean_profile, row[0])
    assert stats.eigsum_mean == pytest.approx(6.0)


def test_stats_require_two_realizations():
    ensemble = ChannelEnsemble(
        n_t=2, n_r=2, seed=0, realizations=1, eig_samples=np.ones((1, 2))
    )
    with pytest.raises(ValidationError):
        ensemble_stats(ensemble)


def test_stats_mean_profile_non_increasing_and_fit_matches():
    ensemble = run_ensemble(SMALL, SMALL, realizations=50, seed=11)
    stats = ensemble_stats(ensemble, gauss_indices=[1, 2, 3])
    assert np.all(np.diff(stats.mean_profile) <= 0)
    assert np.array_equal(stats.gauss_fit[:, 0], stats.mean_profile[:3])
    assert np.all(stats.gauss_fit[:, 1] >= 0)


def test_eigensum_scalar_channel():
    ensemble = ensemble_from_spectra(
        np.array([1.0]), np.array([1.0]), realizations=500, seed=21
    )
    assert ensemble_stats(ensemble).eigsum_mean == pytest.approx(
        1.0, abs=3 / np.sqrt(500)
    )


def test_eigensum_zero_channel_injected():
    # ensemble_stats needs two realizations
    ensemble = ChannelEnsemble(
        n_t=2, n_r=2, seed=0, realizations=2, eig_samples=np.zeros((2, 2))
    )
    assert ensemble_stats(ensemble).eigsum_mean == 0.0


def test_eigensum_near_one_small_geometry():
    ensemble = run_ensemble(SMALL, SMALL, realizations=300, seed=13)
    assert ensemble_stats(ensemble).eigsum_mean == pytest.approx(1.0, abs=0.05)


def test_swap_symmetry_of_link_ends():
    geom_a = RisGeometry(3, 1.5, 0.5, 0.5)  # 7 x 4 grid
    geom_b = RisGeometry(1.5, 3, 0.25, 0.5)  # 7 x 7 grid
    fwd = run_ensemble(geom_a, geom_b, realizations=500, seed=17)
    rev = run_ensemble(geom_b, geom_a, realizations=500, seed=18)
    top_fwd = fwd.eig_samples[:, 0]
    top_rev = rev.eig_samples[:, 0]
    ks = scipy_stats.ks_2samp(top_fwd, top_rev).statistic
    assert ks < 0.08


def test_dense_spacing_eigenvalues_concentrate():
    # scaled-down stand-in for the dense-spacing panels: per-index spread of
    # the leading eigenvalues is far below their mean
    geom = RisGeometry(6, 6, 1 / 6, 1 / 6)
    ensemble = run_ensemble(geom, geom, realizations=100, seed=42)
    stats = ensemble_stats(ensemble)
    ratio = stats.std_profile[:12] / stats.mean_profile[:12]
    assert ratio.max() < 0.1
