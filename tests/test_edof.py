import math

import numpy as np
import pytest

from ris_edof import edof
from ris_edof.channel_mc import ensemble_stats, run_ensemble
from ris_edof.edof import (
    EigenvalueProfile,
    capacity,
    capacity_curve,
    capacity_degradation,
    edof_sweep,
    h_and_derivative,
    snr_db_to_linear,
    solve_edof,
)
from ris_edof.errors import NumericError, ValidationError
from ris_edof.geometry import RisGeometry, asymptotic_dof


def synthetic_profile(rank, seed, decay=2.0):
    rng = np.random.default_rng(seed)
    raw = np.sort(rng.uniform(0.2, 1.0, rank))[::-1] * np.exp(
        -decay * np.arange(rank) / rank
    )
    raw = np.sort(raw)[::-1]
    return EigenvalueProfile.from_values(raw / raw.sum())


def step_profile(m, total=20, level=0.05):
    # built via the constructor so the zero tail stays in the domain
    values = np.zeros(total)
    values[:m] = level
    return EigenvalueProfile(gamma=values, source="synthetic")


def brute_force_argmax(profile, rho, nt_nr):
    caps = [capacity(profile, rho, nt_nr, n) for n in range(1, profile.rank + 1)]
    return int(np.argmax(caps)) + 1, max(caps)


def test_profile_validation():
    with pytest.raises(ValidationError):
        EigenvalueProfile(gamma=np.array([1.0, 2.0]), source="synthetic")
    with pytest.raises(ValidationError):
        EigenvalueProfile(gamma=np.array([1.0, -0.1]), source="synthetic")
    profile = EigenvalueProfile.from_values([1.0, 0.5, 1e-20])
    assert profile.rank == 2  # trailing negligible value dropped


def test_profile_interpolant_flat_extension():
    profile = EigenvalueProfile.from_values([4.0, 2.0, 1.0])
    assert profile.gamma_at(1.0) == 4.0
    assert profile.gamma_at(1.5) == 3.0
    assert profile.gamma_at(0.2) == 4.0
    assert profile.gamma_at(7.0) == 1.0


def test_capacity_zero_snr():
    profile = synthetic_profile(10, seed=1)
    assert capacity(profile, 0.0, 100.0, 5) == 0.0


def test_capacity_single_unit_eigenvalue():
    profile = EigenvalueProfile.from_values([1.0])
    assert capacity(profile, 1.0, 1.0, 1) == pytest.approx(1.0)


def test_capacity_flat_profile_prefers_all_channels():
    n = 8
    profile = EigenvalueProfile.from_values(np.full(n, 1.0 / n))
    # rho * nt_nr = 64: full use gives 8 * log2(2) = 8 against log2(9)
    assert capacity(profile, 64.0, 1.0, n) == pytest.approx(8.0)
    assert capacity(profile, 64.0, 1.0, 1) == pytest.approx(math.log2(9.0))
    assert capacity(profile, 64.0, 1.0, n) > capacity(profile, 64.0, 1.0, 1)


def test_capacity_out_of_range():
    profile = synthetic_profile(5, seed=2)
    with pytest.raises(ValidationError):
        capacity(profile, 1.0, 1.0, 6)
    with pytest.raises(ValidationError):
        capacity(profile, 1.0, 1.0, 0)


def test_h_at_lower_boundary():
    profile = synthetic_profile(12, seed=3)
    rho, nt_nr = 5.0, 50.0
    h, dh = h_and_derivative(profile, rho, nt_nr, 1.0)
    assert h == 0.0
    expected = math.log2(1.0 + rho * nt_nr * profile.gamma_at(1.0))
    assert dh == pytest.approx(expected)


def test_derivative_matches_finite_differences():
    rho, nt_nr = snr_db_to_linear(10.0), 40.0 * 40.0
    delta = 1e-4
    for seed in range(4):
        profile = synthetic_profile(40, seed=seed, decay=3.0)
        # derivative magnitude at the left boundary sets the natural scale
        scale = math.log2(1.0 + rho * nt_nr * profile.gamma_at(1.0))
        for n_s in np.arange(2.37, 39.0, 1.7):  # avoid interpolant kinks
            _, dh = h_and_derivative(profile, rho, nt_nr, n_s)
            h_hi, _ = h_and_derivative(profile, rho, nt_nr, n_s + delta)
            h_lo, _ = h_and_derivative(profile, rho, nt_nr, n_s - delta)
            fd = (h_hi - h_lo) / (2 * delta)
            # relative where the derivative is meaningfully nonzero, scaled
            # absolute near its zero crossing
            assert abs(dh - fd) <= 1e-3 * max(abs(fd), 1e-2 * scale)


def test_step_profile_derivative_negative_past_support():
    profile = step_profile(m=10, total=20)
    _, dh = h_and_derivative(profile, 100.0, 400.0, 15.0)
    assert dh < 0


def test_step_profile_optimum_at_support_edge():
    # truncated profile: the domain ends at the support edge, so the
    # continuous optimum pins to the boundary
    profile = EigenvalueProfile.from_values(step_profile(m=10, total=20).gamma)
    assert profile.rank == 10
    for snr_db in (-10.0, 10.0, 40.0):
        result = solve_edof(profile, snr_db_to_linear(snr_db), 400.0)
        assert result.n_s_star == pytest.approx(10.0, abs=0.25)
        assert result.n_s_int == 10


def test_step_profile_with_zero_tail_keeps_integer_edof():
    # with the zero tail kept in-domain, the interpolant ramps from the last
    # positive knot down to zero across one unit, so the continuous optimum
    # may sit inside (m, m+1); the integer EDoF stays at m
    profile = step_profile(m=10, total=20)
    for snr_db in (-10.0, 10.0, 40.0):
        result = solve_edof(profile, snr_db_to_linear(snr_db), 400.0)
        assert 9.75 <= result.n_s_star < 11.0
        assert result.n_s_int == 10


def test_solver_matches_brute_force():
    for seed in range(6):
        profile = synthetic_profile(30 + 5 * seed, seed=seed)
        nt_nr = 900.0
        for snr_db in (-10.0, 10.0, 40.0):
            rho = snr_db_to_linear(snr_db)
            result = solve_edof(profile, rho, nt_nr)
            best_n, best_cap = brute_force_argmax(profile, rho, nt_nr)
            assert abs(result.n_s_int - best_n) <= 1
            assert result.capacity_at_int == pytest.approx(best_cap, rel=1e-9)


def test_solver_reports_small_interior_residual():
    profile = synthetic_profile(50, seed=12, decay=6.0)
    result = solve_edof(profile, snr_db_to_linear(10.0), 2500.0)
    if 1.25 < result.n_s_star < profile.rank - 0.25:
        h_scale = max(abs(result.capacity_at_int), 1.0)
        assert abs(result.stationarity_residual) < 1e-3 * h_scale


def test_sweep_single_point():
    profile = synthetic_profile(10, seed=5)
    results = edof_sweep(profile, 100.0, [0.0])
    assert len(results) == 1
    assert results[0].snr_db == 0.0


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValidationError):
        edof_sweep(synthetic_profile(5, seed=6), 25.0, [])


@pytest.fixture(scope="module")
def small_mc_profile():
    geom = RisGeometry(3, 3, 0.5, 0.5)
    ensemble = run_ensemble(geom, geom, realizations=200, seed=7)
    stats = ensemble_stats(ensemble)
    profile = EigenvalueProfile.from_mean_profile(stats.mean_profile)
    return geom, profile


def test_sweep_monotone_on_channel_profile(small_mc_profile):
    geom, profile = small_mc_profile
    nt_nr = float(geom.n) ** 2
    dof_ref = asymptotic_dof(geom)
    results = edof_sweep(
        profile, nt_nr, np.arange(-10.0, 41.0, 5.0), dof_reference=dof_ref
    )
    edofs = [r.n_s_int for r in results]
    assert all(b >= a for a, b in zip(edofs, edofs[1:]))
    assert all(r.dof_reference == dof_ref for r in results)


def test_snr_scaling_never_reduces_edof(small_mc_profile):
    geom, profile = small_mc_profile
    nt_nr = float(geom.n) ** 2
    base = solve_edof(profile, snr_db_to_linear(5.0), nt_nr)
    for factor in (2.0, 10.0, 100.0):
        boosted = solve_edof(profile, factor * snr_db_to_linear(5.0), nt_nr)
        assert boosted.n_s_int >= base.n_s_int


def test_degradation_zero_when_reference_is_optimal():
    profile = step_profile(m=10, total=20)
    rows = capacity_degradation(profile, 400.0, [30.0], dof_reference=10)
    assert rows[0].degradation == pytest.approx(0.0, abs=1e-12)
    assert not rows[0].ref_clipped


def test_degradation_nonnegative_and_clipped_flag(small_mc_profile):
    geom, profile = small_mc_profile
    nt_nr = float(geom.n) ** 2
    rows = capacity_degradation(
        profile, nt_nr, np.arange(-10.0, 41.0, 10.0), dof_reference=profile.rank + 50
    )
    assert all(row.degradation >= 0.0 for row in rows)
    assert all(row.ref_clipped for row in rows)


def test_degradation_defined_at_very_low_snr():
    # at -200 dB every gain is ~1e-18: 1 + gain rounds to 1, log1p does not
    profile = synthetic_profile(50, seed=5)
    (row,) = capacity_degradation(profile, 2500.0, [-200.0], dof_reference=28)
    rho = snr_db_to_linear(-200.0)
    gains = rho * 2500.0 * profile.gamma[: row.edof.n_s_int] / row.edof.n_s_int
    assert row.edof.capacity_at_int == pytest.approx(gains.sum() / math.log(2))
    assert row.edof.capacity_at_int > 0.0
    assert 0.0 <= row.degradation < 1.0


def test_degradation_with_zero_capacity_raises_numeric_error():
    # 10 ** -400 underflows to a linear SNR of exactly 0
    profile = synthetic_profile(50, seed=5)
    with pytest.raises(NumericError, match="-4000 dB"):
        capacity_degradation(profile, 2500.0, [-4000.0], dof_reference=28)


def test_normalized_curve_peaks_at_brute_force_argmax(small_mc_profile):
    geom, profile = small_mc_profile
    nt_nr = float(geom.n) ** 2
    rho = snr_db_to_linear(0.0)
    counts, caps, normalized = capacity_curve(profile, rho, nt_nr)
    assert normalized.max() == pytest.approx(1.0)
    best_n, _ = brute_force_argmax(profile, rho, nt_nr)
    assert counts[int(np.argmax(normalized))] == best_n


# --- coarse scan: blocked screen + exact confirmation vs the exhaustive scan

SCAN_SNRS_DB = (-10.0, 0.0, 10.0, 20.0, 40.0)


def scan_profiles(small_mc_profile):
    geom, mc_profile = small_mc_profile
    profiles = [
        (synthetic_profile(rank, seed=rank), 900.0) for rank in (2, 3, 17, 64, 150)
    ]
    profiles.append((step_profile(m=10, total=20), 400.0))
    profiles.append((EigenvalueProfile.from_values(np.full(25, 1.0 / 25)), 625.0))
    profiles.append((mc_profile, float(geom.n) ** 2))
    return profiles


def ragged_block_limit(profile):
    # fewest rows per block (>= 2) that leave a shorter last block
    points = edof.LATTICE_STRIDE * (profile.rank - 1) + 1
    width = edof.LATTICE_STRIDE * (points - 1) + 1
    rows = next(k for k in range(2, points + 1) if points % k)
    return rows * width


@pytest.mark.parametrize("blocks", ["default", "one-row", "ragged"])
def test_coarse_scan_matches_exhaustive_scan(small_mc_profile, monkeypatch, blocks):
    for profile, nt_nr in scan_profiles(small_mc_profile):
        if blocks == "one-row":
            monkeypatch.setattr(edof, "SCAN_BLOCK_ELEMENTS", 1)
        elif blocks == "ragged":
            monkeypatch.setattr(
                edof, "SCAN_BLOCK_ELEMENTS", ragged_block_limit(profile)
            )
        grid = edof._coarse_grid(profile.rank)
        for snr_db in SCAN_SNRS_DB:
            rho = snr_db_to_linear(snr_db)
            oracle = [h_and_derivative(profile, rho, nt_nr, x)[0] for x in grid]
            best = int(np.argmax(oracle))
            assert edof._coarse_argmax(profile, rho, nt_nr, grid) == best

            def h_of(x):
                return h_and_derivative(profile, rho, nt_nr, x)[0]

            lo = grid[max(best - 1, 0)]
            hi = grid[min(best + 1, grid.size - 1)]
            n_star = edof._golden_max(h_of, lo, hi, edof.GOLDEN_TOL)
            assert solve_edof(profile, rho, nt_nr).n_s_star == n_star
