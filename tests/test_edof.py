import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_edof import edof
from ris_edof.channel_mc import ensemble_from_spectra, ensemble_stats
from ris_edof.correlation import geometry_spectrum
from ris_edof.edof import (
    EigenvalueProfile,
    capacity,
    capacity_curve,
    capacity_degradation,
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
    return EigenvalueProfile(gamma=values)


def brute_force_argmax(profile, rho, nt_nr):
    caps = [capacity(profile, rho, nt_nr, n) for n in range(1, profile.rank + 1)]
    return int(np.argmax(caps)) + 1, max(caps)


def test_profile_validation():
    with pytest.raises(ValidationError):
        EigenvalueProfile(gamma=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        EigenvalueProfile(gamma=np.array([1.0, -0.1]))
    profile = EigenvalueProfile.from_values([1.0, 0.5, 1e-20])
    assert profile.rank == 2  # trailing negligible value dropped


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: EigenvalueProfile(gamma=np.array([])), "gamma"),
        (lambda: EigenvalueProfile.from_values([]), "gamma"),
        (lambda: EigenvalueProfile.from_values([0.0, 0.0]), "gamma"),
        (
            lambda: capacity_degradation(
                synthetic_profile(5, seed=6), 25.0, [0.0], dof_reference=0
            ),
            "dof_reference",
        ),
    ],
    ids=["empty-profile", "empty-values", "no-positive-lead", "dof-reference-0"],
)
def test_validation_names_offending_field(build, field):
    with pytest.raises(ValidationError) as info:
        build()
    assert info.value.field == field


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
            # absolute near its zero crossing; h and dh are both exact for
            # the interpolant, so only the O(delta^2) difference error and
            # rounding remain
            assert abs(dh - fd) <= 1e-6 * max(abs(fd), 1e-2 * scale)


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
    rows = capacity_degradation(profile, 100.0, [0], dof_reference=5)
    assert len(rows) == 1
    assert rows[0].snr_db == 0.0 and isinstance(rows[0].snr_db, float)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValidationError) as info:
        capacity_degradation(synthetic_profile(5, seed=6), 25.0, [], dof_reference=3)
    assert info.value.field == "snr_grid_db"


@pytest.fixture(scope="module")
def small_mc_profile():
    geom = RisGeometry(3, 3, 0.5, 0.5)
    spectrum = geometry_spectrum(geom)
    ensemble = ensemble_from_spectra(spectrum, spectrum, realizations=200, seed=7)
    stats = ensemble_stats(ensemble)
    profile = EigenvalueProfile.from_values(stats.mean_profile)
    return geom, profile


def test_sweep_monotone_on_channel_profile(small_mc_profile):
    geom, profile = small_mc_profile
    nt_nr = float(geom.n) ** 2
    dof_ref = asymptotic_dof(geom)
    rows = capacity_degradation(
        profile, nt_nr, np.arange(-10.0, 41.0, 5.0), dof_reference=dof_ref
    )
    edofs = [row.edof.n_s_int for row in rows]
    assert all(b >= a for a, b in zip(edofs, edofs[1:]))


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


# --- exact h against independent oracles


def trapezoid_h(profile, rho, nt_nr, x, step):
    """h by the trapezoid rule on a lattice of the given step (a power of 1/2,
    so the lattice holds every knot and x), over the profile's
    piecewise-linear interpolant."""
    ts = np.linspace(1.0, x, round((x - 1.0) / step) + 1)
    knots = np.arange(1.0, profile.rank + 1)
    gains = (rho * nt_nr / x) * np.interp(ts, knots, profile.gamma)
    return float(np.trapezoid(np.log1p(gains), ts)) / math.log(2.0)


def test_flat_profile_h_matches_closed_form():
    g, rank, nt_nr = 0.04, 25, 625.0
    profile = EigenvalueProfile.from_values(np.full(rank, g))
    for snr_db in (-10.0, 10.0, 40.0):
        rho = snr_db_to_linear(snr_db)
        for x in (1.0, 2.0, 7.0, 7.25, 12.6, 24.5, 25.0):
            expected = (x - 1.0) * math.log1p(rho * nt_nr / x * g) / math.log(2.0)
            h, _ = h_and_derivative(profile, rho, nt_nr, x)
            assert h == pytest.approx(expected, rel=1e-13, abs=1e-300)


def step_to_zero_h(level, m, rho, nt_nr, x):
    """Closed-form h of step_profile: level on knots 1..m, a linear ramp to
    0 over (m, m + 1), then 0. Evaluated in 50 digits, since the ramp term
    cancels catastrophically in float64 at small gains."""
    with mpmath.workdps(50):
        gain = mpmath.mpf(rho) * nt_nr / x * level
        h = (min(x, m) - 1) * mpmath.log1p(gain)
        if x > m and gain > 0:
            # int_0^f ln(1 + gain * (1 - t)) dt with w = 1 + gain * (1 - t)
            f = min(x - m, 1)
            w0, wf = 1 + gain, 1 + gain * (1 - f)
            h += (w0 * mpmath.log(w0) - wf * mpmath.log(wf)) / gain - f
        return float(h / mpmath.log(2))


def test_step_to_zero_h_matches_closed_form():
    # the flat part has z = 0; the last segment falls to exactly zero, the
    # steepest segment a profile can have. Zero gain makes every z zero.
    # The suite turns warnings into errors, so none of this may warn. Below
    # -100 dB z is 1e-11..1e-15, where a gap formed from log1p of the
    # segment's relative step s = 2z / (1 - z) loses its digits (a 2% error
    # in h at -150 dB).
    profile = step_profile(m=10, total=20)
    for snr_db in (-150.0, -140.0, -120.0, -100.0, -10.0, 10.0, 40.0, 90.0):
        rho = snr_db_to_linear(snr_db)
        for x in (1.0, 4.5, 10.0, 10.25, 10.5, 11.0, 15.75, 20.0):
            expected = step_to_zero_h(0.05, 10, rho, 400.0, x)
            h, _ = h_and_derivative(profile, rho, 400.0, x)
            assert h == pytest.approx(expected, rel=1e-9, abs=1e-300)
    assert h_and_derivative(profile, 0.0, 400.0, 15.75) == (0.0, 0.0)


def test_h_matches_fine_trapezoid(small_mc_profile):
    geom, mc_profile = small_mc_profile
    cases = [(synthetic_profile(rank, seed=rank), 900.0) for rank in (17, 64)]
    cases.append((mc_profile, float(geom.n) ** 2))
    for profile, nt_nr in cases:
        points = (2.0, 5.5, 0.5 * profile.rank, profile.rank - 0.75)
        for snr_db in (0.0, 20.0, 40.0):
            rho = snr_db_to_linear(snr_db)
            exact = np.array(
                [h_and_derivative(profile, rho, nt_nr, x)[0] for x in points]
            )
            coarse, fine = (
                np.array([trapezoid_h(profile, rho, nt_nr, x, step) for x in points])
                for step in (2.0**-9, 2.0**-10)
            )
            assert np.allclose(fine, exact, rtol=1e-6, atol=0.0)
            # the trapezoid error is O(step^2): halving the step quarters it,
            # which it would not if h carried an error of its own
            ratio = np.abs(coarse - exact).max() / np.abs(fine - exact).max()
            assert 3.9 < ratio < 4.1


# --- the root of h' over [1, rank] vs an exhaustive 1/4-grid scan

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


def grid_scan_maximizer(profile, rho, nt_nr):
    """The exhaustive solver: h at every point of the 1/4 grid on
    [1, rank], the first argmax, then bisection on the sign of h' inside
    its bracket, or the bracket's end where h' keeps one sign."""
    grid = np.arange(1.0, profile.rank + 0.125, 0.25)
    values = [h_and_derivative(profile, rho, nt_nr, x)[0] for x in grid]
    best = int(np.argmax(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]

    def dh(x):
        return h_and_derivative(profile, rho, nt_nr, x)[1]

    if dh(hi) >= 0.0:
        return hi
    if dh(lo) <= 0.0:
        return lo
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dh(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_root_of_h_prime_matches_grid_scan(small_mc_profile):
    for profile, nt_nr in scan_profiles(small_mc_profile):
        for snr_db in SCAN_SNRS_DB:
            rho = snr_db_to_linear(snr_db)
            old = grid_scan_maximizer(profile, rho, nt_nr)
            new = solve_edof(profile, rho, nt_nr).n_s_star
            h_old = h_and_derivative(profile, rho, nt_nr, old)[0]
            h_new = h_and_derivative(profile, rho, nt_nr, new)[0]
            assert h_new >= h_old - 1e-12 * abs(h_old)
            assert abs(new - old) < 1e-9 * max(old, 1.0)


def test_root_is_stable_under_last_bit_profile_changes(small_mc_profile, monkeypatch):
    # golden section on h moved n* by up to 1e-5 under such a change; the
    # root of h' moves by rounding only, within a few h evaluations
    geom, profile = small_mc_profile
    nt_nr = float(geom.n) ** 2
    scale = 1.0 + 2e-15 * np.random.default_rng(3).standard_normal(profile.rank)
    nudged = EigenvalueProfile(np.minimum.accumulate(profile.gamma * scale))
    evaluations = []

    def counted(*args):
        evaluations.append(args[-1])
        return h_and_derivative(*args)

    monkeypatch.setattr(edof, "h_and_derivative", counted)
    for snr_db in np.arange(-10.0, 41.0, 5.0):
        rho = snr_db_to_linear(snr_db)
        evaluations.clear()
        result = solve_edof(profile, rho, nt_nr)
        assert len(evaluations) <= 20
        if 1.0 < result.n_s_star < profile.rank:
            assert abs(result.stationarity_residual) < 1e-12
        moved = solve_edof(nudged, rho, nt_nr).n_s_star - result.n_s_star
        assert abs(moved) <= 1e-10


def test_zero_snr_keeps_left_end():
    # h is 0 everywhere, and so is h'; the solve returns the left end
    for profile in (synthetic_profile(40, seed=8), step_profile(m=10, total=20)):
        result = solve_edof(profile, 0.0, 400.0)
        assert result.n_s_star < 1.25
        assert result.n_s_int == 1


@st.composite
def plateau_profiles(draw):
    """Non-increasing profiles built from plateaus whose levels span up to
    10 decades, optionally followed by a tail of exact zeros."""
    exponents = draw(st.lists(st.floats(-10.0, 0.0), min_size=1, max_size=6))
    lengths = draw(
        st.lists(st.integers(1, 12), min_size=len(exponents), max_size=len(exponents))
    )
    levels = sorted((10.0**e for e in exponents), reverse=True)
    values = np.repeat(np.array(levels) / levels[0], lengths)
    zeros = draw(st.integers(0, 8))
    return EigenvalueProfile(gamma=np.append(values, np.zeros(zeros)))


@settings(deadline=None, max_examples=60)
@given(profile=plateau_profiles(), snr_db=st.floats(-150.0, 90.0))
def test_h_is_unimodal(profile, snr_db):
    # differences of h that stand above rounding change sign at most once,
    # from rising to falling
    rho = snr_db_to_linear(snr_db)
    xs = np.linspace(1.0, profile.rank, 8 * profile.rank - 7)
    h = np.array([h_and_derivative(profile, rho, 400.0, x)[0] for x in xs])
    steps = np.diff(h)
    signs = np.sign(steps[np.abs(steps) > 1e-12 * np.abs(h).max()])
    assert not np.any((signs[:-1] < 0) & (signs[1:] > 0))
