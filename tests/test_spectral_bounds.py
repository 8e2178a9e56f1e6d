import numpy as np
import pytest
from hypothesis import given, strategies as st

from ris_edof.channel_mc import ensemble_from_spectra
from ris_edof.correlation import geometry_spectrum
from ris_edof.errors import ValidationError
from ris_edof.geometry import RisGeometry
from ris_edof.spectral_bounds import (
    DEFAULT_SLACK,
    REGIME_NT_APPROX_NR,
    REGIME_NT_MUCH_GREATER,
    REGIME_NT_MUCH_LESS,
    BoundTable,
    check_bounds,
    mp_edges,
    per_eig_bounds,
)


def test_mp_edges_square_case():
    assert mp_edges(1.0) == (0.0, 4.0)


def test_mp_edges_quarter_ratio():
    lo, hi = mp_edges(0.25)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(2.25)


def test_mp_edges_vanishing_ratio():
    lo, hi = mp_edges(1e-12)
    assert lo == pytest.approx(1.0, abs=1e-5)
    assert hi == pytest.approx(1.0, abs=1e-5)


def test_mp_edges_rejects_nonpositive():
    with pytest.raises(ValidationError):
        mp_edges(0.0)


@pytest.mark.parametrize("eigenvalues", [2, 4], ids=["fewer", "more"])
def test_check_bounds_rejects_another_row_count(eigenvalues):
    table = per_eig_bounds(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.3, 0.1]))
    with pytest.raises(ValidationError, match="3 rows") as info:
        check_bounds(np.ones((2, eigenvalues)), table)
    assert info.value.field == "samples"


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_mp_edges_product_identity(eta):
    lo, hi = mp_edges(eta)
    assert lo * hi == pytest.approx((1 - eta) ** 2, rel=1e-9)


def test_single_index_upper_bound():
    table = per_eig_bounds(np.array([1.0]), np.array([1.0]))
    assert table.regime == REGIME_NT_APPROX_NR
    assert table.upper == pytest.approx([4.0])
    assert table.lower == pytest.approx([0.0])


def test_regime_selection_and_shapes():
    dt = np.full(4, 0.25)
    dr = np.full(400, 1 / 400)
    table = per_eig_bounds(dt, dr)
    assert table.regime == REGIME_NT_MUCH_LESS
    assert table.upper.shape == (400,)
    # indices beyond the transmit rank are pinned to zero
    assert np.all(table.upper[4:] == 0.0)
    assert np.all(table.lower[4:] == 0.0)

    table_big = per_eig_bounds(dr, dt)
    assert table_big.regime == REGIME_NT_MUCH_GREATER

    table_eq = per_eig_bounds(dt, np.full(5, 0.2))
    assert table_eq.regime == REGIME_NT_APPROX_NR


def test_much_less_regime_upper_matches_formula():
    rng = np.random.default_rng(0)
    dt = np.sort(rng.uniform(0.1, 1, 4))[::-1]
    dt /= dt.sum()
    dr = np.sort(rng.uniform(0.1, 1, 400))[::-1]
    dr /= dr.sum()
    table = per_eig_bounds(dt, dr)
    k = np.arange(4)
    expected = np.minimum(400 * dt[k] * dr[0], 400 * dr[k] * dt[0])
    assert table.upper[:4] == pytest.approx(expected)


def four_n_upper(dt, dr):
    """The middle-regime upper bound with the square-panel edge hard-coded:
    4 * n_r on the transmit term and 4 * n_t on the receive term."""
    n_t, n_r = dt.size, dr.size
    dt_pad = np.zeros(n_r)
    dt_pad[: min(n_t, n_r)] = dt[: min(n_t, n_r)]
    upper = np.minimum(4.0 * n_r * dt_pad * dr[0], 4.0 * n_t * dr * dt[0])
    upper[(dt_pad == 0.0) | (dr == 0.0)] = 0.0
    return upper


@pytest.mark.parametrize("n", [1, 2, 25, 49, 100])
def test_equal_size_middle_regime_matches_four_n(n):
    # at eta = 1 the edge (1 + sqrt(eta))^2 is exactly 4, so square panels
    # keep every bit of the hard-coded bound, zero tail included
    rng = np.random.default_rng(n)
    dt = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    dr = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    dt[n // 2 + 1 :] = 0.0
    dt, dr = dt / dt.sum(), dr / dr.sum()
    table = per_eig_bounds(dt, dr)
    assert table.regime == REGIME_NT_APPROX_NR
    assert np.array_equal(table.upper, four_n_upper(dt, dr))
    assert np.array_equal(table.lower, np.zeros(n))


@pytest.mark.parametrize("side_t, side_r", [(2.0, 4.0), (4.0, 2.0), (3.0, 6.0)])
def test_rectangular_middle_regime_holds_over_monte_carlo(side_t, side_r):
    # 25 x 81, 81 x 25 and 49 x 169 elements: eta between 0.1 and 10, where
    # the multiplier is the edge of ||H||^2, (sqrt(n_t) + sqrt(n_r))^2
    geom_t = RisGeometry(side_t, side_t, 0.5, 0.5)
    geom_r = RisGeometry(side_r, side_r, 0.5, 0.5)
    dt, dr = geometry_spectrum(geom_t), geometry_spectrum(geom_r)
    ensemble = ensemble_from_spectra(dt, dr, realizations=200, seed=2024)
    table = per_eig_bounds(dt, dr)
    assert table.regime == REGIME_NT_APPROX_NR
    edge = (np.sqrt(dt.size) + np.sqrt(dr.size)) ** 2
    k = min(dt.size, dr.size)
    expected = edge * np.minimum(dt[:k] * dr[0], dr[:k] * dt[0])
    assert table.upper[:k] == pytest.approx(expected, rel=1e-12)
    assert np.all(ensemble.eig_samples <= table.upper * (1.0 + DEFAULT_SLACK))


def test_infinite_bounds_never_violate():
    ensemble = ensemble_from_spectra(
        np.ones(3) / 3, np.ones(3) / 3, realizations=20, seed=2
    )
    table = BoundTable(
        regime=REGIME_NT_APPROX_NR,
        lower=np.zeros(3),
        upper=np.full(3, np.inf),
        slack=0.0,
    )
    assert check_bounds(ensemble.eig_samples, table) == []


def test_violations_are_reported_with_indices():
    samples = np.array([[2.0, 1.0], [0.5, 0.4]])
    table = BoundTable(
        regime=REGIME_NT_APPROX_NR,
        lower=np.zeros(2),
        upper=np.array([1.0, 1.0]),
        slack=0.0,
    )
    violations = check_bounds(samples, table)
    assert len(violations) == 1
    v = violations[0]
    assert (v.k, v.realization, v.kind) == (1, 0, "upper")
    assert v.value == 2.0 and v.bound == 1.0


def test_wishart_marchenko_pastur_oracle():
    # identity correlations: composite eigenvalues times n recover the
    # spectrum of H H^H / n, whose extremes approach the (0, 4) edges
    n, realizations = 256, 50
    flat = np.full(n, 1.0 / n)
    eigs = ensemble_from_spectra(flat, flat, realizations, 123).eig_samples * n
    assert np.mean(eigs[:, 0]) == pytest.approx(4.0, rel=0.10)
    assert np.mean(eigs[:, -1]) == pytest.approx(0.0, abs=0.01)


def test_tall_limit_recovers_transmit_spectrum():
    # eta -> 0: eigenvalues of H Dt H^H / n_r converge to Dt pointwise
    rng = np.random.default_rng(5)
    n_t, n_r = 4, 400
    dt = np.sort(rng.uniform(0.5, 1.5, n_t))[::-1]
    dt /= dt.sum()
    dr_flat = np.full(n_r, 1.0 / n_r)
    # with dr flat at 1/n_r the composite equals H Dt H^H / n_r directly
    eigs = ensemble_from_spectra(dt, dr_flat, 30, 31).eig_samples
    means = eigs[:, :n_t].mean(axis=0)
    assert np.all(np.abs(means - dt) / dt < 0.10)


def test_wide_limit_scales_transmit_spectrum():
    # eta >= 100 with flat transmit spectrum: eigenvalues approach eta * dt_k
    n_t, n_r = 400, 4
    dt = np.full(n_t, 1.0 / n_t)
    dr_flat = np.full(n_r, 1.0 / n_r)
    eta = n_t / n_r
    ratios = ensemble_from_spectra(dt, dr_flat, 30, 33).eig_samples / (eta * dt[0])
    assert 0.9 <= np.mean(ratios) <= 1.1
