import numpy as np
import pytest

from ris_edof.analytic_cdf import (
    EigenProfilePair,
    cdf_table,
    inverse_cdf_profile,
    unordered_cdf,
)
from ris_edof.errors import NumericError, SizeGuardError, ValidationError


def pooled_eigenvalue_draws(dt, dr, draws, seed):
    """All eigenvalues of `draws` realizations of the composite channel."""
    n_t, n_r = len(dt), len(dr)
    rng = np.random.default_rng(seed)
    sr, st = np.sqrt(np.asarray(dr)), np.sqrt(np.asarray(dt))
    out = []
    done = 0
    while done < draws:
        batch = min(20_000, draws - done)
        hw = (
            rng.standard_normal((batch, n_r, n_t))
            + 1j * rng.standard_normal((batch, n_r, n_t))
        ) * np.sqrt(0.5)
        a = sr[None, :, None] * hw * st[None, None, :]
        eigs = np.linalg.eigvalsh(a @ np.conj(np.swapaxes(a, 1, 2)))
        out.append(eigs.ravel())
        done += batch
    return np.sort(np.concatenate(out))


def ks_distance(sorted_sample, cdf_at_sample):
    n = len(sorted_sample)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    f = np.asarray(cdf_at_sample)
    return max(np.max(np.abs(f - hi)), np.max(np.abs(f - lo)))


def jittered(values, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(values, dtype=float)
    return values * (1 + rng.uniform(-1, 1, values.size) * 1e-6)


def test_pair_requires_positive_distinct_values():
    with pytest.raises(ValidationError):
        EigenProfilePair(dt_vals=np.array([0.5, 0.0]), dr_vals=np.array([0.6, 0.4]))
    with pytest.raises(ValidationError, match="jitter"):
        EigenProfilePair(
            dt_vals=np.array([0.5, 0.5]), dr_vals=np.array([0.6, 0.4])
        )


def test_pair_jitter_resolves_ties():
    pair = EigenProfilePair.from_values([0.5, 0.5], [0.6, 0.4])
    assert pair.dt_vals[0] != pair.dt_vals[1]
    assert np.allclose(pair.dt_vals, 0.5, rtol=1e-5)


def test_rectangular_pairs_rejected_by_cdf():
    pair = EigenProfilePair.from_values([0.7, 0.3], [0.5, 0.3, 0.2])
    with pytest.raises(ValidationError, match="rectangular"):
        unordered_cdf(pair, 0.5)


def test_size_guard():
    vals = np.linspace(1, 2, 33)
    pair = EigenProfilePair.from_values(vals, vals + 0.001)
    with pytest.raises(SizeGuardError):
        unordered_cdf(pair, 0.5)


def test_endpoint_contract():
    pair = EigenProfilePair.from_values([0.7, 0.3], [0.6, 0.4])
    scale = 0.7 * 0.6
    assert unordered_cdf(pair, 0.0) == 0.0
    assert unordered_cdf(pair, 1e6 * scale) == pytest.approx(1.0, abs=1e-6)


def test_cdf_monotone_on_grid():
    pair = EigenProfilePair.from_values([0.5, 0.3, 0.2], [0.45, 0.35, 0.2])
    alphas, f_vals = cdf_table(pair, num=80)
    assert np.all(np.diff(f_vals) >= -1e-12)
    assert f_vals[0] >= 0.0 and f_vals[-1] <= 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_matches_monte_carlo_oracle(n):
    base = np.arange(n, 0, -1, dtype=float)
    base /= base.sum()
    dt = jittered(base, seed=100 + n)
    dr = jittered(base, seed=200 + n)
    pair = EigenProfilePair.from_values(dt, dr)
    pool = pooled_eigenvalue_draws(dt, dr, draws=100_000, seed=n)
    idx = np.linspace(0, len(pool) - 1, 400).astype(int)
    f_vals = unordered_cdf(pair, pool[idx])
    u = (idx + 0.5) / len(pool)
    assert np.max(np.abs(f_vals - u)) < 0.02


def test_scale_covariance():
    dt = np.array([0.55, 0.30, 0.15])
    dr = np.array([0.5, 0.35, 0.15])
    pair = EigenProfilePair.from_values(dt, dr)
    scaled = EigenProfilePair.from_values(dt, 3.0 * dr)
    alphas = np.geomspace(1e-3, 3.0, 25)
    f_base = unordered_cdf(pair, alphas)
    f_scaled = unordered_cdf(scaled, 3.0 * alphas)
    assert np.max(np.abs(f_base - f_scaled)) < 1e-6


def test_inverse_profile_monotone_and_anchored():
    pair = EigenProfilePair.from_values([0.4, 0.3, 0.2, 0.1], [0.38, 0.31, 0.2, 0.11])
    alphas, f_vals = cdf_table(pair, num=150)
    gamma = inverse_cdf_profile(alphas, f_vals, n=4)
    xs = np.linspace(1, 4, 50)
    vals = gamma(xs)
    assert np.all(np.diff(vals) <= 1e-12)
    assert gamma(4.0) == pytest.approx(0.0, abs=1e-9)


def test_inverse_profile_matches_pooled_quantiles():
    # gamma(x) = F^-1(1 - x/n), so gamma at x is the (1 - x/n) quantile of
    # the pooled unordered-eigenvalue distribution; check it against Monte
    # Carlo at every interior evaluation point
    dt = jittered([0.4, 0.3, 0.2, 0.1], seed=4)
    dr = jittered([0.4, 0.3, 0.2, 0.1], seed=5)
    pair = EigenProfilePair.from_values(dt, dr)
    alphas, f_vals = cdf_table(pair, num=300)
    gamma = inverse_cdf_profile(alphas, f_vals, n=4)
    pool = pooled_eigenvalue_draws(dt, dr, draws=40_000, seed=9)
    for x in (1.0, 1.5, 2.0, 3.0):
        empirical = np.quantile(pool, 1.0 - x / 4.0)
        assert gamma(x) == pytest.approx(empirical, rel=0.10)


def test_inverse_profile_rejects_decreasing_cdf():
    with pytest.raises(NumericError):
        inverse_cdf_profile(
            np.array([0.1, 0.2, 0.3]), np.array([0.2, 0.5, 0.1]), n=3
        )
