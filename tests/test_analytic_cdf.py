import math

import mpmath as mp
import numpy as np
import pytest

from ris_edof import analytic_cdf
from ris_edof.analytic_cdf import (
    HUGE_ALPHA_FACTOR,
    EigenProfilePair,
    cdf_table,
    unordered_cdf,
)
from ris_edof.correlation import geometry_spectrum
from ris_edof.errors import NumericError, SizeGuardError, ValidationError
from ris_edof.geometry import RisGeometry


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


def full_inverse_dps(n: int, alpha: float, x_geo_mean: float, x_max: float) -> int:
    """The oracles' working precision: they form the whole P, whose
    cancellation deepens like N(N-1)/2 decimal digits per decade that
    alpha * x sits away from O(1), in both directions."""
    pairs = n * (n - 1) / 2
    depth = 0.0
    s_lo = alpha * x_geo_mean
    if s_lo < 1.0:
        depth += pairs * abs(math.log10(s_lo))
    s_hi = alpha * x_max
    if s_hi > 1.0:
        depth += pairs * math.log10(s_hi)
    return 30 + int(1.2 * depth) + 2 * n


def nodes_and_dps(pair, alpha):
    """The kernel nodes 1/dr_i, 1/dt_j, rounded to double as the kernel's
    are, and the oracles' working precision at alpha."""
    av = [mp.mpf(float(v)) for v in 1.0 / pair.dr_vals]
    bv = [mp.mpf(float(v)) for v in 1.0 / pair.dt_vals]
    logs = [math.log(float(a * b)) for a in av for b in bv]
    dps = full_inverse_dps(
        pair.n_r, alpha, math.exp(sum(logs) / len(logs)), math.exp(max(logs))
    )
    return av, bv, dps


def determinant_sum_cdf(pair, alpha):
    """The closed form as the paper writes it: 1/N - Q0 / N^2 * sum_n det K^(n),
    with K^(n) the (N-1)!-scaled truncated-exponential kernel whose row n is
    the exponential kernel, and 1 / Q0 the Vandermonde normalizer."""
    n = pair.n_r
    av, bv, dps = nodes_and_dps(pair, alpha)
    with mp.workdps(dps):
        z = mp.mpf(alpha)
        vand_a = mp.mpf(1)
        vand_b = mp.mpf(1)
        for i in range(n):
            for j in range(i + 1, n):
                vand_a *= av[j] - av[i]
                vand_b *= bv[j] - bv[i]
        j0 = mp.mpf(1)
        for i in range(1, n):
            j0 *= mp.mpf(i) ** i
        q_inv = vand_a * vand_b * (-z) ** mp.mpf(n * (n - 1) // 2) * j0
        fact = mp.factorial(n - 1)
        poly = [
            [
                fact
                * mp.fsum(
                    (-z * av[i] * bv[j]) ** k / mp.factorial(k) for k in range(n)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        expo = [[fact * mp.exp(-av[i] * bv[j] * z) for j in range(n)] for i in range(n)]
        total = mp.mpf(0)
        for special in range(n):
            rows = [
                [expo[i][j] if i == special else poly[i][j] for j in range(n)]
                for i in range(n)
            ]
            total += mp.det(mp.matrix(rows))
        return float(mp.mpf(1) / n - total / (q_inv * n * n))


def raw_cdf(pair, alphas):
    """The factored closed form at each of `alphas`, sharing one kernel."""
    kernel = analytic_cdf._Kernel(pair, analytic_cdf.PrecisionLog())
    return [analytic_cdf._raw_cdf(kernel, alpha) for alpha in alphas]


def full_inverse_raw_cdf(pair, alpha):
    """The closed form from the whole kernel: P built entry by entry from its
    truncated exponential series and inverted by LU."""
    n = pair.n_r
    av, bv, dps = nodes_and_dps(pair, alpha)
    with mp.workdps(dps):
        z = mp.mpf(alpha)
        poly = [
            [
                mp.fsum((-z * av[i] * bv[j]) ** k / mp.factorial(k) for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        poly_inv = mp.inverse(mp.matrix(poly))
        trace = mp.fsum(
            mp.exp(-av[i] * bv[j] * z) * poly_inv[j, i]
            for i in range(n)
            for j in range(n)
        )
        return float(mp.mpf(1) / n - trace / (n * n))


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    dt = rng.uniform(0.01, 1.0, n)
    dr = rng.uniform(0.01, 1.0, n)
    return EigenProfilePair.from_values(dt / dt.sum(), dr / dr.sum())


def oracle_pair(case, n):
    """A random N = n pair, or both ends the spectrum of a case x case
    (wavelengths) panel at half-wavelength spacing."""
    if case == "random":
        return random_pair(n, 400 + n)
    spectrum = geometry_spectrum(RisGeometry(case, case, 0.5, 0.5))
    spectrum = spectrum[spectrum > 0]
    assert spectrum.size == n
    return EigenProfilePair.from_values(spectrum, spectrum)


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_form_matches_determinant_sum(n):
    pair = random_pair(n, 300 + n)
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = [float(factor * scale) for factor in np.geomspace(1e-8, 1e6, 8)]
    for alpha, raw in zip(alphas, raw_cdf(pair, alphas)):
        assert raw == pytest.approx(determinant_sum_cdf(pair, alpha), abs=1e-12)


@pytest.mark.parametrize(("case", "n"), [("random", 4), (1.0, 9), (1.5, 16)])
def test_factored_trace_matches_full_inverse(case, n):
    pair = oracle_pair(case, n)
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = [float(factor * scale) for factor in np.geomspace(1e-8, 1e6, 12)]
    for alpha, raw in zip(alphas, raw_cdf(pair, alphas)):
        assert abs(raw - full_inverse_raw_cdf(pair, alpha)) <= 1e-14


@pytest.mark.parametrize(("case", "n"), [("random", 2), (1.0, 9), (1.5, 16)])
def test_raw_cdf_at_huge_alpha_is_exactly_one_over_n(case, n):
    # unordered_cdf takes the upper normalizer as 1/N without evaluating it
    pair = oracle_pair(case, n)
    alpha = HUGE_ALPHA_FACTOR * float(pair.dr_vals[0] * pair.dt_vals[0])
    assert full_inverse_raw_cdf(pair, alpha) == 1.0 / n


def test_singular_kernel_is_numeric_error():
    pair = EigenProfilePair.from_values([0.7, 0.3], [0.6, 0.4])
    # coincident values, which construction would refuse, make the
    # Vandermonde factor of P singular
    pair.dr_vals = np.array([0.5, 0.5])
    with pytest.raises(NumericError, match="singular"):
        unordered_cdf(pair, 0.5)


def test_degenerate_raw_cdf_span_is_numeric_error(monkeypatch):
    pair = EigenProfilePair.from_values([0.7, 0.3], [0.6, 0.4])
    # F(0+) at the raw CDF's upper limit 1/N leaves no span to normalize by
    monkeypatch.setattr(analytic_cdf, "_raw_cdf", lambda kernel, alpha: 0.5)
    with pytest.raises(NumericError, match="degenerate") as info:
        unordered_cdf(pair, 0.5)
    assert info.value.diagnostics == {"raw_lo": 0.5, "n": 2}


@pytest.mark.parametrize("alpha", [float("nan"), np.array([0.1, np.nan, 0.3])])
def test_nan_alpha_is_validation_error(alpha):
    pair = EigenProfilePair.from_values([0.7, 0.3], [0.6, 0.4])
    with pytest.raises(ValidationError) as info:
        unordered_cdf(pair, alpha)
    assert info.value.field == "alpha"


def test_pair_requires_positive_distinct_values():
    with pytest.raises(ValidationError):
        EigenProfilePair(dt_vals=np.array([0.5, 0.0]), dr_vals=np.array([0.6, 0.4]))
    with pytest.raises(ValidationError, match="jitter"):
        EigenProfilePair(
            dt_vals=np.array([0.5, 0.5]), dr_vals=np.array([0.6, 0.4])
        )


@pytest.mark.parametrize(
    "dt, dr, field",
    [([], [0.6, 0.4], "dt_vals"), ([0.6, 0.4], [], "dr_vals")],
    ids=["empty-dt", "empty-dr"],
)
def test_pair_names_the_empty_spectrum(dt, dr, field):
    with pytest.raises(ValidationError, match="is empty") as info:
        EigenProfilePair(dt_vals=np.array(dt), dr_vals=np.array(dr))
    assert info.value.field == field


def test_pair_jitter_resolves_ties():
    pair = EigenProfilePair.from_values([0.5, 0.5], [0.6, 0.4])
    assert pair.dt_vals[0] != pair.dt_vals[1]
    assert np.allclose(pair.dt_vals, 0.5, rtol=1e-5)


def test_rectangular_pairs_rejected_by_cdf():
    # either side may be the longer one
    for dt, dr in (([0.7, 0.3], [0.5, 0.3, 0.2]), ([0.5, 0.3, 0.2], [0.7, 0.3])):
        with pytest.raises(ValidationError, match="equal-size") as info:
            EigenProfilePair.from_values(dt, dr)
        assert info.value.field == "dr_vals"


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
    # below the F(0+) point, down to subnormal alpha
    assert np.array_equal(unordered_cdf(pair, [5e-324, 1e-9 * scale]), [0.0, 0.0])


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


DECADES = np.geomspace(1e-8, 1e6, 15)


@pytest.mark.parametrize(("case", "n"), [(1.0, 9), (1.5, 16), (2.0, 25)])
def test_certified_precision_gives_the_float_of_fifty_more_digits(case, n):
    pair = oracle_pair(case, n)
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = [float(factor * scale) for factor in DECADES]
    kernel = analytic_cdf._Kernel(pair, analytic_cdf.PrecisionLog())
    certified = [analytic_cdf._raw_cdf(kernel, alpha) for alpha in alphas]
    digits = kernel.log.dps
    assert len(digits) == len(alphas)
    more = [
        analytic_cdf._raw_at(kernel, alpha, dps + 50)
        for alpha, dps in zip(alphas, digits)
    ]
    assert more == certified


def test_overestimated_first_guess_is_evaluated_again(monkeypatch):
    pair = oracle_pair(1.0, 9)
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = [float(factor * scale) for factor in DECADES[1:7]]
    log = analytic_cdf.PrecisionLog()
    want = unordered_cdf(pair, alphas, log)
    assert log.reevaluations == 0
    # F_raw taken as 1/N everywhere: too high below the bulk of the support
    monkeypatch.setattr(
        analytic_cdf._Kernel, "first_guess", lambda self, alpha: 1.0 / self.n
    )
    again = analytic_cdf.PrecisionLog()
    assert np.array_equal(unordered_cdf(pair, alphas, again), want)
    assert again.reevaluations > 0
    assert len(again.dps) == len(log.dps) == len(alphas) + 1


def test_uncertified_value_is_numeric_error(monkeypatch):
    pair = oracle_pair(1.0, 9)
    # a value far below its own error bound bounds F_raw from below by nothing
    monkeypatch.setattr(analytic_cdf, "_raw_at", lambda kernel, alpha, dps: 0.0)
    with pytest.raises(NumericError, match="not certified"):
        unordered_cdf(pair, 0.5)
