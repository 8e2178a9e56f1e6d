"""Analytical CDF of an arbitrary unordered eigenvalue of the composite channel.

For equal panel sizes (n_t = n_r = N) with distinct positive spectra on both
ends, the CDF of a uniformly chosen eigenvalue of Dr_n H Dt_n H^H is

    F_raw(a) = 1/N - tr(E P^-1) / N^2,         x_ij = 1 / (dr_i * dt_j)
    P[i, j] = sum_{k<N} (-a * x_ij)^k / k!,    E[i, j] = exp(-a * x_ij)

The paper divides sum_n det K^(n), with K^(n) the matrix P with row n taken
from E, by a Vandermonde normalizer. By the matrix determinant lemma
det K^(n) = det P * (E P^-1)_nn, and det P is that normalizer, since
P = V_a diag((-a)^k / k!) V_b^T with V_a[i, k] = (1/dr_i)^k and
V_b[j, k] = (1/dt_j)^k; one inverse of P replaces the N determinants.

The kernel arguments are the *reciprocals* of the spectrum values; this is
the convention under which the N = 1 case reduces to the exact exponential
law 1 - exp(-a / (dr_1 * dt_1)) and under which the formula matches Monte
Carlo sampling of the channel (the direct substitution of the spectrum
values does not).

The raw expression spans [0, 1/N] rather than [0, 1], so the returned CDF is
affinely renormalized by its values at a -> 0 and a -> infinity. P is as
ill-conditioned as its Vandermonde factors: the trace cancels through roughly
N(N-1)/2 * |log10(a * x)| digits near both ends of the support, far beyond
double precision for N >= 4, so the kernels and the inverse are evaluated
with mpmath at an adaptively chosen precision.
"""

import logging
import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from .errors import NumericError, SizeGuardError, ValidationError

logger = logging.getLogger(__name__)

# The analytic path is a validation oracle for small systems; determinant
# conditioning degrades combinatorially beyond this.
N_GUARD = 32

MIN_RELATIVE_SEPARATION = 1e-8
JITTER_SCALE = 1e-6
JITTER_SEED = 181537

# Endpoint evaluation points, as multiples of max(dr) * max(dt).
TINY_ALPHA_FACTOR = 1e-8
HUGE_ALPHA_FACTOR = 1e6


@dataclass
class EigenProfilePair:
    """Positive, pairwise-distinct, equal-length spectra of the two
    correlation matrices.

    Values are stored in non-increasing order. Degenerate spectra (ties
    tighter than MIN_RELATIVE_SEPARATION) make the determinant formula a
    0/0 limit; the from_values factory jitters them to a stable nearby
    evaluation point.
    """

    dt_vals: np.ndarray
    dr_vals: np.ndarray

    def __post_init__(self):
        self.dt_vals = np.sort(np.asarray(self.dt_vals, dtype=float))[::-1]
        self.dr_vals = np.sort(np.asarray(self.dr_vals, dtype=float))[::-1]
        for name, vals in (("dt_vals", self.dt_vals), ("dr_vals", self.dr_vals)):
            if vals.size == 0:
                raise ValidationError(f"{name} is empty", field=name)
            if np.any(vals <= 0):
                raise ValidationError(
                    f"{name} must be strictly positive", field=name
                )
            if _min_relative_separation(vals) < MIN_RELATIVE_SEPARATION:
                raise ValidationError(
                    f"{name} has near-coincident values; separate them or "
                    "use EigenProfilePair.from_values, which jitters them",
                    field=name,
                )
        if self.dr_vals.size != self.dt_vals.size:
            raise ValidationError(
                "the closed form needs equal-size spectra; the rectangular "
                "kernel is not well defined (len(dt_vals) = "
                f"{self.dt_vals.size}, len(dr_vals) = {self.dr_vals.size})",
                field="dr_vals",
            )

    @property
    def n_r(self) -> int:
        """N, the common length of the two spectra."""
        return self.dr_vals.size

    @classmethod
    def from_values(cls, dt_vals, dr_vals) -> "EigenProfilePair":
        """Build a pair, jittering near-coincident values."""
        rng = np.random.default_rng(JITTER_SEED)
        dt_vals = _maybe_jitter(np.asarray(dt_vals, dtype=float), rng)
        dr_vals = _maybe_jitter(np.asarray(dr_vals, dtype=float), rng)
        return cls(dt_vals=dt_vals, dr_vals=dr_vals)


def _min_relative_separation(vals: np.ndarray) -> float:
    s = np.sort(vals)
    if s.size < 2:
        return float("inf")
    gaps = np.diff(s)
    denom = np.maximum(np.abs(s[1:]), np.abs(s[:-1]))
    return float(np.min(gaps / denom))


def _maybe_jitter(vals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if _min_relative_separation(vals) >= MIN_RELATIVE_SEPARATION:
        return vals
    u = rng.uniform(-1.0, 1.0, size=vals.size)
    return vals * (1.0 + u * JITTER_SCALE)


def _required_dps(n: int, alpha: float, x_geo_mean: float, x_max: float) -> int:
    """Working precision for the kernel inverse at one evaluation point.

    Cancellation deepens like N(N-1)/2 decimal digits per decade that
    alpha * x sits away from O(1), in both directions.
    """
    pairs = n * (n - 1) / 2
    depth = 0.0
    s_lo = alpha * x_geo_mean
    if s_lo < 1.0:
        depth += pairs * abs(math.log10(s_lo))
    s_hi = alpha * x_max
    if s_hi > 1.0:
        depth += pairs * math.log10(s_hi)
    return 30 + int(1.2 * depth) + 2 * n


def _raw_cdf(pair: EigenProfilePair, alpha: float) -> float:
    """Closed form 1/N - tr(E P^-1) / N^2, un-normalized (spans [0, 1/N])."""
    n = pair.n_r
    av = [mp.mpf(1) / mp.mpf(float(v)) for v in pair.dr_vals]
    bv = [mp.mpf(1) / mp.mpf(float(v)) for v in pair.dt_vals]
    logs = [math.log(float(a * b)) for a in av for b in bv]
    x_geo_mean = math.exp(sum(logs) / len(logs))
    x_max = math.exp(max(logs))

    with mp.workdps(_required_dps(n, alpha, x_geo_mean, x_max)):
        z = mp.mpf(alpha)
        poly = [
            [
                mp.fsum((-z * av[i] * bv[j]) ** k / mp.factorial(k) for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        try:
            poly_inv = mp.inverse(mp.matrix(poly))
        except ZeroDivisionError as exc:
            raise NumericError(
                f"kernel matrix P is numerically singular at alpha = {alpha!r}",
                {"alpha": alpha, "dps": mp.mp.dps},
            ) from exc
        trace = mp.fsum(
            mp.exp(-av[i] * bv[j] * z) * poly_inv[j, i]
            for i in range(n)
            for j in range(n)
        )
        return float(mp.mpf(1) / n - trace / (n * n))


def _endpoints(pair: EigenProfilePair) -> tuple[float, float]:
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    raw_lo = _raw_cdf(pair, TINY_ALPHA_FACTOR * scale)
    raw_hi = _raw_cdf(pair, HUGE_ALPHA_FACTOR * scale)
    logger.debug(
        "raw CDF endpoints: F(0+) = %.6g, F(inf) = %.6g (1/N = %.6g)",
        raw_lo,
        raw_hi,
        1.0 / pair.n_r,
    )
    if raw_hi - raw_lo <= 0:
        raise NumericError(
            f"degenerate raw CDF span [{raw_lo!r}, {raw_hi!r}]",
            {"raw_lo": raw_lo, "raw_hi": raw_hi},
        )
    return raw_lo, raw_hi


def unordered_cdf(pair: EigenProfilePair, alpha) -> float | np.ndarray:
    """Endpoint-normalized CDF of an unordered composite-channel eigenvalue.

    Accepts a scalar or an array of evaluation points.
    """
    if pair.n_r > N_GUARD:
        raise SizeGuardError(
            f"analytic CDF guard: N = {pair.n_r} exceeds {N_GUARD}"
        )
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(alphas < 0):
        raise ValidationError("alpha must be non-negative", field="alpha")

    raw_lo, raw_hi = _endpoints(pair)
    span = raw_hi - raw_lo
    out = np.empty(alphas.shape)
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    for idx, a in enumerate(alphas):
        if a == 0.0:
            out[idx] = 0.0
        elif a >= HUGE_ALPHA_FACTOR * scale:
            out[idx] = 1.0
        else:
            out[idx] = min(max((_raw_cdf(pair, a) - raw_lo) / span, 0.0), 1.0)
    if np.isscalar(alpha) or np.asarray(alpha).ndim == 0:
        return float(out[0])
    return out


def cdf_table(
    pair: EigenProfilePair, num: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """CDF values on a log-spaced grid from 1e-5 to 1e3 times dr_1 * dt_1,
    ready for inversion."""
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = np.geomspace(1e-5 * scale, 1e3 * scale, num)
    return alphas, unordered_cdf(pair, alphas)


def inverse_cdf_profile(
    alphas: np.ndarray, f_values: np.ndarray, n: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Continuous eigenvalue profile gamma(x) = F^-1(1 - x/n) on [1, n].

    The tabulated CDF must be non-decreasing; gamma(n) maps to F^-1(0) = 0
    because the normalized CDF anchors F(0) = 0.
    """
    alphas = np.asarray(alphas, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    if alphas.shape != f_values.shape or alphas.ndim != 1:
        raise ValidationError("alphas and f_values must be 1-D and equal length")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}", field="n")
    diffs = np.diff(f_values)
    if np.any(diffs < -1e-9):
        raise NumericError(
            f"tabulated CDF decreases by {float(-diffs.min()):.3e}; "
            "refusing to invert"
        )
    # Anchor the normalized origin and squash rounding-level wiggles.
    f_mono = np.maximum.accumulate(np.concatenate([[0.0], f_values]))
    a_grid = np.concatenate([[0.0], alphas])

    def gamma(x):
        x_arr = np.clip(np.asarray(x, dtype=float), 1.0, float(n))
        p = 1.0 - x_arr / float(n)
        vals = np.interp(p, f_mono, a_grid)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(vals)
        return vals

    return gamma
