"""Analytical CDF of an arbitrary unordered eigenvalue of the composite channel.

For equal panel sizes (n_t = n_r = N) with distinct positive spectra on both
ends, the CDF of a uniformly chosen eigenvalue of Dr_n H Dt_n H^H is

    F_raw(a) = 1/N - tr(E P^-1) / N^2,         x_ij = 1 / (dr_i * dt_j)
    P[i, j] = sum_{k<N} (-a * x_ij)^k / k!,    E[i, j] = exp(-a * x_ij)

The paper divides sum_n det K^(n), with K^(n) the matrix P with row n taken
from E, by a Vandermonde normalizer. By the matrix determinant lemma
det K^(n) = det P * (E P^-1)_nn, and det P is that normalizer, since

    P = V_a C V_b^T,   V_a[i, k] = (1/dr_i)^k,   V_b[j, k] = (1/dt_j)^k,
    C = diag((-a)^k / k!).

Hence P^-1 = V_b^-T C^-1 V_a^-1 and

    tr(E P^-1) = sum_k k! / (-a)^k * (V_a^-1 E V_b^-T)[k, k].

Only E and C depend on a. unordered_cdf inverts V_a and V_b once per call,
in closed form (Lagrange interpolation: one synthetic division of the node
polynomial per column, O(N^2)), at the highest precision any of its points
needs. Each point then costs N^2 exponentials and one O(N^3) contraction;
P itself is never formed or inverted.

The kernel arguments are the *reciprocals* of the spectrum values; this is
the convention under which the N = 1 case reduces to the exact exponential
law 1 - exp(-a / (dr_1 * dt_1)) and under which the formula matches Monte
Carlo sampling of the channel (the direct substitution of the spectrum
values does not).

The raw expression spans [0, 1/N] rather than [0, 1], so the returned CDF is
affinely renormalized by its values at a -> 0 and a -> infinity:

- F_raw(infinity) is taken as exactly 1/N. The closed form is scale-free,
  so take dr_1 = dt_1 = 1. At a = HUGE_ALPHA_FACTOR every a * x_ij is at
  least 1e6, so |E_ij| <= exp(-1e6) ~ 10^-434294. For double-precision
  spectra separated by MIN_RELATIVE_SEPARATION and N <= N_GUARD, no entry
  of P^-1 exceeds about 10^21000, so tr(E P^-1) / N^2 lies far below half
  an ulp of 1/N and the evaluated float is 1/N itself.
- F_raw(0+) is still evaluated, at TINY_ALPHA_FACTOR * dr_1 * dt_1. Its
  exact limit is 0, but the evaluated value (2.97e-9 at N = 16,
  1.5 wavelengths at half-wavelength spacing) is what the recorded CDF
  values are normalized by; the exact limit would shift them by up to
  ~5e-8.

Near both ends of the support the trace cancels through many digits, far
beyond double precision for N >= 4, so the inverses and the contraction run
in mpmath. _required_dps budgets N(N-1)/2 * |log10(a * x)| digits, the
cancellation of the full P^-1. The factored trace needs far less: at N = 16
(1.5 wavelengths at half-wavelength spacing) a fifth of that budget gives
bit-equal values at 1e-8, 1e-5 and 1e3 * dr_1 * dt_1, and a tenth gives
garbage (about -1.7e34).
"""

import logging
import math
from dataclasses import dataclass

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
    """Working precision for the closed form at one evaluation point.

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


@dataclass(frozen=True)
class _Kernel:
    """What every evaluation point of one unordered_cdf call shares: the
    nodes 1/dr_i and 1/dt_j, the rows of their Vandermonde inverses, and the
    geometric mean and maximum of x_ij that set the precision."""

    a_nodes: list
    b_nodes: list
    inv_a: list
    inv_b: list
    x_geo_mean: float
    x_max: float


def _vandermonde_inverse(nodes: list, field: str) -> list:
    """Rows k of V^-1 for V[i, k] = nodes[i]**k, at the working precision.

    Column i holds the coefficients of the Lagrange polynomial
    prod_{j != i} (t - x_j) / (x_i - x_j): one synthetic division of the
    node polynomial prod_j (t - x_j) by (t - x_i).
    """
    n = len(nodes)
    master = [mp.mpf(1)]  # coefficients, constant term first
    for x in nodes:
        master = [lo - x * hi for lo, hi in zip([0, *master], [*master, 0])]
    rows = [[None] * n for _ in range(n)]
    for i, x in enumerate(nodes):
        denom = mp.fprod(x - y for j, y in enumerate(nodes) if j != i)
        if denom == 0:
            raise NumericError(
                "kernel matrix P is numerically singular: two values of "
                f"{field} coincide at {mp.mp.dps} digits",
                {"field": field, "dps": mp.mp.dps},
            )
        coef = mp.mpf(1)
        rows[n - 1][i] = coef / denom
        for k in range(n - 1, 0, -1):
            coef = master[k] + x * coef
            rows[k - 1][i] = coef / denom
    return rows


def _kernel(pair: EigenProfilePair, alphas) -> _Kernel:
    """Invert V_a and V_b at the highest precision that any of `alphas`
    needs."""
    a_nodes = [mp.mpf(1) / mp.mpf(float(v)) for v in pair.dr_vals]
    b_nodes = [mp.mpf(1) / mp.mpf(float(v)) for v in pair.dt_vals]
    logs = [math.log(float(a * b)) for a in a_nodes for b in b_nodes]
    x_geo_mean = math.exp(sum(logs) / len(logs))
    x_max = math.exp(max(logs))
    dps = max(_required_dps(pair.n_r, a, x_geo_mean, x_max) for a in alphas)
    with mp.workdps(dps):
        inv_a = _vandermonde_inverse(a_nodes, "dr_vals")
        inv_b = _vandermonde_inverse(b_nodes, "dt_vals")
    return _Kernel(a_nodes, b_nodes, inv_a, inv_b, x_geo_mean, x_max)


def _raw_cdf(kernel: _Kernel, alpha: float) -> float:
    """Closed form 1/N - tr(E P^-1) / N^2 at one point, un-normalized
    (spans [0, 1/N])."""
    n = len(kernel.a_nodes)
    with mp.workdps(_required_dps(n, alpha, kernel.x_geo_mean, kernel.x_max)):
        z = mp.mpf(alpha)
        expo = [[mp.exp(-a * b * z) for b in kernel.b_nodes] for a in kernel.a_nodes]
        trace = mp.mpf(0)
        weight = mp.mpf(1)  # k! / (-alpha)^k, the diagonal of C^-1
        for k, (row_a, row_b) in enumerate(zip(kernel.inv_a, kernel.inv_b)):
            diag = mp.fdot(row_a, [mp.fdot(row, row_b) for row in expo])
            trace += weight * diag
            weight = weight * (k + 1) / -z
        return float(mp.mpf(1) / n - trace / (n * n))


def unordered_cdf(pair: EigenProfilePair, alpha) -> float | np.ndarray:
    """Endpoint-normalized CDF of an unordered composite-channel eigenvalue.

    Accepts a scalar or an array of evaluation points.
    """
    if pair.n_r > N_GUARD:
        raise SizeGuardError(
            f"analytic CDF guard: N = {pair.n_r} exceeds {N_GUARD}"
        )
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all(alphas >= 0):
        raise ValidationError(
            "alpha must be non-negative and not NaN", field="alpha"
        )

    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    tiny = TINY_ALPHA_FACTOR * scale
    inside = (alphas > 0) & (alphas < HUGE_ALPHA_FACTOR * scale)
    kernel = _kernel(pair, [tiny, *alphas[inside]])
    raw_lo = _raw_cdf(kernel, tiny)
    logger.debug("raw CDF endpoints: F(0+) = %.6g, F(inf) = 1/N", raw_lo)
    span = 1.0 / pair.n_r - raw_lo
    if span <= 0:
        raise NumericError(
            f"degenerate raw CDF span: F(0+) = {raw_lo!r} is not below 1/N",
            {"raw_lo": raw_lo, "n": pair.n_r},
        )
    # 0 at alpha = 0, 1 from HUGE_ALPHA_FACTOR * scale on
    out = np.where(alphas > 0, 1.0, 0.0)
    for idx in np.flatnonzero(inside):
        raw = _raw_cdf(kernel, alphas[idx])
        out[idx] = min(max((raw - raw_lo) / span, 0.0), 1.0)
    if np.isscalar(alpha) or np.asarray(alpha).ndim == 0:
        return float(out[0])
    return out


def cdf_table(
    pair: EigenProfilePair, num: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """CDF values on a log-spaced grid from 1e-5 to 1e3 times dr_1 * dt_1."""
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = np.geomspace(1e-5 * scale, 1e3 * scale, num)
    return alphas, unordered_cdf(pair, alphas)

