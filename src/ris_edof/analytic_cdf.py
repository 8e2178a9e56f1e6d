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

Only E and C depend on a. unordered_cdf inverts V_a and V_b in closed form
(Lagrange interpolation, O(N^3)) at the precision its first point, F(0+),
asks for, which is the most any point asks for in practice, and again only
when a later point asks for more. Each point then costs N^2 exponentials
and one O(N^3) contraction; P itself is never formed or inverted.

The kernel arguments are the *reciprocals* of the spectrum values; this is
the convention under which the N = 1 case reduces to the exact exponential
law 1 - exp(-a / (dr_1 * dt_1)) and under which the formula matches Monte
Carlo sampling of the channel (the direct substitution of the spectrum
values does not). The nodes x_i = 1/dr_i and y_j = 1/dt_j are rounded to
double once, and enter mpmath as exact binary values.

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
beyond double precision for N >= 4, so it runs in mpmath, at a precision
chosen per evaluation point from a forward-error bound of the factored
trace. Let u <= 0.15 * 10^-p be the unit roundoff at p digits, and
x_ij = x_i * y_j.

- The inverses. Column i of V^-1 holds the coefficients of the Lagrange
  polynomial prod_{j != i} (t - x_j) / (x_i - x_j):
  V^-1[k, i] = (-1)^(N-1-k) e_(N-1-k)(x_j, j != i) / prod_{j != i} (x_i - x_j),
  with e_m the elementary symmetric polynomials. The nodes are positive, so
  the recurrence e_m += x * e_(m-1) adds positive terms and never cancels,
  and each difference of two exact nodes is rounded once. Every entry
  carries a relative error of at most 4N u, whatever the conditioning of V.
  (Synthetic division of prod_j (t - x_j) by (t - x_i), the O(N^2) route,
  cancels whenever x_i is large next to the other nodes.)
- The bound. T = sum_k w_k sum_i V_a^-1[k, i] sum_j E_ij V_b^-1[k, j], with
  w_k = k! / (-a)^k, is a sum of N^3 products. Each exponential carries a
  relative error of at most (2 + 2 a x_ij) u (its argument takes two
  roundings), mp.fdot rounds each inner sum once, the weights take 2N
  roundings and the sum over k N more. To first order each product is off
  by at most 13 N (1 + a x_ij) u of itself, so
      |T_computed - T| <= 13 N u M,
      M = sum_k |w_k| sum_i |V_a^-1[k, i]| sum_j |V_b^-1[k, j]| |E_ij| (1 + a x_ij),
  the same contraction on absolute values. With the final subtraction from
  1/N, F_raw is off by at most 14 (M + 1) / N * u, which
  ERROR_FACTOR (M + 1) / N * 10^-p bounds about 7 times over. M is
  summed in float64 log space from log-magnitudes of the inverses computed
  the same way (its terms reach 10^+-400); that costs O(N^3) numpy work per
  point and no mp arithmetic.
- The precision. p is the fewest digits that keep the bound below
  CERTIFIED_REL = 2^-60 times a first guess at F_raw, min(1, a x_min) / N^2
  (F_raw grows like a near 0 and reaches 1/N). The computed value is then
  checked: if the bound exceeds 2^-60 (|F_raw computed| - bound), the guess
  was too high, and the point is evaluated once more at the digits the
  bound asks for given that lower bound on F_raw. A second failure is a
  NumericError.

The computed F_raw is then within 2^-60 |F_raw| of the exact value, so its
rounding to double is the correctly rounded F_raw unless that lies within
2^-60 of a rounding boundary.
At N = 16 (1.5 wavelengths at half-wavelength spacing) this asks for
181 / 133 / 21 digits at 1e-8 / 1e-5 / 1e3 * dr_1 * dt_1, where the budget
N(N-1)/2 * |log10(a x)| that the full P^-1 needs asked for 1136 / 704 / 763.
"""

import logging
import math
from dataclasses import dataclass, field

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

# Each evaluation is certified to this relative error of F_raw, seven bits
# beyond double precision.
CERTIFIED_REL = 2.0**-60
# ERROR_FACTOR (M + 1) / N * 10^-p bounds the error of F_raw at p digits
# (see the module docstring).
ERROR_FACTOR = 16.0


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


def _log_inverse_magnitudes(nodes: np.ndarray, name: str) -> np.ndarray:
    """ln |V^-1[k, i]| for V[i, k] = nodes[i]**k, in float64.

    |V^-1[k, i]| = e_{N-1-k}(nodes without i) / prod_{j != i} |x_i - x_j|,
    and the elementary symmetric polynomials e_m of positive nodes are sums
    of positive terms, so log-space addition loses nothing to cancellation.
    """
    n = nodes.size
    gaps = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(gaps, 1.0)
    if np.any(gaps == 0):
        raise NumericError(
            "kernel matrix P is numerically singular: two values of "
            f"{name} coincide",
            {"field": name},
        )
    log_sym = np.full((n, n), -np.inf)  # row i: ln e_m(nodes without i)
    log_sym[:, 0] = 0.0
    for j, log_x in enumerate(np.log(nodes)):
        grown = np.logaddexp(log_sym[:, 1:], log_x + log_sym[:, :-1])
        others = np.arange(n) != j
        log_sym[others, 1:] = grown[others]
    return (log_sym[:, ::-1] - np.log(gaps).sum(axis=1)[:, None]).T


def _vandermonde_inverse(nodes: list) -> list:
    """Rows k of V^-1 for V[i, k] = nodes[i]**k, at the working precision.

    Column i holds the coefficients of the Lagrange polynomial
    prod_{j != i} (t - x_j) / (x_i - x_j): signed elementary symmetric
    polynomials of the other nodes over the node differences. The nodes are
    positive, so no step cancels.
    """
    n = len(nodes)
    rows = [[None] * n for _ in range(n)]
    for i, x in enumerate(nodes):
        others = nodes[:i] + nodes[i + 1:]
        sym = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
        for count, y in enumerate(others, 1):
            for m in range(count, 0, -1):
                sym[m] += y * sym[m - 1]
        denom = mp.fprod(x - y for y in others)
        for k in range(n):
            value = sym[n - 1 - k] / denom
            rows[k][i] = -value if (n - 1 - k) % 2 else value
    return rows


@dataclass
class PrecisionLog:
    """Working precision of each closed-form evaluation: the decimal digits
    each point was certified at, and how many points the a-posteriori check
    sent back for a second evaluation."""

    dps: list[int] = field(default_factory=list)
    reevaluations: int = 0


class _Kernel:
    """What every evaluation point of one unordered_cdf call shares: the
    nodes and x_ij in float64, the log-magnitudes of the Vandermonde inverses
    that bound the error, the record of working precisions and, at the
    highest precision asked for so far, -x_ij and the inverses' rows in mp."""

    def __init__(self, pair: EigenProfilePair, log: PrecisionLog):
        self.n = pair.n_r
        self.a_nodes, self.b_nodes = 1.0 / pair.dr_vals, 1.0 / pair.dt_vals
        self.x = np.outer(self.a_nodes, self.b_nodes)
        self.x_min = float(self.x.min())
        self.log_inv_a = _log_inverse_magnitudes(self.a_nodes, "dr_vals")
        self.log_inv_b = _log_inverse_magnitudes(self.b_nodes, "dt_vals")
        self.log_factorials = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, self.n))))
        )
        self.log = log
        self._dps = 0
        self._factors = None

    def factors(self, dps: int) -> tuple:
        """(-x_ij, rows of V_a^-1, rows of V_b^-1) at dps digits or more."""
        if dps > self._dps:
            with mp.workdps(dps):
                a_nodes = [mp.mpf(float(v)) for v in self.a_nodes]
                b_nodes = [mp.mpf(float(v)) for v in self.b_nodes]
                self._factors = (
                    [[-a * b for b in b_nodes] for a in a_nodes],
                    _vandermonde_inverse(a_nodes),
                    _vandermonde_inverse(b_nodes),
                )
            self._dps = dps
        return self._factors

    def first_guess(self, alpha: float) -> float:
        """A lower estimate of F_raw(alpha), which grows like alpha near 0
        and reaches 1/N, for the first choice of digits."""
        return min(1.0, alpha * self.x_min) / self.n**2


def _error_coefficient(kernel: _Kernel, alpha: float) -> float:
    """log10 of ERROR_FACTOR (M + 1) / N, the error bound on F_raw at
    10^-p = 1.

    M = sum_k |w_k| sum_i |V_a^-1[k, i]| sum_j |V_b^-1[k, j]| |E_ij| (1 + t_ij)
    with t_ij = alpha * x_ij, summed in float64 log space (its terms reach
    10^+-400).
    """
    n = kernel.n
    t = alpha * kernel.x
    log_e = np.log1p(t) - t
    log_w = kernel.log_factorials - np.arange(n) * math.log(alpha)
    terms = (
        log_w[:, None, None]
        + kernel.log_inv_a[:, :, None]
        + log_e[None, :, :]
        + kernel.log_inv_b[:, None, :]
    )
    top = terms.max()
    log_m = top + math.log(np.exp(terms - top).sum())
    return (np.logaddexp(log_m, 0.0) + math.log(ERROR_FACTOR / n)) / math.log(10)


def _digits(log10_coefficient: float, floor: float) -> int:
    """Fewest decimal digits p with 10^(log10_coefficient - p) at most
    CERTIFIED_REL * floor."""
    return math.ceil(log10_coefficient - math.log10(CERTIFIED_REL * floor))


def _raw_at(kernel: _Kernel, alpha: float, dps: int) -> float:
    """1/N - tr(E P^-1) / N^2 at one point and dps digits."""
    n = kernel.n
    neg_x, inv_a, inv_b = kernel.factors(dps)
    with mp.workdps(dps):
        z = mp.mpf(alpha)
        expo = [[mp.exp(x * z) for x in row] for row in neg_x]
        trace = mp.mpf(0)
        weight = mp.mpf(1)  # k! / (-alpha)^k, the diagonal of C^-1
        for k, (row_a, row_b) in enumerate(zip(inv_a, inv_b)):
            diag = mp.fdot(row_a, [mp.fdot(row, row_b) for row in expo])
            trace += weight * diag
            weight = weight * (k + 1) / -z
        return float(mp.mpf(1) / n - trace / (n * n))


def _raw_cdf(kernel: _Kernel, alpha: float) -> float:
    """Closed form 1/N - tr(E P^-1) / N^2 at one point, un-normalized
    (spans [0, 1/N]), at the digits its error bound certifies."""
    coefficient = _error_coefficient(kernel, alpha)
    floor = kernel.first_guess(alpha)
    for passes in (1, 2):
        dps = _digits(coefficient, floor)
        raw = _raw_at(kernel, alpha, dps)
        bound = 10.0 ** (coefficient - dps)
        if bound <= CERTIFIED_REL * (abs(raw) - bound):
            kernel.log.dps.append(dps)
            kernel.log.reevaluations += passes - 1
            return raw
        # the floor was above F_raw: take the lower bound this evaluation
        # gives, or, if it gives none, 2^-60 times its error bound
        floor = abs(raw) - bound if abs(raw) > bound else CERTIFIED_REL * bound
    raise NumericError(
        f"closed-form CDF at alpha = {alpha!r} not certified at {dps} digits: "
        f"error bound {bound:.3g}, value {raw!r}",
        {"alpha": alpha, "dps": dps, "bound": bound, "raw": raw},
    )


def unordered_cdf(
    pair: EigenProfilePair, alpha, log: PrecisionLog | None = None
) -> float | np.ndarray:
    """Endpoint-normalized CDF of an unordered composite-channel eigenvalue.

    Accepts a scalar or an array of evaluation points. `log`, if given,
    receives the working precision of every evaluation, F(0+) first.
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
    inside = (alphas > tiny) & (alphas < HUGE_ALPHA_FACTOR * scale)
    kernel = _Kernel(pair, log or PrecisionLog())
    raw_lo = _raw_cdf(kernel, tiny)
    logger.debug("raw CDF endpoints: F(0+) = %.6g, F(inf) = 1/N", raw_lo)
    span = 1.0 / pair.n_r - raw_lo
    if span <= 0:
        raise NumericError(
            f"degenerate raw CDF span: F(0+) = {raw_lo!r} is not below 1/N",
            {"raw_lo": raw_lo, "n": pair.n_r},
        )
    # F_raw is non-decreasing, so F is 0 up to the F(0+) point and 1 from
    # HUGE_ALPHA_FACTOR * scale on
    out = np.where(alphas > tiny, 1.0, 0.0)
    for idx in np.flatnonzero(inside):
        raw = _raw_cdf(kernel, alphas[idx])
        out[idx] = min(max((raw - raw_lo) / span, 0.0), 1.0)
    if np.isscalar(alpha) or np.asarray(alpha).ndim == 0:
        return float(out[0])
    return out


def cdf_table(
    pair: EigenProfilePair, num: int = 200, log: PrecisionLog | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """CDF values on a log-spaced grid from 1e-5 to 1e3 times dr_1 * dt_1."""
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = np.geomspace(1e-5 * scale, 1e3 * scale, num)
    return alphas, unordered_cdf(pair, alphas, log)

