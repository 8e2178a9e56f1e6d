"""Equal-power ergodic capacity over subchannels and the SNR-dependent
effective degrees of freedom (EDoF) that maximize it.

The discrete capacity of n_s subchannels at linear receive SNR rho is

    C(n_s) = sum_{k<=n_s} log2(1 + rho * n_t * n_r * gamma_k / n_s)

with gamma_k the mean eigenvalue profile of the normalized composite
channel. Its continuous counterpart h(N_s) integrates the same integrand
over a monotone piecewise-linear interpolant gamma(x); the EDoF is the
maximizer of h over [1, rank]. h is unimodal (below): h' changes sign at
most once, from + to -, so the maximizer is the bracketed root of h', or
rank when h' is still >= 0 there. A root of h' is fixed to near machine
precision, where h itself, flat at its top, would resolve the maximizer
only to about sqrt(eps) * rank.

h is the exact integral of the interpolant. gamma is linear between unit
knots, so with a = rho * n_t * n_r / N_s the gain u = a * gamma is linear
on each segment, running from u0 to u1. Over such a segment

    mean ln(1 + u)     = (l0 + l1) / 2 + c,
    mean u / (1 + u)   = (u0 + (l1 - l0) / 2 - c) / (1 + u0),

where l = log1p(u) at the two ends, z = (u1 - u0) / (2 + u0 + u1) and
c = atanh(z) / z - 1, the gap between the exact mean and the trapezoid:
c = z^2/3 + z^4/5 + ... >= 0. In terms of the relative step
s = (u1 - u0) / (1 + u0), z = s / (2 + s) and atanh(z) = log1p(s) / 2.
At s = z = 0 (a flat segment, a zero tail or zero gain) c = 0 and the
means are ln(1 + u0) and u0 / (1 + u0). c is evaluated as
(atanh(z) - z) / z, with no branch for small z: this keeps its digits
where z is tiny, so the mean stays accurate to about 1e-8 relative even at
gains far below 1, where forming it from log1p(s) would not. The
fractional end segment [floor(x), x] uses the same formulas, scaled by its
length. No quadrature lattice is left, so h at any point costs one log1p
per knot and one atanh per segment.

Why h is unimodal. Write a = rho * n_t * n_r / x, v = a * gamma(x) and
w(t) = a * gamma(t), so that h(x) ln 2 = int_1^x ln(1 + w) dt and

    S(x) = x * h'(x) * ln 2 = x ln(1 + v) - int_1^x w / (1 + w) dt

has the sign of h'. S(1) = ln(1 + v) > 0, and

    S' = ln(1 + v) - 2v / (1 + v) + x a gamma'(x) / (1 + v)
         + (1/x) int_1^x w / (1 + w)^2 dt,

where the gamma' term is <= 0 on both sides of a knot. At a zero of S put
s = w / (1 + w): then w / (1 + w)^2 = s - s^2 and (1/x) int s = ln(1 + v),
and Cauchy-Schwarz gives (1/x) int s^2 >= ln^2(1 + v), so

    S' <= -[ln^2(1 + v) - 2 ln(1 + v) + 2v / (1 + v)].

The bracket is 0 at v = 0 and its derivative is
2 (ln(1 + v) - v / (1 + v)) / (1 + v) > 0, so S' < 0 at every zero of S
with v > 0. A zero with v = 0 needs gamma = 0 on [1, x], so gamma_1 = 0,
which from_values refuses. Hence S changes sign at most once, from + to -,
for every non-increasing gamma >= 0 with gamma_1 > 0 and rho > 0: h rises
to its maximum, then falls. At rho = 0 or gamma_1 = 0, h is 0 everywhere,
and the solve returns the left end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlation import effective_rank
from .errors import NumericError, ValidationError

LN2 = math.log(2.0)

# The root of h' is fixed to a bracket narrower than ROOT_XTOL + ROOT_RTOL * x.
ROOT_XTOL = 1e-12
ROOT_RTOL = 4 * np.finfo(float).eps


@dataclass
class EigenvalueProfile:
    """Non-increasing mean eigenvalue profile with a continuous interpolant.

    gamma holds the values at integer indices 1..rank (trailing entries
    below the effective-rank tolerance are dropped at construction).
    gamma_at evaluates the piecewise-linear interpolant, extended flat
    beyond both ends.
    """

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.size == 0:
            raise ValidationError("profile is empty", field="gamma")
        if np.any(self.gamma < 0):
            raise ValidationError("profile values must be >= 0", field="gamma")
        if np.any(np.diff(self.gamma) > 1e-12 * self.gamma[0]):
            raise ValidationError("profile must be non-increasing", field="gamma")

    @property
    def rank(self) -> int:
        return self.gamma.size

    def gamma_at(self, x: float) -> float:
        nodes = np.arange(1, self.rank + 1, dtype=float)
        return float(np.interp(x, nodes, self.gamma))

    @classmethod
    def from_values(cls, values) -> "EigenvalueProfile":
        values = np.asarray(values, dtype=float)
        if values.size == 0 or values[0] <= 0:
            raise ValidationError(
                "profile needs a positive leading value", field="gamma"
            )
        return cls(gamma=values[: effective_rank(values)])


@dataclass
class EdofResult:
    """Solved EDoF at one SNR point."""

    n_s_star: float  # continuous maximizer of h on [1, rank]
    n_s_int: int  # integer subchannel count actually used
    capacity_at_int: float  # discrete capacity at n_s_int, bits/s/Hz
    stationarity_residual: float  # dh/dN_s at n_s_star; ~0 for interior optima


@dataclass
class DegradationRow:
    """Capacity cost of sending on dof_reference subchannels instead of EDoF."""

    snr_db: float
    edof: EdofResult
    capacity_ref: float
    degradation: float  # 1 - C_ref / C_edof
    ref_clipped: bool  # dof_reference exceeded the profile rank


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def capacity(
    profile: EigenvalueProfile, rho: float, nt_nr: float, n_s: int
) -> float:
    """Discrete equal-power capacity over the strongest n_s subchannels.

    log1p keeps the digits of gains far below 1, where 1 + gain rounds to 1.
    """
    if not 1 <= n_s <= profile.rank:
        raise ValidationError(
            f"n_s = {n_s} outside [1, rank = {profile.rank}]", field="n_s"
        )
    gains = rho * nt_nr * profile.gamma[:n_s] / n_s
    return float(np.log1p(gains).sum() / LN2)


def _trapezoid_gap(a, g0, g1) -> np.ndarray:
    """c = atanh(z)/z - 1 on segments where u = a * gamma runs from a * g0
    to a * g1, with z = (u1 - u0) / (2 + u0 + u1); 0 where z is 0.

    z is formed as (g1 - g0) / (2/a + g0 + g1), with 2/a taken in numpy so
    that a zero gain gives 2/a = inf and z = 0, the zero-gain limit. z stays
    above -1 unless a knot of exactly 0 follows one with a * g0 above ~1e16,
    which a profile cut at RANK_TOL never has.
    """
    with np.errstate(divide="ignore", over="ignore"):
        z = np.divide(2.0, a) + (g0 + g1)
    z = (g1 - g0) / z
    c = np.arctanh(z) - z
    np.divide(c, z, out=c, where=z != 0.0)
    return c


def _h(profile: EigenvalueProfile, rho: float, nt_nr: float, x: float):
    """Exact h, in bits, at one point x, with the segments it is built from:
    floor(x) = m and, at the knots 1..m and at x, the gains u = a * gamma
    and l = log1p(u), with the trapezoid gap c of each segment between them
    (the last one, [m, x], may be empty). h is the sum of the full
    segments' means of ln(1 + u) plus x - m times the end segment's."""
    a = rho * nt_nr / x
    m = int(x)
    g = np.append(profile.gamma[:m], profile.gamma_at(x))
    u = a * g
    logs = np.log1p(u)
    gaps = _trapezoid_gap(a, g[:-1], g[1:])
    means = 0.5 * (logs[:-1] + logs[1:]) + gaps
    h = (means[:-1].sum() + (x - m) * means[-1]) / LN2
    return float(h), m, u, logs, gaps


def h_and_derivative(
    profile: EigenvalueProfile, rho: float, nt_nr: float, n_s: float
) -> tuple[float, float]:
    """Continuous capacity h(n_s) and its derivative, both exact for the
    interpolant (see the module docstring).

    h comes from _h. The derivative is the boundary term
    log2(1 + a * gamma(n_s)) minus the integral of the saturation term
    u / (1 + u), divided by n_s * ln 2, since a = rho * nt_nr / n_s.
    """
    if n_s < 1.0 or n_s > profile.rank + 1e-9:
        raise ValidationError(
            f"n_s = {n_s} outside [1, rank = {profile.rank}]", field="n_s"
        )
    x = min(float(n_s), float(profile.rank))
    h, m, u, logs, gaps = _h(profile, rho, nt_nr, x)
    sat = (u[:-1] + 0.5 * (logs[1:] - logs[:-1]) - gaps) / (1.0 + u[:-1])
    integral = sat[:-1].sum() + (x - m) * sat[-1]
    dh = (logs[-1] - integral / x) / LN2
    return h, float(dh)


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float):
    """The root of f between lo and hi, where f(lo) and f(hi) have opposite
    signs, and f there, by Chandrupatla's method: inverse quadratic
    interpolation through the last three points where it is safe, and
    bisection otherwise, on a bracket that shrinks every step. It stops once
    the bracket is narrower than ROOT_XTOL + ROOT_RTOL * |x| and returns the
    end with the smaller |f|."""
    x1, f1, x2, f2 = hi, f_hi, lo, f_lo  # x1 is the newest point
    t = 0.5
    while True:
        x = x1 + t * (x2 - x1)
        fx = f(x)
        if (fx < 0.0) == (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        tol = ROOT_XTOL + ROOT_RTOL * abs(xm)
        width = abs(x2 - x1)
        if fm == 0.0 or width < tol:
            return xm, fm
        # x3 lies beyond x1, and f3 has the sign of f1
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
        else:
            t = 0.5
        edge = 0.5 * tol / width
        t = min(max(t, edge), 1.0 - edge)


def solve_edof(profile: EigenvalueProfile, rho: float, nt_nr: float) -> EdofResult:
    """Maximize h over [1, rank] and report the EDoF.

    h is unimodal (see the module docstring): h' > 0 at 1 unless h is 0
    everywhere, which gives 1, and h' changes sign at most once. So the
    maximizer is rank when h'(rank) >= 0, and otherwise the root of h'
    bracketed by [1, rank]. The integer EDoF is the rounded continuous
    optimum, locally hill-climbed on the discrete capacity so it always sits
    on a discrete local maximum.
    """
    rank = profile.rank

    def dh(x: float) -> float:
        return h_and_derivative(profile, rho, nt_nr, x)[1]

    n_star, residual = 1.0, dh(1.0)
    if residual > 0.0:
        d_rank = dh(float(rank))
        if d_rank >= 0.0:
            n_star, residual = float(rank), d_rank
        else:
            n_star, residual = _root(dh, 1.0, float(rank), residual, d_rank)

    n_int = int(round(n_star))  # n_star lies in [1, rank], so n_int does too
    cap = capacity(profile, rho, nt_nr, n_int)
    improved = True
    while improved:
        improved = False
        for cand in (n_int - 1, n_int + 1):
            if 1 <= cand <= rank:
                c = capacity(profile, rho, nt_nr, cand)
                if c > cap:
                    n_int, cap = cand, c
                    improved = True

    return EdofResult(
        n_s_star=float(n_star),
        n_s_int=n_int,
        capacity_at_int=cap,
        stationarity_residual=float(residual),
    )


def capacity_degradation(
    profile: EigenvalueProfile,
    nt_nr: float,
    snr_grid_db,
    dof_reference: int,
) -> list[DegradationRow]:
    """Capacity loss from using dof_reference subchannels instead of the
    EDoF, one row per SNR grid point."""
    if dof_reference < 1:
        raise ValidationError(
            f"dof_reference must be >= 1, got {dof_reference}",
            field="dof_reference",
        )
    snr_grid_db = [float(s) for s in snr_grid_db]
    if not snr_grid_db:
        raise ValidationError("SNR grid is empty", field="snr_grid_db")
    n_ref = min(dof_reference, profile.rank)
    clipped = n_ref != dof_reference
    rows = []
    for snr_db in snr_grid_db:
        rho = snr_db_to_linear(snr_db)
        result = solve_edof(profile, rho, nt_nr)
        if result.capacity_at_int == 0.0:
            raise NumericError(
                f"capacity is 0 at SNR {snr_db:g} dB (linear SNR "
                f"{rho:g}): the degradation ratio is undefined",
                diagnostics={"snr_db": snr_db, "rho": rho},
            )
        cap_ref = capacity(profile, rho, nt_nr, n_ref)
        degradation = 1.0 - cap_ref / result.capacity_at_int
        rows.append(
            DegradationRow(
                snr_db=snr_db,
                edof=result,
                capacity_ref=cap_ref,
                degradation=degradation,
                ref_clipped=clipped,
            )
        )
    return rows


def capacity_curve(
    profile: EigenvalueProfile, rho: float, nt_nr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete capacity at every integer subchannel count, plus the curve
    normalized by its maximum."""
    counts = np.arange(1, profile.rank + 1)
    caps = np.array([capacity(profile, rho, nt_nr, int(n)) for n in counts])
    peak = caps.max()
    if peak <= 0:
        normalized = np.zeros_like(caps)
    else:
        normalized = caps / peak
    return counts, caps, normalized
