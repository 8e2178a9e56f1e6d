"""Analytical per-index eigenvalue bounds for the composite channel.

With normalized spectra dt, dr and H of i.i.d. CN(0, 1) entries, the k-th
eigenvalue of Dr^{1/2} H Dt H^H Dr^{1/2} is at most
||H||^2 * min(dt_k * dr_1, dr_k * dt_1). The almost-sure limit of ||H||^2
is the upper Marchenko-Pastur edge of H H^H, n_r * (1 + sqrt(eta))^2 =
(sqrt(n_t) + sqrt(n_r))^2 with eta = n_t / n_r, and the middle regime uses
it as the multiplier. When one side is at least ETA_HIGH times the other,
the eigenvalues concentrate at max(n_t, n_r) times the per-index products,
which gives a lower bound as well as a tighter upper one. Because the edges
are asymptotic, every audit carries an explicit multiplicative slack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlation import effective_rank
from .errors import ValidationError

REGIME_NT_MUCH_LESS = "nt_much_less"
REGIME_NT_MUCH_GREATER = "nt_much_greater"
REGIME_NT_APPROX_NR = "nt_approx_nr"

# eta thresholds separating the qualitative regimes.
ETA_LOW = 0.1
ETA_HIGH = 10.0
DEFAULT_SLACK = 0.10


@dataclass
class BoundTable:
    """Per-index lower/upper bounds on the composite-channel eigenvalues."""

    regime: str
    lower: np.ndarray
    upper: np.ndarray
    slack: float

    def __post_init__(self):
        if np.any(self.lower > self.upper * (1 + 1e-12)):
            raise ValidationError("lower bound exceeds upper bound", field="lower")


@dataclass
class BoundViolation:
    """One sample outside its slackened bound. k is 1-based."""

    k: int
    realization: int
    value: float
    bound: float
    kind: str  # "upper" or "lower"


def mp_edges(eta: float) -> tuple[float, float]:
    """Marchenko-Pastur spectral edges ((1-sqrt(eta))^2, (1+sqrt(eta))^2)."""
    if not eta > 0:
        raise ValidationError(f"eta must be positive, got {eta}", field="eta")
    root = math.sqrt(eta)
    return ((1.0 - root) ** 2, (1.0 + root) ** 2)


def _smallest_significant(values: np.ndarray, name: str) -> float:
    """Smallest eigenvalue above the effective-rank tolerance of the
    spectrum ``name``.

    Using the literal smallest (often a clamped 0) would collapse every
    lower bound to 0 uninformatively.
    """
    rank = effective_rank(values)
    if rank == 0:
        raise ValidationError(
            f"spectrum {name} has no significant eigenvalues", field=name
        )
    return float(values[rank - 1])


def per_eig_bounds(
    dt: np.ndarray, dr: np.ndarray, *, slack: float = DEFAULT_SLACK
) -> BoundTable:
    """Regime-dependent per-index bounds from the two normalized spectra.

    Returns len(dr) rows; indices beyond the transmit spectrum length use a
    zero transmit eigenvalue, which correctly forces those bounds to 0.
    """
    dt = np.asarray(dt, dtype=float)
    dr = np.asarray(dr, dtype=float)
    for name, values in (("dt", dt), ("dr", dr)):
        if values.size == 0:
            raise ValidationError(f"spectrum {name} is empty", field=name)
    n_t, n_r = dt.size, dr.size

    dt_pad = np.zeros(n_r)
    dt_pad[: min(n_t, n_r)] = dt[: min(n_t, n_r)]
    dt1, dr1 = float(dt[0]), float(dr[0])
    dt_rank = _smallest_significant(dt, "dt")
    dr_rank = _smallest_significant(dr, "dr")

    eta = n_t / n_r
    if ETA_LOW < eta < ETA_HIGH:
        regime = REGIME_NT_APPROX_NR
        mult = n_r * mp_edges(eta)[1]
        lower = np.zeros(n_r)
    else:
        regime = REGIME_NT_MUCH_LESS if eta <= ETA_LOW else REGIME_NT_MUCH_GREATER
        mult = float(max(n_t, n_r))
        lower = np.maximum(mult * dt_pad * dr_rank, mult * dr * dt_rank)
    upper = np.minimum(mult * dt_pad * dr1, mult * dr * dt1)

    # beyond the joint rank the eigenvalue is exactly zero; the per-index
    # expressions are meaningless there
    dead = (dt_pad == 0.0) | (dr == 0.0)
    lower[dead] = 0.0
    upper[dead] = 0.0

    return BoundTable(regime=regime, lower=lower, upper=upper, slack=slack)


def check_bounds(samples: np.ndarray, table: BoundTable) -> list[BoundViolation]:
    """Audit every sample (one row per realization) against the slackened
    bounds.

    An empty list means the samples respect the bounds.
    """
    if table.upper.size != samples.shape[1]:
        raise ValidationError(
            f"bound table has {table.upper.size} rows but samples have "
            f"{samples.shape[1]} eigenvalues each",
            field="samples",
        )
    hi = table.upper * (1.0 + table.slack)
    lo = table.lower * (1.0 - table.slack)
    return [
        BoundViolation(
            k=int(idx) + 1,
            realization=int(realization),
            value=float(samples[realization, idx]),
            bound=float(bound[idx]),
            kind=kind,
        )
        for kind, outside, bound in (
            ("upper", samples > hi[None, :], table.upper),
            ("lower", samples < lo[None, :], table.lower),
        )
        for realization, idx in np.argwhere(outside)
    ]
