"""Equal-power ergodic capacity over subchannels and the SNR-dependent
effective degrees of freedom (EDoF) that maximize it.

The discrete capacity of n_s subchannels at linear receive SNR rho is

    C(n_s) = sum_{k<=n_s} log2(1 + rho * n_t * n_r * gamma_k / n_s)

with gamma_k the mean eigenvalue profile of the normalized composite
channel. Its continuous counterpart h(N_s) integrates the same integrand
over a monotone piecewise-linear interpolant gamma(x); the EDoF is the
maximizer of h over [1, rank], located by a coarse grid plus golden-section
refinement (the stationarity condition is necessary but not sufficient, and
flat spectra put the optimum on the boundary).

The coarse scan screens, then confirms. Every coarse point 1 + j/4 is
index 4j of the 1/16 quadrature lattice, so one lattice and one evaluation
of gamma on it serve the whole grid: h at all coarse points comes from one
blocked numpy pass over rows log1p(a_j * gamma), in blocks of at most
SCAN_BLOCK_ELEMENTS values. These screened values differ from
h_and_derivative only by floating-point rounding (a few ulp relative), far
inside SCREEN_BAND. Every point within the band of the screened maximum is
re-evaluated with h_and_derivative, and the first maximum among them is
taken. The true maximum of the exhaustive scan, and any point tied with it,
always lies inside the band, so this is the index that scanning every point
with h_and_derivative returns; the bracket, the golden-section search and
everything after it see the same numbers as that scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

LN2 = math.log(2.0)

COARSE_STEP = 0.25
GOLDEN_TOL = 1e-6
# Trapezoid sub-step for h and its derivative integral. Unit panels leave an
# O(frac^2 * curvature) gap between the boundary term and finite differences
# of the implemented h, breaking the 1e-3 consistency contract; 1/16 panels
# keep every interpolant knot and leave ~8x margin on that contract.
QUAD_STEP = 0.0625
# Lattice panels per coarse step: coarse point j sits at lattice index
# LATTICE_STRIDE * j.
LATTICE_STRIDE = round(COARSE_STEP / QUAD_STEP)
# Largest block of the coarse scan, in float64 values (1 MB). Blocks are
# sized by the full lattice width so no block grows with the rank.
SCAN_BLOCK_ELEMENTS = 2**17
# Screened coarse values within SCREEN_BAND * max(|top|, 1) of the screened
# maximum are re-evaluated exactly.
SCREEN_BAND = 1e-9

SOURCE_MONTE_CARLO = "monte_carlo"
SOURCE_ANALYTIC = "analytic_inverse_cdf"
SOURCE_SYNTHETIC = "synthetic"


@dataclass
class EigenvalueProfile:
    """Non-increasing mean eigenvalue profile with a continuous interpolant.

    gamma holds the values at integer indices 1..rank (trailing entries
    below the effective-rank tolerance are dropped at construction).
    gamma_at evaluates the piecewise-linear interpolant, extended flat
    beyond both ends.
    """

    gamma: np.ndarray
    source: str

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

    def gamma_at(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        nodes = np.arange(1, self.rank + 1, dtype=float)
        vals = np.interp(xs, nodes, self.gamma)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(vals)
        return vals

    @classmethod
    def from_values(
        cls, values, source: str = SOURCE_SYNTHETIC, rel_tol: float = 1e-12
    ) -> "EigenvalueProfile":
        values = np.asarray(values, dtype=float)
        if values.size == 0 or values[0] <= 0:
            raise ValidationError("profile needs a positive leading value")
        keep = int(np.sum(values > rel_tol * values[0]))
        return cls(gamma=values[:keep], source=source)

    @classmethod
    def from_mean_profile(cls, mean_profile, rel_tol: float = 1e-12):
        return cls.from_values(mean_profile, source=SOURCE_MONTE_CARLO, rel_tol=rel_tol)


@dataclass
class EdofResult:
    """Solved EDoF at one SNR point."""

    n_s_star: float  # continuous maximizer of h on [1, rank]
    n_s_int: int  # integer subchannel count actually used
    capacity_at_int: float  # discrete capacity at n_s_int, bits/s/Hz
    stationarity_residual: float  # dh/dN_s at n_s_star; ~0 for interior optima
    dof_reference: int | None  # aperture DoF floor(pi Lx Lz), when known
    snr_db: float | None


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


def h_and_derivative(
    profile: EigenvalueProfile, rho: float, nt_nr: float, n_s: float
) -> tuple[float, float]:
    """Continuous capacity h(n_s) and its derivative.

    h uses composite trapezoid quadrature on a fixed sub-unit lattice plus
    the fractional end segment; the derivative combines the boundary term
    with the same quadrature applied to the saturation integrand, so the two
    stay consistent to quadrature accuracy.
    """
    if n_s < 1.0 or n_s > profile.rank + 1e-9:
        raise ValidationError(
            f"n_s = {n_s} outside [1, rank = {profile.rank}]", field="n_s"
        )
    n_s = min(float(n_s), float(profile.rank))
    a = rho * nt_nr / n_s
    gamma_end = profile.gamma_at(n_s)
    boundary = math.log2(1.0 + a * gamma_end)
    if n_s == 1.0:
        return 0.0, boundary

    panels = math.floor((n_s - 1.0) / QUAD_STEP + 1e-12)
    xs = 1.0 + QUAD_STEP * np.arange(panels + 1)
    if xs[-1] < n_s - 1e-12:
        xs = np.append(xs, n_s)
    else:
        xs[-1] = n_s
    g = profile.gamma_at(xs)
    h_val = float(np.trapezoid(np.log2(1.0 + a * g), xs))
    sat = (a * g) / (1.0 + a * g)
    integral = float(np.trapezoid(sat, xs))
    dh = boundary - integral / (n_s * LN2)
    return h_val, dh


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi_sq = (3.0 - math.sqrt(5.0)) / 2.0
    span = hi - lo
    if span <= tol:
        return 0.5 * (lo + hi)
    steps = int(math.ceil(math.log(tol / span) / math.log(inv_phi)))
    c = lo + inv_phi_sq * span
    d = lo + inv_phi * span
    yc, yd = f(c), f(d)
    for _ in range(steps):
        if yc > yd:
            hi, d, yd = d, c, yc
            span *= inv_phi
            c = lo + inv_phi_sq * span
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            span *= inv_phi
            d = lo + inv_phi * span
            yd = f(d)
    return 0.5 * (lo + hi)


def _coarse_grid(rank: int) -> np.ndarray:
    """Coarse scan points 1, 1 + COARSE_STEP, ..., rank."""
    grid = np.arange(1.0, rank + COARSE_STEP / 2, COARSE_STEP)
    grid[-1] = min(grid[-1], float(rank))
    return grid


def _coarse_argmax(
    profile: EigenvalueProfile, rho: float, nt_nr: float, grid: np.ndarray
) -> int:
    """Index of the first maximum of h over the coarse grid.

    Screens h at every point in one blocked pass, then confirms the points
    near the screened maximum with h_and_derivative (see module docstring).
    """
    ends = LATTICE_STRIDE * np.arange(grid.size)  # lattice index of each point
    width = int(ends[-1]) + 1
    g = profile.gamma_at(1.0 + QUAD_STEP * np.arange(width))
    a = rho * nt_nr / grid
    sums = np.empty(grid.size)
    rows = max(1, SCAN_BLOCK_ELEMENTS // width)
    for lo in range(0, grid.size, rows):
        hi = min(lo + rows, grid.size)
        # every row of the block spans the lattice up to ends[lo]; only the
        # columns past it are ragged and need a mask
        prefix = int(ends[lo]) + 1
        stop = int(ends[hi - 1]) + 1
        block = a[lo:hi, None] * g[None, :prefix]
        sums[lo:hi] = np.log1p(block, out=block).sum(axis=1)
        if stop > prefix:
            tail = a[lo:hi, None] * g[None, prefix:stop]
            np.log1p(tail, out=tail)
            tail[np.arange(prefix, stop)[None, :] > ends[lo:hi, None]] = 0.0
            sums[lo:hi] += tail.sum(axis=1)
    # trapezoid: interior nodes weigh 1, the two end nodes 1/2
    end_nodes = np.log1p(a * g[0]) + np.log1p(a * g[ends])
    screened = (QUAD_STEP / LN2) * (sums - 0.5 * end_nodes)

    top = float(screened.max())
    near = np.flatnonzero(screened >= top - SCREEN_BAND * max(abs(top), 1.0))
    exact = [h_and_derivative(profile, rho, nt_nr, grid[i])[0] for i in near]
    return int(near[int(np.argmax(exact))])


def solve_edof(
    profile: EigenvalueProfile,
    rho: float,
    nt_nr: float,
    *,
    dof_reference: int | None = None,
    snr_db: float | None = None,
) -> EdofResult:
    """Maximize h over [1, rank] and report the EDoF.

    The integer EDoF is the rounded continuous optimum, locally hill-climbed
    on the discrete capacity so it always sits on a discrete local maximum.
    """
    rank = profile.rank

    def h_of(x: float) -> float:
        return h_and_derivative(profile, rho, nt_nr, x)[0]

    if rank == 1:
        n_star = 1.0
    else:
        grid = _coarse_grid(rank)
        best = _coarse_argmax(profile, rho, nt_nr, grid)
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, grid.size - 1)]
        n_star = _golden_max(h_of, lo, hi, GOLDEN_TOL)

    _, residual = h_and_derivative(profile, rho, nt_nr, n_star)

    n_int = int(round(n_star))
    n_int = min(max(n_int, 1), rank)
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
        dof_reference=dof_reference,
        snr_db=snr_db,
    )


def edof_sweep(
    profile: EigenvalueProfile,
    nt_nr: float,
    snr_grid_db,
    *,
    dof_reference: int | None = None,
) -> list[EdofResult]:
    """One EDoF solve per SNR grid point."""
    snr_grid_db = list(snr_grid_db)
    if not snr_grid_db:
        raise ValidationError("SNR grid is empty", field="snr_grid_db")
    return [
        solve_edof(
            profile,
            snr_db_to_linear(s),
            nt_nr,
            dof_reference=dof_reference,
            snr_db=float(s),
        )
        for s in snr_grid_db
    ]


def capacity_degradation(
    profile: EigenvalueProfile,
    nt_nr: float,
    snr_grid_db,
    dof_reference: int,
) -> list[DegradationRow]:
    """Capacity loss from using dof_reference subchannels instead of the EDoF."""
    if dof_reference < 1:
        raise ValidationError(
            f"dof_reference must be >= 1, got {dof_reference}",
            field="dof_reference",
        )
    n_ref = min(dof_reference, profile.rank)
    clipped = n_ref != dof_reference
    rows = []
    for result in edof_sweep(
        profile, nt_nr, snr_grid_db, dof_reference=dof_reference
    ):
        rho = snr_db_to_linear(result.snr_db)
        if result.capacity_at_int == 0.0:
            raise NumericError(
                f"capacity is 0 at SNR {result.snr_db:g} dB (linear SNR "
                f"{rho:g}): the degradation ratio is undefined",
                diagnostics={"snr_db": result.snr_db, "rho": rho},
            )
        cap_ref = capacity(profile, rho, nt_nr, n_ref)
        degradation = 1.0 - cap_ref / result.capacity_at_int
        rows.append(
            DegradationRow(
                snr_db=result.snr_db,
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
