"""Monte Carlo eigenvalue ensembles of the normalized composite channel.

The composite channel is B = Dr_n H Dt_n H^H where Dt_n, Dr_n are the
normalized correlation spectra of the two RIS panels (each summing to 1)
and H has i.i.d. unit-variance circularly-symmetric complex Gaussian
entries. Eigenvalues are obtained from the Hermitian square-root form
A A^H with A = Dr_n^{1/2} H Dt_n^{1/2}, which has the same spectrum and is
numerically symmetric.

Reproducibility: realization i always draws from a Philox stream keyed by
(master seed, i), so results are bit-identical regardless of how many
worker threads participate.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import DEFAULT_MAX_ELEMENTS, effective_rank, geometry_spectrum
from .errors import NumericError, ValidationError
from .geometry import RisGeometry

# Correlation eigenvalues below RANK_TOL * alpha_1 carry no channel power at
# double precision; dropping them shrinks every per-realization solve.
DEFAULT_RANK_TOL = 1e-12


@dataclass
class ChannelEnsemble:
    """Per-realization sorted eigenvalue vectors of the composite channel."""

    n_t: int
    n_r: int
    seed: int
    realizations: int
    eig_samples: np.ndarray  # shape (realizations, n_r), rows non-increasing
    dt: np.ndarray | None = None  # normalized transmit spectrum, length n_t
    dr: np.ndarray | None = None  # normalized receive spectrum, length n_r

    def __post_init__(self):
        if self.eig_samples.shape != (self.realizations, self.n_r):
            raise ValidationError(
                f"eig_samples shape {self.eig_samples.shape} does not match "
                f"(realizations, n_r) = ({self.realizations}, {self.n_r})"
            )


@dataclass
class EigStats:
    """Per-index summary statistics over an ensemble."""

    mean_profile: np.ndarray
    std_profile: np.ndarray
    gauss_fit: np.ndarray  # rows (mu_k, sigma_k) for the requested indices
    eigsum_mean: float


def realization_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based RNG substream for one realization of the ensemble."""
    if index < 0:
        raise ValidationError(f"realization index must be >= 0, got {index}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def sample_hw(n_r: int, n_t: int, stream: np.random.Generator) -> np.ndarray:
    """n_r x n_t matrix of i.i.d. CN(0, 1) entries (re/im each N(0, 1/2))."""
    re = stream.standard_normal((n_r, n_t))
    im = stream.standard_normal((n_r, n_t))
    return (re + 1j * im) * np.sqrt(0.5)


def composite_eigs(dt: np.ndarray, dr: np.ndarray, hw: np.ndarray) -> np.ndarray:
    """Non-increasing eigenvalues of Dr_n H Dt_n H^H for one draw of H.

    Always len(dr) values; when len(dt) < len(dr) the trailing
    len(dr) - len(dt) of them are exact zeros.
    """
    dt = np.asarray(dt, dtype=float)
    dr = np.asarray(dr, dtype=float)
    if hw.shape != (dr.size, dt.size):
        raise ValidationError(
            f"hw shape {hw.shape} does not match (len(dr), len(dt)) = "
            f"({dr.size}, {dt.size})"
        )
    a = np.sqrt(dr)[:, None] * hw * np.sqrt(dt)[None, :]
    # A^H A shares the nonzero spectrum of A A^H; solve the smaller Gram and
    # pad with the zeros the larger one has
    gram = a.conj().T @ a if dt.size < dr.size else a @ a.conj().T
    eigs = np.sort(np.linalg.eigvalsh(gram))[::-1]
    top = max(float(eigs[0]), 0.0)
    floor = -NEGATIVE_CLAMP_REL_COMPOSITE * top
    if eigs[-1] < floor:
        raise NumericError(
            f"composite eigenvalue {eigs[-1]:.3e} below clamp floor {floor:.3e}",
            {"min": float(eigs[-1]), "top": top},
        )
    eigs = np.where(eigs < 0.0, 0.0, eigs)
    return np.concatenate([eigs, np.zeros(dr.size - eigs.size)])


NEGATIVE_CLAMP_REL_COMPOSITE = 1e-10


def ensemble_from_spectra(
    dt: np.ndarray,
    dr: np.ndarray,
    realizations: int,
    seed: int,
    *,
    threads: int = 1,
    rank_tol: float | None = DEFAULT_RANK_TOL,
) -> ChannelEnsemble:
    """Monte Carlo ensemble over H for fixed normalized spectra.

    With rank_tol set, eigenvalues below rank_tol * largest are dropped from
    the per-realization solve (they contribute nothing at double precision);
    output vectors are zero-padded back to length len(dr).
    """
    if realizations < 1:
        raise ValidationError(
            f"realizations must be >= 1, got {realizations}", field="realizations"
        )
    dt = np.asarray(dt, dtype=float)
    dr = np.asarray(dr, dtype=float)
    n_t, n_r = dt.size, dr.size

    if rank_tol is not None and dt[0] > 0 and dr[0] > 0:
        r_t = effective_rank(dt, rank_tol)
        r_r = effective_rank(dr, rank_tol)
    else:
        r_t, r_r = n_t, n_r
    dt_used = dt[:r_t]
    dr_used = dr[:r_r]

    def one(index: int) -> np.ndarray:
        hw = sample_hw(r_r, r_t, realization_stream(seed, index))
        eigs = composite_eigs(dt_used, dr_used, hw)
        if r_r < n_r:
            eigs = np.concatenate([eigs, np.zeros(n_r - r_r)])
        return eigs

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, range(realizations)))
    else:
        rows = [one(i) for i in range(realizations)]

    return ChannelEnsemble(
        n_t=n_t,
        n_r=n_r,
        seed=seed,
        realizations=realizations,
        eig_samples=np.vstack(rows),
        dt=dt,
        dr=dr,
    )


def run_ensemble(
    geom_t: RisGeometry,
    geom_r: RisGeometry,
    realizations: int,
    seed: int,
    *,
    threads: int = 1,
    rank_tol: float | None = DEFAULT_RANK_TOL,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> ChannelEnsemble:
    """Build both correlation spectra and run the Monte Carlo ensemble."""
    dt = geometry_spectrum(geom_t, max_elements=max_elements)
    if geom_r == geom_t:
        dr = dt
    else:
        dr = geometry_spectrum(geom_r, max_elements=max_elements)
    return ensemble_from_spectra(
        dt, dr, realizations, seed, threads=threads, rank_tol=rank_tol
    )


def ensemble_stats(
    ensemble: ChannelEnsemble, gauss_indices: list[int] | None = None
) -> EigStats:
    """Per-index mean/std profiles and moment-matched Gaussian fits.

    gauss_indices are 1-based eigenvalue indices; default is the first 12
    (or fewer if the ensemble is smaller).
    """
    if ensemble.realizations < 2:
        raise ValidationError(
            f"need at least 2 realizations for statistics, got "
            f"{ensemble.realizations}",
            field="realizations",
        )
    samples = ensemble.eig_samples
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    if gauss_indices is None:
        gauss_indices = list(range(1, min(12, ensemble.n_r) + 1))
    for k in gauss_indices:
        if not 1 <= k <= ensemble.n_r:
            raise ValidationError(f"gauss index {k} outside 1..{ensemble.n_r}")
    idx = np.asarray(gauss_indices, dtype=int) - 1
    fit = np.column_stack([mean[idx], std[idx]])
    return EigStats(
        mean_profile=mean,
        std_profile=std,
        gauss_fit=fit,
        eigsum_mean=float(samples.sum(axis=1).mean()),
    )
