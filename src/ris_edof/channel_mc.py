"""Monte Carlo eigenvalue ensembles of the normalized composite channel.

The composite channel is B = Dr_n H Dt_n H^H where Dt_n, Dr_n are the
normalized correlation spectra of the two RIS panels (each summing to 1)
and H has i.i.d. unit-variance circularly-symmetric complex Gaussian
entries. B has the nonzero spectrum of the Gram matrix of
A = Dr_n^{1/2} H Dt_n^{1/2}, taken on the smaller side (A A^H or A^H A).
Each draw forms the lower triangle of that Gram matrix with LAPACK ``zherk``
and takes its eigenvalues only with ``zheev_2stage``, both from the
OpenBLAS that numpy loaded (see `blas`). Where that library does not export
them, ``np.linalg.eigvalsh`` of the dense Gram product runs instead;
`composite_kernel` names the path.

Reproducibility: realization i always draws from a Philox stream keyed by
(master seed, i), so results are bit-identical regardless of how many
worker threads participate.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
from .correlation import _clamp_negative, effective_rank
from .errors import ValidationError


@dataclass
class ChannelEnsemble:
    """Per-realization sorted eigenvalue vectors of the composite channel."""

    eig_samples: np.ndarray  # shape (realizations, len(dr)), rows non-increasing
    dt: np.ndarray  # normalized transmit spectrum
    dr: np.ndarray  # normalized receive spectrum

    @property
    def realizations(self) -> int:
        return self.eig_samples.shape[0]


@dataclass
class EigStats:
    """Per-index summary statistics over an ensemble."""

    mean_profile: np.ndarray
    std_profile: np.ndarray
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

    min(len(dt), len(dr)) values. When len(dt) < len(dr), the remaining
    len(dr) - len(dt) eigenvalues are exact zeros and are not returned.
    """
    dt = np.asarray(dt, dtype=float)
    dr = np.asarray(dr, dtype=float)
    if hw.shape != (dr.size, dt.size):
        raise ValidationError(
            f"hw shape {hw.shape} does not match (len(dr), len(dt)) = "
            f"({dr.size}, {dt.size})"
        )
    a = hw * np.sqrt(dr)[:, None]
    a *= np.sqrt(dt)
    lapack = blas.load()
    if lapack is None:
        # A^H A shares the nonzero spectrum of A A^H; solve the smaller Gram
        gram = a.conj().T @ a if dt.size < dr.size else a @ a.conj().T
        values = np.linalg.eigvalsh(gram)
    else:
        values = blas.gram_eigvalsh(lapack, a)
    return _clamp_negative(values[::-1], "composite eigenvalue")


def composite_kernel() -> dict:
    """The library and routines that `composite_eigs` runs on."""
    lapack = blas.load()
    if lapack is None:
        return {"library": "numpy.linalg", "routines": ["matmul", "eigvalsh"]}
    return {"library": lapack.library, "routines": ["zherk", "zheev_2stage"]}


def ensemble_from_spectra(
    dt: np.ndarray,
    dr: np.ndarray,
    realizations: int,
    seed: int,
    *,
    threads: int = 1,
) -> ChannelEnsemble:
    """Monte Carlo ensemble over H for fixed normalized spectra.

    Eigenvalues below RANK_TOL * largest are dropped from the per-realization
    solve (they contribute nothing at double precision); each row is
    zero-padded back to length len(dr). The draws map over a pool of
    `threads` workers.
    """
    if realizations < 1:
        raise ValidationError(
            f"realizations must be >= 1, got {realizations}", field="realizations"
        )
    dt = np.asarray(dt, dtype=float)
    dr = np.asarray(dr, dtype=float)
    dt_used = dt[: effective_rank(dt)]
    dr_used = dr[: effective_rank(dr)]

    def one(index: int) -> np.ndarray:
        hw = sample_hw(dr_used.size, dt_used.size, realization_stream(seed, index))
        return composite_eigs(dt_used, dr_used, hw)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(one, range(realizations)))
    samples = np.zeros((realizations, dr.size))
    samples[:, : rows[0].size] = rows
    return ChannelEnsemble(samples, dt, dr)


def ensemble_stats(ensemble: ChannelEnsemble) -> EigStats:
    """Per-index mean and standard deviation profiles and the mean
    eigenvalue sum."""
    if ensemble.realizations < 2:
        raise ValidationError(
            f"need at least 2 realizations for statistics, got "
            f"{ensemble.realizations}",
            field="realizations",
        )
    samples = ensemble.eig_samples
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    return EigStats(
        mean_profile=mean,
        std_profile=std,
        eigsum_mean=float(samples.sum(axis=1).mean()),
    )
