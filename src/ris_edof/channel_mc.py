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

`ensemble_from_spectra` gives each worker two threads that each run whole
draws. The draw stage takes the Philox normals into reused buffers, scales
them into A and forms its Gram matrix; the solve runs ``zheev_2stage`` and
clamps the rounding negatives. A worker's threads share its normals and A,
so memory stays flat, and its draw stages take turns under a lock; each
thread solves its own Gram matrix outside it. At rank 624 on a 2-core VM on
one BLAS thread, a draw stage takes 50-53 ms and a solve 110-118 ms
(medians of 10), so the lock is held for a third of each thread's cycle.
OpenBLAS runs on one thread for the whole ensemble, since a second BLAS
thread's spinning pool takes the core the other draws need: over 40 draws
one worker took 81-87 ms per draw pinned and 159-178 ms unpinned, and two
workers 82-93 ms and 355-380 ms.

Reproducibility: realization i always draws from a Philox stream keyed by
(master seed, i), and its row depends on nothing else, so results are
bit-identical regardless of how many workers participate. The two kernels
give the same bits on one BLAS thread as on several.
"""

import threading
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


def _gram(lapack: blas.Lapack | None, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The smaller-side Gram matrix of ``a`` in ``out``: its lower triangle
    from ``zherk``, or the whole dense product where the kernels are
    missing."""
    if lapack is None:
        # A^H A shares the nonzero spectrum of A A^H; solve the smaller Gram
        left, right = (a.conj().T, a) if a.shape[1] < a.shape[0] else (a, a.conj().T)
        return np.matmul(left, right, out=out)
    return blas.gram(lapack, a, out)


def _solve(lapack: blas.Lapack | None, gram: np.ndarray) -> np.ndarray:
    """Non-increasing, clamped eigenvalues of a Gram matrix from `_gram`,
    which the kernel path overwrites."""
    values = np.linalg.eigvalsh(gram) if lapack is None else blas.eigvalsh(lapack, gram)
    return _clamp_negative(values[::-1], "composite eigenvalue")


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
    n = min(dt.size, dr.size)
    lapack = blas.load()
    return _solve(lapack, _gram(lapack, a, np.empty((n, n), dtype=complex)))


def composite_kernel() -> dict:
    """The library and routines that `composite_eigs` runs on, and the
    OpenBLAS thread count that `ensemble_from_spectra` runs them at (None:
    no setter resolved, so the library's own count)."""
    lapack = blas.load()
    if lapack is None:
        return {
            "library": "numpy.linalg",
            "routines": ["matmul", "eigvalsh"],
            "blas_threads": None,
        }
    return {
        "library": lapack.library,
        "routines": ["zherk", "zheev_2stage"],
        "blas_threads": None if lapack.set_threads is None else 1,
    }


class _Draws:
    """One worker's draw stage: realization i's Philox normals, scaled into
    A = Dr_n^{1/2} H Dt_n^{1/2}, then A's Gram matrix. The worker's two
    threads share the normals and A under `lock`; each owns one of the two
    Gram matrices."""

    def __init__(
        self, lapack: blas.Lapack | None, dt: np.ndarray, dr: np.ndarray, seed: int
    ):
        self.lapack, self.seed = lapack, seed
        self.sqrt_dt, self.sqrt_dr = np.sqrt(dt), np.sqrt(dr)[:, None]
        self.part = np.empty((dr.size, dt.size))
        self.a = np.empty((dr.size, dt.size), dtype=complex)
        n = min(dt.size, dr.size)
        self.grams = (np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex))
        self.lock = threading.Lock()

    def __call__(self, index: int, slot: int) -> np.ndarray:
        with self.lock:
            stream = realization_stream(self.seed, index)
            # the real then the imaginary parts, in sample_hw's stream order;
            # the products round as composite_eigs's do on sample_hw's H
            for out in (self.a.real, self.a.imag):
                stream.standard_normal(out=self.part)
                self.part *= np.sqrt(0.5)
                self.part *= self.sqrt_dr
                np.multiply(self.part, self.sqrt_dt, out=out)
            return _gram(self.lapack, self.a, self.grams[slot])


def _draw_and_solve(draws: _Draws, slot: int, indices: range, samples: np.ndarray):
    """Draw and solve the listed realizations into their rows of
    ``samples``, one after the other, on Gram matrix ``slot``."""
    for index in indices:
        row = _solve(draws.lapack, draws(index, slot))
        samples[index, : row.size] = row


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
    zero-padded back to length len(dr). Each of `threads` workers runs two
    threads over every (2 * threads)-th realization each, with OpenBLAS
    pinned to one thread for the whole ensemble.
    """
    if realizations < 1:
        raise ValidationError(
            f"realizations must be >= 1, got {realizations}", field="realizations"
        )
    dt = np.asarray(dt, dtype=float)
    dr = np.asarray(dr, dtype=float)
    dt_used = dt[: effective_rank(dt)]
    dr_used = dr[: effective_rank(dr)]
    for name, used in (("dt", dt_used), ("dr", dr_used)):
        if used.size == 0:
            raise ValidationError(
                f"spectrum {name} has no positive value, so every draw is zero",
                field=name,
            )
    lapack = blas.load()
    samples = np.zeros((realizations, dr.size))
    workers = min(threads, realizations)
    draws = [_Draws(lapack, dt_used, dr_used, seed) for _ in range(workers)]
    # fewer than 2 * workers draws leave one draw per thread
    runners = min(2 * workers, realizations)
    with blas.one_thread(lapack), ThreadPoolExecutor(max_workers=runners) as pool:
        runs = [
            pool.submit(
                _draw_and_solve,
                draws[k % workers],
                k // workers,
                range(k, realizations, runners),
                samples,
            )
            for k in range(runners)
        ]
        for run in runs:
            run.result()
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
