"""Monte Carlo eigenvalue ensembles of the normalized composite channel.

The composite channel is B = Dr_n H Dt_n H^H where Dt_n, Dr_n are the
normalized correlation spectra of the two RIS panels (each summing to 1)
and H has i.i.d. unit-variance circularly-symmetric complex Gaussian
entries. B has the nonzero spectrum of the Gram matrix of
A = Dr_n^{1/2} H Dt_n^{1/2}, taken on the smaller side (A A^H or A^H A).
`ensemble_from_spectra` is the one draw path: each draw forms that Gram
matrix with `blas.gram` and takes its eigenvalues with `blas.eigvalsh`,
which pick the library (numpy's OpenBLAS LAPACK, or numpy.linalg; see
`blas`).

Each worker runs two threads that each run whole draws. The draw stage
takes the Philox normals into reused buffers, scales them into A and forms
its Gram matrix; the solve takes its eigenvalues and clamps the rounding
negatives. A worker's threads share its normals and A, so memory stays
flat, and its draw stages take turns under a lock; each thread solves its
own Gram matrix outside it. At rank 624 on a 2-core VM on one BLAS thread,
a draw stage takes 50-53 ms and a solve 110-118 ms (medians of 10), so the
lock is held for a third of each thread's cycle. OpenBLAS runs on one
thread for the whole ensemble, since a second BLAS thread's spinning pool
takes the core the other draws need: over 40 draws one worker took
81-87 ms per draw pinned and 159-178 ms unpinned, and two workers 82-93 ms
and 355-380 ms.

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


class _Draws:
    """One worker's draw stage: realization i's normals from the Philox
    stream keyed by (seed, i), the real parts then the imaginary parts, each
    scaled by sqrt(1/2), then sqrt(Dr_n), then sqrt(Dt_n) into A, and A's
    Gram matrix. The worker's two threads share the normals and A under
    `lock`."""

    def __init__(self, dt: np.ndarray, dr: np.ndarray, seed: int):
        self.seed = seed
        self.sqrt_dt, self.sqrt_dr = np.sqrt(dt), np.sqrt(dr)[:, None]
        self.part = np.empty((dr.size, dt.size))
        self.a = np.empty((dr.size, dt.size), dtype=complex)
        self.lock = threading.Lock()

    def __call__(self, index: int, gram: np.ndarray) -> np.ndarray:
        with self.lock:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
            stream = np.random.Generator(np.random.Philox(seq))
            for out in (self.a.real, self.a.imag):
                stream.standard_normal(out=self.part)
                self.part *= np.sqrt(0.5)
                self.part *= self.sqrt_dr
                np.multiply(self.part, self.sqrt_dt, out=out)
            return blas.gram(self.a, gram)


def _draw_and_solve(draws: _Draws, indices: range, samples: np.ndarray):
    """Draw and solve the listed realizations into their rows of
    ``samples``, one after the other, on this thread's own Gram matrix."""
    n = min(draws.a.shape)
    gram = np.empty((n, n), dtype=complex)
    for index in indices:
        values = blas.eigvalsh(draws(index, gram))
        row = _clamp_negative(values[::-1], "composite eigenvalue")
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
    samples = np.zeros((realizations, dr.size))
    workers = min(threads, realizations)
    draws = [_Draws(dt_used, dr_used, seed) for _ in range(workers)]
    # fewer than 2 * workers draws leave one draw per thread
    runners = min(2 * workers, realizations)
    with blas.one_thread(), ThreadPoolExecutor(max_workers=runners) as pool:
        runs = [
            pool.submit(
                _draw_and_solve,
                draws[k % workers],
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
