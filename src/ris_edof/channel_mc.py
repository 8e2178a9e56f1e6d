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

Precision: the ensemble runs A, its Gram matrix and the eigensolve in the
`dtype` it is given, complex128 by default. The normals and their scaling
are float64 either way, so a complex64 A is the complex128 one rounded once,
and realization i is the same draw of H in both precisions. Only the EDoF
products (`edof-sweep`, `capacity-curve` and the figures built on them) ask
for complex64, and only after a gate in runs of at least 20 draws: the CLI
solves the run's first two draws in both precisions, the complex128 pair one
draw per call, and keeps complex128 unless the two mean profiles give the
same EDoF within 0.01 at every point of the run's SNR grid.
`channel-eigs`, `bounds-audit` and every library caller stay in complex128:
they publish or audit every ordered eigenvalue, and in float32 nothing below
about 1e-7 of the largest is resolved, so at 12 wavelengths values in the
last quarter of the indices came out up to 5-32% off. A float32 solve's
rounding negatives reach past -1e-10 of the largest value, so the clamp
floor grows with the precision (`correlation._clamp_negative`).

Each worker runs two threads that each run whole draws. The draw stage
streams the Philox normals through one float64 chunk of A's rows, 2**15
values (256 KiB) or fewer unless one row is longer: all the real parts, then
all the imaginary parts, so the stream is read in the order of one
n_r x n_t draw per part. It scales each chunk into its rows of A and then
forms A's Gram matrix. The solve takes its eigenvalues and clamps the
rounding negatives. A worker's threads share its chunk and A, and its draw
stages take turns under a lock; each thread solves its own Gram matrix
outside it. So a worker holds one A and one chunk, and each of its threads
one Gram matrix and the eigensolve's workspace. At rank n, A and each Gram
matrix take 16 n^2 bytes in complex128 and 8 n^2 in complex64: 6.2 and
3.1 MB at rank 624, and 253 and 127 MB at the 32-wavelength rank of 3980.
A call with one draw left runs it on the calling thread. At rank 624 on a
2-core VM on one BLAS thread, a complex64 draw's normals and scaling take
17-19 ms, `cherk` 9-11 ms and `cheev_2stage` 47-66 ms (medians of 10, three
runs), and two threads wait 5-9 ms per draw on the lock on average.
OpenBLAS runs on one thread for the whole ensemble, since a second BLAS
thread's spinning pool takes the core the other draws need: over 40
complex128 draws one worker took 81-87 ms per draw pinned and 159-178 ms
unpinned, and two workers 82-93 ms and 355-380 ms.

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
from .correlation import _CHUNK_ENTRIES, _clamp_negative, effective_rank
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
    scaled by sqrt(1/2), then sqrt(Dr_n), then sqrt(Dt_n) in float64 and
    rounded once into A, of the ensemble's dtype, and A's Gram matrix. The
    normals go through a float64 chunk of A's rows, of _CHUNK_ENTRIES values
    or fewer (but at least one row), filled in stream order. The worker's
    threads share the chunk and A under `lock`."""

    def __init__(self, dt: np.ndarray, dr: np.ndarray, seed: int, dtype):
        self.seed = seed
        self.sqrt_dt, self.sqrt_dr = np.sqrt(dt), np.sqrt(dr)[:, None]
        rows = min(dr.size, max(1, _CHUNK_ENTRIES // dt.size))
        self.chunk = np.empty((rows, dt.size))
        self.a = np.empty((dr.size, dt.size), dtype=dtype)
        self.lock = threading.Lock()

    def __call__(self, index: int, gram: np.ndarray) -> np.ndarray:
        with self.lock:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
            stream = np.random.Generator(np.random.Philox(seq))
            step = len(self.chunk)
            for out in (self.a.real, self.a.imag):
                for lo in range(0, len(out), step):
                    rows = out[lo : lo + step]
                    chunk = self.chunk[: len(rows)]
                    stream.standard_normal(out=chunk)
                    chunk *= np.sqrt(0.5)
                    chunk *= self.sqrt_dr[lo : lo + step]
                    np.multiply(chunk, self.sqrt_dt, out=rows)
            return blas.gram(self.a, gram)


def _draw_and_solve(draws: _Draws, indices: range, samples: np.ndarray):
    """Draw and solve the listed realizations into their rows of
    ``samples``, one after the other, on this thread's own Gram matrix."""
    n = min(draws.a.shape)
    gram = np.empty((n, n), dtype=draws.a.dtype)
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
    dtype=np.complex128,
    head: np.ndarray | None = None,
) -> ChannelEnsemble:
    """Monte Carlo ensemble over H for fixed normalized spectra.

    Eigenvalues below RANK_TOL * largest are dropped from the per-realization
    solve (they contribute nothing at double precision); each row is
    zero-padded back to length len(dr). Each of `threads` workers runs two
    threads over every (2 * threads)-th realization each, with OpenBLAS
    pinned to one thread for the whole ensemble. `dtype`, complex128 or
    complex64, is the precision of A, its Gram matrix and the eigensolve.
    `head`, when given, holds rows 0, 1, ... of this same ensemble, solved
    before at the same seed and dtype; they are copied in, not drawn again.
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
    first = 0
    if head is not None:
        first = len(head)
        samples[:first] = head
    todo = realizations - first
    if todo == 0:
        return ChannelEnsemble(samples, dt, dr)
    workers = min(threads, todo)
    draws = [_Draws(dt_used, dr_used, seed, dtype) for _ in range(workers)]
    if todo == 1:
        # on this thread: a pool thread's malloc arena would keep the
        # buffers it frees, so one-draw calls in a row would pile them up
        with blas.one_thread():
            _draw_and_solve(draws[0], range(first, realizations), samples)
        return ChannelEnsemble(samples, dt, dr)
    # fewer than 2 * workers draws leave one draw per thread
    runners = min(2 * workers, todo)
    with blas.one_thread(), ThreadPoolExecutor(max_workers=runners) as pool:
        runs = [
            pool.submit(
                _draw_and_solve,
                draws[k % workers],
                range(first + k, realizations, runners),
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
