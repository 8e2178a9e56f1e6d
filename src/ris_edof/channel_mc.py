"""Monte Carlo eigenvalue ensembles of the normalized composite channel.

The composite channel is B = Dr_n H Dt_n H^H where Dt_n, Dr_n are the
normalized correlation spectra of the two RIS panels (each summing to 1)
and H has i.i.d. unit-variance circularly-symmetric complex Gaussian
entries. B has the nonzero spectrum of the Gram matrix A^H A, taken on the
smaller side: A = Dr_n^{1/2} H Dt_n^{1/2} when n_r >= n_t, and otherwise
A = Dt_n^{1/2} H^T Dr_n^{1/2}, whose Gram matrix is the complex conjugate of
Dr_n^{1/2} H Dt_n H^H Dr_n^{1/2}, with the same eigenvalues. So the panel
with more kept modes runs along A's rows, and for n_t > n_r the stream fills
H^T, an equally distributed draw of H. `ensemble_from_spectra` is the one
draw path: each draw adds A's Gram matrix up over its row chunks with
`blas.gram` and takes its eigenvalues with `blas.eigvalsh`, which pick the
library (numpy's OpenBLAS LAPACK, or numpy.linalg; see `blas`).

Precision: the ensemble runs A, its Gram matrix and the eigensolve in the
`dtype` it is given, complex128 by default, and records it as `precision`.
The normals and their scaling are float64 either way, so a complex64 A is
the complex128 one rounded once, and realization i is the same draw of H
in both precisions. Which products draw in complex64, and the check their
draws pass, are `ris_edof.cli`'s. A float32 solve's rounding negatives
reach further below zero, so the clamp floor grows with the precision
(`correlation._clamp_negative`).

Each worker runs two draw threads, the calling thread among them, and
each thread runs whole draws on buffers of its own: no lock is taken and
no buffer is shared, and each thread writes only its own rows of the
samples. The Philox stream gives all the real parts of A before any
imaginary part, so a draw reads it with two cursors: `real` from its
start, and `imag` after drawing the real normals a second time and
dropping them. The two fill a complex chunk of 64 rows of A through a
float64 chunk of 64 rows of normals, each part rounded once to the dtype,
and `blas.gram` adds the chunk's Gram matrix into the thread's. The solve
takes its eigenvalues and clamps the rounding negatives. So each thread
holds its two chunks, one Gram matrix and the eigensolve's workspace, all
allocated on the calling thread: on square panels at rank n, 64 n (16 + 8)
bytes of chunks and a 16 n^2-byte Gram matrix in complex128, 64 n (8 + 8)
and 8 n^2 in complex64. OpenBLAS runs on one thread for the whole
ensemble, since a second BLAS thread's spinning pool takes the core the
other draws need.

Reproducibility: realization i always draws from a Philox stream keyed by
(master seed, i), and its row depends on nothing else, so results are
bit-identical regardless of how many workers participate. The pin to one
BLAS thread is part of that contract: complex128 rows come out the same on
one OpenBLAS thread as on two, but complex64 rows do not (on a 2-core VM,
two unpinned threads moved the first 4 draws at seed 43 by up to 1.3e-6
of the largest value on the 625 x 625 and 625 x 2401 panel pairs). So the
environment's BLAS thread count never reaches the rows only because the
draws run inside `blas.one_thread`.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
from .correlation import _clamp_negative, effective_rank
from .errors import ValidationError

# rows of A per chunk: at rank 624 in complex128, `zherk` forms the Gram
# matrix of 1024 rows in 26 ms from 64-row chunks, 34 ms from 16-row ones
# and 25 ms in one call
_CHUNK_ROWS = 64


@dataclass
class ChannelEnsemble:
    """Per-realization sorted eigenvalue vectors of the composite channel."""

    eig_samples: np.ndarray  # shape (realizations, len(dr)), rows non-increasing
    eigensolver: str  # the routine that solved the draws (`blas.eigensolver`)
    precision: str  # the dtype they were solved in, complex128 or complex64

    @property
    def realizations(self) -> int:
        return self.eig_samples.shape[0]


class _Draws:
    """One draw thread's draw stage. The panel with more kept modes runs
    along the rows of A: A = Dr_n^{1/2} H Dt_n^{1/2} when n_r >= n_t,
    otherwise the stream fills H^T and A = Dt_n^{1/2} H^T Dr_n^{1/2}, and the
    draw's Gram matrix is A^H A. Realization i's normals come from the
    Philox stream keyed by (seed, i): the real parts of A row by row, then
    its imaginary parts, each scaled by sqrt(1/2), then the row spectrum's
    root, then the column spectrum's in float64 and rounded once to the
    ensemble's dtype. Two cursors read that stream: `real` from its start,
    and `imag` after drawing the real normals a second time and dropping
    them. So each chunk of rows gets its real and imaginary parts at once,
    and its Gram matrix goes into the draw's. The buffers are the thread's
    own: a chunk of rows in the dtype and its float64 normals."""

    def __init__(self, dt: np.ndarray, dr: np.ndarray, seed: int, dtype):
        self.seed = seed
        long, short = (dr, dt) if dr.size >= dt.size else (dt, dr)
        self.sqrt_rows, self.sqrt_cols = np.sqrt(long)[:, None], np.sqrt(short)
        step = min(long.size, _CHUNK_ROWS)
        self.normals = np.empty((step, short.size))
        self.chunk = np.empty((step, short.size), dtype=dtype)

    def _fill(self, stream, lo: int, out: np.ndarray):
        """The stream's next normals, scaled, into ``out``: rows lo, lo + 1,
        ... of one part of A."""
        normals = self.normals[: len(out)]
        stream.standard_normal(out=normals)
        normals *= np.sqrt(0.5)
        normals *= self.sqrt_rows[lo : lo + len(out)]
        np.multiply(normals, self.sqrt_cols, out=out)

    def __call__(self, index: int, gram: np.ndarray) -> np.ndarray:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        real, imag = (np.random.Generator(np.random.Philox(seq)) for _ in range(2))
        step, n = len(self.chunk), len(self.sqrt_rows)
        for lo in range(0, n, step):
            imag.standard_normal(out=self.normals[: n - lo])
        for lo in range(0, n, step):
            chunk = self.chunk[: n - lo]
            self._fill(real, lo, chunk.real)
            self._fill(imag, lo, chunk.imag)
            blas.gram(chunk, gram, accumulate=lo > 0)
        return gram


def _draw_and_solve(
    draws: _Draws, indices: range, samples: np.ndarray, gram: np.ndarray
):
    """Draw and solve the listed realizations into their rows of
    ``samples``, one after the other, on this thread's own Gram matrix."""
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
) -> ChannelEnsemble:
    """Monte Carlo ensemble over H for fixed normalized spectra.

    Eigenvalues below RANK_TOL * largest are dropped from the per-realization
    solve (they contribute nothing at double precision); each row is
    zero-padded back to length len(dr). `threads` workers run two draw
    threads each, the calling thread among them, and each thread runs every
    (2 * threads)-th realization on its own buffers, with OpenBLAS pinned
    to one thread for the whole ensemble. `dtype`, complex128 or
    complex64, is the precision of A, its Gram matrix and the eigensolve,
    and the ensemble records it as `precision`.
    """
    if realizations < 1:
        raise ValidationError(
            f"realizations must be >= 1, got {realizations}", field="realizations"
        )
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}", field="threads")
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
    n = min(dt_used.size, dr_used.size)
    # fewer than 2 * threads draws leave one draw per thread
    runners = min(2 * threads, realizations)
    # every runner's buffers and Gram matrix come from this thread's heap,
    # which reuses what earlier calls freed, where a pool thread's arena
    # would take new pages
    runs = [
        (_Draws(dt_used, dr_used, seed, dtype), range(k, realizations, runners),
         samples, np.empty((n, n), dtype))
        for k in range(runners)
    ]
    with blas.one_thread(), ThreadPoolExecutor(max(1, runners - 1)) as pool:
        # runner 0 runs on this thread, so a one-draw call starts no thread
        others = [pool.submit(_draw_and_solve, *run) for run in runs[1:]]
        _draw_and_solve(*runs[0])
        for other in others:
            other.result()
    return ChannelEnsemble(samples, blas.eigensolver(dtype, n), np.dtype(dtype).name)
