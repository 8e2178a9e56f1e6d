"""The serial draw oracle: realization i of the composite channel drawn on
its own, with nothing shared between draws, through the same `blas.gram`
and `blas.eigvalsh` that the ensemble runs on, in complex128 or complex64."""

import numpy as np

from ris_edof import blas, channel_mc
from ris_edof.correlation import effective_rank


def hw_draw(seed: int, index: int, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix of i.i.d. CN(0, 1) entries that realization
    ``index`` streams: the real then the imaginary parts from the Philox
    stream keyed by (seed, index), each N(0, 1/2)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    stream = np.random.Generator(np.random.Philox(seq))
    re = stream.standard_normal((rows, cols))
    im = stream.standard_normal((rows, cols))
    return (re + 1j * im) * np.sqrt(0.5)


def channel_draw(seed: int, index: int, n_r: int, n_t: int) -> np.ndarray:
    """Realization ``index``'s n_r x n_t channel H: the panel with more
    modes runs along the stream's rows, so for n_t > n_r the stream fills
    H^T."""
    if n_r >= n_t:
        return hw_draw(seed, index, n_r, n_t)
    return hw_draw(seed, index, n_t, n_r).T


def draw_eigs(
    dt: np.ndarray, dr: np.ndarray, hw: np.ndarray, dtype=np.complex128
) -> np.ndarray:
    """Non-increasing eigenvalues of Dr_n H Dt_n H^H for one draw of H
    (n_r x n_t), with rounding negatives set to zero; min(len(dt), len(dr))
    values. A carries the longer spectrum along its rows, is formed in
    float64 and rounded once to ``dtype``, and its Gram matrix A^H A is
    summed over the ensemble's row chunks."""
    long, short, h = (dr, dt, hw) if dr.size >= dt.size else (dt, dr, hw.T)
    a = (h * np.sqrt(long)[:, None] * np.sqrt(short)).astype(dtype)
    step = channel_mc._CHUNK_ROWS
    gram = np.empty((short.size, short.size), dtype=dtype)
    for lo in range(0, long.size, step):
        blas.gram(a[lo : lo + step], gram, accumulate=lo > 0)
    values = blas.eigvalsh(gram)[::-1]
    return np.where(values < 0.0, 0.0, values)


def serial_ensemble(
    dt: np.ndarray, dr: np.ndarray, realizations: int, seed: int,
    dtype=np.complex128,
) -> np.ndarray:
    """The rows `ensemble_from_spectra` must give in ``dtype``, drawn one at
    a time."""
    dt_used, dr_used = dt[: effective_rank(dt)], dr[: effective_rank(dr)]
    rows = np.zeros((realizations, dr.size))
    for i in range(realizations):
        hw = channel_draw(seed, i, dr_used.size, dt_used.size)
        row = draw_eigs(dt_used, dr_used, hw, dtype)
        rows[i, : row.size] = row
    return rows
