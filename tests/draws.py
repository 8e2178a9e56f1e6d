"""The serial draw oracle: realization i of the composite channel drawn on
its own, with nothing shared between draws, through the same `blas.gram`
and `blas.eigvalsh` that the ensemble runs on."""

import numpy as np

from ris_edof import blas
from ris_edof.correlation import effective_rank


def hw_draw(seed: int, index: int, n_r: int, n_t: int) -> np.ndarray:
    """Realization ``index``'s n_r x n_t matrix of i.i.d. CN(0, 1) entries:
    the real then the imaginary parts from the Philox stream keyed by
    (seed, index), each N(0, 1/2)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    stream = np.random.Generator(np.random.Philox(seq))
    re = stream.standard_normal((n_r, n_t))
    im = stream.standard_normal((n_r, n_t))
    return (re + 1j * im) * np.sqrt(0.5)


def draw_eigs(dt: np.ndarray, dr: np.ndarray, hw: np.ndarray) -> np.ndarray:
    """Non-increasing eigenvalues of Dr_n H Dt_n H^H for one draw of H, with
    rounding negatives set to zero; min(len(dt), len(dr)) values."""
    a = hw * np.sqrt(dr)[:, None]
    a *= np.sqrt(dt)
    n = min(dt.size, dr.size)
    values = blas.eigvalsh(blas.gram(a, np.empty((n, n), dtype=complex)))[::-1]
    return np.where(values < 0.0, 0.0, values)


def serial_ensemble(
    dt: np.ndarray, dr: np.ndarray, realizations: int, seed: int
) -> np.ndarray:
    """The rows `ensemble_from_spectra` must give, drawn one at a time."""
    dt_used, dr_used = dt[: effective_rank(dt)], dr[: effective_rank(dr)]
    rows = np.zeros((realizations, dr.size))
    for i in range(realizations):
        hw = hw_draw(seed, i, dr_used.size, dt_used.size)
        row = draw_eigs(dt_used, dr_used, hw)
        rows[i, : row.size] = row
    return rows
