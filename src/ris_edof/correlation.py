"""Isotropic-scattering spatial correlation of an RIS and its spectrum.

The correlation between elements m and n is sinc(2 * ||d_m - d_n||) with
distances in wavelengths, sinc(x) = sin(pi x) / (pi x). The matrix is a
positive semi-definite kernel with unit diagonal, so trace(R/N) = 1 for
every geometry. geometry_spectrum, the one entry point, returns the
normalized spectrum values(R)/N that everything downstream consumes,
checked to sum to 1.

R is never formed. On the regular n_x x n_z lattice, entry ((a, b), (a', b'))
depends only on the offset (|a - a'|, |b - b'|), so the whole matrix is the
n_x x n_z offset table f[a, b] = sinc(2 * hypot(a * dx, b * dz)). The lattice
is also invariant under the reflections a -> n_x - 1 - a and b -> n_z - 1 - b,
so R commutes with both and splits exactly into four blocks, one per pair of
axis parities (p_x, p_z) in {+1, -1}^2. On one axis the parity-p subspace is
spanned by c * (e_a + p * e_(n-1-a)) for a <= n-1-a, with c = 1/sqrt(2) for a
mirrored pair and c = 1/2 for the centre of an odd axis (which appears only
for p = +1). Block entry ((a, b), (a', b')) is then

    s_ab * s_a'b' * [ f(|a-a'|, |b-b'|) + p_x * f(|a+a'-(n_x-1)|, |b-b'|)
                      + p_z * f(|a-a'|, |b+b'-(n_z-1)|)
                      + p_x * p_z * f(|a+a'-(n_x-1)|, |b+b'-(n_z-1)|) ]

with s = 2 * c_x * c_z, gathered from the table by integer offsets. The
blocks have about N/4 rows each, and the spectrum of R is the union of
their spectra, which eigen_decompose merges and clamps.
"""

from collections.abc import Sequence

import numpy as np

from .errors import NumericError, SizeGuardError
from .geometry import RisGeometry

# Eigenvalues of R, or of a composite channel draw, more negative than
# NEGATIVE_CLAMP_REL times the largest indicate a broken matrix rather than
# rounding noise and are treated as an error.
NEGATIVE_CLAMP_REL = 1e-10


def _clamp_negative(values: np.ndarray, what: str) -> np.ndarray:
    """Non-increasing eigenvalues with their rounding-noise negatives set to
    zero; a value below -NEGATIVE_CLAMP_REL * max(largest, 0) raises."""
    top = max(float(values[0]), 0.0)
    floor = -NEGATIVE_CLAMP_REL * top
    if values[-1] < floor:
        raise NumericError(
            f"{what} {values[-1]:.3e} below clamp floor {floor:.3e}",
            {"min": float(values[-1]), "top": top},
        )
    return np.where(values < 0.0, 0.0, values)


DEFAULT_MAX_ELEMENTS = 10_000

PARITIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def offset_table(geom: RisGeometry) -> np.ndarray:
    """Correlation f[a, b] between elements a steps apart along x and b
    along z, for every lattice offset; f[0, 0] = 1."""
    dx = np.arange(geom.n_x) * geom.spacing_x
    dz = np.arange(geom.n_z) * geom.spacing_z
    return np.sinc(2.0 * np.hypot(dx[:, None], dz[None, :]))


def _axis_parity(n: int, parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Representatives of one axis's parity subspace: the weights
    sqrt(2) * c (1 for a mirrored pair, 1/sqrt(2) for an odd axis's centre)
    and the direct and mirrored offset tables |a - a'| and |a + a' - (n-1)|."""
    count = (n + 1) // 2 if parity > 0 else n // 2
    reps = np.arange(count)
    weights = np.ones(count)
    if parity > 0 and n % 2:
        weights[-1] = np.sqrt(0.5)
    direct = np.abs(reps[:, None] - reps[None, :])
    mirrored = np.abs(reps[:, None] + reps[None, :] - (n - 1))
    return weights, direct, mirrored


def _parity_block(table: np.ndarray, p_x: int, p_z: int) -> np.ndarray:
    n_x, n_z = table.shape
    w_x, direct_x, mirror_x = _axis_parity(n_x, p_x)
    w_z, direct_z, mirror_z = _axis_parity(n_z, p_z)
    # x offsets index the (row, col) x-components of the block and z offsets
    # its z-components, giving shape (m_x, m_z, m_x, m_z)
    dx, mx = direct_x[:, None, :, None], mirror_x[:, None, :, None]
    dz, mz = direct_z[None, :, None, :], mirror_z[None, :, None, :]
    block = table[dx, dz]
    block += (p_x * table)[mx, dz]
    block += (p_z * table)[dx, mz]
    block += (p_x * p_z * table)[mx, mz]
    m = w_x.size * w_z.size
    block = block.reshape(m, m)
    s = (w_x[:, None] * w_z[None, :]).ravel()
    # the outer product is symmetric bit for bit, so the block stays exactly
    # symmetric
    block *= s[:, None] * s[None, :]
    return block


def eigen_decompose(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """All eigenvalues of the real symmetric matrix whose diagonal blocks are
    `blocks` (its parity blocks, or a single dense block), merged in
    non-increasing order.

    Small negative eigenvalues (rounding noise from the PSD kernel) are
    clamped to zero; anything below -NEGATIVE_CLAMP_REL * alpha_1 raises, and
    so does a sum that misses the blocks' trace by more than 1e-10 relative.
    """
    parts = []
    for block in blocks:
        try:
            parts.append(np.linalg.eigvalsh(block))
        except np.linalg.LinAlgError as exc:
            diag = {
                "block_dim": block.shape[0],
                "fro_norm": float(np.linalg.norm(block)),
                "max_abs_entry": float(np.max(np.abs(block))),
            }
            raise NumericError(
                f"eigensolver failed to converge: {exc}", diag
            ) from exc

    values = np.sort(np.concatenate(parts))[::-1]
    trace_in = float(sum(np.trace(block) for block in blocks))
    values = _clamp_negative(values, "correlation eigenvalue")

    total = float(values.sum())
    if abs(total - trace_in) > 1e-10 * max(abs(trace_in), 1.0):
        raise NumericError(
            f"eigenvalue sum {total!r} does not match trace {trace_in!r}",
            {"sum": total, "trace": trace_in},
        )
    return values


# Correlation and profile values below RANK_TOL times the largest carry no
# channel power at double precision; they are dropped from every solve.
RANK_TOL = 1e-12


def effective_rank(values: np.ndarray) -> int:
    """Number of values above RANK_TOL times the largest value."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0
    return int(np.sum(values > RANK_TOL * values[0]))


def geometry_spectrum(
    geom: RisGeometry, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> np.ndarray:
    """Normalized correlation spectrum of a geometry: the eigenvalues of R/N
    in non-increasing order, summing to 1 within 1e-10."""
    n = geom.n
    if n > max_elements:
        raise SizeGuardError(
            f"geometry has {n} elements, above the size guard of "
            f"{max_elements}; pass a larger max_elements (CLI: --allow-large) "
            "to override"
        )
    table = offset_table(geom)
    blocks = [_parity_block(table, p_x, p_z) for p_x, p_z in PARITIES]
    values = eigen_decompose(blocks) / float(n)
    total = float(values.sum())
    if abs(total - 1.0) > 1e-10:
        raise NumericError(
            f"normalized spectrum sums to {total!r}, expected 1", {"sum": total}
        )
    return values
