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
for p = +1). Parity block entry ((a, b), (a', b')) is then

    s_ab * s_a'b' * G(ab, a'b'),
    G(ab, a'b') = f(|a-a'|, |b-b'|) + p_x * f(|a+a'-(n_x-1)|, |b-b'|)
                  + p_z * f(|a-a'|, |b+b'-(n_z-1)|)
                  + p_x * p_z * f(|a+a'-(n_x-1)|, |b+b'-(n_z-1)|)

with s = 2 * c_x * c_z, gathered from the table by integer offsets.

A square lattice (n_x = n_z and dx = dz) is also invariant under the swap
(a, b) -> (b, a), which maps the (+,-) parity subspace onto (-,+). Those two
blocks have one spectrum, so (+,-) is solved once and its eigenvalues count
twice. The swap acts inside (+,+) and (-,-), which split again into a
swap-symmetric block on (e_ab + e_ba) for a <= b and a swap-antisymmetric one
on (e_ab - e_ba) for a < b. Their entries are

    u_P * u_P' * s_ab * s_a'b' * [G(ab, a'b') +- G(ab, b'a')]

with u = 1 for a < b and 1/sqrt(2) for a = b, gathered straight from the
table; the full parity block is never formed. So a square panel costs one
block of about N/4 rows and four of about N/8, about 1.5 units of N/4-block
eigensolve work instead of 4.

Each block is gathered only when its turn comes and freed once solved. Two
threads solve the blocks, largest first, with OpenBLAS pinned to one thread
(`blas.one_thread`), so at most two blocks are alive at once. eigen_decompose
merges their eigenvalues in the fixed order of the block list, so the
spectrum's bits depend on neither the BLAS thread count nor the CLI's
--threads.
"""

import math
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import blas
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

# Threads that solve the blocks of one spectrum, each on one BLAS thread.
SOLVER_THREADS = 2
# Entries per row chunk of a block gather, so that the chunk's index arrays
# and gathered terms stay small beside the block itself.
_CHUNK_ENTRIES = 1 << 15
# sqrt(1/2)**k for k = 0..6, each rounded once: 1 or sqrt(1/2) times 2**-(k//2)
_SQRT_HALF_POWERS = np.ldexp([1.0, np.sqrt(0.5)] * 3 + [1.0], -(np.arange(7) // 2))


class Block(NamedTuple):
    """One diagonal block of R in a basis its symmetry respects: `rows` is
    its order, `build` gathers it, and its eigenvalues occur `count` times
    in R's spectrum."""

    rows: int
    build: Callable[[], np.ndarray]
    count: int = 1


@dataclass
class SpectrumLog:
    """How geometry_spectrum got its values: the symmetry it split R by
    (`swap` or `parity`), each block's (rows, count) in merge order, the
    blocks' trace sum(count * trace) (N for a unit diagonal), R's smallest
    eigenvalue before the clamp (the most negative, if any is), and the
    normalized spectrum's rank at RANK_TOL."""

    symmetry: str = ""
    blocks: list[tuple[int, int]] = field(default_factory=list)
    trace: float = math.nan
    min_eigenvalue: float = math.nan
    rank: int = 0


def offset_table(geom: RisGeometry) -> np.ndarray:
    """Correlation f[a, b] between elements a steps apart along x and b
    along z, for every lattice offset; f[0, 0] = 1."""
    dx = np.arange(geom.n_x) * geom.spacing_x
    dz = np.arange(geom.n_z) * geom.spacing_z
    return np.sinc(2.0 * np.hypot(dx[:, None], dz[None, :]))


def _representatives(n: int, parity: int) -> int:
    """How many a <= n-1-a span one axis's parity subspace."""
    return (n + 1) // 2 if parity > 0 else n // 2


def _axis_parity(n: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Representatives a <= n-1-a of one axis's parity subspace and their
    weights sqrt(2) * c (1 for a mirrored pair, 1/sqrt(2) for an odd axis's
    centre)."""
    count = _representatives(n, parity)
    weights = np.ones(count)
    if parity > 0 and n % 2:
        weights[-1] = np.sqrt(0.5)
    return np.arange(count), weights


def _gather(
    table: np.ndarray, x: np.ndarray, z: np.ndarray, p_x: int, p_z: int, *,
    scale: np.ndarray | None = None, halves: np.ndarray | None = None,
    swap: int = 0,
) -> np.ndarray:
    """The block whose row i stands for lattice representative (x[i], z[i])
    with weight scale[i], or sqrt(1/2)**halves[i]: entry (i, j) is the two
    weights times G(i, j) + swap * G(i, j with x_j and z_j exchanged), G the
    four reflected table terms. Built a chunk of rows at a time."""
    n_x, n_z = table.shape
    flat = table.ravel()
    m = x.size
    block = np.empty((m, m))
    partners = [(x, z, 1)] + ([(z, x, swap)] if swap else [])
    step = max(1, _CHUNK_ENTRIES // max(m, 1))
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        out = block[rows]
        xs, zs = x[rows, None], z[rows, None]
        first = True
        for cols_x, cols_z, sign in partners:
            # direct and mirrored offsets as flat table indices, x * n_z + z
            offsets_x = (
                (np.abs(xs - cols_x) * n_z, 1),
                (np.abs(xs + cols_x - (n_x - 1)) * n_z, p_x),
            )
            offsets_z = (
                (np.abs(zs - cols_z), 1), (np.abs(zs + cols_z - (n_z - 1)), p_z),
            )
            # the term order f(d, d), f(m, d), f(d, m), f(m, m) is part of the
            # bits of every non-square spectrum
            for off_z, sign_z in offsets_z:
                for off_x, sign_x in offsets_x:
                    if first:
                        flat.take(off_x + off_z, out=out)
                        first = False
                    elif sign * sign_x * sign_z > 0:
                        out += flat.take(off_x + off_z)
                    else:
                        out -= flat.take(off_x + off_z)
        # either product is symmetric bit for bit
        if halves is None:
            out *= scale[rows, None] * scale[None, :]
        else:
            # sqrt(1/2)**(h_i + h_j) rounded once, so two halves make 1/2
            out *= _SQRT_HALF_POWERS[halves[rows, None] + halves[None, :]]
    return block


def _parity_block(table: np.ndarray, p_x: int, p_z: int) -> np.ndarray:
    """The (p_x, p_z) parity block, rows ordered x representative first."""
    n_x, n_z = table.shape
    reps_x, w_x = _axis_parity(n_x, p_x)
    reps_z, w_z = _axis_parity(n_z, p_z)
    x = np.repeat(reps_x, reps_z.size)
    z = np.tile(reps_z, reps_x.size)
    scale = (w_x[:, None] * w_z[None, :]).ravel()
    return _gather(table, x, z, p_x, p_z, scale=scale)


def _swap_block(table: np.ndarray, parity: int, swap: int) -> np.ndarray:
    """The swap-symmetric (swap = +1, rows a <= b) or -antisymmetric
    (swap = -1, rows a < b) half of the (parity, parity) block of a square
    lattice. A row's weight u_P * s_ab is sqrt(1/2) to the number of its
    factors below 1: a = b, and a or b at an odd axis's centre."""
    reps, weights = _axis_parity(table.shape[0], parity)
    a, b = np.triu_indices(reps.size, 0 if swap > 0 else 1)
    centre = weights < 1.0
    halves = (a == b).astype(int) + centre[a] + centre[b]
    return _gather(table, a, b, parity, parity, halves=halves, swap=swap)


def _blocks(table: np.ndarray, square: bool) -> tuple[str, list[Block]]:
    """The symmetry used and the blocks of R, unbuilt, in merge order."""
    n_x, n_z = table.shape
    if not square:
        return "parity", [
            Block(_representatives(n_x, p_x) * _representatives(n_z, p_z),
                  partial(_parity_block, table, p_x, p_z))
            for p_x, p_z in PARITIES
        ]
    plus, minus = _representatives(n_x, 1), _representatives(n_x, -1)
    blocks = [Block(plus * minus, partial(_parity_block, table, 1, -1), 2)]
    for parity, reps in ((1, plus), (-1, minus)):
        for swap in (1, -1):
            rows = reps * (reps + swap) // 2  # pairs a <= b, or a < b
            blocks.append(Block(rows, partial(_swap_block, table, parity, swap)))
    return "swap", blocks


def _solve(block: Block) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues and trace of one block, which lives only for
    this call."""
    matrix = block.build()
    try:
        values = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        diag = {
            "block_dim": matrix.shape[0],
            "fro_norm": float(np.linalg.norm(matrix)),
            "max_abs_entry": float(np.max(np.abs(matrix))),
        }
        raise NumericError(
            f"eigensolver failed to converge: {exc}", diag
        ) from exc
    return values, np.trace(matrix)


def eigen_decompose(
    blocks: Sequence[Block], log: SpectrumLog | None = None
) -> np.ndarray:
    """All eigenvalues of the real symmetric matrix whose diagonal blocks are
    `blocks`, each counted `count` times, merged in non-increasing order.
    SOLVER_THREADS threads build and solve the blocks, largest first, on one
    BLAS thread each.

    Small negative eigenvalues (rounding noise from the PSD kernel) are
    clamped to zero; anything below -NEGATIVE_CLAMP_REL * alpha_1 raises, and
    so does a sum that misses the blocks' trace by more than 1e-10 relative.
    `log`, when given, receives the trace and the smallest eigenvalue before
    the clamp.
    """
    order = sorted(range(len(blocks)), key=lambda i: -blocks[i].rows)
    parts = [None] * len(blocks)
    with blas.one_thread(), ThreadPoolExecutor(SOLVER_THREADS) as pool:
        for i, part in zip(order, pool.map(_solve, [blocks[i] for i in order])):
            parts[i] = part

    merged = [v for block, (v, _) in zip(blocks, parts) for _ in range(block.count)]
    values = np.sort(np.concatenate(merged))[::-1]
    trace_in = float(sum(block.count * t for block, (_, t) in zip(blocks, parts)))
    if log is not None:
        log.trace, log.min_eigenvalue = trace_in, float(values[-1])
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
    geom: RisGeometry, *, max_elements: int = DEFAULT_MAX_ELEMENTS,
    log: SpectrumLog | None = None,
) -> np.ndarray:
    """Normalized correlation spectrum of a geometry: the eigenvalues of R/N
    in non-increasing order, summing to 1 within 1e-10. `log`, when given,
    records how they were found (see SpectrumLog)."""
    n = geom.n
    if n > max_elements:
        raise SizeGuardError(
            f"geometry has {n} elements, above the size guard of "
            f"{max_elements}; pass a larger max_elements (CLI: --allow-large) "
            "to override"
        )
    table = offset_table(geom)
    square = geom.n_x == geom.n_z and geom.spacing_x == geom.spacing_z
    symmetry, blocks = _blocks(table, square)
    values = eigen_decompose(blocks, log) / float(n)
    total = float(values.sum())
    if abs(total - 1.0) > 1e-10:
        raise NumericError(
            f"normalized spectrum sums to {total!r}, expected 1", {"sum": total}
        )
    if log is not None:
        log.symmetry = symmetry
        log.blocks = [(block.rows, block.count) for block in blocks]
        log.rank = effective_rank(values)
    return values
