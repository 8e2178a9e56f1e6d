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
spanned by e_a + p * e_(n-1-a) for the representatives a <= n-1-a, normalized
(the centre of an odd axis appears only for p = +1). Parity block entry
((a, b), (a', b')) is then a weight times

    G(ab, a'b') = f(|a-a'|, |b-b'|) + p_x * f(|a+a'-(n_x-1)|, |b-b'|)
                  + p_z * f(|a-a'|, |b+b'-(n_z-1)|)
                  + p_x * p_z * f(|a+a'-(n_x-1)|, |b+b'-(n_z-1)|),

gathered from the table by integer offsets.

A square lattice (n_x = n_z and dx = dz) is also invariant under the swap
(a, b) -> (b, a), which maps the (+,-) parity subspace onto (-,+). Those two
blocks have one spectrum, so (+,-) is solved once and its eigenvalues count
twice. The swap acts inside (+,+) and (-,-), which split again into a
swap-symmetric block on (e_ab + e_ba) for a <= b and a swap-antisymmetric one
on (e_ab - e_ba) for a < b. Their entries are a weight times
G(ab, a'b') +- G(ab, b'a'), gathered straight from the table; the full
parity block is never formed. So a square panel costs one block of about N/4
rows and four of about N/8, about 1.5 units of N/4-block eigensolve work
instead of 4.

One builder, _lattice_block, makes every block from its rows: the (x, z)
representatives and each row's count h of halves, one for x at an odd axis's
centre, one for z at one, and one for x = z in a swap-symmetric row. Entry
(i, j) takes the weight sqrt(1/2)**(h_i + h_j), rounded once, so two halves
make exactly 1/2 and an uncorrelated lattice (f = 1 at the zero offset, 0
elsewhere) gives exactly I in every block.

Each block is gathered only when its turn comes, solved and freed before
the next, all on the calling thread with OpenBLAS pinned to one thread
(`blas.one_thread`), so at most one gathered block is alive and the
spectrum's bits depend on neither the BLAS thread count nor the CLI's
--threads; the Monte Carlo draws' pool is the only thread pool. A
solver thread beside the calling thread, which overlaps the small blocks
with the largest one's solve, makes the 9-wavelength panel at a sixth of a
wavelength about 1.5x faster in process on a 2-core VM (49 against 75 ms),
but its `corr-eigs` run only about 15 ms faster, within the benchmark's
noise, and it holds a second gathered block.

The blocks are solved in place: `blas.eigvalsh` runs LAPACK's ``dsyevd``,
the routine numpy's eigvalsh runs, on the gathered block itself, so no
solver holds numpy's column-major copy beside its block (on a
2-core VM the spectrum of the 12-wavelength panel at a twelfth of a
wavelength peaked at 573 MB with the copies and 307 MB without). LAPACK overwrites the block, so
the trace is taken before the solve. A swap block is not symmetric bit for
bit: its swap term adds the four reflected table terms in a different order
at (i, j) than at (j, i). LAPACK must therefore read the triangle numpy
reads, so each block is gathered in Fortran order, LAPACK's layout, and the
values are numpy's bit for bit.
"""

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import blas
from .errors import NumericError, SizeGuardError
from .geometry import RisGeometry

# Eigenvalues of R, or of a composite channel draw, more negative than
# NEGATIVE_CLAMP_REL times the largest indicate a broken matrix rather than
# rounding noise and are treated as an error. A solve in single precision
# rounds far more than that, so the floor is at least CLAMP_ULPS * n * eps of
# the values' dtype: above 1e-10 only in float32, or past 112,000 values.
NEGATIVE_CLAMP_REL = 1e-10
CLAMP_ULPS = 4


def _clamp_negative(values: np.ndarray, what: str) -> np.ndarray:
    """Non-increasing eigenvalues with their rounding-noise negatives set to
    zero; a value below -rel * max(largest, 0) raises, with rel the larger
    of NEGATIVE_CLAMP_REL and CLAMP_ULPS * n * eps(dtype) for n values.

    The correlation spectrum and every complex128 draw are float64, where
    rel is NEGATIVE_CLAMP_REL. A complex64 draw (which ones run in it is
    `ris_edof.cli`'s choice) gives float32 values, whose rel at rank 624 is
    3.0e-4: on a square Gram matrix, whose spectrum reaches down to 0, their
    rounding negatives reach past the float64 floor."""
    top = max(float(values[0]), 0.0)
    eps = np.finfo(values.dtype).eps
    rel = max(NEGATIVE_CLAMP_REL, CLAMP_ULPS * values.size * eps)
    floor = -rel * top
    if values[-1] < floor:
        raise NumericError(
            f"{what} {values[-1]:.3e} below clamp floor {floor:.3e}",
            {"min": float(values[-1]), "top": top},
        )
    return np.where(values < 0.0, 0.0, values)


DEFAULT_MAX_ELEMENTS = 10_000

PARITIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Entries per row chunk of a block gather, so that the chunk's index arrays
# and gathered terms stay small beside the block itself. On a 2-core VM, with
# the blocks gathered on the calling thread, 1 << 15 (256 KB per array)
# raised the max RSS of the 9-wavelength panel at a sixth of a wavelength to
# 42.9-43.1 MB over 12 CLI runs, against 41.9-42.1 MB at 1 << 14, which took
# the same time within noise.
_CHUNK_ENTRIES = 1 << 14
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
    eigenvalue before the clamp (the most negative, if any is), the
    normalized spectrum's rank at RANK_TOL, and the routine that solved the
    blocks (`blas.eigensolver`: ``dsyevd``, or ``eigvalsh`` on the numpy
    path)."""

    symmetry: str = ""
    blocks: list[tuple[int, int]] = field(default_factory=list)
    trace: float = math.nan
    min_eigenvalue: float = math.nan
    rank: int = 0
    eigensolver: str = ""


def offset_table(geom: RisGeometry) -> np.ndarray:
    """Correlation f[a, b] between elements a steps apart along x and b
    along z, for every lattice offset; f[0, 0] = 1."""
    dx = np.arange(geom.n_x) * geom.spacing_x
    dz = np.arange(geom.n_z) * geom.spacing_z
    return np.sinc(2.0 * np.hypot(dx[:, None], dz[None, :]))


def _gather(
    table: np.ndarray, x: np.ndarray, z: np.ndarray, p_x: int, p_z: int,
    halves: np.ndarray, swap: int,
) -> np.ndarray:
    """The block whose row i stands for lattice representative (x[i], z[i]):
    entry (i, j) is sqrt(1/2)**(halves[i] + halves[j]) times G(i, j) + swap *
    G(i, j with x_j and z_j exchanged), G the four reflected table terms.
    Returned in Fortran order, the layout LAPACK reads, so the solve needs no
    copy: the C-order buffer under it holds column j of the block in row j,
    built a chunk of buffer rows at a time."""
    n_x, n_z = table.shape
    flat = table.ravel()
    m = x.size
    block = np.empty((m, m))
    xs, zs = x[None, :], z[None, :]  # the block's row i is buffer column i
    step = max(1, _CHUNK_ENTRIES // max(m, 1))
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        out = block[rows]
        x_j, z_j = x[rows, None], z[rows, None]  # the block's columns j
        partners = [(x_j, z_j, 1)] + ([(z_j, x_j, swap)] if swap else [])
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
        # sqrt(1/2)**(h_i + h_j) rounded once, so two halves make exactly 1/2
        # and (i, j) takes the weight of (j, i) bit for bit
        out *= _SQRT_HALF_POWERS[halves[rows, None] + halves[None, :]]
    return block.T


def _lattice_block(
    table: np.ndarray, p_x: int, p_z: int, swap: int = 0, count: int = 1
) -> Block:
    """The (p_x, p_z) parity block, rows (x, z) over both axes'
    representatives, x first; or, with swap = +1 / -1, the swap-symmetric
    (x <= z) / -antisymmetric (x < z) half of a square lattice's (p, p)
    block. Row i's weight is sqrt(1/2)**halves[i], one half each for x at an
    odd axis's centre, z at one, and x = z in a swap-symmetric row."""
    n_x, n_z = table.shape
    # representatives a <= n-1-a per axis: an odd axis's centre only at p = +1
    reps_x, reps_z = (n_x + (p_x > 0)) // 2, (n_z + (p_z > 0)) // 2
    if swap:
        x, z = np.triu_indices(reps_x, 0 if swap > 0 else 1)
    else:
        x, z = np.divmod(np.arange(reps_x * reps_z), reps_z)
    halves = (2 * x == n_x - 1).astype(int) + (2 * z == n_z - 1)
    halves += (swap > 0) * (x == z)
    build = partial(_gather, table, x, z, p_x, p_z, halves, swap)
    return Block(x.size, build, count)


def _blocks(table: np.ndarray, square: bool) -> tuple[str, list[Block]]:
    """The symmetry used and the blocks of R, unbuilt, in merge order."""
    if not square:
        return "parity", [_lattice_block(table, p_x, p_z) for p_x, p_z in PARITIES]
    return "swap", [_lattice_block(table, 1, -1, count=2)] + [
        _lattice_block(table, p, p, swap) for p in (1, -1) for swap in (1, -1)
    ]


def _solve(block: Block) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues and trace of the block, which is gathered,
    solved in place and freed within this call. On a failure the block is
    gathered again for the diagnostics, since LAPACK may have overwritten
    it."""
    matrix = block.build()
    trace = np.trace(matrix)  # before LAPACK overwrites the block
    try:
        values = blas.eigvalsh(matrix)
    except (np.linalg.LinAlgError, NumericError) as exc:
        matrix = block.build()  # the block as gathered, not as LAPACK left it
        diag = {
            "block_dim": matrix.shape[0],
            "fro_norm": float(np.linalg.norm(matrix)),
            "max_abs_entry": float(np.max(np.abs(matrix))),
        }
        raise NumericError(
            f"eigensolver failed to converge: {exc}", diag
        ) from exc
    return values, trace


def eigen_decompose(
    blocks: Sequence[Block], log: SpectrumLog | None = None
) -> np.ndarray:
    """All eigenvalues of the real symmetric matrix whose diagonal blocks are
    `blocks`, each counted `count` times, merged in non-increasing order.
    The blocks are gathered and solved one at a time, in list order, on the
    calling thread and one BLAS thread.

    Small negative eigenvalues (rounding noise from the PSD kernel) are
    clamped to zero; anything below -NEGATIVE_CLAMP_REL * alpha_1 raises, and
    so does a sum that misses the blocks' trace by more than 1e-10 relative.
    `log`, when given, receives the trace, the smallest eigenvalue before
    the clamp and the eigensolver.
    """
    with blas.one_thread():
        solved = [_solve(block) for block in blocks]

    merged = [v for block, (v, _) in zip(blocks, solved) for _ in range(block.count)]
    values = np.sort(np.concatenate(merged))[::-1]
    trace_in = float(sum(block.count * t for block, (_, t) in zip(blocks, solved)))
    if log is not None:
        log.trace, log.min_eigenvalue = trace_in, float(values[-1])
        log.eigensolver = blas.eigensolver(np.float64, values.size)
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
