import math
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_edof import blas, correlation
from ris_edof.correlation import (
    PARITIES,
    Block,
    SpectrumLog,
    _blocks,
    _clamp_negative,
    _lattice_block,
    effective_rank,
    eigen_decompose,
    geometry_spectrum,
    offset_table,
)
from ris_edof.errors import NumericError, SizeGuardError
from ris_edof.geometry import RisGeometry

from coordinates import element_coordinates

# Reference spot values for the flagship 12x12-wavelength aperture, rounded
# to 5 decimals (absolute 2e-5 window) or quoted loosely for the tail.
HALF_LAMBDA_SPOTS = {1: 0.00679, 50: 0.00380, 500: 0.00104}
HALF_LAMBDA_TAIL = {600: 1.24e-8}


def dense_correlation(geom: RisGeometry) -> np.ndarray:
    """Independent oracle: the full N x N sinc matrix from element
    coordinates, with no use of the lattice structure."""
    coords = element_coordinates(geom)
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    return np.sinc(2.0 * dist)


def dense_spectrum(geom: RisGeometry) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(dense_correlation(geom)))[::-1] / geom.n


def parity_blocks(geom: RisGeometry) -> list[np.ndarray]:
    table = offset_table(geom)
    return [_lattice_block(table, p_x, p_z).build() for p_x, p_z in PARITIES]


def as_blocks(*matrices: np.ndarray) -> list[Block]:
    """Blocks that hand over a copy of each given matrix, which the solve
    overwrites, each counted once."""
    return [Block(m.shape[0], m.copy) for m in matrices]


def test_half_wavelength_pair_is_uncorrelated():
    # neighbours 0.5 wavelengths apart along x
    table = offset_table(RisGeometry(0.5, 0.5, 0.5, 0.5))
    assert abs(table[1, 0]) < 1e-15


def test_quarter_wavelength_pair_value():
    table = offset_table(RisGeometry(0.25, 0.25, 0.25, 0.25))
    assert table[1, 0] == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_diagonal_is_exactly_one_and_symmetric():
    geom = RisGeometry(3, 2, 0.5, 0.25)
    table = offset_table(geom)
    assert table[0, 0] == 1.0
    assert np.all(np.abs(table) <= 1.0)
    blocks = parity_blocks(geom)
    assert [b.shape[0] for b in blocks] == [4 * 5, 4 * 4, 3 * 5, 3 * 4]
    for block in blocks:
        assert np.array_equal(block, block.T)
    trace = sum(np.trace(block) for block in blocks)
    assert trace == pytest.approx(geom.n, rel=1e-14)


def test_size_guard_names_override():
    with pytest.raises(SizeGuardError, match="max_elements"):
        geometry_spectrum(RisGeometry(12, 12, 0.1, 0.1))
    with pytest.raises(SizeGuardError, match="max_elements"):
        geometry_spectrum(RisGeometry(2, 2, 0.5, 0.5), max_elements=24)
    assert geometry_spectrum(RisGeometry(2, 2, 0.5, 0.5), max_elements=25).size == 25


def test_single_element_matrix():
    assert np.array_equal(eigen_decompose(as_blocks(np.eye(1))), [1.0])


def test_identity_matrix_normalizes_to_quarter(monkeypatch):
    assert np.array_equal(eigen_decompose(as_blocks(np.eye(3), np.eye(1))), np.ones(4))

    # an offset table with no correlation off the zero offset gives R = I
    def uncorrelated(geom):
        table = np.zeros((geom.n_x, geom.n_z))
        table[0, 0] = 1.0
        return table

    monkeypatch.setattr(correlation, "offset_table", uncorrelated)
    values = geometry_spectrum(RisGeometry(0.5, 0.5, 0.5, 0.5))
    assert np.array_equal(values, [0.25] * 4)

    # so every block is exactly I, also where an odd axis's centre or a
    # swap-symmetric diagonal row weighs sqrt(1/2)
    for shape in [(5, 3), (4, 6), (5, 5), (7, 7)]:
        table = np.zeros(shape)
        table[0, 0] = 1.0
        for block in _blocks(table, square=shape[0] == shape[1])[1]:
            assert np.array_equal(block.build(), np.eye(block.rows)), shape


def test_flagship_spot_values(half_spectrum):
    for k, expected in HALF_LAMBDA_SPOTS.items():
        assert abs(half_spectrum[k - 1] - expected) <= 2e-5
    for k, expected in HALF_LAMBDA_TAIL.items():
        assert half_spectrum[k - 1] == pytest.approx(expected, rel=0.05)


def test_quarter_spacing_top_value(quarter_spectrum):
    assert abs(quarter_spectrum[0] - 0.00479) <= 2e-5


def test_spectrum_sorted_and_sums_to_one(half_spectrum):
    assert np.all(np.diff(half_spectrum) <= 0)
    assert abs(half_spectrum.sum() - 1.0) <= 1e-10


def test_trace_matches_sum():
    geom = RisGeometry(2, 2, 0.25, 0.5)
    values = eigen_decompose(as_blocks(*parity_blocks(geom)))
    assert values.sum() == pytest.approx(geom.n, rel=1e-10)


def test_sum_off_the_trace_is_refused():
    # a hundred negatives each above the clamp floor: the clamp adds 9e-9,
    # past the 1e-10 relative trace check
    block = np.diag([1.0] + [-9e-11] * 100)
    with pytest.raises(NumericError, match="does not match trace"):
        eigen_decompose(as_blocks(block))


def assert_failure_describes_the_gathered_block():
    block = np.array([[2.0, -3.0], [-3.0, 1.0]])
    with pytest.raises(NumericError, match="failed to converge") as info:
        eigen_decompose(as_blocks(np.eye(1), block))
    assert info.value.diagnostics == {
        "block_dim": 2, "fro_norm": math.sqrt(23.0), "max_abs_entry": 3.0,
    }


def test_solver_failure_is_a_numeric_error(lapack, monkeypatch):
    # dsyevd fails past one row and leaves the block overwritten, as LAPACK
    # may; the diagnostics describe the block as gathered
    def dsyevd(*args):
        n, matrix, lwork, info = args[2].value, args[3], args[7], args[10]
        if n == 1 or lwork.value == -1:
            lapack.routines["dsyevd"](*args)
        else:
            matrix[...] = np.nan
            info.value = 2

    fake = lapack._replace(routines=lapack.routines | {"dsyevd": dsyevd})
    monkeypatch.setattr(blas, "load", lambda: fake)
    assert_failure_describes_the_gathered_block()


def test_solver_failure_on_the_numpy_path_is_a_numeric_error(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def fails_past_one_row(matrix):
        if matrix.shape[0] > 1:
            matrix[...] = np.nan
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(matrix)

    monkeypatch.setattr(blas, "load", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvalsh", fails_past_one_row)
    assert_failure_describes_the_gathered_block()


def test_normalized_sum_off_one_is_refused(monkeypatch):
    # a table whose zero offset is not 1 gives blocks of trace 2N, which the
    # eigenvalues match, so only the unit-sum check sees it
    monkeypatch.setattr(
        correlation, "offset_table", lambda geom: 2.0 * offset_table(geom)
    )
    with pytest.raises(NumericError, match="expected 1"):
        geometry_spectrum(RisGeometry(1, 1, 0.5, 0.5))


def test_non_psd_matrix_rejected():
    entries = np.array(
        [[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]]
    )
    with pytest.raises(NumericError, match="clamp floor"):
        eigen_decompose(as_blocks(entries))


def test_clamp_zeroes_rounding_noise_and_refuses_below_floor():
    clamped = _clamp_negative(np.array([2.0, 1.0, -1e-12]), "eigenvalue")
    assert clamped.tolist() == [2.0, 1.0, 0.0]
    with pytest.raises(NumericError, match="clamp floor"):
        _clamp_negative(np.array([2.0, -1e-9]), "eigenvalue")


def test_spectrum_clamps_rounding_noise():
    assert eigen_decompose(as_blocks(np.diag([1.0, -1e-12]))).tolist() == [1.0, 0.0]


def test_spectrum_invariant_under_relabeling():
    geom = RisGeometry(2, 2, 0.5, 0.5)
    dense = dense_correlation(geom)
    rng = np.random.default_rng(3)
    perm = rng.permutation(geom.n)
    a = eigen_decompose(as_blocks(*parity_blocks(geom)))
    b = eigen_decompose(as_blocks(dense[np.ix_(perm, perm)]))
    assert np.allclose(a, b, rtol=0, atol=1e-9 * a[0])


@settings(max_examples=40, deadline=None)
@example(n_x=2, n_z=2, spacing_x=0.4, spacing_z=0.3)
@example(n_x=2, n_z=11, spacing_x=0.4, spacing_z=0.3)
@example(n_x=12, n_z=2, spacing_x=0.25, spacing_z=0.5)
@example(n_x=3, n_z=8, spacing_x=1.0, spacing_z=0.05)
@given(
    n_x=st.integers(2, 12),
    n_z=st.integers(2, 12),
    spacing_x=st.floats(0.05, 1.0),
    spacing_z=st.floats(0.05, 1.0),
)
def test_blocked_spectrum_matches_dense_oracle(n_x, n_z, spacing_x, spacing_z):
    geom = RisGeometry(
        (n_x - 1) * spacing_x, (n_z - 1) * spacing_z, spacing_x, spacing_z
    )
    assert (geom.n_x, geom.n_z) == (n_x, n_z)
    blocked = geometry_spectrum(geom)
    dense = dense_spectrum(geom)
    deviation = np.max(np.abs(blocked - dense))
    assert deviation <= 1e-12 * dense[0]
    # a value within the measured deviation of the rank threshold may land
    # on either side of it; otherwise the ranks must agree
    if np.all(np.abs(dense - 1e-12 * dense[0]) > 2 * deviation):
        assert effective_rank(blocked) == effective_rank(dense)


def square(side: int, spacing: float) -> RisGeometry:
    """A panel of side x side elements."""
    length = (side - 1) * spacing
    return RisGeometry(length, length, spacing, spacing)


# sides 2 and 3 leave the (-,-) swap-antisymmetric block empty
@pytest.mark.parametrize("spacing", [0.5, 0.3])
@pytest.mark.parametrize("side", [2, 3, 4, 5, 8])
def test_swap_split_matches_dense_oracle(side, spacing):
    geom = square(side, spacing)
    log = SpectrumLog()
    values = geometry_spectrum(geom, log=log)
    assert log.symmetry == "swap"
    dense = dense_spectrum(geom)
    assert np.max(np.abs(values - dense)) <= 1e-12 * dense[0]
    assert effective_rank(values) == effective_rank(dense)


def test_single_element_lattice_has_empty_blocks():
    # a geometry has at least two elements a side, so this takes the 1 x 1
    # offset table f[0, 0] = 1 directly: every block but one is empty
    symmetry, blocks = _blocks(np.ones((1, 1)), square=True)
    assert symmetry == "swap"
    assert [(b.rows, b.count) for b in blocks] == [
        (0, 2), (1, 1), (0, 1), (0, 1), (0, 1)
    ]
    assert eigen_decompose(blocks).tolist() == [1.0]


@pytest.mark.parametrize(
    "geom",
    [RisGeometry(2, 1.5, 0.5, 0.375), RisGeometry(2, 1.5, 0.5, 0.5)],
    ids=["equal-counts-unequal-spacing", "equal-spacing-unequal-lengths"],
)
def test_non_square_panels_keep_the_parity_blocks(geom):
    log = SpectrumLog()
    values = geometry_spectrum(geom, log=log)
    assert log.symmetry == "parity"
    assert [count for _, count in log.blocks] == [1, 1, 1, 1]
    dense = dense_spectrum(geom)
    assert np.max(np.abs(values - dense)) <= 1e-12 * dense[0]
    assert effective_rank(values) == effective_rank(dense)


def test_plus_minus_values_come_in_bitwise_pairs(monkeypatch):
    geom = square(8, 0.25)
    solved = []
    solve = correlation._solve

    def recorded(block):
        result = solve(block)
        solved.append((block.count, result[0]))
        return result

    monkeypatch.setattr(correlation, "_solve", recorded)
    values = geometry_spectrum(geom)
    (plus_minus,) = [v for count, v in solved if count == 2]
    occurrences = Counter(values.tolist())
    normalized = plus_minus / float(geom.n)
    for value in normalized[normalized > 0]:
        assert occurrences[value] >= 2
    # the swap maps (+,-) onto (-,+), whose block has the same spectrum
    block = _lattice_block(offset_table(geom), -1, 1).build()
    minus_plus = np.linalg.eigvalsh(block)
    assert np.max(np.abs(minus_plus - plus_minus)) <= 1e-13 * plus_minus[-1]


def formula_block(table, x, z, p_x, p_z, halves, swap) -> np.ndarray:
    """Oracle: the block entry by entry from the module docstring's formula
    in scalar floats, row i for representative (x[i], z[i]); the terms are
    added in the order the builder adds them, so the entries match its bits."""
    n_x, n_z = table.shape
    m = len(x)
    block = np.empty((m, m))
    for i, j in np.ndindex(m, m):
        partners = [(x[j], z[j], 1)] + ([(z[j], x[j], swap)] if swap else [])
        total = None
        for col_x, col_z, sign in partners:
            offsets_x = ((abs(x[i] - col_x), 1), (abs(x[i] + col_x - n_x + 1), p_x))
            offsets_z = ((abs(z[i] - col_z), 1), (abs(z[i] + col_z - n_z + 1), p_z))
            for d_z, s_z in offsets_z:
                for d_x, s_x in offsets_x:
                    term = float(table[d_x, d_z])
                    if total is None:
                        total = term
                    elif sign * s_x * s_z > 0:
                        total += term
                    else:
                        total -= term
        h = int(halves[i] + halves[j])
        block[i, j] = total * ((1.0, math.sqrt(0.5))[h % 2] * 2.0 ** -(h // 2))
    return block


@pytest.mark.parametrize(
    "geom, asymmetric",
    [(square(3, 0.5), 0), (square(4, 0.3), 2), (RisGeometry(2, 1.5, 0.5, 0.5), 0),
     (RisGeometry(12, 12, 0.5, 0.5), 4)],
    ids=["3x3", "4x4", "5x4", "12-half"],
)
def test_blocks_are_solved_in_place_as_numpy_solves_them(
    lapack, monkeypatch, geom, asymmetric
):
    # square lattices give the (+,-) parity block and both swap halves of
    # (+,+) and (-,-), the 5 x 4 one all four parity blocks. Each block is
    # gathered in Fortran order and handed to dsyevd with no copy, and its
    # values are np.linalg.eigvalsh's of the block as numpy reads it, bit for
    # bit. Swap blocks are not symmetric bit for bit, so the layout reaches
    # the values.
    received = []

    def dsyevd(*args):
        received.append(args[3])
        lapack.routines["dsyevd"](*args)

    fake = lapack._replace(routines=lapack.routines | {"dsyevd": dsyevd})
    monkeypatch.setattr(blas, "load", lambda: fake)
    _, blocks = _blocks(offset_table(geom), square=geom.n_x == geom.n_z)
    seen = 0
    for block in blocks:
        formula = formula_block(*block.build.args)
        seen += not np.array_equal(formula, formula.T)
        gathered = block.build()
        assert gathered.flags.f_contiguous
        assert np.array_equal(gathered, formula)
        with blas.one_thread():
            expected = np.linalg.eigvalsh(formula)
            received.clear()
            values, trace = correlation._solve(block._replace(build=lambda: gathered))
        assert np.array_equal(values, expected)
        assert len(received) == 2  # the workspace query and the solve
        assert all(matrix.ctypes.data == gathered.ctypes.data for matrix in received)
        assert trace == np.trace(formula)
    assert seen == asymmetric


@pytest.mark.parametrize(
    "geom, blocks",
    [
        (square(8, 0.25), [(16, 2), (10, 1), (6, 1), (10, 1), (6, 1)]),
        (RisGeometry(2, 1.5, 0.5, 0.5), [(6, 1), (6, 1), (4, 1), (4, 1)]),
    ],
    ids=["square", "rectangle"],
)
def test_log_matches_direct_computation(geom, blocks):
    log = SpectrumLog()
    values = geometry_spectrum(geom, log=log)
    assert log.blocks == blocks
    assert sum(rows * count for rows, count in blocks) == geom.n
    # the blocks' trace is R's, which has a unit diagonal
    assert log.trace == pytest.approx(np.trace(dense_correlation(geom)), rel=1e-13)
    dense = np.linalg.eigvalsh(dense_correlation(geom))
    assert abs(log.min_eigenvalue - dense[0]) <= 1e-12 * dense[-1]
    assert log.rank == effective_rank(values) == effective_rank(dense[::-1])
    assert log.eigensolver == ("eigvalsh" if blas.load() is None else "dsyevd")


def test_eigen_decompose_logs_trace_and_smallest_value_before_clamp():
    log = SpectrumLog()
    values = eigen_decompose(as_blocks(np.diag([1.0, -1e-12]), np.eye(2)), log)
    assert values.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert (log.trace, log.min_eigenvalue) == (3.0 - 1e-12, -1e-12)


# tracemalloc sees only numpy's own allocations: a copy that C code makes
# with malloc, such as np.linalg.eigvalsh's column-major copy of the block,
# escapes it (test_blocks_are_solved_in_place_as_numpy_solves_them checks
# that the blocks reach LAPACK uncopied)
def test_spectrum_peak_memory_below_half_dense_matrix():
    geom = RisGeometry(8.5, 8.5, 0.25, 0.25)  # 35 x 35 = 1225 elements
    dense_bytes = 8 * geom.n**2
    tracemalloc.start()
    try:
        geometry_spectrum(geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 2


@pytest.mark.parametrize(
    "geom",
    [RisGeometry(12, 12, 0.25, 0.25), RisGeometry(9, 9, 1 / 6, 1 / 6),
     RisGeometry(11, 11, 1 / 6, 1 / 4)],
    ids=["12-quarter", "9-sixth", "11-parity"],
)
def test_spectrum_peak_memory_within_one_block_and_its_chunks(geom):
    # one block is alive at a time, so the peak (of numpy's allocations only,
    # as above) is the largest block plus its gather's chunk temporaries,
    # arrays of _CHUNK_ENTRIES entries: 8.4 float64 chunks' worth over the
    # block on all three panels
    _, blocks = _blocks(offset_table(geom), geom.n_x == geom.n_z)
    limit = 8 * max(block.rows for block in blocks) ** 2
    limit += 12 * 8 * correlation._CHUNK_ENTRIES
    tracemalloc.start()
    try:
        geometry_spectrum(geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit


@pytest.mark.parametrize(
    "geom", [square(8, 0.25), RisGeometry(3, 2, 0.5, 0.5)], ids=["swap", "parity"]
)
def test_blocks_are_gathered_on_the_calling_thread(monkeypatch, geom):
    # every block is gathered, solved and freed on the calling thread before
    # the next is gathered, so its freed pages stay in the heap the draws
    # allocate from next and at most one gathered block is alive
    main = threading.get_ident()
    gather, eigvalsh = correlation._gather, blas.eigvalsh
    gathered, alive, solved_on = [], [], []

    def recorded_gather(*args):
        matrix = gather(*args)
        gathered.append((threading.get_ident(), weakref.ref(matrix)))
        alive.append(sum(ref() is not None for _, ref in gathered))
        return matrix

    def recorded_eigvalsh(matrix):
        solved_on.append(threading.get_ident())
        return eigvalsh(matrix)

    expected = geometry_spectrum(geom)
    monkeypatch.setattr(correlation, "_gather", recorded_gather)
    monkeypatch.setattr(blas, "eigvalsh", recorded_eigvalsh)
    values = geometry_spectrum(geom)
    assert np.array_equal(values, expected)
    blocks = len(_blocks(offset_table(geom), geom.n_x == geom.n_z)[1])
    assert [ident for ident, _ in gathered] == [main] * blocks
    assert solved_on == [main] * blocks
    assert alive == [1] * blocks


def test_effective_rank_examples():
    assert effective_rank(np.array([0.5, 0.5, 0.0, 0.0])) == 2


def test_flagship_effective_rank_between_dof_and_n(half_spectrum):
    rank = effective_rank(half_spectrum)
    assert 452 < rank < 625
    # recorded value from the frozen solver output; allow LAPACK jitter
    assert abs(rank - 624) <= 2


def test_dominant_eigenvalues_converge_across_spacings(
    half_spectrum, quarter_spectrum
):
    # spacing refinement leaves the dominant part of the spectrum in place
    k = np.arange(452)
    rel = np.abs(half_spectrum[k] - quarter_spectrum[k]) / np.maximum(
        half_spectrum[k], quarter_spectrum[k]
    )
    assert rel.max() < 0.30


def test_small_aperture_dominant_spectra_converge():
    # on a 3-wavelength aperture the dominant range is floor(9 pi) = 28
    coarse = geometry_spectrum(RisGeometry(3, 3, 0.25, 0.25))
    fine = geometry_spectrum(RisGeometry(3, 3, 1 / 6, 1 / 6))
    k = np.arange(28)
    rel = np.abs(coarse[k] - fine[k]) / np.maximum(coarse[k], fine[k])
    assert rel.max() < 0.05
