import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_edof import correlation
from ris_edof.correlation import (
    PARITIES,
    _clamp_negative,
    _parity_block,
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
    return [_parity_block(table, p_x, p_z) for p_x, p_z in PARITIES]


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
    assert np.array_equal(eigen_decompose([np.eye(1)]), [1.0])


def test_identity_matrix_normalizes_to_quarter(monkeypatch):
    assert np.array_equal(eigen_decompose([np.eye(3), np.eye(1)]), np.ones(4))

    # an offset table with no correlation off the zero offset gives R = I
    def uncorrelated(geom):
        table = np.zeros((geom.n_x, geom.n_z))
        table[0, 0] = 1.0
        return table

    monkeypatch.setattr(correlation, "offset_table", uncorrelated)
    values = geometry_spectrum(RisGeometry(0.5, 0.5, 0.5, 0.5))
    assert np.array_equal(values, [0.25] * 4)


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
    values = eigen_decompose(parity_blocks(geom))
    assert values.sum() == pytest.approx(geom.n, rel=1e-10)


def test_sum_off_the_trace_is_refused():
    # a hundred negatives each above the clamp floor: the clamp adds 9e-9,
    # past the 1e-10 relative trace check
    block = np.diag([1.0] + [-9e-11] * 100)
    with pytest.raises(NumericError, match="does not match trace"):
        eigen_decompose([block])


def test_solver_failure_is_a_numeric_error(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def fails_past_one_row(block):
        if block.shape[0] > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", fails_past_one_row)
    block = np.array([[2.0, -3.0], [-3.0, 1.0]])
    with pytest.raises(NumericError, match="failed to converge") as info:
        eigen_decompose([np.eye(1), block])
    assert info.value.diagnostics == {
        "block_dim": 2, "fro_norm": math.sqrt(23.0), "max_abs_entry": 3.0,
    }


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
        eigen_decompose([entries])


def test_clamp_zeroes_rounding_noise_and_refuses_below_floor():
    clamped = _clamp_negative(np.array([2.0, 1.0, -1e-12]), "eigenvalue")
    assert clamped.tolist() == [2.0, 1.0, 0.0]
    with pytest.raises(NumericError, match="clamp floor"):
        _clamp_negative(np.array([2.0, -1e-9]), "eigenvalue")


def test_spectrum_clamps_rounding_noise():
    assert eigen_decompose([np.diag([1.0, -1e-12])]).tolist() == [1.0, 0.0]


def test_spectrum_invariant_under_relabeling():
    geom = RisGeometry(2, 2, 0.5, 0.5)
    dense = dense_correlation(geom)
    rng = np.random.default_rng(3)
    perm = rng.permutation(geom.n)
    a = eigen_decompose(parity_blocks(geom))
    b = eigen_decompose([dense[np.ix_(perm, perm)]])
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
