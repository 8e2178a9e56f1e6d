import numpy as np
import pytest

from ris_edof.errors import ValidationError
from ris_edof.geometry import RisGeometry, asymptotic_dof

from coordinates import element_coordinates


def test_flagship_grid_count():
    geom = RisGeometry(12, 12, 0.5, 0.5)
    assert (geom.n_x, geom.n_z, geom.n) == (25, 25, 625)


def test_mixed_spacing_count():
    geom = RisGeometry(12, 12, 1 / 3, 0.5)
    assert (geom.n_x, geom.n_z, geom.n) == (37, 25, 925)


def test_unit_square_corners():
    coords = element_coordinates(RisGeometry(1, 1, 1, 1))
    expected = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]], dtype=float)
    assert coords.shape == (4, 3)
    assert np.array_equal(np.sort(coords.view("f8,f8,f8"), axis=0).view(float), expected)


def test_coordinate_ordering_z_fastest():
    geom = RisGeometry(1, 2, 0.5, 1.0)
    coords = element_coordinates(geom)
    assert geom.n_x == 3 and geom.n_z == 3
    # first n_z rows share x = 0 while z advances
    assert np.allclose(coords[:3, 0], 0.0)
    assert np.allclose(coords[:3, 2], [0.0, 1.0, 2.0])
    assert np.allclose(coords[3, :], [0.5, 0.0, 0.0])


def test_coordinates_span_and_uniqueness():
    geom = RisGeometry(12, 12, 0.5, 0.5)
    coords = element_coordinates(geom)
    assert coords.shape == (625, 3)
    assert coords[:, 0].min() == 0.0 and coords[:, 0].max() == 12.0
    assert coords[:, 2].min() == 0.0 and coords[:, 2].max() == 12.0
    assert np.all(coords[:, 1] == 0.0)
    assert len({tuple(row) for row in coords}) == 625


@pytest.mark.parametrize(
    "lx, lz, expected",
    [(12, 12, 452), (32, 32, 3216), (0.1, 0.1, 0)],
)
def test_asymptotic_dof(lx, lz, expected):
    assert asymptotic_dof(RisGeometry(lx, lz, min(lx, 0.5), min(lz, 0.5))) == expected


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(len_x=0, len_z=1, spacing_x=0.5, spacing_z=0.5), "len_x"),
        (dict(len_x=1, len_z=-2, spacing_x=0.5, spacing_z=0.5), "len_z"),
        (dict(len_x=1, len_z=1, spacing_x=0.0, spacing_z=0.5), "spacing_x"),
        (dict(len_x=1, len_z=1, spacing_x=0.5, spacing_z=2.0), "spacing_z"),
        (dict(len_x=1, len_z=1, spacing_x=float("nan"), spacing_z=0.5), "spacing_x"),
        # len / spacing overflows to inf, which round() cannot count
        (dict(len_x=1e308, len_z=1, spacing_x=1e-10, spacing_z=0.5), "spacing_x"),
        (dict(len_x=1, len_z=1e308, spacing_x=0.5, spacing_z=1e-10), "spacing_z"),
        # a spacing wider than its side
        (dict(len_x=1, len_z=1, spacing_x=2.0, spacing_z=0.5), "spacing_x"),
    ],
)
def test_validation_names_offending_field(kwargs, field):
    with pytest.raises(ValidationError) as excinfo:
        RisGeometry(**kwargs)
    assert excinfo.value.field == field
