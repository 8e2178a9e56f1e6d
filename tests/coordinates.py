"""Element coordinates of a planar panel: the input of the dense test
oracles, which build the correlation matrix from pairwise distances with no
use of the lattice structure."""

import numpy as np

from ris_edof.geometry import RisGeometry


def element_coordinates(geom: RisGeometry) -> np.ndarray:
    """Element positions as an (n, 3) array in wavelength units.

    Row-major ordering with z fastest: element (i, k) maps to row
    i * n_z + k and sits at (i * spacing_x, 0, k * spacing_z).
    """
    xs = np.arange(geom.n_x) * geom.spacing_x
    zs = np.arange(geom.n_z) * geom.spacing_z
    x_grid, z_grid = np.meshgrid(xs, zs, indexing="ij")
    coords = np.zeros((geom.n, 3))
    coords[:, 0] = x_grid.ravel()
    coords[:, 2] = z_grid.ravel()
    return coords
