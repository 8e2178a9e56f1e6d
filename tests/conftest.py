"""Shared fixtures. The session-scoped ones cache the flagship spectra that
several test modules consume."""

import numpy as np
import pytest

from ris_edof.correlation import geometry_spectrum
from ris_edof.geometry import RisGeometry

HALF = RisGeometry(12.0, 12.0, 0.5, 0.5)
THIRD = RisGeometry(12.0, 12.0, 1.0 / 3.0, 0.5)
QUARTER = RisGeometry(12.0, 12.0, 0.25, 0.25)


@pytest.fixture(scope="session")
def half_spectrum() -> np.ndarray:
    return geometry_spectrum(HALF)


@pytest.fixture(scope="session")
def third_spectrum() -> np.ndarray:
    return geometry_spectrum(THIRD)


@pytest.fixture(scope="session")
def quarter_spectrum() -> np.ndarray:
    return geometry_spectrum(QUARTER)
