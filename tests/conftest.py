"""Shared fixtures. The session-scoped ones cache the flagship spectra that
several test modules consume."""

import numpy as np
import pytest

from ris_edof import blas
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


@pytest.fixture
def lapack() -> blas.Lapack:
    loaded = blas.load()
    if loaded is None:
        pytest.skip("numpy's BLAS does not export every routine of "
                    "blas.ROUTINES, dsyevd and the thread-count getter and setter")
    return loaded


@pytest.fixture
def zheev_info(lapack, monkeypatch):
    """Call with an info value: the loader then returns numpy's OpenBLAS
    with a zheev_2stage whose workspace query succeeds and whose solve
    reports that info."""

    def install(info: int) -> None:
        def zheev(*args):
            lwork, work, status = args[7], args[6], args[9]
            if lwork.value == -1:
                work[0] = 1.0
            else:
                status.value = info

        fake = lapack._replace(routines=lapack.routines | {"zheev_2stage": zheev})
        monkeypatch.setattr(blas, "load", lambda: fake)

    return install
