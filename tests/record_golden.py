"""Records the output contract: the CSV of each of the six products at a tiny
config, and of a sweep whose draws run in complex64, in tests/golden/,
together with the numpy version, the composite kernel and the CPU kernels
that wrote them (tests/golden/recorded.json). Run from the repository
root after a change that moves numbers on purpose, and name the diff::

    PYTHONPATH=src python tests/record_golden.py

tests/test_golden.py runs the same cases and compares against these files.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ris_edof.blas import blas_core, composite_kernel
from ris_edof.cli import GATED_REALIZATIONS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = GOLDEN / "recorded.json"


def _panel(side: float, spacing: float = 0.5) -> dict:
    return {"len_x": side, "len_z": side, "spacing_x": spacing, "spacing_z": spacing}


# golden file stem -> (command, config). Each product once, on panels of at
# most 3 wavelengths at half-wavelength spacing; the sweep's receive panel is
# at a quarter wavelength, where the rank cut drops modes. Those cases draw
# in complex128; edof_sweep_complex64 is the same sweep with enough draws for
# the precision gate, which lets them run in complex64.
CASES = {
    "corr_eigs": ("corr-eigs", {"geometry_t": _panel(3.0)}),
    "channel_eigs": (
        "channel-eigs",
        {"geometry_t": _panel(2.0), "realizations": 8, "seed": 7},
    ),
    # a 2 x 2 transmit against a 7 x 7 receive panel at slack 0 writes
    # violation rows
    "bounds_audit": (
        "bounds-audit",
        {
            "geometry_t": _panel(0.5),
            "geometry_r": _panel(3.0),
            "realizations": 8,
            "seed": 7,
            "options": {"slack": 0},
        },
    ),
    "cdf": ("cdf", {"geometry_t": _panel(1.0), "options": {"points": 3}}),
    "capacity_curve": (
        "capacity-curve",
        {"geometry_t": _panel(2.0), "realizations": 4, "snr_grid_db": [0, 10, 10]},
    ),
    "edof_sweep": (
        "edof-sweep",
        {"geometry_t": _panel(2.0), "geometry_r": _panel(2.0, 0.25), "realizations": 4},
    ),
    "edof_sweep_complex64": (
        "edof-sweep",
        {
            "geometry_t": _panel(2.0),
            "geometry_r": _panel(2.0, 0.25),
            "realizations": GATED_REALIZATIONS,
        },
    ),
}


def environment() -> dict:
    """What decides the float bits: the numpy version, the library the
    composite draws run on, and the CPU kernels OpenBLAS picked, which the
    bits of complex64 draws follow too."""
    return {
        "numpy": np.__version__,
        "composite_kernel": composite_kernel(),
        "blas_core": blas_core(),
    }


def run_case(name: str, work: Path) -> Path:
    """Runs one case in the directory work and returns its CSV, which the
    command names after itself."""
    command, config = CASES[name]
    path = work / f"{name}.json"
    path.write_text(json.dumps(config))
    out = work / name
    code = main([command, "--config", str(path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    return out / f"{command.replace('-', '_')}.csv"


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            shutil.copyfile(run_case(name, Path(work)), GOLDEN / f"{name}.csv")
    RECORDED.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
