"""Records the output contract: the CSV of each of the six products at a tiny
config, in tests/golden/, together with the numpy version and the composite
kernel that wrote them (tests/golden/recorded.json). Run from the repository
root after a change that moves numbers on purpose, and name the diff::

    PYTHONPATH=src python tests/record_golden.py

tests/test_golden.py runs the same cases and compares against these files.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ris_edof.blas import composite_kernel
from ris_edof.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = GOLDEN / "recorded.json"


def _panel(side: float, spacing: float = 0.5) -> dict:
    return {"len_x": side, "len_z": side, "spacing_x": spacing, "spacing_z": spacing}


# CSV stem -> (command, config). Each product once, on panels of at most 3
# wavelengths at half-wavelength spacing; the sweep's receive panel is at a
# quarter wavelength, where the rank cut drops modes.
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
}


def environment() -> dict:
    """What decides the float bits: the numpy version and the library the
    composite draws run on."""
    return {"numpy": np.__version__, "composite_kernel": composite_kernel()}


def run_case(name: str, work: Path) -> Path:
    """Runs one case in the directory work and returns its CSV."""
    command, config = CASES[name]
    path = work / f"{name}.json"
    path.write_text(json.dumps(config))
    out = work / name
    code = main([command, "--config", str(path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    return out / f"{name}.csv"


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            shutil.copyfile(run_case(name, Path(work)), GOLDEN / f"{name}.csv")
    RECORDED.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
