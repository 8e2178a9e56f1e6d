"""The output contract: each product's CSV at a tiny config against its
recording in tests/golden/ (written by record_golden.py).

Headers, row counts and the integer and text columns must match exactly.
Floats must match exactly when the numpy version and the composite kernel
are those of the recording, and within FLOAT_RTOL otherwise. A case whose
draws run in complex64 must still draw in complex64; its floats follow
OpenBLAS's CPU kernels as well, so they are compared, exactly, only on the
kernels of the recording (`blas_core`).
"""

import json

import numpy as np
import pytest

from record_golden import CASES, GOLDEN, RECORDED, environment, run_case

# Columns compared as text under every environment.
EXACT_COLUMNS = {"k", "realization", "n_s", "edof_int", "dof_ref", "kind"}
# Measured drift: the numpy.linalg draw path moves the edof_sweep case's
# edof_real by up to 2.6e-8 relative and leaves every other value's 12
# digits in place; at 12 wavelengths the BLAS thread count moves edof_real
# in its 7th-9th significant digit.
FLOAT_RTOL = 1e-6
# Cases whose draws the precision gate lets run in complex64.
COMPLEX64_CASES = {"edof_sweep_complex64"}


def _read(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_product_matches_its_golden_table(tmp_path, name):
    table = run_case(name, tmp_path)
    header, rows = _read(table)
    want_header, want_rows = _read(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    assert all(len(row) == len(header) for row in rows)
    here, recorded = environment(), json.loads(RECORDED.read_text())
    exact = all(here[key] == recorded[key] for key in ("numpy", "composite_kernel"))
    complex64 = name in COMPLEX64_CASES
    if complex64:
        manifest = table.with_name(f"{table.stem}_manifest.json")
        extras = json.loads(manifest.read_text())["jobs"][0]["extras"]
        assert extras["precision"] == "complex64"
        exact = exact and here["blas_core"] == recorded["blas_core"]
    for col, column in enumerate(header):
        got = [row[col] for row in rows]
        want = [row[col] for row in want_rows]
        if exact or column in EXACT_COLUMNS:
            assert got == want, column
        elif not complex64:
            np.testing.assert_allclose(
                np.array(got, dtype=float),
                np.array(want, dtype=float),
                rtol=FLOAT_RTOL,
                atol=0,
                err_msg=column,
            )
