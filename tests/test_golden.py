"""The output contract: each product's CSV at a tiny config against its
recording in tests/golden/ (written by record_golden.py).

Headers, row counts and the integer and text columns must match exactly.
Floats must match exactly when the numpy version and the composite kernel
are those of the recording, and within FLOAT_RTOL otherwise.
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


def _read(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_product_matches_its_golden_table(tmp_path, name):
    header, rows = _read(run_case(name, tmp_path))
    want_header, want_rows = _read(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    assert all(len(row) == len(header) for row in rows)
    exact = environment() == json.loads(RECORDED.read_text())
    for col, column in enumerate(header):
        got = [row[col] for row in rows]
        want = [row[col] for row in want_rows]
        if exact or column in EXACT_COLUMNS:
            assert got == want, column
        else:
            np.testing.assert_allclose(
                np.array(got, dtype=float),
                np.array(want, dtype=float),
                rtol=FLOAT_RTOL,
                atol=0,
                err_msg=column,
            )
