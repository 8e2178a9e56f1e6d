"""The table of reference runs (record_golden.CASES): every case and each of
its variants runs in a child process, and its output must satisfy the
case's row of the table.

A golden case's CSV must also match its recording in tests/golden/: headers,
row counts and the integer and text columns exactly. Floats must match
exactly when the numpy version and the composite kernel are those of the
recording, and within FLOAT_RTOL otherwise. Floats of draws that run in
complex64 follow OpenBLAS's CPU kernels as well, so they are compared,
exactly, only on the kernels of the recording (`blas_core`).

Slow pairs carry the ``console`` mark, which tier 1 deselects; run them with
``pytest -m console``.
"""

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from record_golden import (CASES, GOLDEN, RECORDED, REFERENCE, VARIANTS,
                           environment, manifest, run)
from ris_edof.blas import composite_kernel
from ris_edof.cli import GATE_TOL, _jobs, build_parser, parse_config

# Columns compared as text under every environment.
EXACT_COLUMNS = {"k", "realization", "n_s", "edof_int", "dof_ref", "kind"}
# Measured drift: the numpy.linalg draw path moves the edof_sweep case's
# edof_real by up to 2.6e-8 relative and leaves every other value's 12
# digits in place; at 12 wavelengths the BLAS thread count moves edof_real
# in its 7th-9th significant digit.
FLOAT_RTOL = 1e-6


def _pairs():
    for name, case in CASES.items():
        for variant in ("", *case.variants):
            console = case.console or variant not in ("", *case.tier1)
            yield pytest.param(name, variant,
                               id=f"{name}-{variant}" if variant else name,
                               marks=[pytest.mark.console] if console else [])


@pytest.fixture(scope="session")
def runs(request, tmp_path_factory):
    """The pending output directory of each (case, variant) pair the
    session selected, and of the base run each variant compares against.
    They run two at a time, in test order: a small run spends most of its
    time starting the child's interpreter."""
    work, pending = tmp_path_factory.mktemp("runs"), {}
    with ThreadPoolExecutor(2) as pool:
        for item in request.session.items:
            if item.originalname == "test_product_matches_its_golden_table":
                params = item.callspec.params
                name, variant = params["name"], params["variant"]
                for pair in ((name, ""), (name, variant)):
                    if pair not in pending:
                        pending[pair] = pool.submit(run, *pair, work)
        yield lambda name, variant="": pending[name, variant].result()


def _read(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _column(values):
    try:
        return [float(value) for value in values]
    except ValueError:
        return values


def _matches_reference(workload, file, columns):
    want = json.loads((REFERENCE / f"{workload}.json").read_text())[file]
    if "edof_int" in want:
        assert [int(value) for value in columns["edof_int"]] == want["edof_int"]
        return
    got, values = columns["alpha_normalized"], want["values"]
    assert len(got) == len(values)
    assert max(abs(a - b) for a, b in zip(got, values)) <= 1e-10 * values[0]
    assert sum(value > 1e-12 * got[0] for value in got) == want["rank"]


def _matches_golden(name, header, rows, ran):
    want_header, want_rows = _read(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    assert all(len(row) == len(header) for row in rows)
    here, recorded = environment(ran), json.loads(RECORDED.read_text())
    exact = all(here[key] == recorded[key] for key in ("numpy", "composite_kernel"))
    complex64 = ran["jobs"][0]["extras"].get("precision") == "complex64"
    if complex64:
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


@pytest.mark.parametrize("name, variant", _pairs())
def test_product_matches_its_golden_table(runs, name, variant):
    case, out = CASES[name], runs(name, variant)
    ran = manifest(out)
    checks = case.checks + (VARIANTS[variant].checks if variant else ())
    for job in ran["jobs"]:
        table = out / job["file"]
        assert job["sha256"] == hashlib.sha256(table.read_bytes()).hexdigest()
        header, rows = _read(table)
        columns = {column: _column(values)
                   for column, values in zip(header, zip(*rows))}
        names = {**ran, **job, **job["extras"], **columns, "header": ",".join(header),
                 "rows": len(rows), "GATE_TOL": GATE_TOL}
        for check in checks:
            assert eval(check, {}, names), f"{job['file']}: {check}"
        if case.reference:
            _matches_reference(case.reference, job["file"], columns)
        if case.golden and not variant:
            _matches_golden(name, header, rows, ran)
        elif variant and VARIANTS[variant].same_bytes:
            assert table.read_bytes() == (runs(name) / job["file"]).read_bytes()


def _files(case):
    """The CSV files a case writes, as the CLI names them."""
    args = build_parser().parse_args([case.command, *case.argv])
    _, _, jobs = _jobs(args, parse_config(case.config or {}, case.command))
    return [f"{stem}.csv" for _, stem, _, _ in jobs]


def test_every_golden_table_has_its_case():
    golden = {name for name, case in CASES.items() if case.golden}
    assert {path.stem for path in GOLDEN.glob("*.csv")} == golden
    for name, case in CASES.items():
        assert set(case.variants) <= set(VARIANTS), name
        for check in case.checks:
            compile(check, name, "eval")
        if case.golden:
            assert len(_files(case)) == 1, name
        if case.reference:
            reference = json.loads((REFERENCE / f"{case.reference}.json").read_text())
            assert set(_files(case)) <= set(reference), name


@pytest.mark.console
def test_composite_draws_run_on_numpys_bundled_lapack():
    # fails, rather than skips, when the draws fall back to numpy.linalg: a
    # numpy wheel that stops exporting one of these routines or OpenBLAS's
    # thread-count getter or setter. Unpinned, a worker's two draw threads
    # would fight the BLAS pool: 40 draws at rank 624 on 2 cores took
    # 159-178 ms per draw against 81-87 ms pinned
    kernel = composite_kernel()
    routines = {"complex128": ["zherk", "zheev_2stage"],
                "complex64": ["cherk", "cheev", "cheev_2stage"]}
    assert (kernel["routines"], kernel["blas_threads"]) == (routines, 1)
