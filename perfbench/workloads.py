"""Benchmark workloads: the CLI invocations each one runs and the checks on
their outputs.

A workload is a list of invocations of the unchanged ``ris-edof`` CLI. Each
invocation names its command-line arguments, an optional JSON config, the
CSV files it must write, a check on them and the reference entries to record
from them. A check raises ``CheckError`` when an output is wrong; the harness
counts that invocation as failed.

Checks come in two kinds:

* reference checks compare against ``reference/<workload>.json``, recorded
  from the seed commit at the default seed by ``record_reference.py``. They
  apply when the seed is the default or when the outputs do not depend on
  the seed at all (correlation spectra, the analytic CDF);
* invariant checks hold for every seed and always run.

Outputs are checked within tolerance, never by byte hash, so a later change
may alter CSV bytes as long as the numbers stay within these tolerances.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 42
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Normalized spectra: max |value - reference| <= SPECTRUM_RTOL * alpha_1.
SPECTRUM_RTOL = 1e-10
# Effective rank is counted over values above RANK_TOL * alpha_1.
RANK_TOL = 1e-12
# Analytic CDF values are computed in mpmath at >= 30 digits and written with
# 12 significant digits, so agreement is limited by the CSV format.
CDF_ATOL = 1e-9
# Normalized spectra sum to 1 up to the CSV's 12 significant digits.
SUM_TOL = 1e-8


class CheckError(Exception):
    """An output of an invocation is missing or wrong."""


Tables = dict[str, list[dict]]


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Tables, dict | None], None]
    record: Callable[[Tables], dict]  # reference entries from these outputs
    config: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    seed_free: bool  # outputs do not depend on --seed
    tiny: tuple[Invocation, ...]  # small variant for the benchmark's own tests


def geometry(aperture: float, spacing_x: float, spacing_z: float | None = None) -> dict:
    return {
        "len_x": aperture,
        "len_z": aperture,
        "spacing_x": spacing_x,
        "spacing_z": spacing_x if spacing_z is None else spacing_z,
    }


def read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise CheckError(f"{path.name} has no rows")
    return rows


def _floats(rows: list[dict], column: str, name: str) -> list[float]:
    try:
        values = [float(row[column]) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{name}: bad column {column!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"{name}: non-finite value in {column!r}")
    return values


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())


# --- sweep tables (fig8-mc, edof-asym) -------------------------------------


def check_sweep(name: str, snr_grid: list[float]):
    """EDoF sweep CSV: one row per point of the SNR grid, EDoF at least 1,
    the capacity at the EDoF no lower than at the aperture DoF (degradation
    >= 0) and, with a reference, the integer EDoF equal at every SNR point."""

    def check(tables: Tables, reference: dict | None) -> None:
        rows = tables[name]
        snr = _floats(rows, "snr_db", name)
        if len(snr) != len(snr_grid) or any(
            abs(a - b) > 1e-9 for a, b in zip(snr, snr_grid)
        ):
            raise CheckError(f"{name}: SNR column {snr} != expected grid")
        edof_int = [int(v) for v in _floats(rows, "edof_int", name)]
        edof_real = _floats(rows, "edof_real", name)
        degradation = _floats(rows, "degradation", name)
        if min(edof_int) < 1 or min(edof_real) < 1.0:
            raise CheckError(f"{name}: EDoF below 1")
        if min(degradation) < 0.0:
            raise CheckError(f"{name}: negative degradation {min(degradation)}")
        if reference is not None and edof_int != reference[name]["edof_int"]:
            diff = [
                (s, got, want)
                for s, got, want in zip(snr, edof_int, reference[name]["edof_int"])
                if got != want
            ]
            raise CheckError(f"{name}: integer EDoF differs (snr, got, want): {diff}")

    return check


def sweep_reference(tables: Tables) -> dict:
    return {
        name: {"edof_int": [int(float(r["edof_int"])) for r in rows]}
        for name, rows in tables.items()
    }


# --- correlation spectra (spectra-cdf) -------------------------------------


def spectrum_values(rows: list[dict], name: str) -> list[float]:
    return _floats(rows, "alpha_normalized", name)


def effective_rank(values: list[float]) -> int:
    return sum(1 for v in values if v > RANK_TOL * values[0])


def check_spectrum(name: str, elements: int):
    """Normalized spectrum: N values, non-increasing, non-negative, summing
    to 1; with a reference, values within SPECTRUM_RTOL * alpha_1 and the
    same effective rank at RANK_TOL."""

    def check(tables: Tables, reference: dict | None) -> None:
        values = spectrum_values(tables[name], name)
        if len(values) != elements:
            raise CheckError(f"{name}: {len(values)} values, expected {elements}")
        if min(values) < 0.0:
            raise CheckError(f"{name}: negative eigenvalue {min(values)}")
        if any(b > a for a, b in zip(values, values[1:])):
            raise CheckError(f"{name}: spectrum is not non-increasing")
        if abs(sum(values) - 1.0) > SUM_TOL:
            raise CheckError(f"{name}: spectrum sums to {sum(values)!r}")
        if reference is None:
            return
        want = reference[name]
        ref_values = want["values"]
        worst = max(abs(a - b) for a, b in zip(values, ref_values))
        if worst > SPECTRUM_RTOL * ref_values[0]:
            raise CheckError(
                f"{name}: spectrum deviates by {worst:.3e} "
                f"(> {SPECTRUM_RTOL:g} * alpha_1)"
            )
        rank = effective_rank(values)
        if rank != want["rank"]:
            raise CheckError(f"{name}: effective rank {rank} != {want['rank']}")

    return check


def spectrum_reference(tables: Tables) -> dict:
    out = {}
    for name, rows in tables.items():
        values = spectrum_values(rows, name)
        out[name] = {"rank": effective_rank(values), "values": values}
    return out


# --- analytic CDF (spectra-cdf) ---------------------------------------------


def check_cdf(name: str, points: int):
    """Analytic CDF: the requested number of points, alpha increasing, F
    non-decreasing inside [0, 1]; with a reference, F within CDF_ATOL."""

    def check(tables: Tables, reference: dict | None) -> None:
        rows = tables[name]
        alpha = _floats(rows, "alpha", name)
        f_vals = _floats(rows, "F", name)
        if len(f_vals) != points:
            raise CheckError(f"{name}: {len(f_vals)} points, expected {points}")
        if any(b <= a for a, b in zip(alpha, alpha[1:])):
            raise CheckError(f"{name}: alpha grid is not increasing")
        if min(f_vals) < 0.0 or max(f_vals) > 1.0:
            raise CheckError(f"{name}: CDF leaves [0, 1]")
        if any(b < a for a, b in zip(f_vals, f_vals[1:])):
            raise CheckError(f"{name}: CDF is not monotone")
        if reference is None:
            return
        worst = max(abs(a - b) for a, b in zip(f_vals, reference[name]["F"]))
        if worst > CDF_ATOL:
            raise CheckError(f"{name}: CDF deviates by {worst:.3e} (> {CDF_ATOL:g})")

    return check


def cdf_reference(tables: Tables) -> dict:
    return {name: {"F": _floats(rows, "F", name)} for name, rows in tables.items()}


def check_each(*checks):
    def check(tables: Tables, reference: dict | None) -> None:
        for one in checks:
            one(tables, reference)

    return check


# --- the workloads ----------------------------------------------------------

FIG8_SNR = [float(s) for s in range(-10, 41, 5)]
ASYM_SNR = [float(s) for s in range(-10, 41)]
CDF_POINTS = 2
TINY_SNR = [0.0, 10.0]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig8-mc",
            why=(
                "paper's headline EDoF-vs-SNR figure at 625 elements; Monte "
                "Carlo composite eigensolves dominate, one shared spectrum"
            ),
            seed_free=False,
            invocations=(
                Invocation(
                    args=("reproduce", "--target", "fig8", "--column",
                          "half-lambda", "--quick"),
                    outputs=("fig8_half-lambda.csv",),
                    check=check_sweep("fig8_half-lambda.csv", FIG8_SNR),
                    record=sweep_reference,
                ),
            ),
            tiny=(
                Invocation(
                    args=("edof-sweep",),
                    config={
                        "geometry_t": geometry(2.0, 0.5),
                        "realizations": 2,
                        "snr_grid_db": [0, 10, 10],
                    },
                    outputs=("edof_sweep.csv",),
                    check=check_sweep("edof_sweep.csv", TINY_SNR),
                    record=sweep_reference,
                ),
            ),
        ),
        Workload(
            name="spectra-cdf",
            why=(
                "Monte-Carlo-free paths: correlation spectra at 3025 elements "
                "and the table1 columns, plus the mpmath CDF at N = 16; the "
                "largest-memory workload"
            ),
            seed_free=True,
            invocations=(
                Invocation(
                    args=("corr-eigs",),
                    config={"geometry_t": geometry(9.0, 1.0 / 6.0)},
                    outputs=("corr_eigs.csv",),
                    check=check_spectrum("corr_eigs.csv", 55 * 55),
                    record=spectrum_reference,
                ),
                Invocation(
                    args=("reproduce", "--target", "table1"),
                    outputs=(
                        "table1_half-lambda.csv",
                        "table1_third-lambda.csv",
                        "table1_quarter-lambda.csv",
                    ),
                    check=check_each(
                        check_spectrum("table1_half-lambda.csv", 25 * 25),
                        check_spectrum("table1_third-lambda.csv", 37 * 25),
                        check_spectrum("table1_quarter-lambda.csv", 49 * 49),
                    ),
                    record=spectrum_reference,
                ),
                Invocation(
                    args=("cdf",),
                    config={
                        "geometry_t": geometry(1.5, 0.5),
                        "options": {"points": CDF_POINTS},
                    },
                    outputs=("cdf.csv",),
                    check=check_cdf("cdf.csv", CDF_POINTS),
                    record=cdf_reference,
                ),
            ),
            tiny=(
                Invocation(
                    args=("corr-eigs",),
                    config={"geometry_t": geometry(2.0, 1.0 / 6.0)},
                    outputs=("corr_eigs.csv",),
                    check=check_spectrum("corr_eigs.csv", 13 * 13),
                    record=spectrum_reference,
                ),
                Invocation(
                    args=("cdf",),
                    config={"geometry_t": geometry(1.0, 0.5), "options": {"points": 3}},
                    outputs=("cdf.csv",),
                    check=check_cdf("cdf.csv", 3),
                    record=cdf_reference,
                ),
            ),
        ),
        Workload(
            name="edof-asym",
            why=(
                "51-point EDoF sweep over two distinct spectra (625 and 2401 "
                "elements, 8 draws); the EDoF solver dominates, rectangular Gram"
            ),
            seed_free=False,
            invocations=(
                Invocation(
                    args=("edof-sweep",),
                    config={
                        "geometry_t": geometry(12.0, 0.5),
                        "geometry_r": geometry(12.0, 0.25),
                        "realizations": 8,
                        "snr_grid_db": {"start": -10, "stop": 40, "step": 1},
                    },
                    outputs=("edof_sweep.csv",),
                    check=check_sweep("edof_sweep.csv", ASYM_SNR),
                    record=sweep_reference,
                ),
            ),
            tiny=(
                Invocation(
                    args=("edof-sweep",),
                    config={
                        "geometry_t": geometry(2.0, 0.5),
                        "geometry_r": geometry(2.0, 0.25),
                        "realizations": 2,
                        "snr_grid_db": [0, 10, 10],
                    },
                    outputs=("edof_sweep.csv",),
                    check=check_sweep("edof_sweep.csv", TINY_SNR),
                    record=sweep_reference,
                ),
            ),
        ),
    )
}
