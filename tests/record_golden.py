"""The table of reference runs. Each case of CASES is one console-script run
(a command, its argv and config) with what its output must satisfy, and the
variants that run it again under other BLAS threads, BLAS kernels, worker
counts or launchers. tests/test_golden.py runs every (case, variant) pair in
a child process.

A golden case also pins its CSV in tests/golden/, recorded together with the
numpy version, the composite kernel and the CPU kernels that wrote it
(tests/golden/recorded.json). After a change that moves numbers on purpose,
record them all again from the repository root and name the diff
(`git diff --stat tests/golden`) in the change::

    PYTHONPATH=src python tests/record_golden.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import ris_edof
from ris_edof.cli import GATED_REALIZATIONS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RECORDED = GOLDEN / "recorded.json"
REFERENCE = ROOT / "perfbench" / "reference"
SRC = str(Path(ris_edof.__file__).resolve().parents[1])


def _panel(side: float, spacing: float = 0.5) -> dict:
    return {"len_x": side, "len_z": side, "spacing_x": spacing, "spacing_z": spacing}


@dataclass(frozen=True)
class Variant:
    """A rerun of a case with these environment variables and extra argv.
    It must write the base run's bytes unless ``same_bytes`` is False, and
    pass the case's checks and its own. ``launcher`` runs the CLI: ``cli``
    calls `cli.main`, ``script`` the installed ``ris-edof`` entry point and
    ``tracer`` perfbench's span recorder."""

    env: tuple = ()
    argv: tuple = ()
    launcher: str = "cli"
    same_bytes: bool = True
    checks: tuple = ()


@dataclass(frozen=True)
class Case:
    """One reference run. Every job of the run must write the sha256 that
    its manifest records, and every check must hold. A check is a Python
    expression over the job's names: the manifest's keys, the job's keys,
    its extras, each CSV column as a list (of floats where they parse),
    ``header`` (the CSV's first line), ``rows`` (its row count) and
    ``GATE_TOL``. ``reference`` names the perfbench/reference workload whose
    entry for each CSV the run must match: integer EDoF equal, spectra
    within 1e-10 of the largest value with the same rank at 1e-12. A
    ``golden`` case pins its CSV in tests/golden/<name>.csv. Tier 1 runs
    the base run and the ``tier1`` variants; ``pytest -m console`` runs the
    other variants, and every run of a ``console`` case."""

    command: str
    config: dict | None = None
    argv: tuple = ()
    checks: tuple = ()
    reference: str | None = None
    golden: bool = False
    variants: tuple = ()
    tier1: tuple = ()
    console: bool = False


# The base run unsets OPENBLAS_NUM_THREADS and OPENBLAS_CORETYPE and sees
# 4 usable CPUs, so its default is two workers on any host; threads1 runs
# one.
BLAS1 = (("OPENBLAS_NUM_THREADS", "1"),)
BLAS2 = (("OPENBLAS_NUM_THREADS", "2"),)
THREADS1 = ("--threads", "1")
VARIANTS = {
    "blas1": Variant(BLAS1),
    "blas2": Variant(BLAS2),
    "threads1": Variant(argv=THREADS1),
    "blas1-threads1": Variant(BLAS1, THREADS1),
    "blas2-threads1": Variant(BLAS2, THREADS1),
    # complex64 bytes follow the CPU kernels, so they are not compared
    "haswell": Variant((("OPENBLAS_CORETYPE", "Haswell"),), same_bytes=False,
                       checks=("blas_core == 'Haswell'",)),
    "script": Variant(launcher="script"),
    # the recorder's spans nest only on one worker
    "traced": Variant(argv=THREADS1, launcher="tracer"),
}
# The CSV bytes do not depend on the BLAS thread count or the worker count.
THREADS = ("blas1", "blas2", "threads1", "blas1-threads1", "blas2-threads1")
GOLDEN_VARIANTS = ("blas1",)
DSYEVD = ("eigensolver == 'dsyevd'",)
SWEEP = {"geometry_t": _panel(2.0), "geometry_r": _panel(3.0), "realizations": 20}
# 25 x 25 elements, where the spectrum's bits once moved with the BLAS
# thread count
SQUARE_625 = _panel(6.0, 0.25)

# name -> case. The golden cases up to edof_sweep_complex64 run each product
# once on panels of at most 3 wavelengths at half-wavelength spacing; the
# sweep's receive panel is at a quarter wavelength, where the rank cut drops
# modes. Their draws run in complex128, except in edof_sweep_complex64, the
# same sweep with enough draws for the precision gate, which lets them run
# in complex64.
CASES = {
    "corr_eigs": Case("corr-eigs", {"geometry_t": _panel(3.0)}, golden=True,
                      variants=GOLDEN_VARIANTS),
    "channel_eigs": Case(
        "channel-eigs", {"geometry_t": _panel(2.0), "realizations": 8, "seed": 7},
        golden=True, variants=GOLDEN_VARIANTS,
    ),
    # a 2 x 2 transmit against a 7 x 7 receive panel at slack 0 writes one
    # row per violation the manifest counts
    "bounds_audit": Case(
        "bounds-audit",
        {"geometry_t": _panel(0.5), "geometry_r": _panel(3.0), "realizations": 8,
         "seed": 7, "options": {"slack": 0}},
        checks=("header == 'k,realization,value,bound,kind'",
                "regime == 'nt_much_less'", "violation_count == rows"),
        golden=True, variants=GOLDEN_VARIANTS,
    ),
    "cdf": Case("cdf", {"geometry_t": _panel(1.0), "options": {"points": 3}},
                golden=True, variants=GOLDEN_VARIANTS),
    "capacity_curve": Case(
        "capacity-curve",
        {"geometry_t": _panel(2.0), "realizations": 4, "snr_grid_db": [0, 10, 10]},
        golden=True, variants=GOLDEN_VARIANTS,
    ),
    "edof_sweep": Case(
        "edof-sweep",
        {"geometry_t": _panel(2.0), "geometry_r": _panel(2.0, 0.25), "realizations": 4},
        golden=True, variants=GOLDEN_VARIANTS,
    ),
    "edof_sweep_complex64": Case(
        "edof-sweep",
        {"geometry_t": _panel(2.0), "geometry_r": _panel(2.0, 0.25),
         "realizations": GATED_REALIZATIONS},
        checks=("precision == 'complex64'",), golden=True, variants=GOLDEN_VARIANTS,
    ),
    # a square 6 x 6-wavelength panel's Gram matrix reaches down to 0, so on
    # a grid to 100 dB the gate refuses the complex64 draws and the run draws
    # them again in complex128; the traced run must succeed too
    "sweep_100": Case(
        "edof-sweep",
        {"geometry_t": _panel(6.0), "realizations": 20, "snr_grid_db": [-10, 100, 10]},
        checks=("precision == 'complex128'", "gate_delta_edof > GATE_TOL"),
        golden=True, variants=(*GOLDEN_VARIANTS, "threads1", "traced"),
    ),
    # the paper's headline figure at 100 draws: the gate lets them run in
    # complex64, and their rank-624 Gram matrices run the one-stage cheev
    "fig8_half_lambda": Case(
        "reproduce",
        argv=("--target", "fig8", "--column", "half-lambda", "--quick", "--seed", "42"),
        checks=("precision == 'complex64'", "eigensolver == 'cheev'"),
        reference="fig8-mc", golden=True, console=True,
        variants=(*GOLDEN_VARIANTS, "threads1", "haswell"),
    ),
    # the benchmark's 8-draw sweep from a 12-wavelength panel at half a
    # wavelength to one at a quarter on a -10 to 40 dB grid in 1 dB steps
    "edof_asym": Case(
        "edof-sweep",
        {"geometry_t": _panel(12.0), "geometry_r": _panel(12.0, 0.25),
         "realizations": 8, "snr_grid_db": {"start": -10, "stop": 40, "step": 1}},
        argv=("--seed", "42"),
        checks=("precision == 'complex64'", "eigensolver == 'cheev'"),
        reference="edof-asym", golden=True, console=True,
        variants=(*GOLDEN_VARIANTS, "threads1", "haswell"),
    ),
    # the default panel, also through the installed entry point
    "spectrum": Case("corr-eigs", checks=DSYEVD, variants=(*THREADS, "script")),
    # 37 x 25 elements in parity blocks. This case, sweep, sweep_wide, channel
    # and cdf_16 are console cases: each child costs tier 1 about 0.3 s
    "third": Case("corr-eigs", {"geometry_t": {**_panel(12.0), "spacing_x": 1 / 3}},
                  checks=DSYEVD, variants=THREADS, console=True),
    "square_625": Case("corr-eigs", {"geometry_t": SQUARE_625}, checks=DSYEVD,
                       variants=THREADS, tier1=THREADS),
    "square_625_sweep": Case(
        "edof-sweep", {"geometry_t": SQUARE_625, "realizations": GATED_REALIZATIONS},
        checks=("precision == 'complex64'",), variants=THREADS, tier1=THREADS,
    ),
    "sweep": Case("edof-sweep", SWEEP, checks=("precision == 'complex64'",),
                  variants=THREADS, console=True),
    # the denser panel transmits, so the stream fills H^T
    "sweep_wide": Case(
        "edof-sweep",
        {**SWEEP, "geometry_t": SWEEP["geometry_r"], "geometry_r": SWEEP["geometry_t"]},
        checks=("precision == 'complex64'",), variants=THREADS, console=True,
    ),
    # the one product that publishes a std: one row per receive element
    "channel": Case(
        "channel-eigs", SWEEP,
        checks=("header == 'k,mean,std'", "rows == 49", "precision == 'complex128'",
                "mean == sorted(mean, reverse=True)", "min(std) >= 0"),
        variants=THREADS, console=True,
    ),
    # the benchmark's 16-element panel; the manifest names the working
    # precision the error bound chose
    "cdf_16": Case(
        "cdf", {"geometry_t": _panel(1.5), "options": {"points": 3}},
        checks=("header == 'alpha,F'", "rows == 3", "F == sorted(F)",
                "0 <= F[0] and F[-1] <= 1", "0 < dps_min <= dps_max",
                "reevaluations >= 0"),
        console=True,
    ),
    # the benchmark's spectra: 3025 elements, and the three table1 columns
    "corr_eigs_sixth": Case(
        "corr-eigs", {"geometry_t": _panel(9.0, 1 / 6)}, checks=DSYEVD,
        reference="spectra-cdf",
    ),
    "table1": Case("reproduce", argv=("--target", "table1"), reference="spectra-cdf"),
    # the largest reproduce column that needs no --allow-large: 73 x 73
    # elements in swap blocks of up to 1332 rows
    "table1_sixth": Case(
        "reproduce", argv=("--target", "table1", "--column", "sixth-lambda"),
        checks=("rows == 5329", "abs(sum(alpha_normalized) - 1) <= 1e-8",
                "rank == 1044", "symmetry == 'swap'", *DSYEVD,
                "column == 'sixth-lambda'", "geometry_t['len_x'] == 12.0"),
        variants=("blas2",),
    ),
}

# Runs the CLI as the console script does, seeing 4 usable CPUs, so that
# --threads 2 means two workers on any host.
CHILD = ("import sys; from ris_edof import cli; cli._usable_cpus = lambda: 4; "
         "sys.exit(cli.main(sys.argv[1:]))")


def run(name: str, variant: str, work: Path) -> Path:
    """Runs case ``name`` under ``variant`` ("" for the base run) in a child
    process and returns its output directory."""
    case, rerun = CASES[name], VARIANTS[variant] if variant else Variant()
    out = work / f"{name}-{variant or 'base'}"
    argv = [case.command, *case.argv, *rerun.argv, "--out", str(out)]
    if case.config is not None:
        path = out.with_suffix(".json")
        path.write_text(json.dumps(case.config))
        argv += ["--config", str(path)]
    launcher = {
        "cli": [sys.executable, "-c", CHILD],
        "script": [shutil.which("ris-edof") or "ris-edof"],
        "tracer": [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                   str(out.with_suffix(".summary")), str(out.with_suffix(".tsv")),
                   "--"],
    }[rerun.launcher]
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
    env.update(rerun.env, PYTHONPATH=SRC)
    done = subprocess.run(launcher + argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr}")
    return out


def manifest(out: Path) -> dict:
    (path,) = out.glob("*_manifest.json")
    return json.loads(path.read_text())


def environment(recorded: dict) -> dict:
    """What decides the float bits, from a run's manifest: the numpy
    version, the library the composite draws run on, and the CPU kernels
    OpenBLAS picked, which the bits of complex64 draws follow too."""
    return {
        "numpy": recorded["versions"]["numpy"],
        "composite_kernel": recorded["composite_kernel"],
        "blas_core": recorded["blas_core"],
    }


def record() -> None:
    with tempfile.TemporaryDirectory() as work:
        for name, case in CASES.items():
            if case.golden:
                out = run(name, "", Path(work))
                (job,) = manifest(out)["jobs"]
                shutil.copyfile(out / job["file"], GOLDEN / f"{name}.csv")
        recorded = environment(manifest(out))
    RECORDED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
