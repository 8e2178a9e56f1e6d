"""Command-line front end for reproducible experiments.

Every run reads an optional strict JSON config and is a list of jobs. A job
is one product call on one (geometry_t, geometry_r) pair, one step of the
geometry -> spectrum -> profile -> EDoF chain, and writes one CSV table. A
command runs one job on the config's panels; a reproduce target runs one job
per column, both panels at the column's geometry. One JSON manifest per run
records the command, target and column, the run-level config, versions, wall
time, peak memory, composite kernel and OpenBLAS core, and per job its file,
sha256, size, panels and the product's extras. A run exits with a distinct
code per failure class:

    0  success
    1  unexpected internal error
    2  config or input validation error
    3  size-guard refusal
    4  numeric failure

Identical config + seed produces byte-identical CSV files; the manifest
records everything needed to re-run them.

Precision of the draws. The Monte Carlo products draw in complex128, but
the EDoF products (`edof-sweep`, `capacity-curve` and the figures built on
them) need only the EDoF of the mean ordered eigenvalue profile, so they may
draw in complex64 behind a precision gate. A run of at least
GATED_REALIZATIONS draws solves draw 0 in complex128, then draws the whole
complex64 ensemble and checks its row 0 against that solve, since draw i
depends only on (seed, i): the complex64 ensemble is the run's when the
profiles of the two draw-0 solves give EDoF n_s* within GATE_TOL of each
other at every point of the run's SNR grid. Otherwise the run drops it and
draws the ensemble again in complex128. So the precision follows from the
config and seed alone, and a refused run writes the bytes of a run without
the gate. `channel-eigs`, `bounds-audit` and the targets on them stay in
complex128: they publish or audit every ordered eigenvalue, and float32
resolves nothing below about 1e-7 of the largest. The README's "Precision
of the draws" records the measurements behind these choices.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .blas import blas_core, composite_kernel
from .channel_mc import ensemble_from_spectra
from .correlation import DEFAULT_MAX_ELEMENTS, SpectrumLog, geometry_spectrum
from .edof import (
    EigenvalueProfile,
    capacity_curve,
    capacity_degradation,
    snr_db_to_linear,
    solve_edof,
)
from .errors import NumericError, SizeGuardError, ValidationError
from .geometry import RisGeometry, asymptotic_dof
from .spectral_bounds import DEFAULT_SLACK, check_bounds, per_eig_bounds

OUTPUT_DIR_ENV = "RIS_EDOF_OUT"
ALLOW_LARGE_MAX_ELEMENTS = 100_000
QUICK_REALIZATIONS = 100
# (stop - start) / step within this many steps of a whole number counts as
# that number, so a stop one float rounding short of the last point keeps it.
SNR_GRID_TOL = 1e-9
# SNR values in dB must lie within +-SNR_DB_LIMIT (linear 1e-10 to 1e10, far
# beyond any physical link). Near +3080 dB the dB -> linear conversion
# overflows.
SNR_DB_LIMIT = 100.0
# Largest SNR grid and largest cdf point count accepted: +-50 dB at 0.01 dB.
# The SNR grid is built as a list, so a tiny step would otherwise ask for
# billions of points; 10,001 closed-form CDF points at N = 16 take about 3
# minutes on a 2-core VM (1,000 points: 19 s; 200 points: 3.7 s).
MAX_GRID_POINTS = 10_001
# Largest Monte Carlo draw count accepted: 100x the paper's 1000, about 2 h of
# draws for a 12-wavelength panel at lambda/2 on one worker. The ensemble
# holds realizations x N_r eigenvalues (0.5 GB at the cap for that panel), so
# a far larger count would otherwise fail on allocation.
MAX_REALIZATIONS = 100_000
# The gate's bound on the |n_s*| difference between the two draw-0 profiles
# (see the module docstring). It lies between the largest difference of the
# runs measured that float32 serves and the smallest of those it does not,
# which one draw told apart as the mean of two did. The difference is not
# monotone in SNR, so the gate checks every grid point: float32 stops
# resolving the tail of a square panel's Gram matrix, which reaches down to
# 0, as the grid reaches high SNR.
GATE_TOL = 0.01
# The fewest draws that run the gate. It costs one complex128 draw and the
# EDoF solves of one profile per SNR point, and a complex64 draw saves on
# its Gram matrix and eigensolve but not on its float64 normals, so the
# gate pays for itself from about this many draws.
GATED_REALIZATIONS = 6

# Reference-dataset columns: element spacings (x, z) in wavelengths.
COLUMN_SPACINGS = {
    "half-lambda": (0.5, 0.5),
    "third-lambda": (1.0 / 3.0, 0.5),
    "quarter-lambda": (0.25, 0.25),
    "sixth-lambda": (1.0 / 6.0, 1.0 / 6.0),
    "twelfth-lambda": (1.0 / 12.0, 1.0 / 12.0),
}
# The columns a reproduce target runs when --column is not given.
DESK_COLUMNS = ("half-lambda", "third-lambda", "quarter-lambda")
FULL_APERTURE = 12.0
LARGE_APERTURE = 32.0

DEFAULT_GEOMETRY = {"len_x": 12.0, "len_z": 12.0, "spacing_x": 0.5, "spacing_z": 0.5}

_GEOMETRY_KEYS = {"len_x", "len_z", "spacing_x", "spacing_z"}
_PANELS = ("geometry_t", "geometry_r")
_SNR_KEYS = ("start", "stop", "step")
_TOP_KEYS = {
    "geometry_t",
    "geometry_r",
    "realizations",
    "seed",
    "snr_grid_db",
    "options",
}


@dataclass
class RunConfig:
    geometry_t: RisGeometry
    geometry_r: RisGeometry
    realizations: int
    seed: int
    snr_start: float
    snr_stop: float
    snr_step: float
    options: dict
    threads: int = 1
    max_elements: int = DEFAULT_MAX_ELEMENTS

    @property
    def snr_grid_db(self) -> list[float]:
        steps = (self.snr_stop - self.snr_start) / self.snr_step
        count = int(math.floor(steps + SNR_GRID_TOL)) + 1
        return [self.snr_start + i * self.snr_step for i in range(count)]

    def describe(self) -> dict:
        """The run-level keys; each job records the panels it ran."""
        return {
            "realizations": self.realizations,
            "seed": self.seed,
            "snr_grid_db": {
                "start": self.snr_start,
                "stop": self.snr_stop,
                "step": self.snr_step,
            },
            "threads": self.threads,
            "max_elements": self.max_elements,
            "options": dict(self.options),
        }


def _check_keys(block: dict, allowed, where: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} in {where} (allowed: {sorted(allowed)})",
                field=key,
            )


def _number(value, where: str, field: str) -> float:
    """A finite JSON number as a float. Bools, strings and integers beyond
    the float range are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValidationError(
        f"{where} must be a finite number, got {value!r}", field=field
    )


def _parse_geometry(block, where: str) -> RisGeometry:
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object", field=where)
    _check_keys(block, _GEOMETRY_KEYS, where)
    for key in _GEOMETRY_KEYS:
        if key not in block:
            raise ValidationError(f"{where} is missing {key!r}", field=key)
    return RisGeometry(
        **{key: _number(block[key], f"{where}.{key}", key) for key in _GEOMETRY_KEYS}
    )


def _integer(value, field: str, low: int, high: int | None = None) -> int:
    """A JSON integer in [low, high], or at least ``low`` when ``high`` is
    None. Bools are refused."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return value
    span = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValidationError(
        f"{field} must be an integer {span}, got {value!r}", field=field
    )


def _check_options(options: dict) -> None:
    """Type and range checks for the per-command options."""
    slack = options.get("slack", 0.0)
    if _number(slack, "options.slack", "options.slack") < 0:
        raise ValidationError(
            f"options.slack must be >= 0, got {slack!r}",
            field="options.slack",
        )
    if "points" in options:
        _integer(options["points"], "options.points", 2, MAX_GRID_POINTS)


def parse_config(raw: dict, command: str) -> RunConfig:
    """Strictly parse a config dict; unknown keys are rejected by name."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object", field="config")
    _check_keys(raw, _TOP_KEYS, "config")
    _, option_keys, panels = _COMMANDS[command]
    for key in _PANELS:
        if key in raw and key not in panels:
            raise ValidationError(
                f"{command} does not run the config's {key!r}; it would be "
                "ignored",
                field=key,
            )

    geometry_t = _parse_geometry(raw.get("geometry_t", DEFAULT_GEOMETRY), "geometry_t")
    geometry_r = (
        _parse_geometry(raw["geometry_r"], "geometry_r")
        if "geometry_r" in raw
        else geometry_t
    )

    # the Monte Carlo statistics need two draws; refuse before any is made
    realizations = _integer(
        raw.get("realizations", 1000), "realizations", 2, MAX_REALIZATIONS
    )
    seed = _integer(raw.get("seed", 42), "seed", 0)

    snr = raw.get("snr_grid_db", {"start": -10, "stop": 40, "step": 5})
    if isinstance(snr, list) and len(snr) == 3:
        snr = {"start": snr[0], "stop": snr[1], "step": snr[2]}
    if not isinstance(snr, dict):
        raise ValidationError(
            "snr_grid_db must be {start, stop, step} or [start, stop, step]",
            field="snr_grid_db",
        )
    _check_keys(snr, _SNR_KEYS, "snr_grid_db")
    for key in _SNR_KEYS:
        if key not in snr:
            raise ValidationError(
                f"snr_grid_db is missing {key!r}", field="snr_grid_db"
            )
    start, stop, step = (
        _number(snr[key], f"snr_grid_db.{key}", "snr_grid_db") for key in _SNR_KEYS
    )
    if step <= 0 or stop < start:
        raise ValidationError(
            "snr_grid_db needs step > 0 and stop >= start", field="snr_grid_db"
        )
    if max(abs(start), abs(stop)) > SNR_DB_LIMIT:
        raise ValidationError(
            f"snr_grid_db values must lie within [-{SNR_DB_LIMIT:g}, "
            f"{SNR_DB_LIMIT:g}] dB",
            field="snr_grid_db",
        )
    # the point count as a float: floor(steps + SNR_GRID_TOL) + 1 exceeds the
    # cap exactly when this holds, and an overflowing count reads inf
    steps = (stop - start) / step
    if steps + SNR_GRID_TOL >= MAX_GRID_POINTS:
        raise ValidationError(
            f"snr_grid_db has {steps + 1:.6g} points; at most "
            f"{MAX_GRID_POINTS} are allowed",
            field="snr_grid_db",
        )

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object", field="options")
    _check_keys(options, option_keys, "options")
    _check_options(options)

    return RunConfig(
        geometry_t=geometry_t,
        geometry_r=geometry_r,
        realizations=realizations,
        seed=seed,
        snr_start=start,
        snr_stop=stop,
        snr_step=step,
        options=options,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_text(path: Path, text: str) -> None:
    """Write one output file; a path the CLI cannot write is a bad --out."""
    try:
        path.write_text(text, encoding="ascii", newline="\n")
    except OSError as exc:
        # a directory in the file's place, no permission, or a full disk
        raise ValidationError(f"cannot write {path}: {exc}", field="out") from exc


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row)
        )
    _write_text(path, "\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far, in MB of 2**20 bytes,
    or None where the resource module is missing (Windows). ru_maxrss counts
    KiB on Linux and bytes on macOS. Imported here, so `import ris_edof.cli`
    does not pay for it."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_unit = 1 if sys.platform == "darwin" else 1024
    return round(peak * per_unit / 2**20, 1)


def write_manifest(
    path: Path, args: argparse.Namespace, config: RunConfig, jobs: list,
    started: float,
) -> None:
    """One layout for every run. jobs holds (column, CSV path, geom_t, geom_r,
    extras) per job; target and column are None for a command."""
    payload = {
        "command": args.command,
        "target": getattr(args, "target", None),
        "column": getattr(args, "column", None),
        "config": config.describe(),
        "versions": {
            "ris_edof": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "composite_kernel": composite_kernel(),
        "blas_core": blas_core(),
        "jobs": [
            {
                "column": column,
                "file": out.name,
                "sha256": _sha256(out),
                "bytes": out.stat().st_size,
                "geometry_t": asdict(geom_t),
                "geometry_r": asdict(geom_r),
                "extras": extras,
            }
            for column, out, geom_t, geom_r, extras in jobs
        ],
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


SWEEP_HEADER = [
    "snr_db",
    "edof_real",
    "edof_int",
    "dof_ref",
    "capacity_edof",
    "capacity_dofref",
    "degradation",
]


def _indexed(*columns):
    """Rows (k, columns[0][k-1], ...) with 1-based k."""
    return ((k + 1, *values) for k, values in enumerate(zip(*columns)))


def _spectra(config: RunConfig, geom_t: RisGeometry, geom_r: RisGeometry):
    """Normalized spectra (dt, dr) of the two panels; a geometry shared by
    both panels is built once."""
    dt = geometry_spectrum(geom_t, max_elements=config.max_elements)
    if geom_r == geom_t:
        return dt, dt
    return dt, geometry_spectrum(geom_r, max_elements=config.max_elements)


def _precision_gate(double: np.ndarray, single: np.ndarray, nt_nr: float,
                    snr_grid_db) -> tuple[float, float]:
    """The largest |n_s*| difference over the SNR grid between the profiles
    of one draw solved in complex128 (``double``) and in complex64
    (``single``), and the SNR where it fell."""
    profiles = [EigenvalueProfile.from_values(row) for row in (double, single)]
    worst, at = -1.0, None
    for snr_db in snr_grid_db:
        rho = snr_db_to_linear(snr_db)
        delta = abs(solve_edof(profiles[0], rho, nt_nr).n_s_star
                    - solve_edof(profiles[1], rho, nt_nr).n_s_star)
        if delta > worst:
            worst, at = delta, snr_db
    return worst, at


def _draws(config: RunConfig, dt: np.ndarray, dr: np.ndarray, gated: bool):
    """The run's Monte Carlo ensemble over the spectra (dt, dr) and the
    extras that say which precision its draws ran in, what the gate
    measured (see the module docstring) and which eigensolver solved them.
    Only a ``gated`` product runs the gate, and only on at least
    GATED_REALIZATIONS draws."""
    gate = {"gate_delta_edof": None, "gate_snr_db": None}
    ensemble = None
    if gated and config.realizations >= GATED_REALIZATIONS:
        # draw 0 in complex128 on this thread: a one-draw call holds one
        # draw's buffers and Gram matrix and starts no pool
        double = ensemble_from_spectra(
            dt, dr, 1, config.seed, threads=config.threads
        ).eig_samples[0]
        ensemble = ensemble_from_spectra(dt, dr, config.realizations, config.seed,
                                         threads=config.threads, dtype=np.complex64)
        delta, at = _precision_gate(double, ensemble.eig_samples[0],
                                    float(dt.size * dr.size), config.snr_grid_db)
        gate.update(gate_delta_edof=delta, gate_snr_db=at)
        if delta > GATE_TOL:
            # the refused rows go before the complex128 draws are made
            ensemble = None
    if ensemble is None:
        ensemble = ensemble_from_spectra(dt, dr, config.realizations, config.seed,
                                         threads=config.threads)
    return ensemble, {"precision": ensemble.precision,
                      "eigensolver": ensemble.eigensolver, **gate}


def _mean_profile(config: RunConfig, geom_t: RisGeometry, geom_r: RisGeometry):
    """Monte Carlo mean eigenvalue profile of the gated draws, n_t * n_r and
    the draws' extras."""
    dt, dr = _spectra(config, geom_t, geom_r)
    ensemble, extras = _draws(config, dt, dr, gated=True)
    profile = EigenvalueProfile.from_values(ensemble.eig_samples.mean(axis=0))
    return profile, float(dt.size * dr.size), extras


# Products: (config, geom_t, geom_r) -> (header, rows, the job's extras).


def _spectrum(config, geom_t, geom_r):
    log = SpectrumLog()
    values = geometry_spectrum(geom_t, max_elements=config.max_elements, log=log)
    return ["k", "alpha_normalized"], _indexed(values), asdict(log)


def _mean_std(config, geom_t, geom_r):
    dt, dr = _spectra(config, geom_t, geom_r)
    ensemble, extras = _draws(config, dt, dr, gated=False)
    samples = ensemble.eig_samples
    rows = _indexed(samples.mean(axis=0), samples.std(axis=0, ddof=1))
    extras["eigsum_mean"] = float(samples.sum(axis=1).mean())
    return ["k", "mean", "std"], rows, extras


def _bounds_report(config, geom_t, geom_r):
    slack = float(config.options.get("slack", DEFAULT_SLACK))
    dt, dr = _spectra(config, geom_t, geom_r)
    ensemble, extras = _draws(config, dt, dr, gated=False)
    table = per_eig_bounds(dt, dr, slack=slack)
    violations = check_bounds(ensemble.eig_samples, table)
    extras.update(regime=table.regime, slack=slack,
                  violation_count=len(violations))
    header = ["k", "realization", "value", "bound", "kind"]
    return header, [astuple(v) for v in violations], extras


def _cdf(config, geom_t, geom_r):
    points = int(config.options.get("points", 200))
    if geom_t.n != geom_r.n:
        raise ValidationError(
            f"cdf needs panels of equal element count; geometry_t has "
            f"{geom_t.n} and geometry_r {geom_r.n}",
            field="geometry_r",
        )
    dt, dr = _spectra(config, geom_t, geom_r)
    dt, dr = dt[dt > 0], dr[dr > 0]
    if dt.size != dr.size:
        # a clamped eigenvalue leaves one panel with fewer positive values
        raise ValidationError(
            f"cdf needs spectra with equal counts of positive values; "
            f"geometry_t has {dt.size} and geometry_r {dr.size}",
            field="geometry_t" if dt.size < dr.size else "geometry_r",
        )
    # imported here so that no other command loads mpmath
    from .analytic_cdf import EigenProfilePair, PrecisionLog, cdf_table

    pair = EigenProfilePair.from_values(dt, dr)
    log = PrecisionLog()
    alphas, f_vals = cdf_table(pair, num=points, log=log)
    extras = {
        "dps_min": min(log.dps),
        "dps_max": max(log.dps),
        "reevaluations": log.reevaluations,
        "jittered_dt": not np.array_equal(pair.dt_vals, np.sort(dt)[::-1]),
        "jittered_dr": not np.array_equal(pair.dr_vals, np.sort(dr)[::-1]),
    }
    return ["alpha", "F"], zip(alphas, f_vals), extras


def _capacity_curves(config, geom_t, geom_r):
    """(snr_db, n_s, capacity, normalized capacity) for every n_s at every
    point of the SNR grid."""
    profile, nt_nr, extras = _mean_profile(config, geom_t, geom_r)
    rows = []
    for snr_db in config.snr_grid_db:
        counts, caps, normalized = capacity_curve(
            profile, snr_db_to_linear(snr_db), nt_nr
        )
        rows += [(snr_db, *row) for row in zip(counts.tolist(), caps, normalized)]
    return ["snr_db", "n_s", "capacity", "normalized_capacity"], rows, extras


def _sweep(config, geom_t, geom_r):
    dof_ref = asymptotic_dof(geom_t)
    if dof_ref < 1:
        raise ValidationError(
            f"the EDoF sweep compares against floor(pi * len_x * len_z) "
            f"subchannels, which is 0 for geometry_t ({geom_t.len_x:g} x {geom_t.len_z:g} "
            "wavelengths)",
            field="geometry_t",
        )
    profile, nt_nr, extras = _mean_profile(config, geom_t, geom_r)
    results = capacity_degradation(profile, nt_nr, config.snr_grid_db, dof_ref)
    rows = [
        (
            row.snr_db,
            row.edof.n_s_star,
            row.edof.n_s_int,
            dof_ref,
            row.edof.capacity_at_int,
            row.capacity_ref,
            row.degradation,
        )
        for row in results
    ]
    # one clip for the whole grid: dof_ref above the profile's rank
    extras = {"profile_rank": profile.rank, "ref_clipped": results[0].ref_clipped,
              **extras}
    return SWEEP_HEADER, rows, extras


# command -> (product, allowed option keys, config panels it runs). A command
# runs one job on the config's panels; geometry_r defaults to geometry_t, and
# a panel the command does not run is refused. reproduce runs the product of
# its target on the panels the target fixes.
_COMMANDS = {
    "corr-eigs": (_spectrum, (), ("geometry_t",)),
    "channel-eigs": (_mean_std, (), _PANELS),
    "bounds-audit": (_bounds_report, ("slack",), _PANELS),
    "cdf": (_cdf, ("points",), _PANELS),
    "capacity-curve": (_capacity_curves, (), _PANELS),
    "edof-sweep": (_sweep, (), _PANELS),
    "reproduce": (None, (), ()),
}

# target -> (product, aperture in wavelengths, fixed column or None for
# --column or DESK_COLUMNS, output file stem). Each column is one job, both
# panels at the column's geometry at the aperture. Some targets are views of
# one product on the same panels and write identical tables: fig3 = table1,
# fig6 = table2, fig9 = fig8 and fig11 = fig10. A figure that plots a subset of a product's
# columns reuses that product rather than adding a narrower one.
_COLUMN_STEM = "{target}_{column}"
_TARGETS = {
    "table1": (_spectrum, FULL_APERTURE, None, _COLUMN_STEM),
    "table2": (_mean_std, FULL_APERTURE, None, _COLUMN_STEM),
    "fig3": (_spectrum, FULL_APERTURE, None, _COLUMN_STEM),
    "fig6": (_mean_std, FULL_APERTURE, None, _COLUMN_STEM),
    "fig7": (_capacity_curves, FULL_APERTURE, "quarter-lambda", "{target}"),
    "fig8": (_sweep, FULL_APERTURE, None, _COLUMN_STEM),
    "fig9": (_sweep, FULL_APERTURE, None, _COLUMN_STEM),
    "fig10": (_sweep, LARGE_APERTURE, "half-lambda", _COLUMN_STEM),
    "fig11": (_sweep, LARGE_APERTURE, "half-lambda", _COLUMN_STEM),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError naming the argument, so they
    leave through the JSON error payload instead of printed usage text."""

    def error(self, message):
        # "argument --seed: invalid int value: 'abc'", or a problem followed
        # by names: "the following arguments are required: --target"
        head, _, names = message.partition(": ")
        if head.startswith("argument "):
            name = head[len("argument "):]
        else:
            name = names.split()[0].rstrip(",") if names.split() else None
        raise ValidationError(message, field=name and name.lstrip("-"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ris-edof",
        description=(
            "Eigenvalue spectra of RIS spatial correlation and SNR-dependent "
            "effective degrees of freedom of the composite RIS-to-RIS channel"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name) for name in _COMMANDS}
    for p in subparsers.values():
        p.add_argument("--config", type=Path, help="JSON run-config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument(
            "--threads", type=int,
            help=(
                "Monte Carlo workers, at least 1 and at most half the CPUs "
                "this process may run on, which is the default; outputs do "
                "not depend on it. Each worker runs two draws at once, so it "
                "keeps two cores busy"
            ),
        )
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument(
            "--quick",
            action="store_true",
            help=f"run {QUICK_REALIZATIONS} realizations instead of the full count",
        )
        p.add_argument(
            "--allow-large",
            action="store_true",
            help="lift the element-count guard / enable large-aperture targets",
        )
    reproduce = subparsers["reproduce"]
    reproduce.add_argument("--target", required=True, choices=tuple(_TARGETS))
    reproduce.add_argument("--column", choices=sorted(COLUMN_SPACINGS))
    return parser


def _load_raw_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError(
            f"cannot read config {path}: {exc}", field="config"
        ) from exc
    except ValueError as exc:
        # JSONDecodeError, and integers past the int-to-str digit limit
        raise ValidationError(
            f"config {path} is not valid JSON: {exc}", field="config"
        ) from exc


def _jobs(args: argparse.Namespace, config: RunConfig):
    """The product to run, the manifest stem and the jobs: (column or None,
    CSV file stem, geom_t, geom_r) each."""
    target = getattr(args, "target", None)
    if target is None:
        stem = args.command.replace("-", "_")
        jobs = [(None, stem, config.geometry_t, config.geometry_r)]
        return _COMMANDS[args.command][0], stem, jobs

    product, aperture, fixed_column, stem = _TARGETS[target]
    if fixed_column and args.column not in (None, fixed_column):
        raise ValidationError(
            f"target {target!r} runs the {fixed_column!r} column only; "
            f"got --column {args.column!r}",
            field="column",
        )
    if aperture == LARGE_APERTURE and not args.allow_large:
        raise SizeGuardError(
            f"target {target!r} uses the {aperture:g}-wavelength aperture "
            "and takes hours at desk scale; pass --allow-large to run it"
        )
    column = fixed_column or args.column
    jobs = []
    for col in [column] if column else DESK_COLUMNS:
        geom = RisGeometry(aperture, aperture, *COLUMN_SPACINGS[col])
        jobs.append((col, stem.format(target=target, column=col), geom, geom))
    return product, f"reproduce_{target}", jobs


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = parse_config(_load_raw_config(args.config), args.command)
    if args.seed is not None:
        config.seed = _integer(args.seed, "seed", 0)
    if args.quick:
        config.realizations = QUICK_REALIZATIONS
    if args.threads is not None:
        _integer(args.threads, "threads", 1)
    # each worker runs two draw threads
    cap = max(1, _usable_cpus() // 2)
    config.threads = min(args.threads or cap, cap)
    if args.allow_large:
        config.max_elements = ALLOW_LARGE_MAX_ELEMENTS

    out_dir = args.out or Path(os.environ.get(OUTPUT_DIR_ENV, "out"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # an existing file, a file on the path, or no permission
        raise ValidationError(
            f"cannot create output directory {out_dir}: {exc}", field="out"
        ) from exc

    product, manifest_stem, jobs = _jobs(args, config)
    written = []
    for column, stem, geom_t, geom_r in jobs:
        header, rows, extras = product(config, geom_t, geom_r)
        path = out_dir / f"{stem}.csv"
        write_csv(path, header, rows)
        written.append((column, path, geom_t, geom_r, extras))
    write_manifest(
        out_dir / f"{manifest_stem}_manifest.json", args, config, written, started
    )
    return 0


def _emit_error(kind: str, exit_code: int, exc: Exception) -> int:
    message = str(exc)
    if kind == "internal":
        message = f"{type(exc).__name__}: {message}"
    error = {"kind": kind, "exit_code": exit_code, "message": message}
    if getattr(exc, "field", None):
        error["field"] = exc.field
    if getattr(exc, "diagnostics", None):
        error["diagnostics"] = exc.diagnostics
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ValidationError as exc:
        return _emit_error("validation", 2, exc)
    except SizeGuardError as exc:
        return _emit_error("size_guard", 3, exc)
    except NumericError as exc:
        return _emit_error("numeric", 4, exc)
    except Exception as exc:
        return _emit_error("internal", 1, exc)


if __name__ == "__main__":
    sys.exit(main())
