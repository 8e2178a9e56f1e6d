"""Command-line front end for reproducible experiments.

Every run reads an optional strict JSON config and is a list of jobs. A job
is one product call on one (geometry_t, geometry_r) pair, one step of the
geometry -> spectrum -> profile -> EDoF chain, and writes one CSV table. A
command runs one job on the config's panels; a reproduce target runs one job
per column, both panels at the column's geometry. One JSON manifest per run
records the command, target and column, the run-level config, versions, wall
time and composite kernel, and per job its file, sha256, size, panels and the
product's extras. A run exits with a distinct code per failure class:

    0  success
    1  unexpected internal error
    2  config or input validation error
    3  size-guard refusal
    4  numeric failure

Identical config + seed produces byte-identical CSV files; the manifest
records everything needed to re-run them.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .blas import composite_kernel
from .channel_mc import ensemble_from_spectra, ensemble_stats
from .correlation import DEFAULT_MAX_ELEMENTS, SpectrumLog, geometry_spectrum
from .edof import (
    EigenvalueProfile,
    capacity_curve,
    capacity_degradation,
    snr_db_to_linear,
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
    realizations: int = 1000
    seed: int = 42
    snr_start: float = -10.0
    snr_stop: float = 40.0
    snr_step: float = 5.0
    options: dict = field(default_factory=dict)
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


def _check_options(options: dict) -> None:
    """Type and range checks for the per-command options."""
    slack = options.get("slack", 0.0)
    if _number(slack, "options.slack", "options.slack") < 0:
        raise ValidationError(
            f"options.slack must be >= 0, got {slack!r}",
            field="options.slack",
        )
    if "points" in options:
        points = options["points"]
        if (
            not isinstance(points, int)
            or isinstance(points, bool)
            or not 2 <= points <= MAX_GRID_POINTS
        ):
            raise ValidationError(
                f"options.points must be an integer in [2, {MAX_GRID_POINTS}], "
                f"got {points!r}",
                field="options.points",
            )


def _check_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError("seed must be a non-negative integer", field="seed")
    return seed


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

    realizations = raw.get("realizations", 1000)
    if not isinstance(realizations, int) or isinstance(realizations, bool):
        raise ValidationError("realizations must be an integer", field="realizations")
    # the Monte Carlo statistics need two draws; refuse before any is made
    if not 2 <= realizations <= MAX_REALIZATIONS:
        raise ValidationError(
            f"realizations must be in [2, {MAX_REALIZATIONS}], got {realizations}",
            field="realizations",
        )

    seed = _check_seed(raw.get("seed", 42))

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
        "composite_kernel": composite_kernel(),
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


def _ensemble(config: RunConfig, geom_t: RisGeometry, geom_r: RisGeometry):
    dt, dr = _spectra(config, geom_t, geom_r)
    return ensemble_from_spectra(
        dt, dr, config.realizations, config.seed, threads=config.threads
    )


def _mean_profile(config: RunConfig, geom_t: RisGeometry, geom_r: RisGeometry):
    """Monte Carlo mean eigenvalue profile and n_t * n_r."""
    ensemble = _ensemble(config, geom_t, geom_r)
    stats = ensemble_stats(ensemble)
    profile = EigenvalueProfile.from_values(stats.mean_profile)
    return profile, float(ensemble.dt.size * ensemble.dr.size)


# Products: (config, geom_t, geom_r) -> (header, rows, the job's extras).


def _spectrum(config, geom_t, geom_r):
    log = SpectrumLog()
    values = geometry_spectrum(geom_t, max_elements=config.max_elements, log=log)
    return ["k", "alpha_normalized"], _indexed(values), asdict(log)


def _mean_std(config, geom_t, geom_r):
    stats = ensemble_stats(_ensemble(config, geom_t, geom_r))
    rows = _indexed(stats.mean_profile, stats.std_profile)
    return ["k", "mean", "std"], rows, {"eigsum_mean": stats.eigsum_mean}


def _bounds_report(config, geom_t, geom_r):
    slack = float(config.options.get("slack", DEFAULT_SLACK))
    ensemble = _ensemble(config, geom_t, geom_r)
    table = per_eig_bounds(ensemble.dt, ensemble.dr, slack=slack)
    violations = check_bounds(ensemble.eig_samples, table)
    extras = {
        "regime": table.regime,
        "slack": slack,
        "violation_count": len(violations),
    }
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
    profile, nt_nr = _mean_profile(config, geom_t, geom_r)
    rows = []
    for snr_db in config.snr_grid_db:
        counts, caps, normalized = capacity_curve(
            profile, snr_db_to_linear(snr_db), nt_nr
        )
        rows += [(snr_db, *row) for row in zip(counts.tolist(), caps, normalized)]
    return ["snr_db", "n_s", "capacity", "normalized_capacity"], rows, {}


def _sweep(config, geom_t, geom_r):
    dof_ref = asymptotic_dof(geom_t)
    if dof_ref < 1:
        raise ValidationError(
            f"the EDoF sweep compares against floor(pi * len_x * len_z) "
            f"subchannels, which is 0 for geometry_t ({geom_t.len_x:g} x {geom_t.len_z:g} "
            "wavelengths)",
            field="geometry_t",
        )
    profile, nt_nr = _mean_profile(config, geom_t, geom_r)
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
    extras = {"profile_rank": profile.rank, "ref_clipped": results[0].ref_clipped}
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
            "--threads", type=int, default=1,
            help=(
                "Monte Carlo workers (at most half the CPU count, and at "
                "least 1); outputs do not depend on it. Each worker runs two "
                "draws at once, on an OpenBLAS pinned to one thread, so it "
                "keeps two cores busy: on 2 cores, a second "
                "worker made fig8 half-lambda --quick no faster (8.7-9.8 s "
                "against 8.4-9.7 s)"
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


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = parse_config(_load_raw_config(args.config), args.command)
    if args.seed is not None:
        config.seed = _check_seed(args.seed)
    if args.quick:
        config.realizations = QUICK_REALIZATIONS
    if args.threads < 1:
        raise ValidationError(
            f"threads must be >= 1, got {args.threads}", field="threads"
        )
    # each worker runs two draw threads
    config.threads = min(args.threads, max(1, (os.cpu_count() or 1) // 2))
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
