"""Command-line front end for reproducible experiments.

Every command reads an optional strict JSON config, writes CSV data files
plus a JSON manifest (inputs, seed, versions, wall time, output hashes),
and exits with a distinct code per failure class:

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_cdf import EigenProfilePair, cdf_table
from .channel_mc import ensemble_stats, run_ensemble
from .correlation import DEFAULT_MAX_ELEMENTS, geometry_spectrum
from .edof import (
    EigenvalueProfile,
    capacity_curve,
    capacity_degradation,
    snr_db_to_linear,
)
from .errors import NumericError, SizeGuardError, ValidationError
from .geometry import RisGeometry, asymptotic_dof
from .spectral_bounds import check_bounds, per_eig_bounds

OUTPUT_DIR_ENV = "RIS_EDOF_OUT"
ALLOW_LARGE_MAX_ELEMENTS = 100_000
QUICK_REALIZATIONS = 100
# (stop - start) / step within this many steps of a whole number counts as
# that number, so a stop one float rounding short of the last point keeps it.
SNR_GRID_TOL = 1e-9
# SNR values in dB must lie within +-SNR_DB_LIMIT (linear 1e-10 to 1e10, far
# beyond any physical link). Near +3080 dB the dB -> linear conversion
# overflows, and below about -160 dB every capacity rounds to 0.
SNR_DB_LIMIT = 100.0

COMMANDS = (
    "corr-eigs",
    "channel-eigs",
    "bounds-audit",
    "cdf",
    "capacity-curve",
    "edof-sweep",
    "reproduce",
)

# Reference-dataset columns: element spacings (x, z) in wavelengths.
COLUMN_SPACINGS = {
    "half-lambda": (0.5, 0.5),
    "third-lambda": (1.0 / 3.0, 0.5),
    "quarter-lambda": (0.25, 0.25),
    "sixth-lambda": (1.0 / 6.0, 1.0 / 6.0),
    "twelfth-lambda": (1.0 / 12.0, 1.0 / 12.0),
}
DESK_COLUMNS = ("half-lambda", "third-lambda", "quarter-lambda")
SCALED_ONLY_COLUMNS = ("sixth-lambda", "twelfth-lambda")
FULL_APERTURE = 12.0
SCALED_APERTURE = 6.0
LARGE_APERTURE = 32.0

REPRODUCE_TARGETS = (
    "table1",
    "table2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
)

DEFAULT_GEOMETRY = {"len_x": 12.0, "len_z": 12.0, "spacing_x": 0.5, "spacing_z": 0.5}

_GEOMETRY_KEYS = {"len_x", "len_z", "spacing_x", "spacing_z"}
_SNR_KEYS = {"start", "stop", "step"}
_TOP_KEYS = {
    "geometry_t",
    "geometry_r",
    "realizations",
    "seed",
    "snr_grid_db",
    "realizations_mode",
    "output_dir",
    "options",
}
_OPTION_KEYS = {
    "corr-eigs": set(),
    "channel-eigs": set(),
    "bounds-audit": {"slack"},
    "cdf": {"points"},
    "capacity-curve": {"snr_db"},
    "edof-sweep": set(),
    "reproduce": set(),
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
    realizations_mode: str = "full"
    output_dir: Path = Path("out")
    options: dict = field(default_factory=dict)
    threads: int = 1
    max_elements: int = DEFAULT_MAX_ELEMENTS

    @property
    def snr_grid_db(self) -> list[float]:
        steps = (self.snr_stop - self.snr_start) / self.snr_step
        count = int(math.floor(steps + SNR_GRID_TOL)) + 1
        return [self.snr_start + i * self.snr_step for i in range(count)]

    @property
    def effective_realizations(self) -> int:
        if self.realizations_mode == "quick":
            return QUICK_REALIZATIONS
        return self.realizations

    def describe(self) -> dict:
        return {
            "geometry_t": _geometry_dict(self.geometry_t),
            "geometry_r": _geometry_dict(self.geometry_r),
            "realizations": self.effective_realizations,
            "realizations_mode": self.realizations_mode,
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


def _geometry_dict(geom: RisGeometry) -> dict:
    return {
        "len_x": geom.len_x,
        "len_z": geom.len_z,
        "spacing_x": geom.spacing_x,
        "spacing_z": geom.spacing_z,
    }


def _check_keys(block: dict, allowed: set, where: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} in {where} (allowed: {sorted(allowed)})",
                field=key,
            )


def _parse_geometry(block, where: str) -> RisGeometry:
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object", field=where)
    _check_keys(block, _GEOMETRY_KEYS, where)
    for key in _GEOMETRY_KEYS:
        if key not in block:
            raise ValidationError(f"{where} is missing {key!r}", field=key)
        if not isinstance(block[key], (int, float)) or isinstance(block[key], bool):
            raise ValidationError(f"{where}.{key} must be a number", field=key)
    return RisGeometry(
        len_x=float(block["len_x"]),
        len_z=float(block["len_z"]),
        spacing_x=float(block["spacing_x"]),
        spacing_z=float(block["spacing_z"]),
    )


def _option_number(options: dict, key: str) -> float:
    value = options[key]
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise ValidationError(
            f"options.{key} must be a finite number, got {value!r}",
            field=f"options.{key}",
        )
    return float(value)


def _check_options(options: dict) -> None:
    """Type and range checks for the per-command options."""
    if "slack" in options and _option_number(options, "slack") < 0:
        raise ValidationError(
            f"options.slack must be >= 0, got {options['slack']!r}",
            field="options.slack",
        )
    if "points" in options:
        points = options["points"]
        if not isinstance(points, int) or isinstance(points, bool) or points < 2:
            raise ValidationError(
                f"options.points must be an integer >= 2, got {points!r}",
                field="options.points",
            )
    if "snr_db" in options and abs(_option_number(options, "snr_db")) > SNR_DB_LIMIT:
        raise ValidationError(
            f"options.snr_db must lie within [-{SNR_DB_LIMIT:g}, "
            f"{SNR_DB_LIMIT:g}] dB, got {options['snr_db']!r}",
            field="options.snr_db",
        )


def parse_config(raw: dict, command: str) -> RunConfig:
    """Strictly parse a config dict; unknown keys are rejected by name."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")

    geometry_t = _parse_geometry(raw.get("geometry_t", DEFAULT_GEOMETRY), "geometry_t")
    geometry_r = (
        _parse_geometry(raw["geometry_r"], "geometry_r")
        if "geometry_r" in raw
        else geometry_t
    )

    realizations = raw.get("realizations", 1000)
    if not isinstance(realizations, int) or isinstance(realizations, bool):
        raise ValidationError("realizations must be an integer", field="realizations")
    if realizations < 1:
        raise ValidationError(
            f"realizations must be >= 1, got {realizations}", field="realizations"
        )

    seed = raw.get("seed", 42)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError("seed must be a non-negative integer", field="seed")

    snr = raw.get("snr_grid_db", {"start": -10, "stop": 40, "step": 5})
    if isinstance(snr, list) and len(snr) == 3:
        snr = {"start": snr[0], "stop": snr[1], "step": snr[2]}
    if not isinstance(snr, dict):
        raise ValidationError(
            "snr_grid_db must be {start, stop, step} or [start, stop, step]",
            field="snr_grid_db",
        )
    _check_keys(snr, _SNR_KEYS, "snr_grid_db")
    try:
        start, stop, step = (
            float(snr["start"]),
            float(snr["stop"]),
            float(snr["step"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad snr_grid_db: {exc}", field="snr_grid_db") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(
            "snr_grid_db values must be finite", field="snr_grid_db"
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

    mode = raw.get("realizations_mode", "full")
    if mode not in ("full", "quick"):
        raise ValidationError(
            f"realizations_mode must be 'full' or 'quick', got {mode!r}",
            field="realizations_mode",
        )

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object", field="options")
    _check_keys(options, _OPTION_KEYS.get(command, set()), "options")
    _check_options(options)

    return RunConfig(
        geometry_t=geometry_t,
        geometry_r=geometry_r,
        realizations=realizations,
        seed=seed,
        snr_start=start,
        snr_stop=stop,
        snr_step=step,
        realizations_mode=mode,
        output_dir=Path(raw.get("output_dir", "out")),
        options=options,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row)
        )
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(
    path: Path, command: str, config: RunConfig, outputs: list[Path],
    started: float, extra: dict | None = None,
) -> None:
    payload = {
        "command": command,
        "config": config.describe(),
        "versions": {
            "ris_edof": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.perf_counter() - started, 3),
        "outputs": [
            {"file": out.name, "sha256": _sha256(out), "bytes": out.stat().st_size}
            for out in outputs
        ],
    }
    if extra:
        payload.update(extra)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )


def _spectrum_rows(values: np.ndarray):
    return ((k + 1, v) for k, v in enumerate(values))


def _ensemble_for(config: RunConfig):
    return run_ensemble(
        config.geometry_t,
        config.geometry_r,
        config.effective_realizations,
        config.seed,
        threads=config.threads,
        max_elements=config.max_elements,
    )


def _sweep_rows(profile: EigenvalueProfile, nt_nr: float, config: RunConfig,
                dof_ref: int):
    rows = []
    for row in capacity_degradation(profile, nt_nr, config.snr_grid_db, dof_ref):
        rows.append(
            (
                row.snr_db,
                row.edof.n_s_star,
                row.edof.n_s_int,
                dof_ref,
                row.edof.capacity_at_int,
                row.capacity_ref,
                row.degradation,
            )
        )
    return rows


SWEEP_HEADER = [
    "snr_db",
    "edof_real",
    "edof_int",
    "dof_ref",
    "capacity_edof",
    "capacity_dofref",
    "degradation",
]


def cmd_corr_eigs(config: RunConfig, out_dir: Path, started: float) -> int:
    values = geometry_spectrum(config.geometry_t, max_elements=config.max_elements)
    csv_path = out_dir / "corr_eigs.csv"
    write_csv(csv_path, ["k", "alpha_normalized"], _spectrum_rows(values))
    write_manifest(
        out_dir / "corr_eigs_manifest.json", "corr-eigs", config, [csv_path], started
    )
    return 0


def cmd_channel_eigs(config: RunConfig, out_dir: Path, started: float) -> int:
    ensemble = _ensemble_for(config)
    stats = ensemble_stats(ensemble)
    csv_path = out_dir / "channel_eigs.csv"
    write_csv(
        csv_path,
        ["k", "mean", "std"],
        (
            (k + 1, m, s)
            for k, (m, s) in enumerate(zip(stats.mean_profile, stats.std_profile))
        ),
    )
    write_manifest(
        out_dir / "channel_eigs_manifest.json",
        "channel-eigs",
        config,
        [csv_path],
        started,
        extra={"eigsum_mean": stats.eigsum_mean},
    )
    return 0


def cmd_bounds_audit(config: RunConfig, out_dir: Path, started: float) -> int:
    slack = float(config.options.get("slack", 0.10))
    ensemble = _ensemble_for(config)
    table = per_eig_bounds(
        ensemble.dt, ensemble.dr, ensemble.n_t, ensemble.n_r, slack=slack
    )
    violations = check_bounds(ensemble, table)
    report_path = out_dir / "bounds_audit.json"
    report = {
        "regime": table.regime,
        "slack": slack,
        "violations": [
            {
                "k": v.k,
                "realization": v.realization,
                "value": v.value,
                "bound": v.bound,
                "kind": v.kind,
            }
            for v in violations
        ],
    }
    report_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    write_manifest(
        out_dir / "bounds_audit_manifest.json",
        "bounds-audit",
        config,
        [report_path],
        started,
        extra={"violation_count": len(violations)},
    )
    return 0


def cmd_cdf(config: RunConfig, out_dir: Path, started: float) -> int:
    points = int(config.options.get("points", 200))
    dt = geometry_spectrum(config.geometry_t, max_elements=config.max_elements)
    dr = geometry_spectrum(config.geometry_r, max_elements=config.max_elements)
    pair = EigenProfilePair.from_values(dt[dt > 0], dr[dr > 0])
    alphas, f_vals = cdf_table(pair, num=points)
    csv_path = out_dir / "cdf.csv"
    write_csv(csv_path, ["alpha", "F"], zip(alphas, f_vals))
    write_manifest(
        out_dir / "cdf_manifest.json", "cdf", config, [csv_path], started
    )
    return 0


def cmd_capacity_curve(config: RunConfig, out_dir: Path, started: float) -> int:
    snr_db = float(config.options.get("snr_db", 10.0))
    ensemble = _ensemble_for(config)
    stats = ensemble_stats(ensemble)
    profile = EigenvalueProfile.from_mean_profile(stats.mean_profile)
    nt_nr = float(ensemble.n_t * ensemble.n_r)
    counts, caps, normalized = capacity_curve(
        profile, snr_db_to_linear(snr_db), nt_nr
    )
    csv_path = out_dir / "capacity_curve.csv"
    write_csv(
        csv_path,
        ["n_s", "capacity", "normalized_capacity"],
        zip(counts.tolist(), caps, normalized),
    )
    write_manifest(
        out_dir / "capacity_curve_manifest.json",
        "capacity-curve",
        config,
        [csv_path],
        started,
        extra={"snr_db": snr_db},
    )
    return 0


def cmd_edof_sweep(config: RunConfig, out_dir: Path, started: float) -> int:
    ensemble = _ensemble_for(config)
    stats = ensemble_stats(ensemble)
    profile = EigenvalueProfile.from_mean_profile(stats.mean_profile)
    nt_nr = float(ensemble.n_t * ensemble.n_r)
    dof_ref = asymptotic_dof(config.geometry_t)
    csv_path = out_dir / "edof_sweep.csv"
    write_csv(csv_path, SWEEP_HEADER, _sweep_rows(profile, nt_nr, config, dof_ref))
    write_manifest(
        out_dir / "edof_sweep_manifest.json",
        "edof-sweep",
        config,
        [csv_path],
        started,
    )
    return 0


def _reproduce_geometry(column: str, scaled: bool) -> RisGeometry:
    spacing_x, spacing_z = COLUMN_SPACINGS[column]
    aperture = SCALED_APERTURE if scaled else FULL_APERTURE
    return RisGeometry(aperture, aperture, spacing_x, spacing_z)


def _resolve_columns(column: str | None, scaled: bool) -> list[str]:
    if column is None:
        return list(DESK_COLUMNS)
    if column not in COLUMN_SPACINGS:
        raise ValidationError(
            f"unknown column {column!r} (choose from {sorted(COLUMN_SPACINGS)})",
            field="column",
        )
    if column in SCALED_ONLY_COLUMNS and not scaled:
        raise SizeGuardError(
            f"column {column!r} at the {FULL_APERTURE:g}-wavelength aperture is "
            "beyond desk scale (eigendecomposition of tens of thousands "
            "of elements); pass --scaled to run the "
            f"{SCALED_APERTURE:g}-wavelength-aperture alternative instead"
        )
    return [column]


def cmd_reproduce(
    config: RunConfig,
    out_dir: Path,
    started: float,
    target: str,
    column: str | None,
    scaled: bool,
    allow_large: bool,
) -> int:
    if target not in REPRODUCE_TARGETS:
        raise ValidationError(
            f"unknown target {target!r} (choose from {REPRODUCE_TARGETS})",
            field="target",
        )
    if target in ("fig10", "fig11") and not allow_large:
        raise SizeGuardError(
            f"target {target!r} uses the {LARGE_APERTURE:g}-wavelength aperture "
            "and takes hours at desk scale; pass --allow-large to run it"
        )

    outputs: list[Path] = []
    # the geometry each column ran, for both panels
    geometries: dict[str, dict] = {}

    def _columns():
        cols = _resolve_columns(column, scaled)
        if scaled and column is None:
            cols = list(SCALED_ONLY_COLUMNS)
        return cols

    if target in ("table1", "fig3"):
        for col in _columns():
            geom = _reproduce_geometry(col, scaled and col in SCALED_ONLY_COLUMNS)
            geometries[col] = _geometry_dict(geom)
            values = geometry_spectrum(geom, max_elements=config.max_elements)
            path = out_dir / f"{target}_{col}.csv"
            write_csv(path, ["k", "alpha_normalized"], _spectrum_rows(values))
            outputs.append(path)
    elif target in ("table2", "fig6"):
        for col in _columns():
            geom = _reproduce_geometry(col, scaled and col in SCALED_ONLY_COLUMNS)
            geometries[col] = _geometry_dict(geom)
            ensemble = run_ensemble(
                geom,
                geom,
                config.effective_realizations,
                config.seed,
                threads=config.threads,
                max_elements=config.max_elements,
            )
            stats = ensemble_stats(ensemble)
            path = out_dir / f"{target}_{col}.csv"
            if target == "table2":
                write_csv(
                    path,
                    ["k", "mean", "std"],
                    (
                        (k + 1, m, s)
                        for k, (m, s) in enumerate(
                            zip(stats.mean_profile, stats.std_profile)
                        )
                    ),
                )
            else:
                write_csv(
                    path,
                    ["k", "mean"],
                    ((k + 1, m) for k, m in enumerate(stats.mean_profile)),
                )
            outputs.append(path)
    elif target == "fig7":
        geom = _reproduce_geometry("quarter-lambda", False)
        geometries["quarter-lambda"] = _geometry_dict(geom)
        ensemble = run_ensemble(
            geom,
            geom,
            config.effective_realizations,
            config.seed,
            threads=config.threads,
            max_elements=config.max_elements,
        )
        stats = ensemble_stats(ensemble)
        profile = EigenvalueProfile.from_mean_profile(stats.mean_profile)
        nt_nr = float(geom.n * geom.n)
        path = out_dir / "fig7.csv"
        rows = []
        for snr_db in range(-10, 41, 10):
            counts, caps, normalized = capacity_curve(
                profile, snr_db_to_linear(snr_db), nt_nr
            )
            rows.extend(
                (snr_db, int(n), c, nc)
                for n, c, nc in zip(counts.tolist(), caps, normalized)
            )
        write_csv(
            path, ["snr_db", "n_s", "capacity", "normalized_capacity"], rows
        )
        outputs.append(path)
    elif target in ("fig8", "fig9", "fig10", "fig11"):
        large = target in ("fig10", "fig11")
        aperture = LARGE_APERTURE if large else FULL_APERTURE
        cols = ["half-lambda"] if large else _columns()
        max_elements = (
            max(config.max_elements, ALLOW_LARGE_MAX_ELEMENTS)
            if large
            else config.max_elements
        )
        for col in cols:
            spacing_x, spacing_z = COLUMN_SPACINGS[col]
            if scaled and col in SCALED_ONLY_COLUMNS:
                geom = _reproduce_geometry(col, True)
            else:
                geom = RisGeometry(aperture, aperture, spacing_x, spacing_z)
            geometries[col] = _geometry_dict(geom)
            ensemble = run_ensemble(
                geom,
                geom,
                config.effective_realizations,
                config.seed,
                threads=config.threads,
                max_elements=max_elements,
            )
            stats = ensemble_stats(ensemble)
            profile = EigenvalueProfile.from_mean_profile(stats.mean_profile)
            nt_nr = float(geom.n * geom.n)
            dof_ref = asymptotic_dof(geom)
            path = out_dir / f"{target}_{col}.csv"
            write_csv(
                path, SWEEP_HEADER, _sweep_rows(profile, nt_nr, config, dof_ref)
            )
            outputs.append(path)

    # reproduce ignores the config's geometry_t/geometry_r
    described = {
        key: value
        for key, value in config.describe().items()
        if key not in ("geometry_t", "geometry_r")
    }
    write_manifest(
        out_dir / f"reproduce_{target}_manifest.json",
        "reproduce",
        config,
        outputs,
        started,
        extra={
            "config": described,
            "target": target,
            "column": column,
            "scaled": scaled,
            "geometries": geometries,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-edof",
        description=(
            "Eigenvalue spectra of RIS spatial correlation and SNR-dependent "
            "effective degrees of freedom of the composite RIS-to-RIS channel"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="JSON run-config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument(
            "--threads", type=int, default=1,
            help="worker cap (at most the CPU count)",
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
        p.add_argument(
            "--scaled",
            action="store_true",
            help="substitute the reduced-aperture variant for dense columns",
        )
        if name == "reproduce":
            p.add_argument("--target", required=True, choices=REPRODUCE_TARGETS)
            p.add_argument("--column", choices=sorted(COLUMN_SPACINGS))
    return parser


def _load_raw_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = parse_config(_load_raw_config(args.config), args.command)
    if args.seed is not None:
        config.seed = args.seed
    if args.quick:
        config.realizations_mode = "quick"
    if args.threads < 1:
        raise ValidationError(
            f"threads must be >= 1, got {args.threads}", field="threads"
        )
    config.threads = min(args.threads, os.cpu_count() or 1)
    if args.allow_large:
        config.max_elements = ALLOW_LARGE_MAX_ELEMENTS

    out_dir = args.out or Path(os.environ.get(OUTPUT_DIR_ENV, config.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "corr-eigs":
        return cmd_corr_eigs(config, out_dir, started)
    if args.command == "channel-eigs":
        return cmd_channel_eigs(config, out_dir, started)
    if args.command == "bounds-audit":
        return cmd_bounds_audit(config, out_dir, started)
    if args.command == "cdf":
        return cmd_cdf(config, out_dir, started)
    if args.command == "capacity-curve":
        return cmd_capacity_curve(config, out_dir, started)
    if args.command == "edof-sweep":
        return cmd_edof_sweep(config, out_dir, started)
    if args.command == "reproduce":
        return cmd_reproduce(
            config,
            out_dir,
            started,
            target=args.target,
            column=args.column,
            scaled=args.scaled,
            allow_large=args.allow_large,
        )
    raise ValidationError(f"unknown command {args.command!r}")


def _emit_error(kind: str, exit_code: int, exc: Exception) -> int:
    message = str(exc)
    if kind == "internal":
        message = f"{type(exc).__name__}: {message}"
    payload = {
        "error": {
            "kind": kind,
            "exit_code": exit_code,
            "message": message,
        }
    }
    field_name = getattr(exc, "field", None)
    if field_name:
        payload["error"]["field"] = field_name
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
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
