import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import ris_edof
from ris_edof import analytic_cdf, blas, channel_mc
from ris_edof import cli
from ris_edof.cli import (
    ALLOW_LARGE_MAX_ELEMENTS,
    DESK_COLUMNS,
    GATE_TOL,
    GATED_REALIZATIONS,
    MAX_GRID_POINTS,
    MAX_REALIZATIONS,
    main,
    parse_config,
)
from ris_edof.correlation import (
    DEFAULT_MAX_ELEMENTS,
    effective_rank,
    geometry_spectrum,
)
from ris_edof.edof import EigenvalueProfile
from ris_edof.errors import ValidationError
from ris_edof.geometry import RisGeometry

TINY = {
    "geometry_t": {"len_x": 3, "len_z": 3, "spacing_x": 0.5, "spacing_z": 0.5},
    "realizations": 30,
    "seed": 7,
    "snr_grid_db": {"start": -10, "stop": 10, "step": 10},
}
HALF_HALF = {"len_x": 0.5, "len_z": 0.5, "spacing_x": 0.5, "spacing_z": 0.5}
# 3 x 3 elements, as a 1-wavelength panel at half-wavelength spacing
TIGHT_1 = {"len_x": 0.8, "len_z": 0.8, "spacing_x": 0.4, "spacing_z": 0.4}
BOUNDS_HEADER = ["k", "realization", "value", "bound", "kind"]
# the extras of a Monte Carlo job that drew in complex128 without the gate;
# every Monte Carlo job also names the eigensolver its draws ran on
UNGATED = {"precision": "complex128", "gate_delta_edof": None, "gate_snr_db": None}


@pytest.fixture
def no_draws(monkeypatch):
    """Fails the run (exit 1) if any Monte Carlo ensemble is drawn."""

    def refuse(*args, **kwargs):
        raise RuntimeError("a Monte Carlo draw was made")

    monkeypatch.setattr("ris_edof.cli.ensemble_from_spectra", refuse)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_invalid_spacing_exits_2_with_field(tmp_path, capsys):
    bad = dict(TINY)
    bad["geometry_t"] = {"len_x": 3, "len_z": 3, "spacing_x": 0, "spacing_z": 0.5}
    cfg = write_config(tmp_path, bad)
    code = main(["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == "spacing_x"
    assert "spacing_x" in err["error"]["message"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry_q": {}})
    code = main(["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "geometry_q" in err["error"]["message"]


@pytest.mark.parametrize(
    "key, value", [("realizations_mode", "quick"), ("output_dir", 5)]
)
def test_removed_config_keys_exit_2_naming_them(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, dict(TINY, **{key: value}))
    code = main(["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == key


@pytest.mark.parametrize(
    "text",
    [None, "{not json", "[1, 2]", '{"seed": ' + "1" * 5000 + "}"],
    ids=["missing", "invalid-json", "non-object", "huge-int"],
)
def test_unusable_config_file_exits_2_naming_config(tmp_path, capsys, text):
    # a missing file, invalid JSON, a non-object root, and an integer past
    # Python's int-to-str digit limit
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    code = main(["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == "config"


@pytest.mark.parametrize(
    "geometry, field",
    [
        ({"len_x": 1e308, "len_z": 3, "spacing_x": 1e-10, "spacing_z": 0.5},
         "spacing_x"),
        ({"len_x": 10**400, "len_z": 3, "spacing_x": 0.5, "spacing_z": 0.5},
         "len_x"),
        # and geometries that are no geometry
        ([3, 3, 0.5, 0.5], "geometry_t"),
        ({"len_x": 3, "len_z": 3, "spacing_x": 0.5}, "spacing_z"),
    ],
    ids=["side-count", "huge-int", "not-an-object", "missing-key"],
)
def test_geometry_overflow_exits_2_naming_field(tmp_path, capsys, geometry, field):
    cfg = write_config(tmp_path, dict(TINY, geometry_t=geometry))
    code = main(["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == field


@pytest.mark.parametrize(
    "geometry_t, geometry_r",
    [
        ({"len_x": 1, "len_z": 1, "spacing_x": 0.5, "spacing_z": 0.5},
         {"len_x": 1.5, "len_z": 1.5, "spacing_x": 0.5, "spacing_z": 0.5}),
        ({"len_x": 1.5, "len_z": 1.5, "spacing_x": 0.5, "spacing_z": 0.5},
         {"len_x": 1, "len_z": 1, "spacing_x": 0.5, "spacing_z": 0.5}),
    ],
)
def test_cdf_with_unequal_panels_exits_2_naming_geometry_r(
    tmp_path, capsys, geometry_t, geometry_r
):
    payload = {"geometry_t": geometry_t, "geometry_r": geometry_r,
               "options": {"points": 3}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    code = main(["cdf", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "geometry_r"
    assert not any(out.glob("*"))


# spacing 1/6 on both panels: 8 x 4 elements with 32 positive values, and
# 16 x 2 elements whose smallest value clamps to 0
SIXTH_8X4 = {"len_x": 7 / 6, "len_z": 0.5, "spacing_x": 1 / 6, "spacing_z": 1 / 6}
SIXTH_16X2 = {"len_x": 2.5, "len_z": 1 / 6, "spacing_x": 1 / 6, "spacing_z": 1 / 6}


@pytest.mark.parametrize(
    "geometry_t, geometry_r, field, counts",
    [
        (SIXTH_8X4, SIXTH_16X2, "geometry_r", (32, 31)),
        (SIXTH_16X2, SIXTH_8X4, "geometry_t", (31, 32)),
    ],
    ids=["short-receive", "short-transmit"],
)
def test_cdf_with_unequal_positive_counts_names_the_short_panel(
    tmp_path, capsys, geometry_t, geometry_r, field, counts
):
    payload = {"geometry_t": geometry_t, "geometry_r": geometry_r,
               "options": {"points": 3}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    code = main(["cdf", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == field
    message = "geometry_t has {} and geometry_r {}".format(*counts)
    assert message in err["error"]["message"]
    assert not any(out.glob("*"))


def test_quick_flag_records_quick_realizations(tmp_path):
    payload = {
        "geometry_t": {"len_x": 0.5, "len_z": 0.5, "spacing_x": 0.5, "spacing_z": 0.5},
        "realizations": 7,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    code = main(["channel-eigs", "--config", str(cfg), "--out", str(out), "--quick"])
    assert code == 0
    manifest = json.loads((out / "channel_eigs_manifest.json").read_text())
    assert manifest["config"]["realizations"] == 100
    assert "realizations_mode" not in manifest["config"]


def test_parse_config_defaults():
    config = parse_config({}, "corr-eigs")
    assert config.realizations == 1000
    assert config.seed == 42
    assert config.snr_grid_db == [-10.0 + 5.0 * i for i in range(11)]
    assert config.geometry_t.n == 625


def test_snr_grid_keeps_endpoint_lost_to_rounding():
    config = parse_config({"snr_grid_db": [0, 0.3, 0.1]}, "edof-sweep")
    assert config.snr_grid_db == [0.1 * i for i in range(4)]


@pytest.mark.parametrize("step", [1e-9, 5e-324])
def test_snr_grid_point_count_is_capped(step):
    # 2e11 points, and an infinite count: both refused before any list is built
    with pytest.raises(ValidationError) as info:
        parse_config({"snr_grid_db": [-100, 100, step]}, "edof-sweep")
    assert info.value.field == "snr_grid_db"


def test_snr_grid_at_the_point_cap_is_accepted():
    finest = parse_config({"snr_grid_db": [-50, 50, 0.01]}, "edof-sweep")
    assert len(finest.snr_grid_db) == MAX_GRID_POINTS


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_snr_grid_exits_2(tmp_path, capsys, index, value):
    grid = [-10.0, 10.0, 10.0]
    grid[index] = value
    cfg = write_config(tmp_path, dict(TINY, snr_grid_db=grid))
    code = main(["edof-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "snr_grid_db"


@pytest.mark.parametrize(
    "grid",
    [[0, True, 1], [False, 10, 1], [0, 10, True], ["0", 10, 1], [0, 10**400, 1]],
)
def test_snr_grid_refuses_bools_strings_and_huge_ints(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, dict(TINY, snr_grid_db=grid))
    code = main(["edof-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "snr_grid_db"


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, TINY)
    code = main(
        ["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o"),
         "--threads", str(threads)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "threads"


def test_threads_capped_at_cpu_count(tmp_path):
    # two realizations bound the worker count whatever the cap does; each
    # worker runs two draw threads, so the cap is half the CPUs the process
    # may run on
    payload = {
        "geometry_t": {"len_x": 0.5, "len_z": 0.5, "spacing_x": 0.5, "spacing_z": 0.5},
        "realizations": 2,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    cpus = cli._usable_cpus()
    code = main(
        ["channel-eigs", "--config", str(cfg), "--out", str(out),
         "--threads", str(cpus + 5)]
    )
    assert code == 0
    manifest = json.loads((out / "channel_eigs_manifest.json").read_text())
    assert manifest["config"]["threads"] == max(1, cpus // 2)


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    # a run pinned to 2 of 64 CPUs caps the workers at 1, not 32
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 5}, raising=False)
    assert cli._usable_cpus() == 2
    # without the call (macOS, Windows) every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_edof_sweep_csv_does_not_depend_on_threads(tmp_path, monkeypatch):
    # 5 draws: one worker runs them on 2 threads, two workers on 4; 4 CPUs
    # let 2 workers through the cap on any machine
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    cfg = write_config(tmp_path, dict(TINY, geometry_r=HALF_2, realizations=5))
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = ["edof-sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--threads", threads]) == 0
        digests.add(hashlib.sha256((out / "edof_sweep.csv").read_bytes()).hexdigest())
    assert len(digests) == 1


def test_threads_default_to_the_cap(tmp_path, monkeypatch):
    # 4 CPUs cap the workers at 2; a run without --threads takes the cap and
    # writes the bytes of one worker
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    cfg = write_config(tmp_path, dict(TINY, geometry_r=HALF_2, realizations=5))
    runs = {"default": [], "one": ["--threads", "1"]}
    for name, flags in runs.items():
        argv = ["edof-sweep", "--config", str(cfg), "--out", str(tmp_path / name)]
        assert main(argv + flags) == 0
    default, one = (tmp_path / name for name in runs)
    manifest = json.loads((default / "edof_sweep_manifest.json").read_text())
    assert manifest["config"]["threads"] == 2
    csv = "edof_sweep.csv"
    assert (default / csv).read_bytes() == (one / csv).read_bytes()


@pytest.mark.parametrize(
    "argv, symmetries",
    [
        (["corr-eigs", "--config"], ["swap"]),
        (["reproduce", "--target", "fig3", "--config"], ["swap", "parity", "swap"]),
    ],
    ids=["corr-eigs", "fig3"],
)
def test_spectrum_jobs_record_their_diagnostics(tmp_path, argv, symmetries):
    payload = {"geometry_t": TINY["geometry_t"]} if argv[0] == "corr-eigs" else {}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(argv + [str(cfg), "--out", str(out)]) == 0
    (path,) = out.glob("*_manifest.json")
    jobs = json.loads(path.read_text())["jobs"]
    assert [job["extras"]["symmetry"] for job in jobs] == symmetries
    for job in jobs:
        extras, geom = job["extras"], RisGeometry(**job["geometry_t"])
        assert set(extras) == {"symmetry", "blocks", "trace", "min_eigenvalue",
                               "rank", "eigensolver"}
        solver = "eigvalsh" if blas.load() is None else "dsyevd"
        assert extras["eigensolver"] == solver
        assert sum(rows * count for rows, count in extras["blocks"]) == geom.n
        # the trace is R's, whose diagonal is 1
        assert extras["trace"] == pytest.approx(geom.n, rel=1e-12)
        values = geometry_spectrum(geom)
        header, rows = read_csv(out / job["file"])
        assert [row[1] for row in rows] == [format(v, ".12g") for v in values]
        assert extras["rank"] == effective_rank(values)
        # the spectrum is R's eigenvalues over N, a negative one clamped to 0
        smallest = extras["min_eigenvalue"]
        if smallest >= 0:
            assert values[-1] == smallest / geom.n
        else:
            assert values[-1] == 0.0 and -smallest <= 1e-10 * geom.n * values[0]


def test_corr_eigs_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["corr-eigs", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["corr-eigs", "--config", str(cfg), "--out", str(out_b)]) == 0
    csv_a = (out_a / "corr_eigs.csv").read_bytes()
    csv_b = (out_b / "corr_eigs.csv").read_bytes()
    assert csv_a == csv_b
    header, rows = read_csv(out_a / "corr_eigs.csv")
    assert header == ["k", "alpha_normalized"]
    assert len(rows) == 49
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads((out_a / "corr_eigs_manifest.json").read_text())
    assert manifest["command"] == "corr-eigs"
    assert manifest["jobs"][0]["sha256"] == hashlib.sha256(csv_a).hexdigest()


def test_channel_eigs_sidecar_and_reproducibility(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["channel-eigs", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["channel-eigs", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "channel_eigs.csv").read_bytes() == (
        out_b / "channel_eigs.csv"
    ).read_bytes()
    manifest = json.loads((out_a / "channel_eigs_manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["realizations"] == 30
    assert manifest["jobs"][0]["geometry_t"]["len_x"] == 3
    assert "wall_time_s" in manifest
    header, rows = read_csv(out_a / "channel_eigs.csv")
    assert header == ["k", "mean", "std"]
    assert len(rows) == 49


def test_seed_flag_changes_channel_output(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["channel-eigs", "--config", str(cfg), "--out", str(out_a)])
    main(
        ["channel-eigs", "--config", str(cfg), "--out", str(out_b), "--seed", "8"]
    )
    assert (out_a / "channel_eigs.csv").read_bytes() != (
        out_b / "channel_eigs.csv"
    ).read_bytes()


def test_bounds_audit_report(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["bounds-audit", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "bounds_audit.csv")
    assert header == BOUNDS_HEADER
    manifest = json.loads((out / "bounds_audit_manifest.json").read_text())
    extras = manifest["jobs"][0]["extras"]
    assert extras["regime"] == "nt_approx_nr"
    assert extras["slack"] == 0.1
    assert extras["violation_count"] == len(rows)


def test_bounds_audit_rows_lie_outside_their_bounds(tmp_path):
    # 2 x 2 transmit against 7 x 7 receive elements at slack 0: the
    # nt_much_less regime, with violations
    payload = dict(TINY, geometry_t=HALF_HALF, geometry_r=TINY["geometry_t"],
                   options={"slack": 0})
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["bounds-audit", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "bounds_audit.csv")
    assert header == BOUNDS_HEADER
    extras = json.loads((out / "bounds_audit_manifest.json").read_text())["jobs"][0][
        "extras"
    ]
    assert extras == {
        "regime": "nt_much_less", "slack": 0.0, "violation_count": len(rows),
        **UNGATED, "eigensolver": blas.eigensolver(np.complex128, 4),
    }
    assert rows
    for k, realization, value, bound, kind in rows:
        assert kind in ("upper", "lower")
        assert 1 <= int(k) <= 4 and 0 <= int(realization) < 30
        assert (float(value) > float(bound)) == (kind == "upper")


def test_cdf_command_on_small_panel(tmp_path):
    payload = {
        "geometry_t": {"len_x": 1, "len_z": 1, "spacing_x": 0.5, "spacing_z": 0.5},
        "options": {"points": 40},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["cdf", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "cdf.csv")
    assert header == ["alpha", "F"]
    f_vals = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(f_vals) >= -1e-12)
    assert f_vals[-1] <= 1.0 + 1e-12


def test_capacity_curve_command(tmp_path):
    # one curve of rank rows per point of TINY's three-point SNR grid
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["capacity-curve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["channel-eigs", "--config", str(cfg), "--out", str(out)]) == 0
    _, means = read_csv(out / "channel_eigs.csv")
    rank = EigenvalueProfile.from_values([float(r[1]) for r in means]).rank
    header, rows = read_csv(out / "capacity_curve.csv")
    assert header == ["snr_db", "n_s", "capacity", "normalized_capacity"]
    snrs = parse_config(TINY, "capacity-curve").snr_grid_db
    assert [float(r[0]) for r in rows] == [s for s in snrs for _ in range(rank)]
    for i in range(len(snrs)):
        curve = rows[i * rank:(i + 1) * rank]
        assert [int(r[1]) for r in curve] == list(range(1, rank + 1))
        assert max(float(r[3]) for r in curve) == 1.0


def test_edof_sweep_on_a_panel_with_no_reference_dof_exits_2(
    tmp_path, capsys, no_draws
):
    # floor(pi * 0.5 * 0.5) = 0 reference subchannels
    payload = {
        "geometry_t": {"len_x": 0.5, "len_z": 0.5, "spacing_x": 0.5, "spacing_z": 0.5},
        "realizations": 4,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["edof-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "geometry_t"
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "argv",
    [
        ["channel-eigs"],
        ["capacity-curve"],
        ["edof-sweep"],
        ["bounds-audit"],
        ["reproduce", "--target", "fig8", "--column", "half-lambda"],
    ],
    ids=["channel-eigs", "capacity-curve", "edof-sweep", "bounds-audit", "fig8"],
)
def test_one_realization_exits_2_before_any_draw(tmp_path, capsys, no_draws, argv):
    cfg = write_config(tmp_path, {"realizations": 1})
    out = tmp_path / "o"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "realizations"
    assert not any(out.glob("*"))


@pytest.mark.parametrize("realizations", [10**15, 10**30], ids=["1e15", "1e30"])
def test_oversized_realizations_exit_2_before_any_spectrum(
    tmp_path, capsys, monkeypatch, no_draws, realizations
):
    # 1e15 draws of a 2 x 2 panel asked numpy for 28.4 PiB, and 1e30 passed
    # numpy's largest dimension
    def refuse(*args, **kwargs):
        raise RuntimeError("a spectrum was built")

    monkeypatch.setattr("ris_edof.cli.geometry_spectrum", refuse)
    payload = {"geometry_t": HALF_HALF, "realizations": realizations}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["channel-eigs", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "realizations"
    assert not any(out.glob("*"))


def test_realizations_at_the_cap_are_accepted():
    config = parse_config({"realizations": MAX_REALIZATIONS}, "channel-eigs")
    assert config.realizations == MAX_REALIZATIONS == 100_000


def test_edof_sweep_command(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["edof-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "edof_sweep.csv")
    assert header == [
        "snr_db",
        "edof_real",
        "edof_int",
        "dof_ref",
        "capacity_edof",
        "capacity_dofref",
        "degradation",
    ]
    assert len(rows) == 3  # -10, 0, 10
    assert all(float(r[6]) >= 0.0 for r in rows)
    assert all(int(r[3]) == 28 for r in rows)  # floor(pi * 9)


HALF_1 = {"len_x": 1, "len_z": 1, "spacing_x": 0.5, "spacing_z": 0.5}
HALF_2 = {"len_x": 2, "len_z": 2, "spacing_x": 0.5, "spacing_z": 0.5}


@pytest.mark.parametrize(
    "command, payload, builds",
    [
        ("cdf", {"geometry_t": HALF_1, "options": {"points": 2}}, 1),
        ("edof-sweep", dict(TINY, geometry_r=HALF_2, realizations=2), 2),
    ],
    ids=["cdf-one-panel", "sweep-two-panels"],
)
def test_one_spectrum_per_distinct_panel(
    tmp_path, monkeypatch, command, payload, builds
):
    built = []

    def counted(geom, **kwargs):
        built.append(geom)
        return geometry_spectrum(geom, **kwargs)

    monkeypatch.setattr("ris_edof.cli.geometry_spectrum", counted)
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(built) == builds
    assert len(set(built)) == builds

def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, TINY)
    target = tmp_path / "from_env"
    monkeypatch.setenv("RIS_EDOF_OUT", str(target))
    assert main(["corr-eigs", "--config", str(cfg)]) == 0
    assert (target / "corr_eigs.csv").exists()


@pytest.mark.parametrize("via", ["flag", "env"])
def test_output_dir_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch, via):
    cfg = write_config(tmp_path, TINY)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    argv = ["corr-eigs", "--config", str(cfg)]
    if via == "flag":
        argv += ["--out", str(blocker)]  # an existing file
    else:
        monkeypatch.setenv("RIS_EDOF_OUT", str(blocker / "sub"))  # under a file
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == "out"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("name", ["corr_eigs.csv", "corr_eigs_manifest.json"])
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    assert main(["corr-eigs", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["field"]) == ("validation", "out")
    assert name in err["message"]


def test_importing_the_cli_leaves_mpmath_unloaded():
    # only the cdf command needs mpmath; it imports the closed form itself
    src = str(Path(ris_edof.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, ris_edof.cli; print('mpmath' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_cdf_manifest_records_working_precision_and_jitter(tmp_path):
    cfg = write_config(tmp_path, {"geometry_t": HALF_1, "options": {"points": 3}})
    out = tmp_path / "o"
    assert main(["cdf", "--config", str(cfg), "--out", str(out)]) == 0
    extras = json.loads((out / "cdf_manifest.json").read_text())["jobs"][0]["extras"]
    # the digits each point's error bound asks for, F(0+) included
    spectrum = geometry_spectrum(RisGeometry(**HALF_1))
    pair = analytic_cdf.EigenProfilePair.from_values(spectrum, spectrum)
    scale = float(pair.dr_vals[0] * pair.dt_vals[0])
    alphas = [
        analytic_cdf.TINY_ALPHA_FACTOR * scale,
        *np.geomspace(1e-5 * scale, 1e3 * scale, 3),
    ]
    kernel = analytic_cdf._Kernel(pair, analytic_cdf.PrecisionLog())
    digits = [
        analytic_cdf._digits(
            analytic_cdf._error_coefficient(kernel, alpha),
            kernel.first_guess(alpha),
        )
        for alpha in alphas
    ]
    # the 1-wavelength panel has a repeated eigenvalue
    tie = (
        analytic_cdf._min_relative_separation(spectrum)
        < analytic_cdf.MIN_RELATIVE_SEPARATION
    )
    assert tie
    assert extras == {
        "dps_min": min(digits),
        "dps_max": max(digits),
        "reevaluations": 0,
        "jittered_dt": tie,
        "jittered_dr": tie,
    }


def test_allow_large_raises_the_element_guard(tmp_path):
    # the default panel, 12 x 12 wavelengths at half a wavelength
    for flags, max_elements in (([], DEFAULT_MAX_ELEMENTS),
                                (["--allow-large"], ALLOW_LARGE_MAX_ELEMENTS)):
        out = tmp_path / str(max_elements)
        assert main(["corr-eigs", "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "corr_eigs_manifest.json").read_text())
        assert manifest["config"]["max_elements"] == max_elements


def test_reproduce_twelfth_lambda_hits_size_guard(tmp_path, capsys):
    code = main(
        ["reproduce", "--target", "table1", "--column", "twelfth-lambda",
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "size_guard"
    assert "--allow-large" in err["error"]["message"]
    assert "21025" in err["error"]["message"]


def test_reproduce_large_target_gated(tmp_path, capsys):
    code = main(
        ["reproduce", "--target", "fig10", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "--allow-large" in err["error"]["message"]


@pytest.mark.parametrize(
    "target, column", [("fig7", "half-lambda"), ("fig10", "quarter-lambda")]
)
def test_reproduce_refuses_column_its_target_ignores(tmp_path, capsys, target, column):
    out = tmp_path / "o"
    code = main(
        ["reproduce", "--target", target, "--column", column, "--quick",
         "--out", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "column"
    assert not any(out.glob("*"))


def test_reproduce_accepts_the_fixed_column(tmp_path, capsys):
    # past the column check, fig10 stops at its size guard
    code = main(
        ["reproduce", "--target", "fig10", "--column", "half-lambda",
         "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "--allow-large" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("key", ["geometry_t", "geometry_r"])
def test_reproduce_refuses_config_geometry(tmp_path, capsys, key):
    cfg = write_config(tmp_path, {key: HALF_1})
    out = tmp_path / "o"
    code = main(
        ["reproduce", "--target", "table1", "--column", "half-lambda",
         "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == key
    assert not any(out.glob("*"))


def test_fig6_and_table2_write_the_same_table(tmp_path, monkeypatch):
    monkeypatch.setattr("ris_edof.cli.QUICK_REALIZATIONS", 2)
    out = tmp_path / "o"
    for target in ("fig6", "table2"):
        code = main(
            ["reproduce", "--target", target, "--column", "half-lambda",
             "--quick", "--out", str(out)]
        )
        assert code == 0
    assert (out / "fig6_half-lambda.csv").read_bytes() == (
        out / "table2_half-lambda.csv"
    ).read_bytes()


def test_reproduce_table1_half_lambda(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "reproduce",
            "--target",
            "table1",
            "--column",
            "half-lambda",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out / "table1_half-lambda.csv")
    assert len(rows) == 625
    values = {int(r[0]): float(r[1]) for r in rows}
    assert abs(values[1] - 0.00679) <= 2e-5
    assert abs(values[50] - 0.00380) <= 2e-5
    assert values[600] == pytest.approx(1.24e-8, rel=0.05)
    manifest = json.loads((out / "reproduce_table1_manifest.json").read_text())
    assert manifest["target"] == "table1"


@pytest.mark.parametrize(
    "grid",
    [
        [4000, 4000, 1], [-10, 4000, 10], [-4000, 0, 10],
        # and grids that are no grid: too few values, a missing key, a step
        # that is not positive and a stop below the start
        [-10, 10], {"start": -10, "stop": 10}, [-10, 10, 0], [10, -10, 5],
    ],
)
def test_out_of_range_snr_grid_exits_2(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, dict(TINY, snr_grid_db=grid))
    code = main(["edof-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "snr_grid_db"


@pytest.mark.parametrize(
    "command, options, field",
    [
        # capacity-curve takes its SNRs from snr_grid_db and has no options
        ("capacity-curve", {"snr_db": 10}, "snr_db"),
        ("capacity-curve", {"snr_db": 4000}, "snr_db"),
        ("bounds-audit", {"slack": "abc"}, "options.slack"),
        ("bounds-audit", {"slack": -0.1}, "options.slack"),
        ("cdf", {"points": 0}, "options.points"),
        ("cdf", {"points": 2.5}, "options.points"),
        ("bounds-audit", {"slack": 10**400}, "options.slack"),
        ("cdf", {"points": 10_002}, "options.points"),
        ("cdf", {"points": 10**20}, "options.points"),
        ("edof-sweep", ["slack"], "options"),
    ],
)
def test_bad_option_exits_2_naming_field(tmp_path, capsys, command, options, field):
    cfg = write_config(tmp_path, dict(TINY, options=options))
    out = tmp_path / "o"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == field
    assert not any(out.glob("*.csv"))


def test_unexpected_exception_exits_1_with_json(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("ris_edof.cli.geometry_spectrum", broken)
    cfg = write_config(tmp_path, TINY)
    code = main(["corr-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "internal"
    assert err["error"]["exit_code"] == 1
    assert "RuntimeError" in err["error"]["message"]
    assert "boom" in err["error"]["message"]


def _manifests_record(tmp_path, expected, core):
    cfg = write_config(tmp_path, TINY)
    for command in ("corr-eigs", "channel-eigs"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        stem = command.replace("-", "_")
        manifest = json.loads((out / f"{stem}_manifest.json").read_text())
        assert manifest["composite_kernel"] == expected
        assert manifest["blas_core"] == core


def test_manifest_records_lapack_kernel(tmp_path, lapack):
    expected = {
        "library": lapack.library,
        "routines": {
            "complex128": ["zherk", "zheev_2stage"],
            "complex64": ["cherk", "cheev", "cheev_2stage"],
        },
        "cheev_max_rank": blas.CHEEV_MAX_RANK,
        "blas_threads": 1,
    }
    _manifests_record(tmp_path, expected, lapack.core)


def test_manifest_records_numpy_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "load", lambda: None)
    pair = ["matmul", "eigvalsh"]
    expected = {
        "library": "numpy.linalg",
        "routines": {"complex128": pair, "complex64": pair},
        "cheev_max_rank": None,
        "blas_threads": None,
    }
    _manifests_record(tmp_path, expected, None)


def test_lapack_failure_exits_4_with_info(tmp_path, capsys, zheev_info):
    zheev_info(-4)
    cfg = write_config(tmp_path, TINY)
    code = main(["channel-eigs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "numeric"
    assert err["error"]["diagnostics"]["info"] == -4
    assert err["error"]["diagnostics"]["routine"] == "zheev_2stage"


def test_reproduce_manifest_records_column_geometry(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["reproduce", "--target", "table1", "--column", "quarter-lambda",
         "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "reproduce_table1_manifest.json").read_text())
    quarter = {"len_x": 12.0, "len_z": 12.0, "spacing_x": 0.25, "spacing_z": 0.25}
    assert [
        (job["column"], job["geometry_t"], job["geometry_r"])
        for job in manifest["jobs"]
    ] == [("quarter-lambda", quarter, quarter)]
    assert "geometry_t" not in manifest["config"]
    assert "geometry_r" not in manifest["config"]


def test_reproduce_manifest_records_column_extras(tmp_path, monkeypatch):
    monkeypatch.setattr("ris_edof.cli.QUICK_REALIZATIONS", 2)
    out = tmp_path / "o"
    code = main(
        ["reproduce", "--target", "table2", "--column", "half-lambda", "--quick",
         "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "reproduce_table2_manifest.json").read_text())
    assert manifest["config"]["realizations"] == 2
    (job,) = manifest["jobs"]
    assert job["column"] == "half-lambda"
    eigsum = job["extras"]["eigsum_mean"]
    # the mean of the per-draw eigenvalue sums is the sum of the mean profile
    header, rows = read_csv(out / "table2_half-lambda.csv")
    means = [float(row[header.index("mean")]) for row in rows]
    assert eigsum == pytest.approx(sum(means), rel=1e-9)


@pytest.mark.parametrize("command", ["corr-eigs", "channel-eigs"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o"
    code = main(
        [command, "--config", str(cfg), "--out", str(out), "--quick", "--seed", "-1"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == "seed"
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "argv, field",
    [
        (["reproduce", "--target", "fig99"], "target"),
        (["corr-eigs", "--seed", "abc"], "seed"),
        (["reproduce"], "target"),
        (["corr-eigs", "--threads"], "threads"),
        (["no-such-command"], "command"),
        (["corr-eigs", "--bogus"], "bogus"),
    ],
)
def test_usage_errors_exit_2_with_json(tmp_path, capsys, argv, field):
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["exit_code"] == 2
    assert err["error"]["field"] == field
    assert "usage:" not in captured.err
    assert not (tmp_path / "o").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["reproduce", "-h"])
    assert exit_info.value.code == 0
    assert "--target" in capsys.readouterr().out


def test_corr_eigs_refuses_geometry_r(tmp_path, capsys, monkeypatch):
    # corr-eigs runs the transmit panel only; a receive panel in the config
    # would be listed as run without being built
    def refuse(*args, **kwargs):
        raise RuntimeError("a spectrum was built")

    monkeypatch.setattr("ris_edof.cli.geometry_spectrum", refuse)
    cfg = write_config(tmp_path, {"geometry_t": HALF_2, "geometry_r": TINY["geometry_t"]})
    out = tmp_path / "o"
    assert main(["corr-eigs", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == "geometry_r"
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "geometry_t, clipped",
    [
        # spacing one wavelength: sinc(2k) = 0, so 16 uncorrelated elements
        # and a profile of rank 16 against floor(pi * 9) = 28
        ({"len_x": 3, "len_z": 3, "spacing_x": 1, "spacing_z": 1}, True),
        (TINY["geometry_t"], False),
    ],
    ids=["clipped", "unclipped"],
)
def test_sweep_records_profile_rank_and_ref_clip(tmp_path, geometry_t, clipped):
    cfg = write_config(tmp_path, dict(TINY, geometry_t=geometry_t))
    out = tmp_path / "o"
    for command in ("edof-sweep", "capacity-curve"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    # capacity-curve solves the sweep's profile (same config, same gate):
    # one row per subchannel count up to its rank
    _, curves = read_csv(out / "capacity_curve.csv")
    rank = max(int(r[1]) for r in curves)
    extras = json.loads((out / "edof_sweep_manifest.json").read_text())["jobs"][0][
        "extras"
    ]
    curve_extras = json.loads(
        (out / "capacity_curve_manifest.json").read_text()
    )["jobs"][0]["extras"]
    gate = {key: extras.pop(key) for key in [*UNGATED, "eigensolver"]}
    assert extras == {"profile_rank": rank, "ref_clipped": clipped}
    assert gate == curve_extras
    assert (rank == 16) if clipped else (rank > 28)
    # capacity_dofref is the capacity at min(dof_ref, rank) subchannels
    header, rows = read_csv(out / "edof_sweep.csv")
    at_ref = {float(r[0]): float(r[2]) for r in curves if int(r[1]) == min(28, rank)}
    for row in rows:
        assert int(row[header.index("dof_ref")]) == 28
        assert float(row[header.index("capacity_dofref")]) == pytest.approx(
            at_ref[float(row[0])], rel=1e-9
        )


# 6 x 6 wavelengths at half a wavelength: 169 elements and a square Gram
# matrix, whose spectrum reaches down to 0. At seed 7 single precision moves
# the gate's n_s* by at most 1.3e-4 up to 40 dB, by 1.4e-3-4.6e-3 at
# 70-90 dB and by 0.73 at 100 dB
SQUARE_169 = {"len_x": 6, "len_z": 6, "spacing_x": 0.5, "spacing_z": 0.5}
# 25 x 25 elements
SQUARE_625 = {"len_x": 6, "len_z": 6, "spacing_x": 0.25, "spacing_z": 0.25}


@pytest.mark.parametrize(
    "realizations, grid, precision",
    [
        (GATED_REALIZATIONS, [-10, 100, 10], "complex128"),
        (GATED_REALIZATIONS, None, "complex64"),
        (GATED_REALIZATIONS - 1, None, None),
    ],
    ids=["to-100-dB", "default-grid", "few-draws"],
)
def test_precision_gate_chooses_the_draws_precision(
    tmp_path, monkeypatch, realizations, grid, precision
):
    payload = {"geometry_t": SQUARE_169, "realizations": realizations, "seed": 7}
    if grid is not None:
        payload["snr_grid_db"] = grid
    cfg = write_config(tmp_path, payload)
    runs = {}
    # a gate that refuses every delta forces complex128
    for name, tol in (("gated", GATE_TOL), ("forced", -1.0)):
        monkeypatch.setattr(cli, "GATE_TOL", tol)
        out = tmp_path / name
        assert main(["edof-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "edof_sweep_manifest.json").read_text())
        extras = manifest["jobs"][0]["extras"]
        runs[name] = (out / "edof_sweep.csv").read_bytes(), extras
    (csv, extras), (forced_csv, forced) = runs["gated"], runs["forced"]
    if precision is None:
        # too few draws to pay for the gate: complex128, and no gate
        assert {key: extras[key] for key in UNGATED} == UNGATED
        assert csv == forced_csv
        return
    assert extras["precision"] == precision
    assert forced["precision"] == "complex128"
    # rank 169 at most, below the switch: complex64 runs the one-stage solver
    solvers = {"complex128": "zheev_2stage", "complex64": "cheev"}
    if blas.load() is not None:
        for ran in (extras, forced):
            assert ran["eigensolver"] == solvers[ran["precision"]]
    assert forced["gate_delta_edof"] == extras["gate_delta_edof"]
    snrs = parse_config(payload, "edof-sweep").snr_grid_db
    assert extras["gate_snr_db"] in snrs
    if precision == "complex128":
        assert extras["gate_delta_edof"] > GATE_TOL
        assert extras["gate_snr_db"] > 40.0
        assert csv == forced_csv
    else:
        assert extras["gate_delta_edof"] <= GATE_TOL
        assert csv != forced_csv


def gated_config(threads=1):
    config = parse_config(
        {"geometry_t": SQUARE_169, "realizations": GATED_REALIZATIONS}, "edof-sweep"
    )
    config.threads = threads
    return config


def test_gate_holds_one_complex128_draw_at_a_time(lapack, monkeypatch):
    config = gated_config()
    geom = config.geometry_t
    n = effective_rank(geometry_spectrum(geom))
    ensemble, grown = cli.ensemble_from_spectra, []

    def measured(*args, dtype=np.complex128, **kwargs):
        # what a complex128 call adds to the memory live before it
        if dtype != np.complex128:
            return ensemble(*args, dtype=dtype, **kwargs)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            return ensemble(*args, dtype=dtype, **kwargs)
        finally:
            grown.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(cli, "ensemble_from_spectra", measured)
    tracemalloc.start()
    try:
        _, _, extras = cli._mean_profile(config, geom, geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert extras["precision"] == "complex64"
    assert len(grown) == 1
    # the complex128 draw holds its float64 and complex128 row chunks and
    # one Gram matrix, plus the solve's LAPACK workspace, which at rank 169
    # takes 0.43 of a Gram matrix; the bound adds half of A's bytes of
    # headroom. A full complex A, or a second thread's Gram matrix and
    # workspace, would not fit
    half_a = n * n * 8
    chunks = channel_mc._CHUNK_ROWS * n * (8 + 16)
    gram = n * n * 16
    assert max(grown) < half_a + chunks + gram + gram // 2, grown
    # the run's peak, also over the complex64 draws on two threads
    assert peak < half_a + chunks + 2 * gram, peak


def test_gated_run_peaks_below_a_refused_one(lapack, monkeypatch):
    # a rectangular pair, 169 to 625 elements: a run whose gate passes holds
    # one complex128 Gram matrix, then two complex64 ones; a refused gate
    # goes on to two complex128 ones, one per draw thread
    config = parse_config(
        {"geometry_t": SQUARE_169, "geometry_r": SQUARE_625,
         "realizations": GATED_REALIZATIONS}, "edof-sweep"
    )
    config.threads = 1
    geoms = config.geometry_t, config.geometry_r
    spectra = cli._spectra(config, *geoms)
    # the spectra are built before tracing: their blocks outweigh the draws
    monkeypatch.setattr(cli, "_spectra", lambda *args: spectra)
    peaks = {}
    for tol in (GATE_TOL, -1.0):
        monkeypatch.setattr(cli, "GATE_TOL", tol)
        tracemalloc.start()
        try:
            _, _, extras = cli._mean_profile(config, *geoms)
            _, peaks[extras["precision"]] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks["complex64"] < peaks["complex128"], peaks


def test_mean_profile_peaks_below_twice_the_draws(monkeypatch):
    # the EDoF products reduce the draws to their per-index mean only: the
    # run holds the samples and its draw buffers, where a per-index std
    # would add a temporary of the samples' size
    config = parse_config({**TINY, "realizations": GATED_REALIZATIONS}, "edof-sweep")
    config.threads = 1
    geom = config.geometry_t
    spectra = cli._spectra(config, geom, geom)
    monkeypatch.setattr(cli, "_spectra", lambda *args: spectra)
    # a first run holds what only the process's first draws allocate
    cli._mean_profile(config, geom, geom)
    config.realizations = 2000
    tracemalloc.start()
    try:
        cli._mean_profile(config, geom, geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = config.realizations * spectra[1].size * 8
    assert samples < peak < 2 * samples, (peak, samples)


@pytest.mark.parametrize("threads", [1, 2])
def test_gate_never_solves_two_complex128_draws_at_once(lapack, monkeypatch, threads):
    # a complex128 Gram matrix is live from its first row chunk's
    # `blas.gram` call until its eigenvalues are out; each solve is held
    # open for a second thread to form its Gram matrix meanwhile
    blas_gram, blas_eigvalsh, guard = blas.gram, blas.eigvalsh, threading.Lock()
    live = {"now": 0, "most": 0, "solved": 0}

    def gram(rows, out, accumulate=False):
        if out.dtype == np.complex128 and not accumulate:
            with guard:
                live["now"] += 1
                live["most"] = max(live["most"], live["now"])
        return blas_gram(rows, out, accumulate)

    def eigvalsh(matrix):
        if matrix.dtype != np.complex128:
            return blas_eigvalsh(matrix)
        time.sleep(0.05)
        try:
            return blas_eigvalsh(matrix)
        finally:
            with guard:
                live["now"] -= 1
                live["solved"] += 1

    monkeypatch.setattr(blas, "gram", gram)
    monkeypatch.setattr(blas, "eigvalsh", eigvalsh)
    config = gated_config(threads)
    _, _, extras = cli._mean_profile(config, config.geometry_t, config.geometry_t)
    assert extras["precision"] == "complex64"
    assert live == {"now": 0, "most": 1, "solved": 1}


@pytest.mark.parametrize("tol, precision", [(GATE_TOL, np.complex64),
                                            (-1.0, np.complex128)],
                         ids=["passes", "fails"])
@pytest.mark.parametrize("threads", [1, 2])
def test_gate_draws_row_0_once_per_precision(monkeypatch, tol, precision, threads):
    # draw 0 in complex128, a one-draw call solved on the calling thread;
    # then one call that draws every row in complex64, whose row 0 the gate
    # checks; and on a refusal one call that draws every row in complex128
    monkeypatch.setattr(cli, "GATE_TOL", tol)
    ensemble, blas_eigvalsh = cli.ensemble_from_spectra, blas.eigvalsh
    edof_gap = cli.edof_gap
    calls, solved_on, gated = [], [], []

    def recorded(dt, dr, realizations, seed, **kwargs):
        solved_on.append([])
        drawn = ensemble(dt, dr, realizations, seed, **kwargs)
        calls.append((realizations, kwargs, drawn.eig_samples.copy()))
        return drawn

    def eigvalsh(matrix):
        # the spectrum's real blocks are solved here too
        if np.iscomplexobj(matrix):
            solved_on[-1].append((threading.get_ident(), matrix.dtype.type))
        return blas_eigvalsh(matrix)

    def gate(double, single, *args):
        gated.append((len(calls), double.gamma.copy(), single.gamma.copy()))
        return edof_gap(double, single, *args)

    monkeypatch.setattr(cli, "ensemble_from_spectra", recorded)
    monkeypatch.setattr(blas, "eigvalsh", eigvalsh)
    monkeypatch.setattr(cli, "edof_gap", gate)
    config = gated_config(threads)
    _, _, extras = cli._mean_profile(config, config.geometry_t, config.geometry_t)
    assert extras["precision"] == np.dtype(precision).name
    expected = [(1, {"threads": threads}),
                (GATED_REALIZATIONS, {"threads": threads, "dtype": np.complex64})]
    if precision == np.complex128:
        expected.append((GATED_REALIZATIONS, {"threads": threads}))
    assert [(realizations, kwargs) for realizations, kwargs, _ in calls] == expected
    assert solved_on[0] == [(threading.get_ident(), np.complex128)]
    for (realizations, kwargs, _), solved in zip(calls[1:], solved_on[1:]):
        dtype = kwargs.get("dtype", np.complex128)
        assert [solve for _, solve in solved] == [dtype] * realizations
    # the gate ran once, after the complex64 call, on the complex128 draw 0
    # and the complex64 call's row 0
    [(made, double, single)] = gated
    assert made == 2
    for profile, (_, _, rows) in zip((double, single), calls):
        assert np.array_equal(profile, EigenvalueProfile.from_values(rows[0]).gamma)
    assert not np.array_equal(double, single)


MANIFEST_KEYS = {
    "command", "target", "column", "config", "versions", "wall_time_s",
    "peak_rss_mb", "composite_kernel", "blas_core", "jobs",
}
CONFIG_KEYS = {
    "realizations", "seed", "snr_grid_db", "threads", "max_elements", "options"
}
JOB_KEYS = {
    "column", "file", "sha256", "bytes", "geometry_t", "geometry_r", "extras"
}
TWO_PANELS = {"geometry_t": HALF_2, "geometry_r": HALF_1}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["corr-eigs"], {"geometry_t": HALF_2}),
        (["channel-eigs"], TWO_PANELS),
        (["bounds-audit"], TWO_PANELS),
        (["cdf"], {"geometry_t": HALF_1, "geometry_r": TIGHT_1,
                   "options": {"points": 2}}),
        (["capacity-curve"], TWO_PANELS),
        (["edof-sweep"], TWO_PANELS),
        (["reproduce", "--target", "table1"], {}),
    ],
    ids=["corr-eigs", "channel-eigs", "bounds-audit", "cdf", "capacity-curve",
         "edof-sweep", "reproduce-table1"],
)
def test_every_run_writes_one_manifest_layout(tmp_path, monkeypatch, argv, payload):
    built = set()

    def recorded(geom, **kwargs):
        built.add(geom)
        return geometry_spectrum(geom, **kwargs)

    monkeypatch.setattr("ris_edof.cli.geometry_spectrum", recorded)
    cfg = write_config(
        tmp_path, dict(payload, realizations=2, snr_grid_db=[0, 10, 10])
    )
    out = tmp_path / "o"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    (path,) = out.glob("*_manifest.json")
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["peak_rss_mb"] > 0
    assert set(manifest["config"]) == CONFIG_KEYS
    jobs = manifest["jobs"]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(j["file"] for j in jobs)
    ran = set()
    for job in jobs:
        assert set(job) == JOB_KEYS
        data = (out / job["file"]).read_bytes()
        assert job["sha256"] == hashlib.sha256(data).hexdigest()
        assert job["bytes"] == len(data)
        ran |= {RisGeometry(**job["geometry_t"]), RisGeometry(**job["geometry_r"])}
    assert ran == built
    if argv[0] == "reproduce":
        assert (manifest["target"], manifest["column"]) == ("table1", None)
        assert [job["column"] for job in jobs] == list(DESK_COLUMNS)
        for job in jobs:
            assert job["geometry_t"] == job["geometry_r"]
            assert job["geometry_t"]["len_x"] == 12.0
    else:
        assert (manifest["target"], manifest["column"]) == (None, None)
        (job,) = jobs
        assert job["column"] is None
        assert job["geometry_t"] == payload["geometry_t"]
        assert job["geometry_r"] == payload.get("geometry_r", payload["geometry_t"])


@pytest.mark.parametrize(
    "platform, max_rss", [("linux", 3 * 2**10), ("darwin", 3 * 2**20)]
)
def test_manifest_peak_rss_is_in_mb(monkeypatch, platform, max_rss):
    # ru_maxrss counts KiB on Linux and bytes on macOS
    usage = types.SimpleNamespace(ru_maxrss=max_rss)
    resource = types.SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
    monkeypatch.setitem(sys.modules, "resource", resource)
    monkeypatch.setattr(sys, "platform", platform)
    assert cli._peak_rss_mb() == 3.0
    # a None entry makes the import raise ImportError, as on Windows
    monkeypatch.setitem(sys.modules, "resource", None)
    assert cli._peak_rss_mb() is None
