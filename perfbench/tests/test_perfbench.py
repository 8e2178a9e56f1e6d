"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, CheckError, check_sweep, load_reference  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_through_harness(workload, trace):
    done = harness("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    if trace == "1":
        assert "dominant layer:" in done.stdout
    else:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        assert result["metrics"]["wall_s"]["value"] > 0


def test_corrupted_output_counts_as_failed(monkeypatch):
    spawn = run.Run.spawn

    def spawn_then_corrupt(self, argv):
        outcome = spawn(self, argv)
        csv_path = self.out_dir(1) / "cdf.csv"
        if csv_path.exists():
            lines = csv_path.read_text().splitlines()
            alpha, _ = lines[-1].split(",")
            lines[-1] = f"{alpha},1.5"
            csv_path.write_text("\n".join(lines) + "\n")
        return outcome

    monkeypatch.setattr(run.Run, "spawn", spawn_then_corrupt)
    with run.Run(WORKLOADS["spectra-cdf"], 42, tiny=True) as bench:
        metrics, _, _ = run.measure(bench, seconds=0)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert metrics["pass_ratio"] == 0.5
    assert "CDF leaves [0, 1]" in bench.errors[0]


def test_reference_check_catches_changed_edof():
    reference = load_reference("fig8-mc")
    wanted = reference["fig8_half-lambda.csv"]["edof_int"]
    rows = [
        {"snr_db": str(snr), "edof_int": str(e), "edof_real": str(e), "degradation": "0.1"}
        for snr, e in zip(range(-10, 41, 5), wanted)
    ]
    check = check_sweep("fig8_half-lambda.csv", [float(s) for s in range(-10, 41, 5)])
    check({"fig8_half-lambda.csv": rows}, reference)
    rows[3]["edof_int"] = str(wanted[3] + 1)
    with pytest.raises(CheckError, match="integer EDoF differs"):
        check({"fig8_half-lambda.csv": rows}, reference)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = harness("--workload", "fig8-mc", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]

    def pairs(a, b):
        return list(zip(a, b))

    assert compare.verdict(parent, faster, pairs(parent, faster), "lower", 0.1) == "better"
    assert compare.verdict(parent, slower, pairs(parent, slower), "lower", 0.1) == "worse"
    assert compare.verdict(parent, parent, pairs(parent, parent), "lower", 0.1) == "within bound"
    assert compare.verdict(noisy, noisy, pairs(noisy, noisy), "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, slower, pairs(parent, slower), "higher", 0.1) == "better"
