"""Benchmark harness for the ``ris-edof`` CLI.

    python3 perfbench/run.py --workload fig8-mc --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout. Every CLI invocation is a fresh
child process (``python -m ris_edof ... --threads 1 --seed SEED``) started
from this one harness process, with ``src`` on ``PYTHONPATH``; nothing is
installed. The BLAS thread count is recorded, never changed.

``--trace 0`` measures the end-to-end metrics: it times ``import
ris_edof.cli`` in fresh interpreters (set-up), then repeats the workload's
invocations as passes until ``--seconds`` would be exceeded (at least one
pass) and reports medians. ``--trace 1`` runs one untraced and one traced
pass; the traced pass runs each invocation through ``tracer.py``, which
calls the CLI in-process with every layer's public functions wrapped, and
reports the per-layer metrics and the tracing overhead.

Every invocation's outputs are checked (see ``workloads.py``); a non-zero
exit or a failed check counts the invocation as failed. Human-readable
lines go to standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--save DIR`` also
writes the full record (environment, samples, result) for ``compare.py``.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    CheckError,
    load_reference,
    read_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

DEFAULT_SECONDS = 35
SETUP_REPEATS = 7
# Invocations still running this long after the run started are killed and
# counted as failed, so that a run always ends within three minutes.
RUN_DEADLINE_S = 160.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class Run:
    """One benchmark run: its working directory, child environment and the
    tally of attempted and failed invocations."""

    def __init__(self, workload, seed: int, tiny: bool = False,
                 reference: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.invocations = workload.tiny if tiny else workload.invocations
        self.reference = reference
        self.work = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.errors: list[str] = []

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for index, inv in enumerate(self.invocations):
            if inv.config is not None:
                (self.work / f"config{index}.json").write_text(json.dumps(inv.config))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def cli_args(self, index: int) -> list[str]:
        inv = self.invocations[index]
        args = list(inv.args)
        if inv.config is not None:
            args += ["--config", str(self.work / f"config{index}.json")]
        return args + [
            "--threads", "1",
            "--seed", str(self.seed),
            "--out", str(self.out_dir(index)),
        ]

    def out_dir(self, index: int) -> Path:
        return self.work / f"out{index}"

    def spawn(self, argv: list[str]) -> tuple[int, float, int]:
        """Run one child to completion: exit code, wall seconds, max RSS (KiB)."""
        with (self.work / "stderr.txt").open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def invoke(self, index: int, traced: bool = False) -> tuple[float, dict | None]:
        """Run invocation ``index`` once, check its outputs, and return its
        wall time and, when traced, the tracer's summary."""
        out = self.out_dir(index)
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "ris_edof"] + self.cli_args(index)
        summary_path = self.work / f"trace{index}.json"
        if traced:
            spans = WORK / f"spans-{self.workload.name}-{index}.tsv"
            argv = [sys.executable, str(TRACER), str(summary_path), str(spans), "--"]
            argv += self.cli_args(index)
        code, wall, rss = self.spawn(argv)
        self.attempted += 1
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        summary = None
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {self.stderr_tail()}")
            inv = self.invocations[index]
            tables = {name: read_csv(out / name) for name in inv.outputs}
            inv.check(tables, self.reference)
            if traced:
                summary = json.loads(summary_path.read_text())
                wall -= summary["dump_s"]
        except CheckError as exc:
            self.failed += 1
            self.errors.append(f"invocation {index} ({' '.join(self.invocations[index].args)}): {exc}")
        return wall, summary

    def stderr_tail(self) -> str:
        text = (self.work / "stderr.txt").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else "(no stderr)"

    def run_pass(self, traced: bool = False) -> tuple[float, list[dict]]:
        total, summaries = 0.0, []
        for index in range(len(self.invocations)):
            wall, summary = self.invoke(index, traced)
            total += wall
            if summary is not None:
                summaries.append(summary)
        return total, summaries

    def output_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for index in range(len(self.invocations))
            for path in self.out_dir(index).glob("*")
        )


def setup_times(run: Run, repeats: int) -> list[float]:
    """Wall times of fresh ``import ris_edof.cli`` interpreters. The first,
    untimed import writes the bytecode cache, as any first use would."""
    argv = [sys.executable, "-c", "import ris_edof.cli"]
    times = []
    for attempt in range(repeats + 1):
        code, wall, _ = run.spawn(argv)
        if code != 0:
            raise SystemExit(f"perfbench: `import ris_edof.cli` failed: {run.stderr_tail()}")
        if attempt:
            times.append(wall)
    return times


def measure(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics: values, units and the raw samples behind them."""
    setup = setup_times(run, SETUP_REPEATS)
    passes = []
    start = time.perf_counter()
    while True:
        wall, _ = run.run_pass()
        passes.append(wall)
        elapsed = time.perf_counter() - start
        print(f"pass {len(passes)}: {wall:.3f} s")
        if elapsed + wall > seconds:
            break
    metrics = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }
    return metrics, END_TO_END_UNITS, {"pass_s": passes, "setup_s": setup}


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def merge_summaries(summaries: list[dict]) -> dict:
    merged = {
        "functions": {},
        "durations": {},
        "layers": dict.fromkeys(LAYERS, 0.0),
        "counts": {},
        "maxima": {},
    }
    for summary in summaries:
        for name, entry in summary["functions"].items():
            into = merged["functions"].setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
        for name, values in summary["durations"].items():
            merged["durations"].setdefault(name, []).extend(values)
        for key in ("layers", "counts"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in summary["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, 0), value)
    return merged


def layer_metrics(merged: dict, output_bytes: int, untraced_s: float,
                  traced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit)."""
    functions, counts = merged["functions"], merged["counts"]
    maxima, durations, layers = merged["maxima"], merged["durations"], merged["layers"]

    def self_s(name):
        return functions.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    def pct(name, q):
        return 1e3 * nearest_rank(durations.get(name, []), q)

    solves = calls("edof.solve_edof")
    points = counts.get("analytic_cdf.points", 0)
    evaluations = counts.get("analytic_cdf.evaluations", 0)
    cli_writers = self_s("cli.write_csv") + self_s("cli.write_manifest")
    return {
        "correlation.self_s": (layers["correlation"], "s"),
        "correlation.build_correlation.self_s": (self_s("correlation.build_correlation"), "s"),
        "correlation.eigen_decompose.self_s": (self_s("correlation.eigen_decompose"), "s"),
        "correlation.calls": (calls("correlation.build_correlation"), "count"),
        "correlation.elements": (counts.get("correlation.elements", 0), "count"),
        "correlation.matrix_bytes_computed": (
            counts.get("correlation.matrix_bytes_computed", 0), "bytes"),
        "channel_mc.self_s": (layers["channel_mc"], "s"),
        "channel_mc.composite_eigs.self_s": (self_s("channel_mc.composite_eigs"), "s"),
        "channel_mc.composite_eigs.calls": (calls("channel_mc.composite_eigs"), "count"),
        "channel_mc.composite_eigs.p50_ms": (pct("channel_mc.composite_eigs", 0.5), "ms"),
        "channel_mc.composite_eigs.p90_ms": (pct("channel_mc.composite_eigs", 0.9), "ms"),
        "channel_mc.sample_hw.self_s": (self_s("channel_mc.sample_hw"), "s"),
        "channel_mc.ensemble_stats.self_s": (self_s("channel_mc.ensemble_stats"), "s"),
        "channel_mc.gram_dim": (maxima.get("channel_mc.gram_dim", 0), "count"),
        "channel_mc.solve_cols": (maxima.get("channel_mc.solve_cols", 0), "count"),
        "channel_mc.draws": (counts.get("channel_mc.draws", 0), "count"),
        "edof.self_s": (layers["edof"], "s"),
        "edof.solve_edof.self_s": (self_s("edof.solve_edof"), "s"),
        "edof.solve_edof.calls": (solves, "count"),
        "edof.solve_edof.p50_ms": (pct("edof.solve_edof", 0.5), "ms"),
        "edof.solve_edof.p90_ms": (pct("edof.solve_edof", 0.9), "ms"),
        "edof.h_and_derivative.calls": (calls("edof.h_and_derivative"), "count"),
        "edof.h_and_derivative.self_s": (self_s("edof.h_and_derivative"), "s"),
        "edof.h_evals_per_solve": (
            calls("edof.h_and_derivative") / solves if solves else 0.0, "count"),
        "edof.capacity.calls": (calls("edof.capacity"), "count"),
        "analytic_cdf.self_s": (layers["analytic_cdf"], "s"),
        "analytic_cdf.unordered_cdf.self_s": (self_s("analytic_cdf.unordered_cdf"), "s"),
        "analytic_cdf.points": (points, "count"),
        "analytic_cdf.evaluations": (evaluations, "count"),
        "analytic_cdf.s_per_point": (
            self_s("analytic_cdf.unordered_cdf") / evaluations if evaluations else 0.0, "s"),
        "analytic_cdf.mp_det.calls": (counts.get("analytic_cdf.mp_det.calls", 0), "count"),
        "cli.self_s": (layers["cli"] - cli_writers, "s"),
        "cli.write_csv.self_s": (self_s("cli.write_csv"), "s"),
        "cli.write_manifest.self_s": (self_s("cli.write_manifest"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    }


def trace(run: Run) -> tuple[dict, dict, dict]:
    """Per-layer metrics from one untraced and one traced pass: values,
    units, and the per-layer self times."""
    setup_times(run, 0)
    untraced, _ = run.run_pass()
    traced, summaries = run.run_pass(traced=True)
    merged = merge_summaries(summaries)
    metrics = layer_metrics(merged, run.output_bytes(), untraced, traced)
    layers = merged["layers"]
    total = sum(layers.values()) or 1.0
    print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s, "
          f"overhead {metrics['trace.overhead_pct'][0]:+.1f}%")
    for layer in sorted(LAYERS, key=layers.get, reverse=True):
        print(f"layer {layer:<13} self {layers[layer]:9.3f} s  "
              f"{100.0 * layers[layer] / total:5.1f}%")
    dominant = max(LAYERS, key=layers.get)
    print(f"dominant layer: {dominant} "
          f"({100.0 * layers[dominant] / total:.1f}% of traced self time)")
    for name in ("channel_mc.composite_eigs", "edof.solve_edof"):
        samples = len(merged["durations"].get(name, []))
        print(f"{name}: p50/p90 over {samples} calls")
    values = {name: value for name, (value, _) in metrics.items()}
    units = {name: unit for name, (_, unit) in metrics.items()}
    return values, units, {"layers": layers, "dominant": dominant}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be read."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="directory for the full run record")
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload's tiny variant (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "ris_edof" / "cli.py").is_file():
        print(f"perfbench: no ris_edof sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]
    reference = (
        load_reference(workload.name)
        if not args.tiny and (workload.seed_free or args.seed == DEFAULT_SEED)
        else None
    )
    with Run(workload, args.seed, args.tiny, reference) as run:
        if args.trace:
            values, units, samples = trace(run)
        else:
            values, units, samples = measure(run, args.seconds)
    for error in run.errors:
        print("FAILED " + error)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "env": env,
            "samples": samples,
            "result": result,
        }
        path = args.save / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
