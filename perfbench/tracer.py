"""Span recorder for the traced benchmark run.

Run as a script, it calls ``ris_edof.cli.main`` in this process with every
public function of the layer modules wrapped, then writes a summary (JSON)
and the raw spans (TSV)::

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY.json SPANS.tsv -- \
        reproduce --target fig8 --column half-lambda --quick --threads 1

A function is wrapped at every module that holds a reference to it: ``cli``
imports ``run_ensemble``, ``ensemble_stats`` and ``cdf_table`` by name and
``channel_mc`` imports ``build_correlation`` and ``eigen_decompose`` by name,
so replacing only the defining module's attribute would miss those calls.
``geometry`` is not wrapped; it runs inside the ``build_correlation`` span.
``mpmath.det`` and the closed-form evaluations (``analytic_cdf._raw_cdf``,
the requested points plus the two normalizing endpoints) are counted, not
timed, so their work stays inside the self time of ``unordered_cdf``.

Each span records name, start, end and parent. Spans stay in memory until
the CLI returns. Self time is a span's duration minus the time its child
spans cover; with ``--threads 1`` spans nest strictly, so children never
overlap.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import mpmath

LAYERS = ("correlation", "channel_mc", "edof", "analytic_cdf", "cli")
PACKAGE = "ris_edof"
# Functions whose per-call durations are kept for latency percentiles.
TIMED_CALLS = ("channel_mc.composite_eigs", "edof.solve_edof")


class Tracer:
    """Collects nested spans and counts from wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note_max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), int(value))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere the
        package refers to them, and count ``mpmath.det`` calls and
        closed-form CDF evaluations."""
        layers = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        replacement = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    replacement[obj] = self.wrap(
                        f"{layer}.{attr}", obj, OBSERVERS.get(f"{layer}.{attr}")
                    )
        package = [
            module for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in package:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._patch(module, attr, replacement[obj])
        self._patch(mpmath, "det", self.count("analytic_cdf.mp_det.calls", mpmath.det))
        cdf = layers["analytic_cdf"]
        self._patch(cdf, "_raw_cdf", self.count("analytic_cdf.evaluations", cdf._raw_cdf))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer self time, counts,
        and the raw durations of the functions whose percentiles are
        reported."""
        n = len(self.names)
        child_time = [0.0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        functions: dict[str, dict] = {}
        durations: dict[str, list[float]] = {name: [] for name in TIMED_CALLS}
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[idx]
            if name in durations:
                durations[name].append(duration)
        layers = {layer: 0.0 for layer in LAYERS}
        for name, entry in functions.items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        return {
            "functions": functions,
            "durations": durations,
            "layers": layers,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans": n,
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w") as handle:
            handle.write("id\tname\tstart\tend\tparent\n")
            for idx, name in enumerate(self.names):
                handle.write(
                    f"{idx}\t{name}\t{self.starts[idx]!r}\t{self.ends[idx]!r}\t"
                    f"{self.parents[idx]}\n"
                )


def _observe_build_correlation(tracer, args, kwargs, result):
    tracer.counts["correlation.elements"] += result.dim
    tracer.counts["correlation.matrix_bytes_computed"] += 8 * result.dim**2


def _observe_composite_eigs(tracer, args, kwargs, result):
    hw = args[2] if len(args) > 2 else kwargs["hw"]
    tracer.note_max("channel_mc.gram_dim", hw.shape[0])
    tracer.note_max("channel_mc.solve_cols", hw.shape[1])


def _observe_ensemble_from_spectra(tracer, args, kwargs, result):
    tracer.counts["channel_mc.draws"] += result.realizations


def _observe_unordered_cdf(tracer, args, kwargs, result):
    tracer.counts["analytic_cdf.points"] += getattr(result, "size", 1)


OBSERVERS = {
    "correlation.build_correlation": _observe_build_correlation,
    "channel_mc.composite_eigs": _observe_composite_eigs,
    "channel_mc.ensemble_from_spectra": _observe_ensemble_from_spectra,
    "analytic_cdf.unordered_cdf": _observe_unordered_cdf,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SUMMARY.json SPANS.tsv -- CLI-ARGS...", file=sys.stderr)
        return 2
    summary_path, spans_path, cli_args = Path(argv[0]), Path(argv[1]), argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    dumped = time.perf_counter()
    summary = tracer.summary()
    summary["exit_code"] = code
    tracer.write_spans(spans_path)
    summary["dump_s"] = time.perf_counter() - dumped
    summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
