"""Compare benchmark result sets.

    python3 perfbench/compare.py PARENT_DIR [CHANGE_DIR]

A result set is a directory of records written by ``run.py --save DIR``,
one per untraced run. Traced records are ignored.

With one directory, it prints for each workload and end-to-end metric the
median, the quartiles and the spread (quartile distance over median) against
the metric's bound from ``BENCHMARK.json``: ``steady`` below a third of the
bound, ``within bound`` up to the bound, ``too wide`` beyond it.

With two, it prints one row per workload and end-to-end metric with each
side's median and quartiles and a verdict:

* ``better``: the change wins at least 9/10 of the pairs (runs paired by
  seed, or in seed order when the sets share no seed; ties counting for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``unresolved``: the parent's spread is wider than the bound, and not every
  change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``within bound``: otherwise.

It flags environment fields (CPU, core count, library versions, BLAS
threads) that differ between or within the two sets.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_WIN_SHARE = 0.9


def load_set(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return [r for r in records if not r["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def by_workload(records: list[dict]) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for record in records:
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def values_of(runs: dict[int, dict], metric: str) -> list[float]:
    return [runs[s]["result"]["metrics"][metric]["value"] for s in sorted(runs)]


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= PAIR_WIN_SHARE * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    if spread(parent) > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return "within bound" if all_better else "unresolved"
    if p_med and sign * (c_med - p_med) / p_med > bound:
        return "worse"
    return "within bound"


def environment_notes(parent: list[dict], change: list[dict]) -> list[str]:
    notes = []
    keys = sorted({k for r in parent + change for k in r["env"]} - {"commit"})
    for key in keys:
        p_vals = {json.dumps(r["env"].get(key)) for r in parent}
        c_vals = {json.dumps(r["env"].get(key)) for r in change}
        if len(p_vals | c_vals) > 1:
            notes.append(f"ENVIRONMENT DIFFERS in {key}: parent {sorted(p_vals)}, "
                         f"change {sorted(c_vals)}")
    return notes


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report_one(records: list[dict], metrics: list[dict]) -> None:
    for note in environment_notes(records, []):
        print(note)
    print(f"{'workload':<14} {'metric':<12} {'n':>3} {'median [q1, q3]':<30} "
          f"{'spread':>7} {'bound':>6}  status")
    for workload, runs in sorted(by_workload(records).items()):
        for metric in metrics:
            vals = values_of(runs, metric["name"])
            s = spread(vals)
            status = ("steady" if s < metric["bound"] / 3
                      else "within bound" if s <= metric["bound"] else "too wide")
            print(f"{workload:<14} {metric['name']:<12} {len(vals):>3} "
                  f"{fmt(quartiles(vals)):<30} {s:7.2%} {metric['bound']:6.0%}  {status}")
        failed = sum(r["result"]["failed"] for r in runs.values())
        attempted = sum(r["result"]["attempted"] for r in runs.values())
        print(f"{workload:<14} failed {failed} of {attempted} invocations")


def report_two(parent: list[dict], change: list[dict], metrics: list[dict]) -> None:
    for note in environment_notes(parent, change):
        print(note)
    p_sets, c_sets = by_workload(parent), by_workload(change)
    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'pairs won':>9}  verdict")
    for workload in sorted(set(p_sets) | set(c_sets)):
        p_runs, c_runs = p_sets.get(workload, {}), c_sets.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:<14} missing from one side")
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in metrics:
            name = metric["name"]
            p_vals, c_vals = values_of(p_runs, name), values_of(c_runs, name)
            if seeds:
                pairs = [
                    (p_runs[s]["result"]["metrics"][name]["value"],
                     c_runs[s]["result"]["metrics"][name]["value"])
                    for s in seeds
                ]
            else:  # no seed in common: pair the runs in seed order
                pairs = list(zip(p_vals, c_vals))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
            print(f"{workload:<14} {name:<12} {fmt(quartiles(p_vals)):<30} "
                  f"{fmt(quartiles(c_vals)):<30} {wins:>4}/{len(pairs):<4}  "
                  f"{verdict(p_vals, c_vals, pairs, metric['better'], metric['bound'])}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["result"]["failed"] for r in runs.values())
            attempted = sum(r["result"]["attempted"] for r in runs.values())
            print(f"{workload:<14} {side}: failed {failed} of {attempted} invocations")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sets = [load_set(Path(arg)) for arg in argv]
    for arg, records in zip(argv, sets):
        if not records:
            print(f"no untraced records in {arg}", file=sys.stderr)
            return 2
    if len(sets) == 1:
        report_one(sets[0], metrics)
    else:
        report_two(sets[0], sets[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
