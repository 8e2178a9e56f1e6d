"""Record the reference outputs that ``workloads.py`` checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's invocations once at the default seed with the sources
under ``src`` and writes ``perfbench/reference/<workload>.json``. Run it on
the commit whose outputs are the reference, and only there: a later change
is checked against these files, so re-recording them on that change would
hide a difference in its outputs.
"""

import json
import sys

from run import Run
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, read_csv


def record(name: str) -> None:
    workload = WORKLOADS[name]
    reference = {}
    with Run(workload, DEFAULT_SEED) as run:
        for index, inv in enumerate(run.invocations):
            run.invoke(index)
            if run.failed:
                raise SystemExit(f"{name}: {run.errors[-1]}")
            tables = {out: read_csv(run.out_dir(index) / out) for out in inv.outputs}
            reference.update(inv.record(tables))
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(reference, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or sorted(WORKLOADS):
        record(workload_name)
