"""Pin the sha256 digest of every report of the shipped seeds.

    python3 perfbench/pin.py

Runs each shipped (size, workload, seed) sequence once in-process, checks
every report as a benchmark pass does, and writes ``digests.json``:
``{size: {workload: {seed: [digest or null per report]}}}``, null for
expected refusals.  Re-pin only when a change is meant to alter report
bytes, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import worker
import workloads

SHIPPED = {"full": range(1, 11), "tiny": range(1, 2)}


def main():
    os.environ.pop("HHDX_THREADS", None)
    cli = worker.import_hhdx()
    validator = worker.load_schema()
    table = {}
    for size, seeds in SHIPPED.items():
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                cases = workloads.generate(workload, seed, size)
                result = worker.run_cases(cli, cases, validator)
                if result["failures"]:
                    print(f"{size} {workload} seed {seed}: {result['failures']}",
                          file=sys.stderr)
                    return 1
                table.setdefault(size, {}).setdefault(workload, {})[str(seed)] = \
                    result["digests"]
                print(f"{size} {workload} seed {seed}: {len(cases)} reports pinned")
    (worker.ROOT / "perfbench" / "digests.json").write_text(
        json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
