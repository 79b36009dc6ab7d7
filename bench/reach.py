"""Reach ladder: how large a window each scenario reports within a budget.

Each family walks a fixed ladder of growing windows.  Every rung runs in a
child process of its own, one at a time; the child imports hhdx from the
given source tree, runs `hhdx.cli.main` in-process on the rung's arguments
(each family says whether they ask for `--json`) and records the report's
wall time (interpreter start-up excluded), the process's peak RSS
(`ru_maxrss`), the exit code and the sha256 of stdout, hashed as it is
written.
A rung whose first run finishes within a tenth of the time budget runs
three times, in three children, and records the median wall time and the
largest RSS: one run of a fast rung carries the host's run-to-run spread.
A family stops at its first rung over the time or memory budget, or at its
first exit 4 (a refusal), and that rung is recorded too: the cost of a
refusal is part of the reach.

    python3 bench/reach.py --label after --out BENCH_21.json
    python3 bench/reach.py --label before --src ../parent/src --out BENCH_21.json

Run it from the root of a checkout.  `--out` merges this run under its label
into the file, beside the git revision and the host facts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUDGET_MB = 1024  # peak RSS a rung may take
KILL_AFTER_S = 60  # a child still running then is killed
REPEATS = 3  # runs of a rung that finishes within a tenth of the time budget


def _window(*fixed):
    """The rungs of a window family: degree bound and dp cap both the size."""
    return lambda size: [*fixed, "--degree-bound", str(size), "--dp-cap", str(size), "--json"]


def _morita(p, mode):
    """The rungs of a morita-matrix p family by depth r, at the least degree
    bound 2p^r that certifies the compression."""
    return lambda r: ["--scenario", "morita-matrix", "--prime", str(p), "--depth", str(r),
                      "--degree-bound", str(2 * p ** r), *mode]


# family -> (the CLI arguments of its rung of a size, the name a row records
# that size under, rungs)
FAMILIES = {
    "pd-derham p=5": (_window("--scenario", "pd-derham", "--prime", "5"), "N",
                      [25, 50, 100, 200, 300, 400, 446, 447]),
    "pd-derham p=7": (_window("--scenario", "pd-derham", "--prime", "7"), "N",
                      [25, 50, 100, 200, 300, 400, 446, 447]),
    "a1-hh p=3 r=2": (_window("--scenario", "a1-hh", "--prime", "3", "--depth", "2"), "window",
                      [9, 20, 40, 60, 80, 81, 82]),  # p^4 = 81 caps divided powers
    "a1-hh p=5 r=2": (_window("--scenario", "a1-hh", "--prime", "5", "--depth", "2"), "window",
                      [25, 50, 100, 200, 300, 384, 400, 446, 447]),
    "a1-hh p=7 r=3": (_window("--scenario", "a1-hh", "--prime", "7", "--depth", "3"), "window",
                      [343, 344, 400, 446, 447]),
    "morita-matrix p=7": (_morita(7, ["--json"]), "depth", [1, 2, 3, 4]),
    # the same reports as text, which prints no entry grid
    "morita-matrix p=7 text": (_morita(7, []), "depth", [1, 2, 3, 4]),
    # two levels at degree bound 2p^2, by prime; at p = 67, q = 4489 passes
    # matrix_realize's rank cap q^n <= 4096
    "morita-matrix r=2": (lambda p: _morita(p, ["--json"])(2), "p", [7, 13, 31, 47, 61, 67]),
    # two levels at the least degree bound p^2, by prime
    "smith-tower r=2": (lambda p: ["--scenario", "smith-tower", "--prime", str(p),
                                   "--depth", "2", "--degree-bound", str(p * p), "--json"],
                        "p", [5, 7, 13, 23, 31, 47, 61, 79, 89, 97]),
    # three levels at the least degree bound p^3, by prime; at p = 41, p^3
    # passes MAX_EXPONENT = 2^16
    "smith-tower r=3": (lambda p: ["--scenario", "smith-tower", "--prime", str(p),
                                   "--depth", "3", "--degree-bound", str(p ** 3), "--json"],
                        "p", [5, 7, 13, 23, 31, 37]),
}


def rung_argv(family, size):
    """The CLI arguments of one rung, as its family sets them for its size."""
    argv, _, _ = FAMILIES[family]
    return argv(size)


class _Sha256Writer:
    """A text stream that keeps only the sha256 of the UTF-8 text written to
    it, so a report is never held whole to be hashed."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)


def child(src, argv):
    """Run one report in this process and print its measurements as JSON."""
    sys.path.insert(0, src)
    from hhdx.cli import main

    out = _Sha256Writer()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    wall = time.perf_counter() - start
    print(json.dumps({
        "exit": code,
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": out.sha256.hexdigest(),
    }))


def run_rung(src, argv, kill_after_s):
    """One rung in a fresh child process; a child still running after
    kill_after_s seconds is killed and recorded with exit None, as is one
    that fails outside hhdx's exit codes."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--child", src, "--", *argv]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=kill_after_s)
    except subprocess.TimeoutExpired:
        return {"exit": None, "wall_s": kill_after_s, "peak_rss_mb": None, "sha256": None}
    if done.returncode:  # the child itself failed: no measurement
        return {"exit": None, "wall_s": None, "peak_rss_mb": None, "sha256": None,
                "error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout)


def measure(src, argv, budget_s):
    """One rung's row: one run, or `REPEATS` when the first finishes within a
    tenth of the budget, with their median wall time and largest RSS; runs
    that disagree on the exit code or the report are recorded with exit None."""
    kill_after_s = max(KILL_AFTER_S, budget_s)
    runs = [run_rung(src, argv, kill_after_s)]
    if runs[0]["exit"] is not None and runs[0]["wall_s"] <= budget_s / 10:
        runs += [run_rung(src, argv, kill_after_s) for _ in range(REPEATS - 1)]
    if any((run["exit"], run["sha256"]) != (runs[0]["exit"], runs[0]["sha256"]) for run in runs):
        return {**runs[0], "exit": None, "error": "repeated runs disagree"}
    if len(runs) == 1:
        return runs[0]
    return {**runs[0], "wall_s": statistics.median(run["wall_s"] for run in runs),
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs), "runs": len(runs)}


def ladder(src, budget_s, rungs=None):
    """{family: [row per rung]}, each family stopping at its first rung over
    budget or refused; `rungs` keeps only the first few of each ladder."""
    table = {}
    for family, (_, knob, sizes) in FAMILIES.items():
        rows = table[family] = []
        for size in sizes[:rungs]:
            row = {knob: size, **measure(src, rung_argv(family, size), budget_s)}
            rows.append(row)
            over = (row["exit"] is None or row["wall_s"] > budget_s
                    or row["peak_rss_mb"] > BUDGET_MB)
            if over or row["exit"] == 4:
                row["stop"] = "refused" if row["exit"] == 4 else "over budget"
                break
    return table


def host_facts():
    import numpy

    model = next((line.split(":", 1)[1].strip()
                  for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"cpu": model, "cpus": os.cpu_count(), "machine": platform.machine(),
            "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >> 20,
            "python": platform.python_version(), "numpy": numpy.__version__}


def revision(src):
    """`git describe` of the checkout holding src, '-dirty' when it has changes."""
    try:
        return subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree to import hhdx from")
    parser.add_argument("--label", default="after", help="the key this run is stored under")
    parser.add_argument("--out", help="JSON file to merge this run into")
    parser.add_argument("--budget-s", type=float, default=10.0, help="wall time a rung may take")
    parser.add_argument("--rungs", type=int, help="keep only the first rungs of each ladder")
    args = parser.parse_args(argv)
    src = str(pathlib.Path(args.src).resolve())
    run = {"revision": revision(src), "host": host_facts(),
           "budget": {"wall_s": args.budget_s, "peak_rss_mb": BUDGET_MB},
           "ladder": ladder(src, args.budget_s, args.rungs)}
    if args.out:
        path = pathlib.Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[args.label] = run
        path.write_text(json.dumps(merged, indent=2) + "\n")
    print(json.dumps(run, indent=2))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[4:])
    else:
        sys.exit(main())
