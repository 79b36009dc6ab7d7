"""Benchmark hhdx end to end, or per layer with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload window-ladder --seed 1 --seconds 50 --trace 0

A run starts passes, each a fresh ``worker.py`` process, until ``--seconds``
is used up (at least three).  A pass sets up once and repeats the seed's
report sequence while its fifth of the run allows.  The gated times are
stated at a fixed host speed: each report repetition is divided by the
calibration measured around it (see ``worker.calibrate``), the median is
taken over the run's repetitions, and the result is scaled by the
calibration's reference time (``REF_KIND_S``).  The raw best-of-k times are
printed beside them.
``--trace 1`` alternates untraced and traced single-repetition passes and
reports the per-layer metrics of the traced ones plus the tracing overhead.
Every report is checked; the run fails (exit 1, ``"correct": false``) on any
wrong report.  The metric names and units printed are those listed in
BENCHMARK.json.  The last line of standard output is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 150  # stop starting passes after this; a run must end within 180 s
MIN_PASSES = {("full", 0): 3, ("full", 1): 2, ("tiny", 0): 1, ("tiny", 1): 2}
# typical wall time of each kind of reference work (worker.CALIB_KINDS) on the
# 2-vCPU host of the baseline: the *_ref_s metrics are seconds on a host where
# a workload's calibration takes the sum of its kinds' times
REF_KIND_S = {"small": 0.010, "large": 0.045, "operators": 0.025}


def require_checkout():
    """Exit 2 unless run inside an hhdx checkout that holds the benchmark."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "hhdx" / "cli.py",
              ROOT / "src" / "hhdx" / "schemas" / "report.schema.json",
              ROOT / "tests" / "golden"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        print(f"not an hhdx checkout: missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pinned_digests(workload, seed, size):
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(size, {}).get(workload, {}).get(str(seed))


def run_pass(args, index, traced, budget, remaining):
    """One worker process; returns its JSON result or a failure stand-in."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--budget", str(budget)]
    if traced:
        OUT.mkdir(exist_ok=True)
        # one file per workload and pass: the latest trace run overwrites it
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-pass{index}.npz")]
    env = {k: v for k, v in os.environ.items() if k != "HHDX_THREADS"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"pass {index} timed out after {remaining:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"pass {index} worker exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def digest_failures(passes, pinned):
    """(pass, label, reason) where a report's digest differs between passes or
    from its pin."""
    failures = []
    reference = passes[0]["digests"]
    for k, result in enumerate(passes):
        for i, got in enumerate(result["digests"]):
            if got != reference[i]:
                failures.append((k, f"rep 0 report {i}", "digest differs from pass 0"))
            elif pinned is not None and pinned[i] is not None and got != pinned[i]:
                failures.append((k, f"rep 0 report {i}", "digest differs from its pin"))
    return failures


def failures_of(passes, pinned):
    """Every (pass, label, reason) failure of the run's passes."""
    failures = [(k, label, reason) for k, result in enumerate(passes)
                for label, reason in result["failures"]]
    if pinned is not None and any(len(r["digests"]) != len(pinned) for r in passes):
        failures.append((-1, "pins", "pinned digests do not match the generated sequence"))
        pinned = None
    return failures + digest_failures(passes, pinned)


def columns(plain, key):
    """Per report, its values over every repetition of every untraced pass."""
    return list(zip(*(rep for r in plain for rep in r[key])))


def ref_calib_s(workload):
    """The reference time of a workload's calibration."""
    return sum(REF_KIND_S[kind] for kind in workloads.CALIBRATION[workload])


def at_ref_speed(plain, key, calib_key, ref_s):
    """Per report, the median over repetitions of its time divided by the
    calibration around it, in seconds at the reference host speed."""
    return [statistics.median(t / c for t, c in zip(times, calib)) * ref_s
            for times, calib in zip(columns(plain, key), columns(plain, calib_key))]


def end_to_end(plain, ref_s):
    """The gated metrics at the reference host speed (a calibration taking
    ref_s), and the raw best-of-k times per report beside them."""
    scaled = at_ref_speed(plain, "latencies", "calib", ref_s)
    best = [min(col) for col in columns(plain, "latencies")]
    return {
        "wall_ref_s": sum(scaled),
        "report_ref_s.p50": statistics.median(scaled),
        "report_ref_s.p90": p90(scaled),
        "cpu_ref_s": sum(at_ref_speed(plain, "cpu", "calib_cpu", ref_s)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": sum(best),
        "report_s.p50": statistics.median(best),
        "report_s.p90": p90(best),
        "cpu_s": sum(min(col) for col in columns(plain, "cpu")),
        "calib_s": statistics.median(c for col in columns(plain, "calib") for c in col),
    }


RAW = {"wall_s": "s", "report_s.p50": "s", "report_s.p90": "s", "cpu_s": "s",
       "calib_s": "s"}


def per_layer(plain, traced):
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    untraced_wall = statistics.median(w for r in plain for w in r["walls"])
    traced_wall = statistics.median(r["walls"][0] for r in traced)
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.unattributed_frac"] = statistics.median(
        (r["walls"][0] - r["root_s"]) / r["walls"][0] for r in traced)
    return out


def print_layers(metrics, traced_wall):
    rows = sorted(((name[:-2], value) for name, value in metrics.items()
                   if name.endswith(".s")), key=lambda row: -row[1])
    print(f"{'layer':24} {'self s':>10} {'share':>7} {'calls':>10}")
    for layer, seconds in rows:
        calls = metrics.get(f"{layer}.calls")
        calls = "" if calls is None else f"{calls:.0f}"
        print(f"{layer:24} {seconds:10.4f} {seconds / traced_wall:7.1%} {calls:>10}")
    print(f"self times sum to {sum(v for _, v in rows):.4f} s "
          f"of a traced wall time of {traced_wall:.4f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: a few small reports, for the benchmark's own tests")
    args = parser.parse_args(argv)
    bench = require_checkout()
    start = time.perf_counter()

    cases = workloads.generate(args.workload, args.seed, args.size)
    pinned = pinned_digests(args.workload, args.seed, args.size)
    min_passes = MIN_PASSES[(args.size, args.trace)]
    passes = []  # (traced, result)
    errors = []
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes:
            mean = elapsed / len(passes)
            if elapsed + mean > args.seconds or elapsed + mean > DEADLINE_S:
                break
        is_traced = bool(args.trace) and len(passes) % 2 == 1
        # a trace run compares single repetitions; otherwise each pass repeats
        # the sequence within a fifth of the run, so short sequences give
        # five set-ups to take the median of
        budget = 0 if args.trace else args.seconds / 5
        result = run_pass(args, len(passes), is_traced, budget, 170 - elapsed)
        if "error" in result:
            errors.append(result["error"])
            break
        passes.append((is_traced, result))

    plain = [r for is_traced, r in passes if not is_traced]
    traced = [r for is_traced, r in passes if is_traced]
    attempted = sum(r["attempted"] for _, r in passes) or len(cases)
    failures = failures_of([r for _, r in passes], pinned) if passes else []
    for k, label, reason in failures[:10]:
        print(f"FAILED pass {k} {label}: {reason}")
    for error in errors:
        print(f"FAILED {error}")
    # a report failing several checks counts once; a broken pass fails them all
    n_failed = attempted if errors else len({(k, label) for k, label, _ in failures})
    correct = n_failed == 0

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    metrics = {}
    if plain and (traced or not args.trace):
        values = (per_layer(plain, traced) if args.trace
                  else end_to_end(plain, ref_calib_s(args.workload)))
        reps = sum(len(r["walls"]) for r in plain)
        print(f"{args.workload} seed {args.seed}: {len(plain)} untraced passes "
              f"({reps} repetitions) and {len(traced)} traced passes of {len(cases)} reports")
        if args.trace:
            print_layers(values, statistics.median(r["walls"][0] for r in traced))
        else:
            beyond = sum(rep[i] > values["report_s.p90"] for r in plain for rep in r["latencies"]
                         for i in range(len(cases)))
            print(f"{reps * len(cases)} latency samples, {beyond} beyond report_s.p90")
            print("raw, at this host's speed (best-of-k; calib_s is the median calibration):")
            for name, unit in RAW.items():
                print(f"  {name} {values[name]:.6g} {unit}")
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.6g} {unit}")
    print(f"failed_frac {n_failed / attempted:.6g} ratio ({n_failed} of {attempted} "
          f"reports failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
