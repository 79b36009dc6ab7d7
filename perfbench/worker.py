"""One benchmark pass, run in a fresh process so its peak RSS is its own.

Set-up (timed as ``setup_s``): import hhdx from the checkout's ``src``,
load the report schema, run the nine golden configurations of
``tests/test_cli.py`` in-process and compare their bytes with
``tests/golden/``, and warm up on the workload's first tiny case.  Then the
seeded report sequence runs through ``hhdx.cli.main(argv)`` in a closed loop
with one client; each report is checked afterwards (exit code, schema,
``ok``).  With ``--trace 1`` the entry points are wrapped by ``tracer`` just
before the loop.

Between reports the loop runs ``calibrate``, a fixed unit of reference work
that does not touch hhdx, at least every ``CALIB_EVERY_S`` seconds of report
time.  Each report is paired with the mean of the calibrations just before
and just after it, so the run can state its times at a fixed host speed.

Prints one JSON line with the pass's measurements and check results.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before hhdx is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# the golden configurations pinned by tests/test_cli.py
GOLDEN_CASES = [
    (["--scenario", "a1-hh", "--prime", "2", "--depth", "3"], "a1_hh_p2_r3.json"),
    (["--scenario", "pd-derham", "--prime", "2"], "pd_derham_p2.json"),
    (["--scenario", "morita-matrix", "--prime", "2", "--depth", "1"],
     "morita_matrix_p2_r1.json"),
    (["--scenario", "gs-point", "--prime", "2"], "gs_point_m2_p2.json"),
    (["--scenario", "p1-cover", "--prime", "2", "--depth", "1"], "p1_cover_p2_r1.json"),
    (["--scenario", "elliptic", "--prime", "3"], "elliptic_p3.json"),
    (["--scenario", "proper-hh", "--prime", "2"], "proper_hh_p2.json"),
    (["--scenario", "smith-tower", "--prime", "2", "--depth", "2"],
     "smith_tower_p2_r2.json"),
    (["--scenario", "cup-ring-map", "--prime", "3", "--depth", "1"],
     "cup_ring_map_p3_r1.json"),
]

REFUSAL_PREFIX = {3: "invalid configuration:", 4: "capacity/window:"}

CALIB_EVERY_S = 0.5  # report time after which the host's speed is measured again
CALIB_P = 7


def _calib_inputs():
    rng = random.Random(0)
    matrices = np.random.default_rng(0)
    small = matrices.integers(0, CALIB_P, (100, 100), dtype=np.int64)
    large = matrices.integers(0, CALIB_P, (600, 600), dtype=np.int64)
    operators = [{(rng.randrange(6), rng.randrange(6)): rng.randrange(1, CALIB_P)
                  for _ in range(8)} for _ in range(14)]
    return small, large, operators


CALIB_SMALL, CALIB_LARGE, CALIB_OPERATORS = _calib_inputs()


def _binomial_mod(n, k, p):
    """C(n, k) mod p by Lucas' theorem, digit by digit."""
    out = 1
    while n or k:
        n, a = divmod(n, p)
        k, b = divmod(k, p)
        if b > a:
            return 0
        out = out * math.comb(a, b) % p
    return out


def _operator_product(f, g, p):
    """Product of two sparse operators {(i, j): coefficient} with a Lucas
    binomial twist, the shape of hhdx's divided-power operator products."""
    out = {}
    for (a, b), u in f.items():
        for (c, d), v in g.items():
            key = (a + c, b + d)
            out[key] = (out.get(key, 0) + u * v * _binomial_mod(a + c, a, p)) % p
    return {key: value for key, value in out.items() if value}


def _eliminate(a, p, max_pivots=None):
    """Row-reduce a copy of a mod p with numpy row operations, over its first
    max_pivots columns (all by default); returns the number of pivots."""
    a = a.copy()
    r = 0
    for c in range(a.shape[1] if max_pivots is None else max_pivots):
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        k = r + int(nz[0])
        a[[r, k]] = a[[k, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        a[rows] = (a[rows] - np.outer(col[rows], a[r])) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def _operator_products():
    for f in CALIB_OPERATORS:
        for g in CALIB_OPERATORS:
            _operator_product(_operator_product(f, g, CALIB_P), f, CALIB_P)


# the kinds of reference work, each a fixed job of the kind one sort of
# report spends its time in; workloads.CALIBRATION picks the kinds per workload
CALIB_KINDS = {
    # a whole elimination of 100 x 100: small numpy steps that stay in cache
    "small": lambda: _eliminate(CALIB_SMALL, CALIB_P),
    # 12 pivots of 600 x 600: each step streams 2.9 MB, as the large windows do
    "large": lambda: _eliminate(CALIB_LARGE, CALIB_P, max_pivots=12),
    # sparse operators held in dicts, Lucas binomials: pure Python
    "operators": _operator_products,
}


def calibrate(kinds):
    """(wall s, cpu s) of one fixed unit of reference work: the CALIB_KINDS
    named in kinds, run once each.

    The work is of the kinds hhdx does, written here so that no change to
    hhdx changes it.
    """
    start, cpu = time.perf_counter(), time.process_time()
    for kind in kinds:
        CALIB_KINDS[kind]()
    return time.perf_counter() - start, time.process_time() - cpu


def import_hhdx(root=ROOT):
    """Import hhdx from root/src, refusing any other installed copy."""
    src = (root / "src").resolve()
    if not (src / "hhdx" / "cli.py").is_file():
        raise SystemExit(f"no hhdx sources under {src}")
    sys.path.insert(0, str(src))
    import hhdx.cli

    if Path(hhdx.cli.__file__).resolve().parent != src / "hhdx":
        raise SystemExit(f"imported hhdx from {hhdx.cli.__file__}, not from {src}")
    return hhdx.cli


def load_schema(root=ROOT):
    import jsonschema

    schema = json.loads((root / "src" / "hhdx" / "schemas" / "report.schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def call_main(cli, argv):
    """(exit code, stdout, stderr, escaped exception, seconds) of one report."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main([*argv, "--json"])
        except SystemExit as stop:  # argparse rejects malformed argv this way
            rc = stop.code
        except Exception as error:  # any other escape is a failed report
            exc = f"{type(error).__name__}: {error}"
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), exc, seconds


def check_report(expect, rc, out, err, exc, validator):
    """None when the report is right, else the reason it is not."""
    if exc is not None:
        return f"exception escaped main: {exc}"
    if rc != expect:
        return f"exit code {rc}, expected {expect}"
    if rc != 0:
        if out:
            return "refusal printed a report"
        if not err.startswith(REFUSAL_PREFIX[rc]):
            return f"refusal message {err[:60]!r} lacks its prefix"
        return None
    try:
        report = json.loads(out)
    except ValueError as error:
        return f"report is not JSON: {error}"
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return f"report violates the schema: {errors[0].message}"
    if report.get("ok") is not True:
        return "report has ok != true"
    return None


def report_digest(rc, out):
    """sha256 of a report's bytes; None for a refusal."""
    return hashlib.sha256(out.encode()).hexdigest() if rc == 0 and out else None


def golden_failures(cli, validator, root=ROOT):
    failures = []
    for argv, name in GOLDEN_CASES:
        rc, out, err, exc, _ = call_main(cli, argv)
        reason = check_report(0, rc, out, err, exc, validator)
        if reason is None and out != (root / "tests" / "golden" / name).read_text():
            reason = "bytes differ from the golden file"
        if reason is not None:
            failures.append([f"golden {name}", reason])
    return failures


class Record(NamedTuple):
    rc: object
    out: str
    err: str
    exc: object
    seconds: float
    cpu_s: float
    calib_s: float = 0.0  # mean calibration (wall, cpu) around the report
    calib_cpu_s: float = 0.0


def run_sequence(cli, cases, kinds, tracer=None):
    """Run the sequence once in a closed loop, calibrating between reports
    with the reference work of the given kinds.

    Returns one record per report and the wall seconds spent calibrating.
    """
    records = []
    calib = [calibrate(kinds)]
    slots = []  # index of the calibration just before each report
    since = 0.0
    for index, case in enumerate(cases):
        if since >= CALIB_EVERY_S:
            calib.append(calibrate(kinds))
            since = 0.0
        if tracer is not None:
            tracer.report_id = index
        cpu = time.process_time()
        record = call_main(cli, case.argv)
        records.append(Record(*record, time.process_time() - cpu))
        slots.append(len(calib) - 1)
        since += records[-1].seconds
    calib.append(calibrate(kinds))
    records = [rec._replace(calib_s=(calib[k][0] + calib[k + 1][0]) / 2,
                            calib_cpu_s=(calib[k][1] + calib[k + 1][1]) / 2)
               for rec, k in zip(records, slots)]
    return records, sum(wall for wall, _ in calib)


def check_sequences(cases, sequences, validator):
    """Check every report of every repetition; repetitions must agree byte for byte."""
    failures = []
    first = [report_digest(rec.rc, rec.out) for rec in sequences[0]]
    for rep, records in enumerate(sequences):
        for index, (case, rec) in enumerate(zip(cases, records)):
            reason = check_report(case.expect, rec.rc, rec.out, rec.err, rec.exc, validator)
            if reason is None and rep and report_digest(rec.rc, rec.out) != first[index]:
                reason = "bytes differ from the first repetition"
            if reason is not None:
                failures.append([f"rep {rep} report {index}", reason])
    return {
        "latencies": [[rec.seconds for rec in records] for records in sequences],
        "cpu": [[rec.cpu_s for rec in records] for records in sequences],
        "calib": [[rec.calib_s for rec in records] for records in sequences],
        "calib_cpu": [[rec.calib_cpu_s for rec in records] for records in sequences],
        "digests": first,
        "failures": failures,
    }


def run_cases(cli, cases, validator, kinds=(), tracer=None):
    """Run the sequence once and check it."""
    return check_sequences(cases, [run_sequence(cli, cases, kinds, tracer)[0]], validator)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="repeat the sequence while another repetition fits within "
                             "this many seconds of the process start (at least once)")
    parser.add_argument("--spans", help="trace one repetition and write its spans here (.npz)")
    args = parser.parse_args(argv)
    os.environ.pop("HHDX_THREADS", None)

    cli = import_hhdx()
    validator = load_schema()
    failures = golden_failures(cli, validator)
    warm = workloads.generate(args.workload, args.seed, "tiny")[0]
    rc, out, err, exc, _ = call_main(cli, warm.argv)
    reason = check_report(warm.expect, rc, out, err, exc, validator)
    if reason is not None:
        failures.append(["warm-up", reason])
    cases = workloads.generate(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - START
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    sequences = []
    walls = []
    while True:
        rep_start = time.perf_counter()
        records, calib_s = run_sequence(cli, cases, workloads.CALIBRATION[args.workload],
                                        tracer)
        sequences.append(records)
        now = time.perf_counter()
        walls.append(now - rep_start - calib_s)
        if tracer is not None or now - START + now - rep_start > args.budget:
            break
    result = check_sequences(cases, sequences, validator)
    result["walls"] = walls
    result["failures"] = failures + result["failures"]
    result["attempted"] = len(GOLDEN_CASES) + len(cases) * len(sequences)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["root_s"] = tracer.root_seconds()
        tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
