"""Tests of the benchmark itself: metric coverage, the correctness gate,
the tracer's counts and the seeded generators' expected exit codes."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def tiny():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[(workload, trace)] = run_tiny(workload, trace)
        return cache[(workload, trace)]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny, workload, trace):
    code, out = tiny(workload, trace)
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in out.splitlines()[:-1]
               if line.split() and line.split()[0] in expected}
    assert printed == expected
    assert "failed_frac 0 ratio" in out


def test_p1_cover_builds_each_spectral_sequence_twice(tiny):
    # window-ladder's p1-cover reports are its only spectral-sequence users
    code, out = tiny("window-ladder", 1)
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    assert metrics["linalg.spectral.calls_per_complex"]["value"] == 2.0
    assert metrics["linalg.spectral.calls"]["value"] > 0


def test_tracing_leaves_report_digests_unchanged(tiny):
    # a traced pass whose digests differed from the untraced pass would fail
    code, out = tiny("report-stream", 1)
    assert code == 0 and "FAILED" not in out


def _flip_first_result_digit(text):
    """Change one digit after "results" so the JSON stays valid."""
    start = text.index('"results"')
    k = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:k] + ("2" if text[k] == "1" else "1") + text[k + 1:]


def _pass_with(main):
    cli = worker.import_hhdx()
    cases = workloads.generate("report-stream", 1, "tiny")
    fake = types.SimpleNamespace(main=main or cli.main)
    result = worker.run_cases(fake, cases, worker.load_schema())
    return bench.failures_of([result], bench.pinned_digests("report-stream", 1, "tiny"))


def test_tampered_report_byte_is_counted_as_failed():
    assert _pass_with(None) == []
    cli = worker.import_hhdx()
    left = [1]

    def tampering_main(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        text = buffer.getvalue()
        if code == 0 and left[0]:
            left[0] -= 1
            text = _flip_first_result_digit(text)
        print(text, end="")
        return code

    failures = _pass_with(tampering_main)
    assert [reason for _, _, reason in failures] == ["digest differs from its pin"]


def test_exception_escaping_main_is_a_failed_report():
    def broken_main(argv):
        raise RuntimeError("boom")

    failures = _pass_with(broken_main)
    cases = workloads.generate("report-stream", 1, "tiny")
    assert {label for _, label, _ in failures} == {f"rep 0 report {i}" for i in range(len(cases))}
    assert any(reason.startswith("exception escaped main: RuntimeError") for _, _, reason in failures)


def _fake_pass(scale):
    """An untraced pass result of two reports over three repetitions, on a
    host running `scale` times slower than the first."""
    times = [[0.5, 0.010], [0.7, 0.012], [0.6, 0.011]]
    calib = [[0.025, 0.025], [0.030, 0.026], [0.027, 0.025]]
    return {"latencies": [[t * scale for t in rep] for rep in times],
            "cpu": [[t * scale for t in rep] for rep in times],
            "calib": [[c * scale for c in rep] for rep in calib],
            "calib_cpu": [[c * scale for c in rep] for rep in calib],
            "peak_rss_mb": 100.0, "setup_s": 2.0}


def test_reference_speed_cancels_a_uniformly_slower_host():
    fast = bench.end_to_end([_fake_pass(1.0)], 0.025)
    slow = bench.end_to_end([_fake_pass(1.5)], 0.025)
    assert slow["wall_s"] == pytest.approx(1.5 * fast["wall_s"])
    for name in ("wall_ref_s", "report_ref_s.p50", "report_ref_s.p90", "cpu_ref_s"):
        assert slow[name] == pytest.approx(fast[name])
    # report 0: median of 0.5/0.025, 0.7/0.030, 0.6/0.027 at 25 ms per calibration
    assert bench.at_ref_speed([_fake_pass(1.0)], "latencies", "calib", 0.025)[0] == \
        pytest.approx(0.6 / 0.027 * 0.025)


def test_pins_cover_the_generated_sequences():
    table = json.loads((HERE / "digests.json").read_text())
    for size, by_workload in table.items():
        for workload, by_seed in by_workload.items():
            for seed, digests in by_seed.items():
                cases = workloads.generate(workload, int(seed), size)
                assert [d is None for d in digests] == [c.expect != 0 for c in cases]


@pytest.mark.parametrize("p", [3, 5])
def test_curve_expectation_matches_hhdx(p):
    cli = worker.import_hhdx()
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(p):
                for c3 in range(p):
                    coeffs = [c0, c1, c2, c3]
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(["--scenario", "elliptic", "--prime", str(p),
                                         "--curve", ",".join(map(str, coeffs))])
                    assert code == workloads.curve_expect(p, coeffs), coeffs


def test_generators_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = run_tiny("report-stream", 0, cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert '"correct"' not in out
