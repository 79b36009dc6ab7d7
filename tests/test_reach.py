"""The reach ladder of bench/reach.py on a tiny budget."""

import hashlib
import importlib.util
import json
import pathlib

from hhdx.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "bench" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_ladder_rows_match_in_process_reports(tmp_path, capsys):
    """Two rungs per family at a 1 s budget, one child process a run: every
    row's exit code and report sha256 are those of the same report run
    in-process, a rung within a tenth of the budget ran three times, and a
    family stops only at a rung over budget or refused."""
    reach = _reach()
    out = tmp_path / "bench.json"
    assert reach.main(["--label", "tiny", "--out", str(out), "--budget-s", "1",
                       "--rungs", "2"]) == 0
    capsys.readouterr()
    run = json.loads(out.read_text())["tiny"]
    assert set(run) == {"revision", "host", "budget", "ladder"}
    assert run["budget"] == {"wall_s": 1.0, "peak_rss_mb": reach.BUDGET_MB}
    assert list(run["ladder"]) == list(reach.FAMILIES)
    for family, rows in run["ladder"].items():
        _, knob, sizes = reach.FAMILIES[family]
        assert [row[knob] for row in rows] == sizes[:len(rows)] and 1 <= len(rows) <= 2
        assert all("stop" not in row for row in rows[:-1])
        assert len(rows) == 2 or rows[-1]["stop"] in ("refused", "over budget")
        for row in rows:
            assert row["wall_s"] >= 0 and row["peak_rss_mb"] > 0
            # a rung whose first run took at most a tenth of the budget ran REPEATS times
            assert row.get("runs", 1) == reach.REPEATS or row["wall_s"] > 0.1
            code = main(reach.rung_argv(family, row[knob]))
            report = capsys.readouterr().out
            assert row["exit"] == code
            assert row["sha256"] == hashlib.sha256(report.encode()).hexdigest()
            assert (row.get("stop") == "refused") == (code == 4)
