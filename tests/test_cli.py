"""Console entry point: golden outputs, schema conformance, exit codes."""

import collections
import importlib.resources
import json
import pathlib
import sys
import time
import tracemalloc

import jsonschema
import numpy as np
import pytest

from helpers import oracle_kernel_basis, oracle_quotient_reps
from hhdx import cli, dpdo, gs, hochschild, linalg, poly, tower
from hhdx.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

SCHEMA = json.loads(
    importlib.resources.files("hhdx.schemas")
    .joinpath("report.schema.json")
    .read_text()
)

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


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g.removesuffix(".json") for _, g in GOLDEN_CASES])
def test_json_reports_are_byte_identical_to_goldens(argv, golden, capsys):
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True
    assert all(entry["status"] == "pass" for entry in report["assertions"])


def test_text_mode_summarizes_every_assertion(capsys):
    assert main(["--scenario", "proper-hh", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert "scenario: proper-hh" in out
    assert out.count("[PASS]") == 2
    assert "ok: true" in out


def test_unknown_scenario_exits_2(capsys):
    assert main(["--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_calls_in_one_process_share_the_parser_but_not_their_arguments(capsys):
    """The parser is built once; each call still parses its own arguments
    into its own report, defaults included, and a missing --scenario still
    exits 2 with argparse's usage message."""
    assert main(["--scenario", "proper-hh", "--prime", "3", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["--scenario", "proper-hh"]) == 0
    assert "config: operator=1,1;0,0 prime=2" in capsys.readouterr().out
    assert main(["--scenario", "proper-hh", "--prime", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == first
    assert first["config"] == {"prime": 3, "operator": "1,1;0,0"}
    with pytest.raises(SystemExit) as exc:
        main(["--prime", "3"])
    assert exc.value.code == 2
    assert "the following arguments are required: --scenario" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--scenario", "gs-point", "--prime", "4"],
    ["--scenario", "elliptic", "--prime", "2"],
    ["--scenario", "elliptic", "--prime", "3", "--curve", "0,0,0,1"],
    ["--scenario", "morita-matrix", "--prime", "2", "--depth", "1",
     "--operator", "0,4,1"],
    # too deep, and p^r past the degree bound: the operator's depth is named first
    ["--scenario", "morita-matrix", "--prime", "2", "--depth", "1", "--degree-bound", "1",
     "--operator", "0,4,1"],
    ["--scenario", "gs-point", "--prime", "2", "--algebra", "m3"],
    ["--scenario", "proper-hh", "--prime", "2", "--operator", "1,1;0"],
], ids=["composite-prime", "even-char-curve", "singular-curve",
        "operator-too-deep", "operator-too-deep-for-the-window", "unknown-algebra",
        "ragged-matrix"])
def test_invalid_configuration_exits_3(argv, capsys):
    assert main(argv) == 3
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--scenario", "a1-hh", "--prime", "2", "--depth", "3", "--dp-cap", "1"],
    ["--scenario", "p1-cover", "--prime", "2", "--depth", "1", "--degree-bound", "2"],
    ["--scenario", "cup-ring-map", "--prime", "3", "--depth", "2",
     "--degree-bound", "4"],
    # the first line window over the rank cap (448^2 = 200 704): refused before
    # any operator is built
    ["--scenario", "pd-derham", "--prime", "5", "--degree-bound", "447",
     "--dp-cap", "447"],
    # one dimension past the tower cap: refused before the image chain is built
    ["--scenario", "proper-hh", "--prime", "2", "--operator",
     ";".join([",".join(["0"] * (tower.MAX_TOWER_DIM + 1))] * (tower.MAX_TOWER_DIM + 1))],
], ids=["a1-window", "p1-window", "cup-window", "pd-derham-capacity", "proper-hh-capacity"])
def test_window_too_small_exits_4(argv, capsys):
    assert main(argv) == 4
    assert "capacity/window" in capsys.readouterr().err


@pytest.mark.parametrize("prime,dp_cap", [(5, 0), (7, 2)])
def test_pd_derham_reports_at_the_exponent_edge(prime, dp_cap, capsys):
    """At degree bound MAX_EXPONENT - 1 the window's basis is within the caps,
    and [x, x^(MAX - 1)] = 0: the commutator matrices' products pass
    x^MAX_EXPONENT, but no result holds it, so the report is made."""
    argv = ["--scenario", "pd-derham", "--prime", str(prime),
            "--degree-bound", str(poly.MAX_EXPONENT - 1), "--dp-cap", str(dp_cap)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_pd_derham_past_the_exponent_edge_exits_4(capsys):
    """One degree further the window's own basis holds x^MAX_EXPONENT."""
    argv = ["--scenario", "pd-derham", "--prime", "7",
            "--degree-bound", str(poly.MAX_EXPONENT), "--dp-cap", "2"]
    assert main(argv) == 4
    assert capsys.readouterr().err.strip().endswith(
        f"monomial exponent {poly.MAX_EXPONENT} exceeds capacity")


@pytest.mark.parametrize("scenario,message", [
    ("a1-hh", "degree window 16 holds no monomial of the depth-{} twist"),
    ("p1-cover", "degree window 16 holds no monomial of the depth-{} twist"),
    ("cup-ring-map", "degree window 16 holds no monomial of the depth-{} twist"),
    ("smith-tower", "p^levels exceeds the degree bound"),
    ("morita-matrix", "degree window 16 cannot certify compression at depth {}"),
], ids=["a1-hh", "p1-cover", "cup-ring-map", "smith-tower", "morita-matrix"])
@pytest.mark.parametrize("depth", [10 ** 9, 10 ** 25], ids=["1e9", "1e25"])
def test_a_twist_past_the_window_is_refused_before_its_power(scenario, message, depth, capsys):
    """r >= degree_bound.bit_length() gives p^r > degree_bound, which every
    depth-r scenario refuses; each refuses it before forming p^r, which at
    r = 10^9 would not fit in memory."""
    start = time.perf_counter()
    assert main(["--scenario", scenario, "--prime", "3", "--depth", str(depth)]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"capacity/window: {message.format(depth)}\n"


def test_morita_default_operator_past_the_cap_is_refused_before_its_power(capsys):
    """A degree bound of 10^4200 admits depth 13000, whose default operator
    D^(3^13000 - 1) passes the divided-power cap; the refusal names the cap
    without forming or printing the 6203-digit exponent."""
    start = time.perf_counter()
    assert main(["--scenario", "morita-matrix", "--prime", "3", "--depth", "13000",
                 "--degree-bound", "1" + "0" * 4200]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "capacity/window: divided-power exponent 3^13000 - 1 exceeds cap 81\n")


@pytest.mark.parametrize("operator,message", [
    ("9" * 25 + ",0,1", "monomial exponent " + "9" * 25 + " exceeds capacity"),
    ("0," + "9" * 25 + ",1", "divided-power exponent " + "9" * 25 + " exceeds cap 16"),
    ("-" + "9" * 25 + ",0,1", "monomial exponent -" + "9" * 25 + " exceeds capacity"),
], ids=["a-slot", "b-slot", "negative-a-slot"])
def test_an_operator_exponent_past_int64_is_refused_by_name(operator, message, capsys):
    """Operator terms are checked while their exponents are Python ints, so an
    exponent past int64 is named in the refusal rather than overflowing."""
    assert main(["--scenario", "morita-matrix", "--prime", "2", f"--operator={operator}"]) == 4
    assert capsys.readouterr().err == f"capacity/window: {message}\n"


@pytest.mark.parametrize("argv,code,err", [
    (["--prime", "2", "--depth", "1", "--degree-bound", "4", "--operator", "65535,0,1"],
     4, "capacity/window: exponent 65536 exceeds capacity 65536\n"),
    # t^65534 + t^65535 Dt^(1) at p = 3 sends t^2 to (1 + 2) t^65536 = 0
    (["--prime", "3", "--depth", "1", "--operator", "65534,0,1;65535,1,1"], 0, ""),
], ids=["refused", "cancelled"])
def test_morita_image_exponent_past_the_cap(argv, code, err, capsys):
    """t^65535 sends the basis column t to t^65536, one past the exponent cap,
    and the realization refuses it by name; an image term whose coefficients
    cancel is not refused."""
    assert main(["--scenario", "morita-matrix", *argv]) == code
    assert capsys.readouterr().err == err


def test_pd_derham_line_window_is_never_held_dense(capsys):
    """The line's 2601 x 2601 matrices carry about one nonzero a column: as
    triples they take kilobytes where one dense copy took 54 MB."""
    tracemalloc.start()
    try:
        assert main(["--scenario", "pd-derham", "--prime", "7", "--degree-bound", "50",
                     "--dp-cap", "50"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "ok: true" in capsys.readouterr().out
    assert peak < 30 << 20


class _CountingSink:
    """A text stream that keeps only how many characters and writes reached it."""

    def __init__(self):
        self.chars = self.writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += 1
        return len(text)


def test_json_report_is_written_in_blocks_without_being_held_whole(monkeypatch):
    """morita-matrix depth 3 writes about 3.5 million characters of grids,
    and the traced peak stays below that, which a copy of the report or one
    string of its JSON would pass alone.  Its 237 478 encoder chunks reach the
    stream in blocks: a write per chunk is a system call each on an
    unbuffered stdout."""
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["--scenario", "morita-matrix", "--prime", "7", "--depth", "3",
                     "--degree-bound", "686", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 3_000_000
    assert peak < sink.chars
    assert sink.writes < 1000


def test_even_prime_skips_elliptic_part_of_cup_report(capsys):
    assert main(["--scenario", "cup-ring-map", "--prime", "2", "--depth", "1",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert "elliptic_module" not in report["results"]
    assert any("odd prime" in flag for flag in report["truncation_flags"])


def test_morita_scenario_accepts_custom_operator(capsys):
    assert main(["--scenario", "morita-matrix", "--prime", "2", "--depth", "1",
                 "--operator", "2,0,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["realization"]["operator"] == "t^2"
    assert report["ok"] is True


def test_text_mode_renders_no_realization_grid(capsys, monkeypatch):
    """Text mode prints no grid, so a morita-matrix report renders none; its
    text is the summary of the JSON report, grids and all."""
    argv = ["--scenario", "morita-matrix", "--prime", "7", "--depth", "2", "--degree-bound", "98"]
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)

    def render(self, twist=False):
        raise AssertionError("text mode rendered a realization grid")

    monkeypatch.setattr(dpdo.MatrixRealization, "render", render)
    assert main(argv) == 0
    assert capsys.readouterr().out == cli.render_text(report) + "\n"
    assert len(report["results"]["realization"]["entries"]) == 49


def test_schema_rejects_tampered_report():
    report = json.loads((GOLDEN / "elliptic_p3.json").read_text())
    report["assertions"][0]["status"] = "maybe"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)


def _twist_membership_fails(monkeypatch):
    monkeypatch.setattr(poly.MultiPoly, "in_twist_subring", lambda self, r: False)


def _fitting_parts_swapped(monkeypatch):
    fitting = tower.fitting_decomposition

    def swapped(f):
        nil, semi, holds = fitting(f)
        return semi, nil, holds

    monkeypatch.setattr(tower, "fitting_decomposition", swapped)


def _subspace_sum_broken(monkeypatch):
    monkeypatch.setattr(linalg.Subspace, "sum", lambda self, other: self)


def _hasse_off_by_one(monkeypatch):
    hasse = tower.hasse_invariant
    monkeypatch.setattr(tower, "hasse_invariant", lambda p, cubic: (hasse(p, cubic) + 1) % p)


def _with_t1(p, dom, space):
    """space with t^1 added, as a subspace of the window dom."""
    t1 = np.flatnonzero((dom.a[:, 0] == 1) & (dom.b[:, 0] == 0))
    return space.sum(linalg.Subspace.units(p, dom.dim, t1))


def _t1_in_full_commutant(monkeypatch):
    centralizers = tower.lucas_centralizers

    def extra(p, levels, degree_bound, dp_bound):
        dom, depths, full = centralizers(p, levels, degree_bound, dp_bound)
        return dom, depths, _with_t1(p, dom, full)

    monkeypatch.setattr(tower, "lucas_centralizers", extra)


def _t1_at_depth_one(monkeypatch):
    centralizers = tower.lucas_centralizers

    def extra(p, levels, degree_bound, dp_bound):
        dom, depths, full = centralizers(p, levels, degree_bound, dp_bound)
        return dom, [depths[0], _with_t1(p, dom, depths[1]), *depths[2:]], full

    monkeypatch.setattr(tower, "lucas_centralizers", extra)


def _centralizers_not_nested(monkeypatch):
    monkeypatch.setattr(linalg.Subspace, "contains_space", lambda self, other: False)


def _compressed_operator_acts_by_zero(monkeypatch):
    act = dpdo.DPDOperator.act
    monkeypatch.setattr(dpdo.DPDOperator, "act",
                        lambda self, f: f.ring.zero() if self.algebra.ring.names == ("u",)
                        else act(self, f))


FAILED_CERTIFICATES = [
    (["--scenario", "smith-tower", "--prime", "2", "--depth", "2"],
     _twist_membership_fails, "increments-live-in-twist-subrings"),
    (["--scenario", "proper-hh", "--prime", "2"],
     _fitting_parts_swapped, "certified-limit-equals-fitting-part"),
    (["--scenario", "a1-hh", "--prime", "2", "--depth", "3"],
     _centralizers_not_nested, "centralizer-chain-frobenius-nested"),
    (["--scenario", "morita-matrix", "--prime", "2", "--depth", "1"],
     _compressed_operator_acts_by_zero, "compression-action-certified"),
    (["--scenario", "elliptic", "--prime", "3"],
     _hasse_off_by_one, "cech-multiplier-equals-hasse"),
    (["--scenario", "a1-hh", "--prime", "2", "--depth", "3"],
     _t1_in_full_commutant, "no-survivors-inside-certified-window"),
    (["--scenario", "a1-hh", "--prime", "2", "--depth", "3"],
     _t1_at_depth_one, "centralizer-chain-frobenius-nested"),
    (["--scenario", "proper-hh", "--prime", "2"],
     _subspace_sum_broken, "certified-limit-equals-fitting-part"),
]


@pytest.mark.parametrize("argv,break_check,name", FAILED_CERTIFICATES,
                         ids=["smith-tower", "proper-hh", "a1-hh", "morita-matrix",
                              "elliptic-hasse", "a1-hh-full-commutant", "a1-hh-depth-window",
                              "proper-hh-fitting-laws"])
def test_failed_certificate_is_a_named_failing_assertion(argv, break_check, name,
                                                         capsys, monkeypatch):
    break_check(monkeypatch)
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is False
    assert [e["name"] for e in report["assertions"] if e["status"] == "fail"] == [name]


# Exact eliminations (calls of linalg._rref) per report, and how many kernels
# or images the report solves twice: a rise means some kernel, image,
# cohomology group or spectral rank table is eliminated again.  The inputs that
# still repeat are legitimate or known: gs-point's 7 are the bar-versus-
# totalization cross-check its report asserts (the kernels and images of d^0
# and d^1, solved once in each complex); proper-hh's golden F is idempotent,
# so F and F^dim are the same matrix.  p1-cover's U0 and U1 chart columns
# share one [u, -] matrix, whose surjectivity is certified once for both.
ELIMINATIONS = [
    (["--scenario", "pd-derham", "--prime", "2"], 7, 0),
    (["--scenario", "p1-cover", "--prime", "2", "--depth", "1"], 11, 0),
    (["--scenario", "gs-point", "--prime", "2"], 9, 4),
    (["--scenario", "elliptic", "--prime", "3"], 1, 0),
    (["--scenario", "cup-ring-map", "--prime", "3", "--depth", "1"], 0, 0),
    (["--scenario", "proper-hh", "--prime", "2"], 5, 0),
    (["--scenario", "a1-hh", "--prime", "2", "--depth", "3"], 8, 0),
]
ELIMINATION_IDS = ["pd-derham", "p1-cover", "gs-point", "elliptic", "cup-ring-map", "proper-hh",
                   "a1-hh"]


@pytest.mark.parametrize("argv,expected,solved_twice", ELIMINATIONS, ids=ELIMINATION_IDS)
def test_each_differential_is_eliminated_once_per_report(argv, expected, solved_twice,
                                                         capsys, monkeypatch):
    eliminations = []
    solved = collections.Counter()
    rref, kernel_basis, image_basis = (linalg._rref, linalg.FpMatrix.kernel_basis,
                                       linalg.FpMatrix.image_basis)

    def counting_rref(a, p):
        eliminations.append(np.shape(a))
        return rref(a, p)

    def counting(kind, method):
        def wrapper(m):
            solved[(kind, m.shape, m.a.tobytes())] += 1
            return method(m)
        return wrapper

    monkeypatch.setattr(linalg, "_rref", counting_rref)
    monkeypatch.setattr(linalg.FpMatrix, "kernel_basis", counting("kernel", kernel_basis))
    monkeypatch.setattr(linalg.FpMatrix, "image_basis", counting("image", image_basis))
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert set(solved.values()) <= {1, 2}
    assert list(solved.values()).count(2) == solved_twice
    assert len(eliminations) == expected


# Every kernel and quotient a golden report takes, against the column-loop
# kernel and the reduce-then-eliminate quotient of tests/helpers.py.  The
# elliptic and cup-ring-map goldens take neither: they read the class of y/x
# off one coefficient.
KERNEL_CASES = [(argv, name) for (argv, _, _), name in zip(ELIMINATIONS, ELIMINATION_IDS)
                if name not in ("elliptic", "cup-ring-map")]


@pytest.mark.parametrize("argv", [argv for argv, _ in KERNEL_CASES],
                         ids=[name for _, name in KERNEL_CASES])
def test_golden_kernels_and_quotients_match_the_oracles(argv, capsys, monkeypatch):
    kernel_basis, quotient_reps = linalg.FpMatrix.kernel_basis, linalg.Subspace.quotient_reps
    checked = collections.Counter()

    def checked_kernel(m):
        got = kernel_basis(m)
        want = oracle_kernel_basis(m)
        assert got.shape == want.shape and np.array_equal(got.a, want)
        checked["kernel"] += 1
        return got

    def checked_quotient(space, sub):
        got = quotient_reps(space, sub)
        assert got == oracle_quotient_reps(space, sub)
        checked["quotient"] += 1
        return got

    monkeypatch.setattr(linalg.FpMatrix, "kernel_basis", checked_kernel)
    monkeypatch.setattr(linalg.Subspace, "quotient_reps", checked_quotient)
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert checked  # every golden reaches a kernel or a quotient


# Products taken while a cochain complex, a double complex or a Koszul complex
# is validated, per golden report: each checks d∘d once where it lives (a
# double complex on its totalization, a Koszul complex's commutation as its
# degree-0 d∘d), so a rise means some law is checked again.  gs-point's 3 are
# its totalization (1) and its bar complex (2).  cup-ring-map reads only its
# point's cups and cochains, so it builds and checks no double complex.
VALIDATION_PRODUCTS = {
    "a1_hh_p2_r3.json": 0,
    "pd_derham_p2.json": 1,
    "morita_matrix_p2_r1.json": 0,
    "gs_point_m2_p2.json": 3,
    "p1_cover_p2_r1.json": 1,
    "elliptic_p3.json": 0,
    "proper_hh_p2.json": 0,
    "smith_tower_p2_r2.json": 0,
    "cup_ring_map_p3_r1.json": 0,
}


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g.removesuffix(".json") for _, g in GOLDEN_CASES])
def test_each_complex_checks_its_law_once_per_report(argv, golden, capsys, monkeypatch):
    validating = {linalg.CochainComplex.__init__.__code__, linalg.DoubleComplex.__init__.__code__,
                  hochschild.koszul_commutator_complex.__code__}
    product, counted = linalg.product, []

    def counting(x, y, p):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in validating:
            frame = frame.f_back
        if frame is not None:
            counted.append(frame.f_code.co_name)
        return product(x, y, p)

    for name, module in list(sys.modules.items()):  # every hhdx module that imports it
        if name.startswith("hhdx.") and vars(module).get("product") is product:
            monkeypatch.setattr(module, "product", counting)
    assert main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
    assert len(counted) == VALIDATION_PRODUCTS[golden]


# bar_differential_matrix calls per golden report: a rise means some report
# builds a bar differential it does not read.  gs-point's 7 are j = 0, 1 for
# its point's double complex, j = 0, 1 for the matrices it compares with them
# and j = 0, 1, 2 for its Hochschild cohomology.
BAR_DIFFERENTIALS = {
    "a1_hh_p2_r3.json": 0,
    "pd_derham_p2.json": 0,
    "morita_matrix_p2_r1.json": 0,
    "gs_point_m2_p2.json": 7,
    "p1_cover_p2_r1.json": 0,
    "elliptic_p3.json": 0,
    "proper_hh_p2.json": 0,
    "smith_tower_p2_r2.json": 0,
    "cup_ring_map_p3_r1.json": 0,
}


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g.removesuffix(".json") for _, g in GOLDEN_CASES])
def test_each_bar_differential_is_built_for_a_reader(argv, golden, capsys, monkeypatch):
    calls = []
    bar_differential_matrix = hochschild.bar_differential_matrix

    def counting(bimodule, j):
        calls.append(j)
        return bar_differential_matrix(bimodule, j)

    for module in (hochschild, gs, cli):  # every module that binds the name
        monkeypatch.setattr(module, "bar_differential_matrix", counting)
    assert main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
    assert len(calls) == BAR_DIFFERENTIALS[golden]


# TruncatedOperatorModule.operator_matrix calls per golden report (commutator
# matrices included): a rise means some operator window is built again.
# p1-cover's 11 are its four distinct commutator matrices (U1's chart shares
# U0's) and seven face matrices.
OPERATOR_MATRICES = {
    "a1_hh_p2_r3.json": 6,
    "pd_derham_p2.json": 3,
    "morita_matrix_p2_r1.json": 0,
    "gs_point_m2_p2.json": 0,
    "p1_cover_p2_r1.json": 11,
    "elliptic_p3.json": 0,
    "proper_hh_p2.json": 0,
    "smith_tower_p2_r2.json": 0,
    "cup_ring_map_p3_r1.json": 0,
}


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g.removesuffix(".json") for _, g in GOLDEN_CASES])
def test_each_operator_matrix_is_built_once_per_report(argv, golden, capsys, monkeypatch):
    calls = []
    operator_matrix = dpdo.TruncatedOperatorModule.operator_matrix

    def counting(module, images, *args):
        calls.append(module.dim)
        return operator_matrix(module, images, *args)

    monkeypatch.setattr(dpdo.TruncatedOperatorModule, "operator_matrix", counting)
    assert main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
    assert len(calls) == OPERATOR_MATRICES[golden]


# Normal-ordering kernel passes (`DPDOperator.combination` calls) per golden
# report: a rise means some report multiplies operators one batch at a time.
# Operator windows write their matrices from closed-form image terms, so only
# operator arithmetic multiplies: smith-tower in two passes, cup-ring-map's
# h0 ring in one.
KERNEL_PASSES = {
    "a1_hh_p2_r3.json": 0,
    "pd_derham_p2.json": 0,
    "morita_matrix_p2_r1.json": 0,
    "gs_point_m2_p2.json": 0,
    "p1_cover_p2_r1.json": 0,
    "elliptic_p3.json": 0,
    "proper_hh_p2.json": 0,
    "smith_tower_p2_r2.json": 2,
    "cup_ring_map_p3_r1.json": 1,
}


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g.removesuffix(".json") for _, g in GOLDEN_CASES])
def test_each_monomial_pair_is_ordered_once_per_report(argv, golden, capsys, monkeypatch):
    passes = []
    kernel = dpdo.DPDOperator.combination

    def counting(table, blocks, count):
        passes.append(count)
        return kernel(table, blocks, count)

    monkeypatch.setattr(dpdo.DPDOperator, "combination", counting)
    assert main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
    assert len(passes) == KERNEL_PASSES[golden]


@pytest.mark.parametrize("scenario", ["pd-derham", "a1-hh"])
def test_p2_divided_power_window_past_the_cap_exits_4(scenario, capsys):
    """p = 2 caps divided powers at p^4 = 16, so a window of 20 is refused
    at its first basis operator D^(17)."""
    assert main(["--scenario", scenario, "--prime", "2", "--degree-bound", "20",
                 "--dp-cap", "20"]) == 4
    assert ("capacity/window: divided-power exponent 17 exceeds cap 16"
            in capsys.readouterr().err)


def test_a1_hh_centralizers_reach_a_large_dp_window(capsys):
    """Taking only the Lucas generators' kernels, each on the previous
    kernel's basis, keeps this window's centralizer matrices small; one
    commutator per divided power up to 45 would need 139 million dense
    entries and be refused."""
    assert main(["--scenario", "a1-hh", "--prime", "3", "--depth", "1",
                 "--degree-bound", "30", "--dp-cap", "45", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True


@pytest.mark.parametrize("argv", [
    ["--scenario", "a1-hh", "--prime", "3", "--depth", "3", "--degree-bound", "100",
     "--dp-cap", "81"],
    ["--scenario", "a1-hh", "--prime", "3", "--depth", "2", "--degree-bound", "81",
     "--dp-cap", "81"],
    ["--scenario", "a1-hh", "--prime", "2", "--depth", "4", "--degree-bound", "64",
     "--dp-cap", "16"],
], ids=["p3-r3-dp81", "p3-r2-dp81", "p2-dp16"])
def test_a1_hh_builds_no_column_outside_the_previous_commutant(argv, capsys):
    """A window whose divided powers reach the cap reports: the generators'
    terms past the cap (D^(82) at p = 3, D^(17) at p = 2) lie in columns
    outside ker [t, -], and the nested kernels never build those columns."""
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True
    assert all(entry["status"] == "pass" for entry in report["assertions"])


@pytest.mark.parametrize("argv", [
    ["--scenario", "a1-hh", "--prime", "7", "--depth", "3", "--degree-bound", "343",
     "--dp-cap", "343"],
    ["--scenario", "a1-hh", "--prime", "5", "--depth", "2", "--degree-bound", "400",
     "--dp-cap", "400"],
], ids=["p7-r3-window343", "p5-r2-window400"])
def test_a1_hh_enlarged_targets_only_locate_terms(argv, capsys):
    """Each generator's enlarged target (rank 236 328 for D^(343) at p = 7,
    210 926 for D^(125) at p = 5) is past `MAX_WINDOW_RANK`, but it only
    locates terms, so it builds no arrays and is not refused; the domain
    windows stay under the cap."""
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True
    assert all(entry["status"] == "pass" for entry in report["assertions"])


def test_a1_hh_flag_lists_only_survivors_above_the_window(capsys, monkeypatch):
    """With t^1 in the full commutant the certificate fails on every survivor,
    and the truncation flag names only the one above the window."""
    _t1_in_full_commutant(monkeypatch)
    assert main(["--scenario", "a1-hh", "--prime", "2", "--depth", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    failed, = [e for e in report["assertions"] if e["status"] == "fail"]
    assert failed == {"name": "no-survivors-inside-certified-window", "status": "fail",
                      "detail": "survivors [1, 16]"}
    assert "degree-0 survivors above certified window 8: [16]" in report["truncation_flags"]


@pytest.mark.parametrize("argv", [
    ["--scenario", "pd-derham", "--prime", "5", "--degree-bound", "80", "--dp-cap", "80"],
    ["--scenario", "a1-hh", "--prime", "3", "--depth", "2", "--degree-bound", "60",
     "--dp-cap", "60"],
], ids=["pd-derham-80", "a1-hh-60"])
def test_windows_with_over_cap_shapes_report(argv, capsys):
    """pd-derham eliminates line differentials (6561 x 6561) with more
    entries than one dense array may hold; held as nonzeros, they are
    eliminated block by block.  a1-hh's largest matrix here is its 3721 x 3721
    [t, -]: each nested centralizer kernel is taken on the previous one's
    basis, where a stack of every commutator over the window had 21045 rows."""
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True
    assert all(entry["status"] == "pass" for entry in report["assertions"])
