"""Acceptance gate: twelve end-to-end criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion.  Every quantity here is an integer computed exactly
over a prime field, so the pinned tolerance throughout is exact
equality; the only non-exact assertions are the wall-clock bounds, which
are stated inline.  The gate is self-contained: each criterion builds
its own inputs and oracles.
"""

import time

import numpy as np

from helpers import random_double_complex
from hhdx.dpdo import OperatorAlgebra, matrix_realize, morita_compress
from hhdx.errors import WindowError
from hhdx.gfp import binomial_mod
from hhdx.gs import (
    GSComplex,
    GSDiagram,
    Poset,
    constant_diagram,
    gs_for_subalgebra_scenario,
    nerve_vs_cech,
    projective_line_twist_diagram,
)
from hhdx.hochschild import (
    Bimodule,
    StructAlgebra,
    bar_differential_matrix,
    cup_product,
    hh_of_pair,
    hochschild_cohomology,
    operator_window_koszul,
)
from hhdx.tower import (
    elliptic_frobenius_module_check,
    elliptic_frobenius_report,
    filtered_hh_sequence,
    hasse_invariant,
)


def test_criterion_01_divided_power_relations():
    """Composition rule and commutator table for q, q' <= 8 at p in {2,3,5},
    symbolically and through the action on monomials of degree <= 16; < 10 s."""
    start = time.monotonic()
    for p in (2, 3, 5):
        alg = OperatorAlgebra(p, 1, names=("x",))
        ring = alg.ring
        monomials = [ring.monomial((n,)) for n in range(17)]

        for q in range(9):
            for qp in range(9):
                coeff = binomial_mod(q + qp, q, p)
                # symbolic composition
                lhs = alg.divided_power(level=q) * alg.divided_power(level=qp)
                assert lhs == alg.divided_power(level=q + qp).scale(coeff)
                # action oracle: compose the actions, never the operators
                dq = alg.divided_power(level=q)
                dqp = alg.divided_power(level=qp)
                dsum = alg.divided_power(level=q + qp)
                for f in monomials:
                    assert dq.act(dqp.act(f)) == ring.constant(coeff) * dsum.act(f)

        for q in range(9):
            # closed-form action on the monomial basis
            dq = alg.divided_power(level=q)
            for n in range(17):
                want = (ring.monomial((n - q,), binomial_mod(n, q, p))
                        if n >= q else ring.zero())
                assert dq.act(monomials[n]) == want
            # commutator table [D^(q), x^a] = sum_j C(a,j) x^(a-j) D^(q-j)
            for a in range(5):
                table = {}
                for j in range(1, min(a, q) + 1):
                    c = binomial_mod(a, j, p)
                    if c % p:
                        table[((a - j,), (q - j,))] = c
                expected = alg.from_terms(table)
                assert dq.commutator(alg.monomial((a,), (0,))) == expected
                xa = ring.monomial((a,))
                for f in monomials[: 17 - a]:
                    direct = dq.act(xa * f) - xa * dq.act(f)
                    assert direct == expected.act(f)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"criterion 1 exceeded 10 s: {elapsed:.1f} s"


def _random_operator(alg, rng, max_exp, max_dp):
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        a = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(alg.n))
        b = tuple(int(rng.integers(0, max_dp + 1)) for _ in range(alg.n))
        c = int(rng.integers(1, alg.p))
        terms[(a, b)] = terms.get((a, b), 0) + c
    return alg.from_terms(terms)


def _random_poly(ring, rng, max_deg):
    out = ring.zero()
    for _ in range(int(rng.integers(1, 5))):
        exps = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(ring.n))
        out = out + ring.monomial(exps, int(rng.integers(1, ring.p)))
    return out


def test_criterion_02_operator_action_oracle():
    """act(A*B, f) == act(A, act(B, f)) on 1000 random triples; < 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(212)
    triples = 0
    for p in (2, 3, 5):
        for n in (1, 2):
            alg = OperatorAlgebra(p, n)
            for _ in range(167):
                a = _random_operator(alg, rng, 5, 4)
                b = _random_operator(alg, rng, 5, 4)
                f = _random_poly(alg.ring, rng, 6)
                assert (a * b).act(f) == a.act(b.act(f))
                triples += 1
    assert triples >= 1000
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 2 exceeded 30 s: {elapsed:.1f} s"


def test_criterion_03_matrix_realization_homomorphism():
    """matrix_realize is a unital algebra homomorphism on 200 random pairs
    of depth-bounded operators for p in {2,3}, r in {1,2}; exact entries."""
    checked = 0
    for p in (2, 3):
        for r in (1, 2):
            alg = OperatorAlgebra(p, 1, names=("x",))
            ring = alg.ring
            q = p ** r
            unit = matrix_realize(alg.one(), r)
            assert unit.size == q
            for i in range(q):
                for j in range(q):
                    want = ring.one() if i == j else ring.zero()
                    assert unit.entry(i, j) == want
            rng = np.random.default_rng(1000 * p + r)
            for _ in range(50):
                # dp exponents < p^r keep both factors at centrality depth <= r
                a = _random_operator(alg, rng, 4, q - 1)
                b = _random_operator(alg, rng, 4, q - 1)
                ra = matrix_realize(a, r)
                rb = matrix_realize(b, r)
                rab = matrix_realize(a * b, r)
                for i in range(q):
                    for j in range(q):
                        acc = ring.zero()
                        for k in range(q):
                            acc = acc + ra.entry(i, k) * rb.entry(k, j)
                        assert acc == rab.entry(i, j)
                checked += 1
    assert checked == 200


def test_criterion_04_morita_compression_basis():
    """Compression identifies the aligned basis x^(qa) D^(qb) with the
    twisted divided-power basis u^a Du^(b) through dp degree 4 (p=2, r=1)."""
    alg_t = OperatorAlgebra(2, 1, names=("t",))
    alg_u = OperatorAlgebra(2, 1, names=("u",))
    for a in range(5):
        for b in range(5):
            got = morita_compress(alg_t.monomial((2 * a,), (2 * b,)), 1, 64)
            assert got == alg_u.monomial((a,), (b,))
    # the identification is multiplicative on aligned products
    for (a1, b1, a2, b2) in [(1, 1, 2, 0), (0, 2, 1, 1), (2, 2, 2, 2)]:
        x = alg_t.monomial((2 * a1,), (2 * b1,))
        y = alg_t.monomial((2 * a2,), (2 * b2,))
        lhs = morita_compress(x * y, 1, 64)
        rhs = morita_compress(x, 1, 64) * morita_compress(y, 1, 64)
        assert lhs == rhs


def test_criterion_05_pd_derham_koszul_windows():
    """Two-term and Koszul window complexes: kernel is exactly the span of
    multiplication operators, top cohomology vanishes below the dp edge,
    and the plane window obeys Kunneth against the line; < 60 s."""
    start = time.monotonic()
    for p, d, q in ((2, 12, 12), (3, 12, 12), (2, 16, 8)):
        _cx, _mod, rep = operator_window_koszul(p, 1, d, q)
        assert rep["h0"]["dim"] == d + 1
        assert rep["h0"]["certified_multiplication_operators"]
        assert rep["h_top"]["certified_vanishing_window"] == q - 1
    for p, d, q in ((2, 3, 3), (2, 4, 3), (3, 3, 3)):
        _cx, _mod, plane = operator_window_koszul(p, 2, d, q)
        _cx1, _mod1, line = operator_window_koszul(p, 1, d, q)
        assert plane["h0"]["dim"] == line["h0"]["dim"] ** 2
        assert plane["h0"]["certified_multiplication_operators"]
        assert plane["h_top"]["certified_vanishing_window"] == q - 1
        assert all(entry["certified_vanishing_window"] == q - 2
                   for entry in plane["middle"].values())
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 5 exceeded 60 s: {elapsed:.1f} s"


def test_criterion_06_hochschild_brute_force():
    """Bar-complex HH^(0,1,2) of M_2(F_p) is (1,0,0) and of k x k is (2,0,0)."""
    for p in (2, 3):
        hh = hochschild_cohomology(
            Bimodule.regular(StructAlgebra.matrix_algebra(p, 2)), 2)
        assert tuple(hh[m][0] for m in range(3)) == (1, 0, 0)
        hh = hochschild_cohomology(
            Bimodule.regular(StructAlgebra.product_of_copies(p, 2)), 2)
        assert tuple(hh[m][0] for m in range(3)) == (2, 0, 0)


def _point_complex(bimodule):
    return GSComplex(GSDiagram.constant(Poset(["pt"], []), bimodule))


def test_criterion_07_gs_point_reduction():
    """On a one-point poset the diagram complex has the bar complex's
    cochain spaces and differentials, matrix for matrix."""
    makers = [
        lambda p: StructAlgebra.matrix_algebra(p, 2),
        lambda p: StructAlgebra.product_of_copies(p, 2),
        lambda p: StructAlgebra.truncated_polynomial(p, 2),
    ]
    for p in (2, 3):
        for make in makers:
            bim = Bimodule.regular(make(p))
            gs = _point_complex(bim)
            assert gs.double.dim(0, 0) == bim.dim
            for j in range(2):
                bar = bar_differential_matrix(bim, j)
                assert gs.double.vertical(0, j) == bar
                assert gs.double.dim(0, j) == bar.shape[1]
                assert gs.double.dim(0, j + 1) == bar.shape[0]


def test_criterion_08_spectral_sequence_collapse_and_convergence():
    """E2 of the one-chart and two-chart scenarios is concentrated in
    j = 0 inside the certified window (column surjectivity) at depths
    r <= 2, and sum(dim E_inf) = dim H(Tot) there and on 50 random
    double complexes.  The one-chart scenario is a single column, the [u, -]
    commutator complex of the compressed window that `hh_of_pair` builds, so
    its E2 is that complex's cohomology: the du + 1 multiplication operators
    in j = 0, and in j = 1 one window-edge artifact per degree above a
    surjective inner window."""
    for p, r, h00 in ((2, 1, 9), (2, 2, 5), (3, 1, 6)):
        one_chart = hh_of_pair(p, r, 16, 8)
        du, qu = one_chart["compressed_window"].values()
        assert one_chart["h0_dim"] == h00 == du + 1 and one_chart["h0_certified"], (p, r)
        assert one_chart["h_top"]["certified_vanishing_window"] == qu - 1, (p, r)
        assert one_chart["h_top"]["raw_dim"] == du + 1, (p, r)
        report, _double = gs_for_subalgebra_scenario(p, r, 16, 8)
        assert report["row0_matches_nerve"], (p, r)
        assert all(col["surjective"] for col in report["column_surjectivity"]), (p, r)
        assert report["convergence"]["agree"], (p, r)
    rng = np.random.default_rng(808)
    for _ in range(50):
        dc = random_double_complex(int(rng.choice([2, 3, 5])), rng)
        ok, _table = dc.convergence_check()
        assert ok


def _circle_cover(p):
    poset = Poset(
        ["v01", "v12", "v02", "U0", "U1", "U2"],
        [("v01", "U0"), ("v01", "U1"), ("v12", "U1"), ("v12", "U2"),
         ("v02", "U0"), ("v02", "U2")],
    )
    return constant_diagram(p, poset), ["U0", "U1", "U2"]


def _interval_cover(p):
    poset = Poset(["w", "a", "b"], [("w", "a"), ("w", "b")])
    return constant_diagram(p, poset), ["a", "b"]


def test_criterion_09_cech_nerve_comparison():
    """Nerve and Cech dimension tables agree on every intersection-closed
    cover in the corpus; the two-chart structure-sheaf model has
    (H^0, H^1) = (1, 0)."""
    for p in (2, 3, 7):
        corpus = [_circle_cover(p), _interval_cover(p)]
        for twist in (0, 1, 3, -1, -2, -4):
            corpus.append(projective_line_twist_diagram(p, twist, 5))
        for diagram, cover in corpus:
            assert nerve_vs_cech(diagram, cover)["agree"]
        sheaf, cover = projective_line_twist_diagram(p, 0, 5)
        betti = sheaf.cech_betti(cover)
        assert (betti.get(0, 0), betti.get(1, 0)) == (1, 0)
        down, cover = projective_line_twist_diagram(p, -2, 5)
        betti = down.cech_betti(cover)
        assert (betti.get(0, 0), betti.get(1, 0)) == (0, 1)


def test_criterion_10_main_theorem_desk_form():
    """One-chart scenario at p=2, R=3, D=16: the truncated six-term
    sequence is exact at every certified degree, H^0 inside the certified
    window is the constants alone, and the restriction maps are the
    Frobenius inclusions between twist subrings."""
    filtered = filtered_hh_sequence(2, 3, 16, 8)
    assert filtered["m1_exact_at_certified_degrees"]
    assert filtered["certified_degrees"] == [d for d in range(1, 17) if d % 4]
    h0 = filtered["h0_full"]
    assert all(a > h0["certified_window"] for a in h0["survivors_above_window"])
    assert h0["dim"] - len(h0["survivors_above_window"]) == 1
    assert filtered["nesting_frobenius"]
    for r in range(4):
        assert filtered["h0_models"][r]["exponents"] == list(range(0, 17, 2 ** r))
    pair = hh_of_pair(2, 3, 16, 8)
    assert pair["h0_certified"]
    assert pair["h0_basis"] == ["1", "t^8", "t^16"]


def test_criterion_11_proper_case_hasse_vs_cech():
    """For every smooth shiftable monic cubic at p in {3,5,7} (>= 5 per
    prime) the coefficient-formula Hasse invariant equals the Cech
    Frobenius multiplier, and the certified proper H^1 dimension is 1 for
    ordinary curves, 0 for supersingular ones; < 120 s."""
    start = time.monotonic()
    for p in (3, 5, 7):
        tested = ordinary = supersingular = 0
        for c0 in range(p):
            for c1 in range(p):
                for c2 in range(p):
                    cubic = [c0, c1, c2, 1]
                    try:
                        report = elliptic_frobenius_report(p, cubic)
                    except (ValueError, WindowError):
                        continue  # singular or unshiftable curve
                    assert report["agree"], (p, cubic)
                    assert report["hasse"] == hasse_invariant(p, cubic)
                    assert report["h1_proper_dim"] == (1 if report["ordinary"] else 0)
                    tested += 1
                    ordinary += report["ordinary"]
                    supersingular += not report["ordinary"]
        assert tested >= 5, p
        assert ordinary and supersingular, p
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 11 exceeded 120 s: {elapsed:.1f} s"


def _leibniz_defect(gs, i1, j1, alpha, i2, j2, beta):
    """max |d(a u b) - (da u b + (-1)^(i1+j1) a u db)| over components."""
    p = gs.p
    left = gs.cup(i1, j1, alpha, i2, j2, beta)
    d_left = gs.differential(i1 + i2, j1 + j2, left)
    sign = (-1) ** (i1 + j1)
    expected = {}
    for (ii, jj), da in gs.differential(i1, j1, alpha).items():
        term = gs.cup(ii, jj, da, i2, j2, beta)
        if term:
            acc = expected.setdefault((ii + i2, jj + j2),
                                      gs.zero_cochain(ii + i2, jj + j2))
            for sigma, arr in term.items():
                acc[sigma] = (acc[sigma] + arr) % p
    for (ii, jj), db in gs.differential(i2, j2, beta).items():
        term = gs.cup(i1, j1, alpha, ii, jj, db)
        if term:
            acc = expected.setdefault((i1 + ii, j1 + jj),
                                      gs.zero_cochain(i1 + ii, j1 + jj))
            for sigma, arr in term.items():
                acc[sigma] = (acc[sigma] + sign * arr) % p
    defect = 0
    for key in set(d_left) | set(expected):
        got = d_left.get(key, gs.zero_cochain(*key))
        want = expected.get(key, gs.zero_cochain(*key))
        for sigma in got:
            defect = max(defect, int(np.max((got[sigma] - want[sigma]) % p,
                                            initial=0)))
    return defect


def _evaluation_diagram(p):
    a_top = StructAlgebra.truncated_polynomial(p, 2)
    a_bot = StructAlgebra(p, [[[1]]], [1])
    poset = Poset(["V", "U"], [("V", "U")])
    ev = [[1, 0]]
    return GSDiagram(
        p, poset,
        {"U": a_top, "V": a_bot},
        {"U": Bimodule.regular(a_top), "V": Bimodule.regular(a_bot)},
        {("U", "V"): ev},
        {("U", "V"): ev},
    )


def test_criterion_12_cup_products():
    """Leibniz rule for the diagram cup on >= 100 random cochain pairs per
    scenario; edge-map multiplicativity on the computed one-chart and
    proper scenarios."""
    scenarios = [
        lambda: _point_complex(
            Bimodule.regular(StructAlgebra.truncated_polynomial(2, 2))),
        lambda: GSComplex(GSDiagram.constant(
            Poset(["a", "b"], [("a", "b")]),
            Bimodule.regular(StructAlgebra.product_of_copies(3, 2)))),
        lambda: GSComplex(_evaluation_diagram(5)),
    ]
    rng = np.random.default_rng(1212)
    for build in scenarios:
        gs = build()
        bidegrees = [(i, j) for i in range(gs.max_i + 1) for j in range(gs.max_j)]
        pairs = 0
        while pairs < 100:
            for (i1, j1) in bidegrees:
                for (i2, j2) in bidegrees:
                    if i1 + i2 > gs.max_i or j1 + j2 + 1 > gs.max_j:
                        continue
                    alpha = gs.random_cochain(i1, j1, rng)
                    beta = gs.random_cochain(i2, j2, rng)
                    assert _leibniz_defect(gs, i1, j1, alpha, i2, j2, beta) == 0
                    pairs += 1

    # the point cup agrees with the Hochschild cup, so the edge map of the
    # collapsed spectral sequence multiplies as the bar-complex cup does
    algebra = StructAlgebra.matrix_algebra(3, 2)
    bim = Bimodule.regular(algebra)
    gs = _point_complex(bim)
    for j1, j2 in [(0, 0), (0, 1), (1, 1)]:
        a = gs.random_cochain(0, j1, rng)
        b = gs.random_cochain(0, j2, rng)
        got = gs.cup(0, j1, a, 0, j2, b)[("pt",)]
        want = np.asarray(cup_product(bim, j1, a[("pt",)], j2, b[("pt",)])) % 3
        assert np.array_equal(got, want)

    # one-chart scenario: the certified H^0 ring is the exponent semigroup
    # of the twist subring window
    pair = hh_of_pair(2, 3, 16, 8)
    assert pair["h0_basis"] == ["1", "t^8", "t^16"]
    alg = OperatorAlgebra(2, 1, names=("t",))
    for i in range(3):
        for j in range(3):
            if i + j <= 2:
                prod = alg.monomial((8 * i,), (0,)) * alg.monomial((8 * j,), (0,))
                assert prod == alg.monomial((8 * (i + j),), (0,))

    # proper scenario: Frobenius is multiplicative over the function ring,
    # and a two-chart cover has no 2-simplices, so H^1 cup H^1 = 0 holds
    # structurally
    for p, cubic in ((3, [1, 0, 1, 1]), (5, [1, 1, 0, 1]), (7, [1, 0, 1, 1])):
        check = elliptic_frobenius_module_check(p, cubic)
        assert check["multiplicative"], (p, cubic)
    two_charts = Poset(["w", "a", "b"], [("w", "a"), ("w", "b")])
    assert two_charts.chains(3) == []
