"""Diagram cohomology: posets, nerve vs Cech, the diagram double complex,
its cup product, and the windowed operator scenarios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    invert_variable,
    oracle_block_matrix,
    oracle_face_sum,
    oracle_operator_matrix,
    oracle_structure_window_diagram,
    term_dict,
)
from hhdx.dpdo import OperatorAlgebra, TruncatedOperatorModule
from hhdx.errors import WindowError
from hhdx.gs import (
    GSComplex,
    GSDiagram,
    Poset,
    SpaceDiagram,
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
    hochschild_cohomology,
)


# -- posets -------------------------------------------------------------------


def test_poset_transitive_closure_and_chains():
    poset = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert poset.le("a", "c")
    assert not poset.le("c", "a")
    assert poset.chains(0) == [("a",), ("b",), ("c",)]
    assert poset.chains(1) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert poset.chains(2) == [("a", "b", "c")]


def test_poset_rejects_cycles():
    with pytest.raises(ValueError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_poset_meets():
    poset = Poset(["m", "a", "b"], [("m", "a"), ("m", "b")])
    assert poset.meet(("a", "b")) == "m"
    assert poset.meet(("a",)) == "a"
    # two incomparable lower bounds: no unique meet
    bad = Poset(["v", "w", "a", "b"],
                [("v", "a"), ("v", "b"), ("w", "a"), ("w", "b")])
    with pytest.raises(ValueError):
        bad.meet(("a", "b"))
    # no common lower bound at all
    disc = Poset(["a", "b"], [])
    assert disc.meet(("a", "b")) is None


# -- space diagrams: nerve and Cech -----------------------------------------


def _circle_cover_diagram(p):
    """Three arcs covering a circle: pairwise overlaps, no triple one."""
    poset = Poset(
        ["v01", "v12", "v02", "U0", "U1", "U2"],
        [("v01", "U0"), ("v01", "U1"), ("v12", "U1"), ("v12", "U2"),
         ("v02", "U0"), ("v02", "U2")],
    )
    return constant_diagram(p, poset), ["U0", "U1", "U2"]


@pytest.mark.parametrize("p", [2, 5])
def test_circle_cover_nerve_equals_cech(p):
    diagram, cover = _circle_cover_diagram(p)
    assert diagram.nerve_betti() == {0: 1, 1: 1}
    assert diagram.cech_betti(cover) == {0: 1, 1: 1}
    assert nerve_vs_cech(diagram, cover)["agree"]


def test_nerve_vs_cech_rejects_missing_intersections():
    poset = Poset(["v", "w", "a", "b"],
                  [("v", "a"), ("v", "b"), ("w", "a"), ("w", "b")])
    diagram = constant_diagram(3, poset)
    with pytest.raises(ValueError):
        nerve_vs_cech(diagram, ["a", "b"])


def test_space_diagram_requires_composing_restrictions():
    poset = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    dims = {"a": 1, "b": 1, "c": 1}
    restr = {("b", "a"): [[1]], ("c", "b"): [[1]], ("c", "a"): [[2]]}
    with pytest.raises(ValueError):
        SpaceDiagram(5, poset, dims, restr)
    restr[("c", "a")] = [[1]]
    SpaceDiagram(5, poset, dims, restr)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_projective_line_twists(p):
    expected = {0: (1, 0), 1: (2, 0), 3: (4, 0), -1: (0, 0), -2: (0, 1), -4: (0, 3)}
    for twist, (h0, h1) in expected.items():
        diagram, cover = projective_line_twist_diagram(p, twist, 5)
        betti = diagram.cech_betti(cover)
        assert (betti.get(0, 0), betti.get(1, 0)) == (h0, h1), twist
        assert nerve_vs_cech(diagram, cover)["agree"]


@pytest.mark.parametrize("p", [2, 3])
def test_untwisted_line_nerve_equals_two_chart_function_windows(p):
    # p1-cover reads its structure-sheaf nerve from the twist-0 diagram; the
    # function-window diagram with the chart change v = 1/u is isomorphic, and
    # both see H^0 = constants, H^1 = 0
    for du in range(1, 9):
        diagram, _ = projective_line_twist_diagram(p, 0, du)
        want = oracle_structure_window_diagram(p, du).nerve_betti()
        assert diagram.nerve_betti() == want == {0: 1, 1: 0}, du


def test_projective_line_window_guard():
    with pytest.raises(ValueError):
        projective_line_twist_diagram(3, -7, 5)


# -- the diagram double complex ----------------------------------------------


def _point_gs(bimodule):
    poset = Poset(["pt"], [])
    return GSComplex(GSDiagram.constant(poset, bimodule))


@pytest.mark.parametrize("make", [
    lambda: StructAlgebra.matrix_algebra(2, 2),
    lambda: StructAlgebra.truncated_polynomial(3, 2),
])
def test_point_diagram_reproduces_bar_matrices(make):
    algebra = make()
    bim = Bimodule.regular(algebra)
    gs = _point_gs(bim)
    for j in range(0, 2):
        assert gs.double.vertical(0, j) == bar_differential_matrix(bim, j)
    assert gs.double.dim(0, 0) == bim.dim
    total = gs.double.totalize()
    hh = hochschild_cohomology(bim, 1)
    for m in range(0, 2):
        assert total.cohomology(m)[0] == hh[m][0]


@pytest.mark.parametrize("make,dims", [
    (lambda: StructAlgebra.matrix_algebra(2, 2), (1, 0)),
    (lambda: StructAlgebra.product_of_copies(3, 2), (2, 0)),
    (lambda: StructAlgebra.truncated_polynomial(2, 2), (2, 2)),
])
def test_constant_interval_diagram_matches_hochschild(make, dims):
    """A constant diagram over a contractible nerve adds nothing."""
    algebra = make()
    poset = Poset(["a", "b"], [("a", "b")])
    gs = GSComplex(GSDiagram.constant(poset, Bimodule.regular(algebra)))
    total = gs.double.totalize()
    assert total.cohomology(0)[0] == dims[0]
    assert total.cohomology(1)[0] == dims[1]
    ok, _ = gs.double.convergence_check()
    assert ok


def _evaluation_diagram(p):
    """k[x]/(x^2) over the top point restricting onto k at the bottom."""
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


@pytest.mark.parametrize("p", [2, 3])
def test_evaluation_diagram_builds_and_converges(p):
    gs = GSComplex(_evaluation_diagram(p))
    total = gs.double.totalize()
    # H^0 = pairs (z, c) with z central in k[x]/(x^2) and z(0) = c
    assert total.cohomology(0)[0] == 2
    ok, _ = gs.double.convergence_check()
    assert ok


def test_diagram_validation_rejects_broken_maps():
    p = 2
    a_top = StructAlgebra.truncated_polynomial(p, 2)
    a_bot = StructAlgebra(p, [[[1]]], [1])
    poset = Poset(["V", "U"], [("V", "U")])
    mods = {"U": Bimodule.regular(a_top), "V": Bimodule.regular(a_bot)}
    algs = {"U": a_top, "V": a_bot}
    # x |-> 1 is not an algebra map (x^2 = 0 would hit 1)
    with pytest.raises(ValueError):
        GSDiagram(p, poset, algs, mods, {("U", "V"): [[1, 1]]},
                  {("U", "V"): [[1, 0]]})
    # zero module map is fine for actions but breaks unitality of products?
    # the module map must interwine the actions along the algebra map
    with pytest.raises(ValueError):
        GSDiagram(p, poset, algs, mods, {("U", "V"): [[1, 0]]},
                  {("U", "V"): [[0, 1]]})
    # a missing restriction is a configuration error, not a lookup failure
    with pytest.raises(ValueError, match="missing restriction"):
        GSDiagram(p, poset, algs, mods, {("U", "V"): [[1, 0]]}, {})
    # W < V < U: every map is an algebra/module map, but the module maps do
    # not compose (the identity twice is not the zero map)
    chain = Poset(["W", "V", "U"], [("W", "V"), ("V", "U")])
    field = StructAlgebra(p, [[[1]]], [1])
    one = {key: [[1]] for key in [("U", "V"), ("V", "W"), ("U", "W")]}
    with pytest.raises(ValueError, match="compose"):
        GSDiagram(p, chain, {e: field for e in "UVW"},
                  {e: Bimodule.regular(field) for e in "UVW"},
                  one, {**one, ("U", "W"): [[0]]})
    GSDiagram(p, chain, {e: field for e in "UVW"},
              {e: Bimodule.regular(field) for e in "UVW"}, one, one)


def _two_point_maps(p, restr_alg, restr_mod, top=None, bottom=None):
    """A GSDiagram on V < U with the given restriction matrices; by default
    k[x]/(x^2) over U and k over V, each its own regular bimodule."""
    top = top or Bimodule.regular(StructAlgebra.truncated_polynomial(p, 2))
    bottom = bottom or Bimodule.regular(StructAlgebra(p, [[[1]]], [1]))
    return GSDiagram(p, Poset(["V", "U"], [("V", "U")]),
                     {"U": top.algebra, "V": bottom.algebra}, {"U": top, "V": bottom},
                     {("U", "V"): restr_alg}, {("U", "V"): restr_mod})


@pytest.mark.parametrize("p", [2, 3])
def test_diagram_rejects_a_restriction_that_breaks_the_unit(p):
    with pytest.raises(ValueError, match=r"\('U', 'V'\): restriction does not preserve the unit"):
        _two_point_maps(p, [[0, 1]], [[1, 0]])  # 1 -> 0


@pytest.mark.parametrize("p", [2, 3])
def test_diagram_rejects_a_restriction_that_is_not_multiplicative(p):
    # 1 -> 1 and x -> 1, so x^2 = 0 would go to 0 while x times x goes to 1
    with pytest.raises(ValueError, match=r"\('U', 'V'\): restriction is not multiplicative"):
        _two_point_maps(p, [[1, 1]], [[1, 0]])


@pytest.mark.parametrize("side", ["left", "right"])
def test_diagram_rejects_a_module_map_that_breaks_an_action(side):
    # evaluation at x = 0 with the module map a + b x -> b: x acts by zero on
    # k, yet x . 1 = x maps to 1.  The other side of k[x]/(x^2) acts through
    # its constant term alone, so only `side` breaks
    p = 3
    top = Bimodule.regular(StructAlgebra.truncated_polynomial(p, 2))
    eye = np.eye(2, dtype=np.int64)
    scalars = np.stack([eye, 0 * eye])  # 1 acts as the identity, x as zero
    top = Bimodule(top.algebra, *((top.left, scalars) if side == "left" else (scalars, top.right)))
    with pytest.raises(ValueError, match=rf"\('U', 'V'\): module map breaks the {side} action"):
        _two_point_maps(p, [[1, 0]], [[0, 1]], top=top)


def test_diagram_rejects_a_module_map_that_is_not_multiplicative():
    # over k everywhere: k[x]/(x^2) as a bimodule with its product, onto k by
    # (a + b x) -> a + b, which respects the scalar actions but sends x^2 = 0
    # to 0 and x times x to 1
    p = 3
    field = StructAlgebra(p, [[[1]]], [1])
    eye = np.eye(2, dtype=np.int64)[None]
    top = Bimodule(field, eye, eye, product=StructAlgebra.truncated_polynomial(p, 2).table)
    with pytest.raises(ValueError, match=r"\('U', 'V'\): module map is not multiplicative"):
        _two_point_maps(p, [[1]], [[1, 1]], top=top)


def _acceptance_diagrams(p):
    """The diagrams the evaluation tests and the acceptance criteria build
    complexes of: the evaluation of k[x]/(x^2) at 0, the point and the chain
    a < b under constant bimodules, and a constant three-element chain."""
    chain = Poset(["W", "V", "U"], [("W", "V"), ("V", "U")])
    return [_evaluation_diagram(p),
            *(GSDiagram.constant(Poset(["pt"], []), Bimodule.regular(algebra))
              for algebra in (StructAlgebra.matrix_algebra(p, 2),
                              StructAlgebra.product_of_copies(p, 2),
                              StructAlgebra.truncated_polynomial(p, 2))),
            GSDiagram.constant(Poset(["a", "b"], [("a", "b")]),
                               Bimodule.regular(StructAlgebra.product_of_copies(p, 2))),
            GSDiagram.constant(chain, Bimodule.regular(StructAlgebra.truncated_polynomial(p, 3)))]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 5))
def test_every_pullback_passes_the_bimodule_laws_it_skips(p, which):
    """`_pullback_bimodule` checks no law; `Bimodule._check`, the oracle,
    passes on every pullback along every chain of these diagrams."""
    gs = GSComplex(_acceptance_diagrams(p)[which])
    for level in gs.chains.values():
        for sigma in level:
            pulled = gs._pullback_bimodule(sigma)
            pulled._check()
            checked = Bimodule(pulled.algebra, pulled.left, pulled.right, pulled.product)
            assert pulled.dim == checked.dim
            assert np.array_equal(pulled.left, checked.left)
            assert np.array_equal(pulled.right, checked.right)


# -- cup products -------------------------------------------------------------


def _leibniz_defect(gs, i1, j1, alpha, i2, j2, beta):
    """max |d(a u b) - (da u b + (-1)^(i1+j1) a u db)| over components."""
    p = gs.p
    left = gs.cup(i1, j1, alpha, i2, j2, beta)
    d_left = gs.differential(i1 + i2, j1 + j2, left)
    d_alpha = gs.differential(i1, j1, alpha)
    d_beta = gs.differential(i2, j2, beta)
    sign = (-1) ** (i1 + j1)
    expected = {}
    for (ii, jj), da in d_alpha.items():
        term = gs.cup(ii, jj, da, i2, j2, beta)
        if term:
            acc = expected.setdefault((ii + i2, jj + j2),
                                      gs.zero_cochain(ii + i2, jj + j2))
            for sigma, arr in term.items():
                acc[sigma] = (acc[sigma] + arr) % p
    for (ii, jj), db in d_beta.items():
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
            defect = max(defect, int(np.max((got[sigma] - want[sigma]) % gs.p,
                                            initial=0)))
    return defect


@pytest.mark.parametrize("build", [
    lambda: _point_gs(Bimodule.regular(StructAlgebra.truncated_polynomial(2, 2))),
    lambda: GSComplex(GSDiagram.constant(
        Poset(["a", "b"], [("a", "b")]),
        Bimodule.regular(StructAlgebra.product_of_copies(3, 2)))),
    lambda: GSComplex(_evaluation_diagram(5)),
])
def test_cup_leibniz_randomized(build):
    gs = build()
    rng = np.random.default_rng(20260816)
    bidegrees = [(i, j) for i in range(gs.max_i + 1) for j in range(gs.max_j)]
    for _ in range(25):
        for (i1, j1) in bidegrees:
            for (i2, j2) in bidegrees:
                if i1 + i2 > gs.max_i or j1 + j2 + 1 > gs.max_j:
                    continue
                alpha = gs.random_cochain(i1, j1, rng)
                beta = gs.random_cochain(i2, j2, rng)
                assert _leibniz_defect(gs, i1, j1, alpha, i2, j2, beta) == 0


def test_double_complex_read_after_cups_holds_the_matrices_of_one_read_at_once():
    diagram = _evaluation_diagram(3)
    eager, lazy = GSComplex(diagram), GSComplex(diagram)
    want = eager.double
    rng = np.random.default_rng(3)
    for (i1, j1), (i2, j2) in [((0, 0), (1, 1)), ((0, 1), (0, 1)), ((1, 1), (0, 0))]:
        lazy.cup(i1, j1, lazy.random_cochain(i1, j1, rng), i2, j2,
                 lazy.random_cochain(i2, j2, rng))
    assert "double" not in vars(lazy)  # cups and cochains build no double complex
    got = lazy.double
    assert (got.dims, got.d_h, got.d_v) == (want.dims, want.d_h, want.d_v)


def test_cup_unit_and_point_agreement():
    algebra = StructAlgebra.matrix_algebra(3, 2)
    bim = Bimodule.regular(algebra)
    gs = _point_gs(bim)
    rng = np.random.default_rng(7)
    one = {("pt",): np.array(algebra.unit, dtype=np.int64)}
    for (i, j) in [(0, 0), (0, 1), (0, 2)]:
        alpha = gs.random_cochain(i, j, rng)
        left = gs.cup(0, 0, one, i, j, alpha)
        right = gs.cup(i, j, alpha, 0, 0, one)
        assert all(np.array_equal(left[s], alpha[s]) for s in alpha)
        assert all(np.array_equal(right[s], alpha[s]) for s in alpha)
    # on a point the diagram cup is the Hochschild cup
    for (j1, j2) in [(0, 0), (0, 1), (1, 1)]:
        a = gs.random_cochain(0, j1, rng)
        b = gs.random_cochain(0, j2, rng)
        got = gs.cup(0, j1, a, 0, j2, b)[("pt",)]
        want = cup_product(bim, j1, a[("pt",)], j2, b[("pt",)])
        assert np.array_equal(got, np.asarray(want) % 3)


def test_cup_degree_zero_is_central_product():
    # char 2: (1 + x) is central and squares to 1 in k[x]/(x^2)
    algebra = StructAlgebra.truncated_polynomial(2, 2)
    gs = _point_gs(Bimodule.regular(algebra))
    x = {("pt",): np.array([0, 1], dtype=np.int64)}
    one_plus_x = {("pt",): np.array([1, 1], dtype=np.int64)}
    assert np.array_equal(gs.cup(0, 0, x, 0, 0, x)[("pt",)], [0, 0])
    assert np.array_equal(
        gs.cup(0, 0, one_plus_x, 0, 0, one_plus_x)[("pt",)], [1, 0])


# -- windowed operator scenarios ----------------------------------------------


@pytest.mark.parametrize("p,r,db,qb", [(2, 1, 16, 8), (2, 2, 16, 8), (3, 1, 12, 6)])
def test_scenario_p1(p, r, db, qb):
    report, double = gs_for_subalgebra_scenario(p, r, db, qb)
    assert report["e2_row0"] == [1, 0]
    assert report["row0_matches_nerve"]
    assert all(c["surjective"] for c in report["column_surjectivity"])
    assert report["convergence"]["agree"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("du,qu", [(2, 1), (5, 2), (8, 4)])
def test_scenario_p1_maps_match_per_column_oracle(p, du, qu):
    """The face rows and the commutator columns of p1-cover's double complex
    equal the per-column oracle: transport and inclusion as re-tagged
    operators, the chart change by `invert_variable`, the comparison as
    -((u^-1 m) u^-1), the commutators by DPDOperator.commutator."""
    _, double = gs_for_subalgebra_scenario(p, 0, du, qu)
    alg_u = OperatorAlgebra(p, 1, names=("u",))
    alg_v = OperatorAlgebra(p, 1, names=("v",))
    alg_l = OperatorAlgebra(p, 1, names=("u",), laurent=True)
    alg_lv = OperatorAlgebra(p, 1, names=("v",), laurent=True)
    m_u0, m_u1 = TruncatedOperatorModule(alg_u, du, qu), TruncatedOperatorModule(alg_v, du, qu)
    m_u01 = TruncatedOperatorModule(alg_l, du, qu)
    m_edge1 = TruncatedOperatorModule(alg_l, du + qu + 2, qu)
    u_l, u_inv = alg_l.variable(), alg_l.variable(0, power=-1)
    columns = [[(m_u0, alg_u.variable(), m_u0), (m_u1, alg_v.variable(), m_u1),
                (m_u01, u_l, m_u01)],
               [(m_u01, u_l, m_edge1), (m_u01, u_inv, m_edge1)]]
    for i, column in enumerate(columns):
        blocks = {(k, k): oracle_operator_matrix(m, g.commutator, t).a
                  for k, (m, g, t) in enumerate(column)}
        want = oracle_block_matrix(p, [t.dim for *_, t in column], [m.dim for m, *_ in column],
                                   blocks).scale((-1) ** i)
        assert np.array_equal(double.vertical(i, 0).a, want.a)

    vertices, edges = [("U0",), ("U1",), ("U01",)], [("U01", "U0"), ("U01", "U1")]
    dims = {("U0",): m_u0.dim, ("U1",): m_u1.dim, ("U01",): m_u01.dim}
    for j, target in enumerate([m_u01, m_edge1]):
        faces = {
            (edges[0], 0): oracle_operator_matrix(m_u0, lambda m: alg_l.from_terms(term_dict(m)),
                                                  target).a,
            (edges[0], 1): oracle_operator_matrix(m_u01, lambda m: m, target).a,
            (edges[1], 0): oracle_operator_matrix(
                m_u1, lambda m: invert_variable(alg_lv.from_terms(term_dict(m)), alg_l), target).a,
            (edges[1], 1): oracle_operator_matrix(
                m_u01, (lambda m: -((u_inv * m) * u_inv)) if j else (lambda m: m), target).a,
        }
        want = oracle_face_sum(p, vertices, edges, lambda s: dims.get(s, target.dim),
                               lambda s, k: faces[s, k])
        assert np.array_equal(double.horizontal(0, j).a, want.a)


def test_scenario_p1_adjusts_narrow_dp_window():
    report, _ = gs_for_subalgebra_scenario(2, 1, 6, 8)
    assert "dp_window_adjusted" in report["flags"]
    assert report["window"]["dp"] == 1
    assert report["e2_row0"] == [1, 0]


def test_scenario_window_guards():
    with pytest.raises(WindowError):
        gs_for_subalgebra_scenario(2, 2, 3, 8)  # compressed degree 3 // 4 = 0
    with pytest.raises(WindowError):
        gs_for_subalgebra_scenario(2, 1, 2, 8)
