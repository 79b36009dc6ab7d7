"""Hochschild cochains: bar model, cup products, commutator model, oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply,
    joins,
    matrix_polynomial,
    mul_vec,
    oracle_bar_differential_matrix,
    oracle_koszul_commutator_complex,
    oracle_middle_window_vanishes,
    tensor_algebra,
)
from test_gs import _evaluation_diagram
from hhdx import linalg
from hhdx.cli import _make_algebra
from hhdx.errors import CapacityError, WindowError
from hhdx.gs import GSComplex
from hhdx.hochschild import (
    Bimodule,
    StructAlgebra,
    _middle_window_vanishes,
    bar_complex,
    bar_differential_matrix,
    cup_product,
    hh_of_pair,
    hochschild_cohomology,
    koszul_commutator_complex,
    operator_window_koszul,
)
from hhdx.linalg import FpMatrix, Subspace


def test_struct_algebra_constructions():
    m2 = StructAlgebra.matrix_algebra(5, 2)
    assert m2.dim == 4
    # e_01 * e_10 = e_00 (row-major basis e_00, e_01, e_10, e_11)
    e01 = np.array([0, 1, 0, 0])
    e10 = np.array([0, 0, 1, 0])
    assert list(mul_vec(m2, e01, e10)) == [1, 0, 0, 0]
    assert list(mul_vec(m2, e10, e01)) == [0, 0, 0, 1]

    kk = StructAlgebra.product_of_copies(3, 2)
    assert list(mul_vec(kk, [1, 0], [0, 1])) == [0, 0]

    tp = StructAlgebra.truncated_polynomial(2, 4)
    x = np.array([0, 1, 0, 0])
    x2 = mul_vec(tp, x, x)
    assert list(x2) == [0, 0, 1, 0]
    assert list(mul_vec(tp, x2, x2)) == [0, 0, 0, 0]  # x^4 = 0


def test_struct_algebra_validation():
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[1, 1, 0] = 1  # x*x = 1 with no unit row: unit fails
    with pytest.raises(ValueError):
        StructAlgebra(3, bad, [1, 0])

    # non-associative: e1*e1 = e1 with e1*e0 = 0 but unit demands e1*e0 = e1
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    table[1, 1, 0] = 1  # x^2 = 1
    StructAlgebra(3, table, [1, 0])  # this one is fine (group algebra of Z/2)
    table[1, 1, 1] = 1  # x^2 = 1 + x breaks nothing? check associativity holds
    StructAlgebra(3, table, [1, 0])
    table2 = np.zeros((2, 2, 2), dtype=np.int64)
    table2[0, 0, 0] = 1
    table2[0, 1, 1] = 1
    table2[1, 0, 1] = 1
    table2[1, 1, 1] = 1
    table2[1, 0, 0] = 1  # now x*1 = 1 + x != 1*x: associativity/unit must fail
    with pytest.raises(ValueError):
        StructAlgebra(3, table2, [1, 0])


def _one_sided_unit_algebra(side):
    """F_p{u, a} with u u = u, a a = 0 and u the unit on one side only: u a = a,
    a u = 0 (left unit), or the opposite product (right unit).  Both are
    associative."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[(0, 1, 1) if side == "left" else (1, 0, 1)] = 1
    return table


@pytest.mark.parametrize("side,message", [("right", "unit fails on the left"),
                                          ("left", "unit fails on the right")])
def test_struct_algebra_names_the_unit_law_that_fails(side, message):
    with pytest.raises(ValueError, match=message):
        StructAlgebra(3, _one_sided_unit_algebra(side), [1, 0])


def test_tensor_algebra():
    m2 = StructAlgebra.matrix_algebra(2, 2)
    tp = StructAlgebra.truncated_polynomial(2, 2)
    t = tensor_algebra(m2, tp)
    assert t.dim == 8
    # unit of the tensor is unit (x) unit
    eye = np.eye(8, dtype=np.int64)
    for i in range(8):
        assert np.array_equal(mul_vec(t, t.unit, eye[i]), eye[i])


def test_regular_bimodule_axioms_checked():
    for alg in (StructAlgebra.matrix_algebra(3, 2),
                StructAlgebra.truncated_polynomial(2, 4),
                StructAlgebra.product_of_copies(5, 3)):
        Bimodule.regular(alg)  # construction runs the axiom checks

    # x acting by the identity on the right contradicts x^2 = 0
    tp = StructAlgebra.truncated_polynomial(2, 2)
    good = Bimodule.regular(tp)
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError):
        Bimodule(tp, good.left, [eye, eye])


# Action matrices over F_3 x F_3 on F_3^2, each breaking one bimodule law only:
# N is nilpotent, P a non-diagonal idempotent, E0 + E1 the diagonal idempotents.
_I, _Z = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
_N, _P = np.array([[0, 1], [0, 0]]), np.array([[1, 1], [0, 0]])
_E0, _E1 = np.diag([1, 0]), np.diag([0, 1])
BROKEN_BIMODULES = [
    ([_N, _I - _N], [_I, _Z], "left action is not a module structure"),
    ([_I, _Z], [_N, _I - _N], "right action is not a module structure"),
    ([_E0, _E1], [_P, _I - _P], "left and right actions do not commute"),
    ([_Z, _Z], [_Z, _Z], "unit does not act as the identity"),
]


@pytest.mark.parametrize("left,right,message", BROKEN_BIMODULES,
                         ids=["left", "right", "commutation", "unit"])
def test_bimodule_names_the_law_that_fails(left, right, message):
    with pytest.raises(ValueError, match=message):
        Bimodule(StructAlgebra.product_of_copies(3, 2), left, right)


@pytest.mark.parametrize("name", ["m2", "kxk", "dual"])
def test_action_equals_sum_of_basis_actions(name):
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        algebra = _make_algebra(p, name)
        bimodule = Bimodule.regular(algebra)
        n = algebra.dim
        coords = list(np.eye(n, dtype=np.int64)) + [algebra.unit]
        coords += [rng.integers(0, p, size=n) for _ in range(5)]
        for side, mats in (("left", bimodule.left), ("right", bimodule.right)):
            for c in coords:
                want = sum(int(c[k]) * mats[k] for k in range(n)) % p
                assert np.array_equal(bimodule.action(c, side), want)
            # rows of coordinates give the stack of their action matrices
            assert np.array_equal(bimodule.action(np.array(coords), side),
                                  np.stack([bimodule.action(c, side) for c in coords]))


def test_bar_differential_squares_to_zero():
    for alg in (StructAlgebra.matrix_algebra(2, 2),
                StructAlgebra.truncated_polynomial(3, 3),
                StructAlgebra.product_of_copies(5, 2)):
        bim = Bimodule.regular(alg)
        bar_complex(bim, 3)  # d∘d checked at construction


def _bar_bimodules(p):
    """Regular bimodules of M_2(F_p), F_p^k (k <= 4) and F_p[x]/(x^k) (k <= 5),
    and the bimodules the evaluation diagram pulls back along its chains."""
    algebras = st.one_of(
        st.just(StructAlgebra.matrix_algebra(p, 2)),
        st.integers(min_value=1, max_value=4).map(
            lambda k: StructAlgebra.product_of_copies(p, k)),
        st.integers(min_value=1, max_value=5).map(
            lambda k: StructAlgebra.truncated_polynomial(p, k)))
    gs = GSComplex(_evaluation_diagram(p))
    pulled = [gs._pullback_bimodule(s) for level in gs.chains.values() for s in level]
    return st.one_of(algebras.map(Bimodule.regular), st.sampled_from(pulled))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bar_differential_triples_match_the_kronecker_oracle(data):
    bim = data.draw(st.sampled_from([2, 3, 5, 7]).flatmap(_bar_bimodules))
    j = data.draw(st.integers(min_value=0, max_value=3))
    assert bar_differential_matrix(bim, j) == oracle_bar_differential_matrix(bim, j)


def test_bar_differential_refuses_over_capacity_before_allocating(monkeypatch):
    bim = Bimodule.regular(StructAlgebra.truncated_polynomial(2, 12))
    # d : C^1 -> C^2 writes 12 (78 + 78) action triples and 12 * 78 product
    # triples (the table has 78 nonzeros): one entry over capacity refuses it
    monkeypatch.setattr(linalg, "MAX_MATRIX_ENTRIES", 12 * (78 + 78) + 12 * 78 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="bar differential of 2808 entries"):
            bar_differential_matrix(bim, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(linalg, "MAX_MATRIX_ENTRIES", 12 * (78 + 78) + 12 * 78)
    got = bar_differential_matrix(bim, 1)
    monkeypatch.undo()
    assert got == oracle_bar_differential_matrix(bim, 1)


def test_struct_algebra_refuses_its_associativity_arrays_over_capacity(monkeypatch):
    # M_2 has dimension 4: its associativity check makes two 4^4-entry arrays
    monkeypatch.setattr(linalg, "MAX_MATRIX_ENTRIES", 4 ** 4 - 1)
    with pytest.raises(CapacityError):
        StructAlgebra.matrix_algebra(2, 2)
    monkeypatch.setattr(linalg, "MAX_MATRIX_ENTRIES", 4 ** 4)
    assert StructAlgebra.matrix_algebra(2, 2).dim == 4


def test_hh_matrix_algebra_and_split():
    # frozen separability facts
    for p in (2, 3, 5):
        m2 = Bimodule.regular(StructAlgebra.matrix_algebra(p, 2))
        table = hochschild_cohomology(m2, 2)
        assert {j: d for j, (d, _) in table.items()} == {0: 1, 1: 0, 2: 0}

        kk = Bimodule.regular(StructAlgebra.product_of_copies(p, 2))
        table = hochschild_cohomology(kk, 2)
        assert {j: d for j, (d, _) in table.items()} == {0: 2, 1: 0, 2: 0}


def test_hh0_matrix_algebra_is_scalars():
    m2 = Bimodule.regular(StructAlgebra.matrix_algebra(3, 2))
    dim, reps = hochschild_cohomology(m2, 0)[0]
    assert dim == 1
    space = Subspace(3, 4, reps)
    assert space.contains([1, 0, 0, 1])  # the identity matrix spans the center


def test_hh_truncated_polynomial_char2():
    # A = F_2[x]/(x^2): HH^0 = A (dim 2), HH^1 = Der(A) (dim 2 in char 2)
    a = Bimodule.regular(StructAlgebra.truncated_polynomial(2, 2))
    table = hochschild_cohomology(a, 2)
    dims = {j: d for j, (d, _) in table.items()}
    assert dims[0] == 2
    assert dims[1] == 2
    assert dims[2] == 2  # 2-periodic for this self-injective algebra


def test_morita_invariance_bar():
    # HH^j(A) == HH^j(M_2(A)) for small A, via the bar model on both sides
    for p, base in ((2, StructAlgebra.truncated_polynomial(2, 2)),
                    (3, StructAlgebra.product_of_copies(3, 2))):
        m2 = StructAlgebra.matrix_algebra(p, 2)
        big = tensor_algebra(m2, base)
        small_table = hochschild_cohomology(Bimodule.regular(base), 1)
        big_table = hochschild_cohomology(Bimodule.regular(big), 1)
        for j in range(2):
            assert small_table[j][0] == big_table[j][0], (p, j)


def test_cup_product_unit_and_associativity():
    alg = StructAlgebra.truncated_polynomial(2, 4)
    bim = Bimodule.regular(alg)
    rng = np.random.default_rng(5)
    n, m = alg.dim, bim.dim
    unit0 = np.zeros(m, dtype=np.int64)
    unit0[0] = 1  # the cochain 1 in C^0 = M
    for _ in range(10):
        phi = rng.integers(0, 2, size=n * m)
        psi = rng.integers(0, 2, size=n * n * m)
        assert np.array_equal(cup_product(bim, 0, unit0, 1, phi), phi % 2)
        assert np.array_equal(cup_product(bim, 1, phi, 0, unit0), phi % 2)
        lhs = cup_product(bim, 1, cup_product(bim, 0, unit0, 1, phi), 1, psi[: n * m])
        rhs = cup_product(bim, 0, unit0, 2, cup_product(bim, 1, phi, 1, psi[: n * m]))
        assert np.array_equal(lhs, rhs)


def test_cup_product_leibniz():
    # d(phi u psi) = d(phi) u psi + (-1)^i phi u d(psi)
    rng = np.random.default_rng(11)
    for alg in (StructAlgebra.truncated_polynomial(3, 3),
                StructAlgebra.matrix_algebra(2, 2)):
        bim = Bimodule.regular(alg)
        p = alg.p
        n, m = alg.dim, bim.dim
        d0 = bar_differential_matrix(bim, 0)
        d1 = bar_differential_matrix(bim, 1)
        d2 = bar_differential_matrix(bim, 2)
        for _ in range(12):
            phi = rng.integers(0, p, size=n * m)       # degree 1
            psi = rng.integers(0, p, size=n * m)       # degree 1
            lhs = apply(d2, cup_product(bim, 1, phi, 1, psi))
            rhs = (cup_product(bim, 2, apply(d1, phi), 1, psi)
                   + (-1) ** 1 * cup_product(bim, 1, phi, 2, apply(d1, psi))) % p
            assert np.array_equal(lhs, rhs % p)
            chi = rng.integers(0, p, size=m)           # degree 0
            lhs0 = apply(d1, cup_product(bim, 0, chi, 1, psi))
            rhs0 = (cup_product(bim, 1, apply(d0, chi), 1, psi)
                    + cup_product(bim, 0, chi, 2, apply(d1, psi))) % p
            assert np.array_equal(lhs0, rhs0 % p)


def test_koszul_commutator_complex_validation():
    p = 3
    a = FpMatrix(p, [[0, 1], [0, 0]])
    b = FpMatrix(p, [[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        koszul_commutator_complex(p, 2, [a, b])  # do not commute
    cx = koszul_commutator_complex(p, 2, [a, a])
    assert cx.dims == {0: 2, 1: 4, 2: 2}


def test_koszul_commutator_complex_validation_past_the_join_threshold():
    p, n = 3, 64
    up, down, up2 = (np.eye(n, k=k, dtype=np.int64) for k in (1, -1, 2))
    assert joins(up, down) and joins(up, up2)
    with pytest.raises(ValueError, match="commutator complex needs commuting endomorphisms"):
        koszul_commutator_complex(p, n, [FpMatrix(p, up), FpMatrix(p, down)])
    cx = koszul_commutator_complex(p, n, [FpMatrix(p, up), FpMatrix(p, up2)])
    assert cx.dims == {0: n, 1: 2 * n, 2: n}


def test_koszul_commutator_complex_reports_a_wrong_shape_as_such():
    with pytest.raises(ValueError, match="needs 2 x 2 matrices"):
        koszul_commutator_complex(3, 2, [FpMatrix(3, np.eye(2, dtype=np.int64)),
                                         FpMatrix(3, np.eye(3, dtype=np.int64))])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_koszul_complex_matches_per_subset_sign_loop(data):
    """Face-sum Koszul complex against the per-subset sign loop, on commuting
    families: polynomials in one random matrix."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(min_value=1, max_value=3))
    size = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                                 min_size=size * size, max_size=size * size))
    base = np.array(entries, dtype=np.int64).reshape(size, size)
    mats = [matrix_polynomial(base, data.draw(st.lists(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=3)), p)
            for _ in range(n)]
    got = koszul_commutator_complex(p, size, [FpMatrix(p, mat) for mat in mats])
    want = oracle_koszul_commutator_complex(p, size, mats)
    assert got.dims == want.dims
    for j in range(n):
        assert got.differential(j) == want.differential(j)


def test_operator_window_koszul_line():
    # full algebra window on the affine line: H^0 exactly the polynomials
    for p, d, q in ((2, 8, 4), (3, 6, 3)):
        cx, module, report = operator_window_koszul(p, 1, d, q)
        assert report["h0"]["dim"] == d + 1
        assert report["h0"]["certified_multiplication_operators"]
        assert report["h_top"]["certified_vanishing_window"] == q - 1
        # the artifact layer is exactly the dp = q edge
        assert report["h_top"]["raw_dim"] == d + 1
        assert report["h_top"]["edge_artifacts"] == d + 1


def test_operator_window_koszul_plane():
    cx, module, report = operator_window_koszul(2, 2, 3, 3)
    assert report["h0"]["dim"] == 16  # polynomials in two variables, deg <= 3 each
    assert report["h0"]["certified_multiplication_operators"]
    assert report["middle"][1]["certified_vanishing_window"] == 1
    assert report["h_top"]["certified_vanishing_window"] == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_plane_certificates_match_the_subspace_paths(p):
    outcomes = set()
    for d, q in ((1, 1), (2, 3), (3, 2), (2, 4)):
        cx, module, report = operator_window_koszul(p, 2, d, q)
        mult = np.flatnonzero((module.b == 0).all(axis=1))
        assert report["h0"]["certified_multiplication_operators"] == (
            cx.kernel(0) == Subspace.units(p, module.dim, mult))
        for window in range(-1, q + 1):
            got = _middle_window_vanishes(cx, module, 1, window)
            assert got == oracle_middle_window_vanishes(cx, module, 1, window), (d, q, window)
            outcomes.add(got)
    assert outcomes == {True, False}  # window -1 is the empty layer


def test_operator_window_koszul_kunneth():
    # per-coordinate windows make the plane complex a tensor square
    p, d, q = 2, 3, 3
    cx1, _, _ = operator_window_koszul(p, 1, d, q)
    cx2, _, _ = operator_window_koszul(p, 2, d, q)
    b1 = cx1.betti()
    b2 = cx2.betti()
    for m in range(0, 3):
        expected = sum(b1.get(i, 0) * b1.get(m - i, 0) for i in range(m + 1))
        assert b2[m] == expected, m


def test_hh_of_pair_twists():
    # depth 1 at p = 2: H^0 basis 1, t^2, t^4, ... inside the window
    out = hh_of_pair(2, 1, 8, 4)
    assert out["h0_dim"] == 5
    assert out["h0_basis"] == ["1", "t^2", "t^4", "t^6", "t^8"]
    assert out["h0_certified"]

    out0 = hh_of_pair(2, 0, 4, 2)
    assert out0["h0_basis"] == ["1", "t", "t^2", "t^3", "t^4"]

    with pytest.raises(WindowError):
        hh_of_pair(2, 3, 4, 4)  # no t^8 fits in degree window 4
