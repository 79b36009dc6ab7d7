"""Sparse polynomials: exact arithmetic, twist subrings, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhdx.errors import CapacityError
from hhdx.poly import MAX_EXPONENT, PolyRing


def random_poly(ring, rng, max_terms=6, max_exp=5):
    terms = {}
    lo = -max_exp if ring.laurent else 0
    for _ in range(int(rng.integers(0, max_terms + 1))):
        exps = tuple(int(rng.integers(lo, max_exp + 1)) for _ in range(ring.n))
        terms[exps] = int(rng.integers(0, ring.p))
    return ring.from_terms(terms)


def test_ring_validation():
    PolyRing(5, 3)
    with pytest.raises(ValueError):
        PolyRing(4, 2)
    with pytest.raises(ValueError):
        PolyRing(5, 0)
    with pytest.raises(ValueError):
        PolyRing(5, 2, names=("x",))


def test_zero_normalization_and_negative_exponent_guard():
    r = PolyRing(3, 2)
    f = r.from_terms({(1, 0): 3, (0, 1): 2})  # 3 = 0 mod 3 drops out
    assert f.terms == {(0, 1): 2}
    with pytest.raises(ValueError):
        r.monomial((-1, 0))
    laurent = PolyRing(3, 2, laurent=True)
    assert laurent.monomial((-1, 0)).coefficient((-1, 0)) == 1
    with pytest.raises(CapacityError):
        r.monomial((MAX_EXPONENT, 0))


def dense_convolution(f, g):
    """Univariate oracle: dense coefficient convolution."""
    p = f.ring.p
    df = f.total_degree() or 0
    dg = g.total_degree() or 0
    a = [0] * (df + 1)
    b = [0] * (dg + 1)
    for (e,), c in f.terms.items():
        a[e] = c
    for (e,), c in g.terms.items():
        b[e] = c
    out = [0] * (df + dg + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_univariate_product_against_convolution():
    rng = np.random.default_rng(0)
    r = PolyRing(7, 1)
    for _ in range(30):
        f = random_poly(r, rng)
        g = random_poly(r, rng)
        h = f * g
        if not f.terms or not g.terms:
            assert not h.terms
            continue
        conv = dense_convolution(f, g)
        for e, c in enumerate(conv):
            assert h.coefficient((e,)) == c


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.booleans(), st.integers(0, 10 ** 6))
def test_product_respects_evaluation(p, n, laurent, seed):
    rng = np.random.default_rng(seed)
    r = PolyRing(p, n, laurent=laurent)
    f = random_poly(r, rng)
    g = random_poly(r, rng)
    h = f * g
    s = f + g
    for _ in range(8):
        # Laurent evaluation needs nonzero coordinates
        lo = 1 if laurent else 0
        pt = [int(rng.integers(lo, p)) for _ in range(n)]
        if laurent and p == 2:
            pt = [1] * n
        assert h.evaluate(pt) == (f.evaluate(pt) * g.evaluate(pt)) % p
        assert s.evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % p


def test_ring_axioms_spot():
    rng = np.random.default_rng(42)
    r = PolyRing(5, 2, laurent=True)
    for _ in range(15):
        f, g, h = (random_poly(r, rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == r.zero()
        assert f * r.one() == f


def test_pow():
    r = PolyRing(5, 1)
    x = r.variable()
    f = x + r.one()
    assert f ** 0 == r.one()
    assert f ** 5 == x ** 5 + r.one()  # freshman's dream mod 5
    assert (f ** 3).coefficient((1,)) == 3


def test_frobenius_and_twist_membership():
    p = 3
    r = PolyRing(p, 2)
    f = r.monomial((1, 0), 2) + r.monomial((0, 2))
    ff = r.monomial((3, 0), 2) + r.monomial((0, 6))  # f(x^3, y^3)
    assert ff.in_twist_subring(1)
    assert not ff.in_twist_subring(2)
    assert (r.monomial((9, 0), 2) + r.monomial((0, 18))).in_twist_subring(2)
    assert not f.in_twist_subring(1)
    assert r.one().in_twist_subring(5)
    with pytest.raises(ValueError):
        f.in_twist_subring(-1)


def test_render_deterministic():
    r = PolyRing(5, 2, names=("x", "y"))
    f1 = r.from_terms({(2, 0): 3, (0, 0): 1, (1, 1): 1})
    f2 = r.from_terms({(0, 0): 1, (1, 1): 1, (2, 0): 3})
    assert repr(f1) == repr(f2) == "3*x^2 + x*y + 1"
    assert repr(r.zero()) == "0"
    laurent = PolyRing(5, 1, names=("t",), laurent=True)
    g = laurent.from_terms({(-2,): 4, (1,): 1})
    assert repr(g) == "t + 4*t^-2"
