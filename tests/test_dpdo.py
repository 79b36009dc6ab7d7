"""Divided-power operators: products, actions, invariants, realizations."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    OracleOperator,
    commutes_with,
    invert_variable,
    oracle_combination,
    oracle_commutator,
    oracle_matrix_realize,
    oracle_operator_matrix,
    oracle_product,
    oracle_sums,
    term_dict,
    term_dicts,
    vectorize,
    window_basis,
)
from hhdx import dpdo
from hhdx.dpdo import (
    MAX_PRODUCT_WORK,
    DPDOperator,
    OperatorAlgebra,
    TruncatedOperatorModule,
    compression_action_agrees,
    matrix_realize,
    morita_compress,
)
from hhdx.errors import CapacityError, WindowError
from hhdx.gfp import binomial_mod, digit_binomials
from hhdx.linalg import FpMatrix
from hhdx.poly import MAX_EXPONENT, MultiPoly, PolyRing


def random_operator(alg, rng, max_terms=4, max_a=4, max_b=4):
    lo = -max_a if alg.laurent else 0
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        a = tuple(int(rng.integers(lo, max_a + 1)) for _ in range(alg.n))
        b = tuple(int(rng.integers(0, max_b + 1)) for _ in range(alg.n))
        terms[(a, b)] = int(rng.integers(0, alg.p))
    return alg.from_terms(terms)


def random_poly(ring, rng, max_terms=4, max_exp=6):
    lo = -max_exp if ring.laurent else 0
    return ring.from_terms({
        tuple(int(rng.integers(lo, max_exp + 1)) for _ in range(ring.n)):
            int(rng.integers(0, ring.p))
        for _ in range(int(rng.integers(0, max_terms + 1)))
    })


def test_construction_guards():
    alg = OperatorAlgebra(3, 1)
    with pytest.raises(ValueError):
        alg.monomial((-1,), (0,))
    with pytest.raises(ValueError):
        alg.monomial((0,), (-1,))
    with pytest.raises(CapacityError):
        alg.monomial((0,), (3 ** 4 + 1,))
    assert not alg.monomial((1,), (0,), 3).terms.size  # 3 = 0 mod 3
    assert term_dict(OperatorAlgebra(3, 1, laurent=True).monomial((-2,), (1,))) == {
        ((-2,), (1,)): 1}


def test_divided_power_composition_rule():
    # D^(q) D^(q') = C(q+q', q) D^(q+q'), symbolically, across primes
    for p in (2, 3, 5):
        alg = OperatorAlgebra(p, 1)
        for q in range(0, 9):
            for qp in range(0, 9):
                lhs = alg.divided_power(0, q) * alg.divided_power(0, qp)
                c = binomial_mod(q + qp, q, p)
                rhs = alg.monomial((0,), (q + qp,), c)
                assert lhs == rhs, (p, q, qp)


def test_straightening_rule_against_direct_sum():
    # D^(q) x^m = sum_j C(m, j) x^(m-j) D^(q-j)
    for p in (2, 3, 5):
        alg = OperatorAlgebra(p, 1)
        for q in range(0, 6):
            for m in range(0, 6):
                lhs = alg.divided_power(0, q) * alg.variable(0, m)
                expected = alg.from_terms({((m - j,), (q - j,)): binomial_mod(m, j, p)
                                           for j in range(0, min(q, m) + 1)})
                assert lhs == expected, (p, q, m)


def test_monomial_action():
    alg = OperatorAlgebra(5, 2)
    ring = alg.ring
    op = alg.monomial((1, 0), (2, 1))
    f = ring.monomial((3, 4), 2)
    # coefficient C(3,2) * C(4,1) = 3 * 4 = 12 = 2 mod 5; exponents (3-2+1, 4-1)
    assert op.act(f) == ring.monomial((2, 3), 4)
    # insufficient degree annihilates
    assert not op.act(ring.monomial((1, 1))).terms


def test_action_is_module_structure():
    # act(A * B, f) == act(A, act(B, f)) — products mean composition
    rng = np.random.default_rng(123)
    for p in (2, 3, 5):
        for n in (1, 2):
            for laurent in (False, True):
                alg = OperatorAlgebra(p, n, laurent=laurent)
                for _ in range(20):
                    a = random_operator(alg, rng)
                    b = random_operator(alg, rng)
                    f = random_poly(alg.ring, rng)
                    assert (a * b).act(f) == a.act(b.act(f))


def test_associativity_spot():
    rng = np.random.default_rng(7)
    alg = OperatorAlgebra(3, 2, laurent=True)
    for _ in range(10):
        a, b, c = (random_operator(alg, rng, max_terms=3, max_a=3, max_b=3)
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_multiplication_embeds_ring():
    rng = np.random.default_rng(11)
    alg = OperatorAlgebra(5, 2)
    for _ in range(10):
        f = random_poly(alg.ring, rng)
        g = random_poly(alg.ring, rng)
        assert alg.multiplication(f) * alg.multiplication(g) == alg.multiplication(f * g)


def test_divided_power_leibniz_via_action():
    # D^(q)(fg) = sum_i D^(i)(f) * D^(q-i)(g)
    rng = np.random.default_rng(17)
    alg = OperatorAlgebra(3, 1)
    ring = alg.ring
    for _ in range(10):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        for q in range(0, 5):
            lhs = alg.divided_power(0, q).act(f * g)
            rhs = ring.zero()
            for i in range(q + 1):
                rhs = rhs + alg.divided_power(0, i).act(f) * alg.divided_power(0, q - i).act(g)
            assert lhs == rhs


def test_centrality_depth_closed_form_vs_commutators():
    rng = np.random.default_rng(31)
    for p in (2, 3):
        for n in (1, 2):
            alg = OperatorAlgebra(p, n)
            ring = alg.ring
            for _ in range(10):
                op = random_operator(alg, rng, max_b=5)
                r = op.centrality_depth()
                # commutes with every x_i^(p^r)
                for i in range(n):
                    e = [0] * n
                    e[i] = p ** r
                    assert commutes_with(op, ring.monomial(tuple(e)))
                # and fails for some coordinate one level down
                if r > 0:
                    failures = []
                    for i in range(n):
                        e = [0] * n
                        e[i] = p ** (r - 1)
                        failures.append(not commutes_with(op, ring.monomial(tuple(e))))
                    assert any(failures)


def test_matrix_realize_frozen_examples():
    # p = 2, depth 1, basis {1, t}: multiplication by t and the derivation
    alg = OperatorAlgebra(2, 1, names=("t",))
    t = alg.variable()
    real_t = matrix_realize(t, 1)
    assert real_t.size == 2
    assert real_t.terms.tolist() == [[0, 1], [1, 0], [2, 0], [1, 1]]  # (row, col, e, c)
    assert real_t.render() == [["0", "t^2"], ["1", "0"]]
    assert real_t.render(twist=True) == [["0", "u"], ["1", "0"]]
    assert real_t.entry(0, 1) == alg.ring.monomial((2,)) and real_t.entry(0, 0) == alg.ring.zero()

    d = alg.divided_power(0, 1)
    real_d = matrix_realize(d, 1)
    assert real_d.render() == [["0", "1"], ["0", "0"]]
    assert not real_d.truncated

    with pytest.raises(ValueError, match="centrality depth"):
        matrix_realize(alg.divided_power(0, 2), 1)  # depth 2 at p = 2


def entry_grid(realization):
    size = realization.size
    return [[realization.entry(i, j) for j in range(size)] for i in range(size)]


def poly_matrix_product(a, b, ring):
    size = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(size)), ring.zero())
             for j in range(size)] for i in range(size)]


def test_matrix_realize_is_multiplicative():
    rng = np.random.default_rng(41)
    for p, r in ((2, 1), (2, 2), (3, 1)):
        alg = OperatorAlgebra(p, 1, names=("t",))
        q = p ** r
        for _ in range(12):
            # force centrality depth <= r by keeping divided powers < p^r
            a = alg.from_terms({
                ((int(rng.integers(0, 4)),), (int(rng.integers(0, q)),)):
                    int(rng.integers(1, p))
                for _ in range(3)
            })
            b = alg.from_terms({
                ((int(rng.integers(0, 4)),), (int(rng.integers(0, q)),)):
                    int(rng.integers(1, p))
                for _ in range(3)
            })
            ra = matrix_realize(a, r)
            rb = matrix_realize(b, r)
            rab = matrix_realize(a * b, r)
            assert entry_grid(rab) == poly_matrix_product(entry_grid(ra), entry_grid(rb), alg.ring)


def test_matrix_realize_truncation_flag():
    alg = OperatorAlgebra(2, 1, names=("t",))
    op = alg.variable(0, 5)  # multiplication by t^5
    exact = matrix_realize(op, 1)
    assert not exact.truncated
    windowed = matrix_realize(op, 1, degree_bound=2)
    assert windowed.truncated
    # x^4 + x^5 D^(1) at p = 3 sends x^2 to (1 + 2) x^6 = 0: the window is
    # applied to the sums, so the cancelled x^6 past degree 3 flags nothing
    op = OperatorAlgebra(3, 1).from_terms({((4,), (0,)): 1, ((5,), (1,)): 1})
    real = matrix_realize(op, 1, degree_bound=3)
    assert not real.truncated
    assert real.render() == [["0", "0", "0"], ["x^3", "0", "0"], ["0", "2*x^3", "0"]]
    assert matrix_realize(op, 1, degree_bound=2).truncated


# (p, n, r) with q^n <= 81 basis columns: the oracle builds q^2n polynomials
_REALIZABLE = [(p, n, r) for p in (2, 3, 5, 7) for n in (1, 2) for r in (0, 1, 2)
               if p ** (r * n) <= 81]


@st.composite
def realizations(draw):
    """(op, r, degree_bound): an operator of centrality depth <= r and a degree
    window or None; or c x^a D^(b) + c' x^(a+k) D^(b+k) with a = b + 1 mod q,
    whose images of the last basis column x^(q-1) cancel at x^(q-1-b+a), a
    multiple of q of larger degree than every other image, with the window just
    below it, so only a window applied before summing would flag anything."""
    p, n, r = draw(st.sampled_from(_REALIZABLE))
    q = p ** r
    alg = OperatorAlgebra(p, n)

    def exps(hi):
        return draw(st.tuples(*[st.integers(0, hi)] * n))

    if q > 1 and draw(st.booleans()):
        b, top = zip(*map(sorted, zip(exps(q - 1), exps(q - 1))))
        if b != top:  # C(q-1, top) is a unit: q-1 has every base-p digit p-1
            a = tuple(bi + 1 + q * j for bi, j in zip(b, exps(1)))
            c = draw(st.integers(1, p - 1))
            here, there = (math.prod(binomial_mod(q - 1, e, p) for e in x) for x in (b, top))
            partner = tuple(ai + ti - bi for ai, ti, bi in zip(a, top, b))
            op = alg.from_terms({(a, b): c, (partner, top): -c * here * pow(there, -1, p)})
            return op, r, sum(q - 1 - bi + ai for ai, bi in zip(a, b)) - 1
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[exps(2 * q + 1), exps(q - 1)] = draw(st.integers(1, p - 1))
    return alg.from_terms(terms), r, draw(st.none() | st.integers(0, 3 * q + 2))


@settings(max_examples=150, deadline=None)
@given(realizations())
@example((OperatorAlgebra(3, 1).from_terms({((4,), (0,)): 1, ((5,), (1,)): 1}), 1, 3))
@example((OperatorAlgebra(2, 2).from_terms({((3, 1), (1, 0)): 1, ((0, 0), (0, 1)): 1}), 2, 5))
def test_matrix_realize_matches_the_grid_oracle(case):
    """Both rendered grids, the truncation flag and every entry agree with the
    dict-loop grid of `oracle_matrix_realize`."""
    op, r, bound = case
    got = matrix_realize(op, r, degree_bound=bound)
    grid, twisted, truncated = oracle_matrix_realize(op, r, bound)
    assert got.size == len(grid)
    assert got.truncated == truncated
    assert got.render() == [[repr(f) for f in row] for row in grid]
    assert got.render(twist=True) == [[repr(f) for f in row] for row in twisted]
    assert entry_grid(got) == grid


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_matrix_realize_in_small_chunks_matches_the_grid_oracle(chunk, monkeypatch):
    """Chunks of a term or a few basis columns sum, truncate and refuse as one
    pass does: a refusal names the first column's surviving term past the cap,
    as the oracle's does."""
    monkeypatch.setattr(dpdo, "_PRODUCT_CHUNK_TERMS", chunk)
    rng = np.random.default_rng(chunk)

    def realized(op, r, bound):
        real = matrix_realize(op, r, degree_bound=bound)
        return real.render() + real.render(twist=True), real.truncated

    def oracle(op, r, bound):
        grid, twisted, truncated = oracle_matrix_realize(op, r, bound)
        return [[repr(f) for f in row] for row in grid + twisted], truncated

    def outcome(realize, *case):
        try:
            return realize(*case)
        except CapacityError as err:
            return str(err)

    for p, n, r in _REALIZABLE:
        q = p ** r
        for top in (2 * q + 1, MAX_EXPONENT - 1):  # small terms, and terms at the cap
            op = OperatorAlgebra(p, n).from_terms({
                (tuple((top - rng.integers(0, 2 * q + 2, n)).tolist()),
                 tuple(rng.integers(0, q, n).tolist())): int(rng.integers(1, p))
                for _ in range(4)})
            case = op, r, int(rng.integers(0, 3 * q + 3))
            assert outcome(realized, *case) == outcome(oracle, *case)


def test_morita_compress_frozen():
    alg = OperatorAlgebra(2, 1, names=("t",))
    # aligned: t^2 D^(2) compresses to u D^(1)
    op = alg.monomial((2,), (2,))
    small = morita_compress(op, 1, degree_bound=8)
    assert small.render() == "u*Du^(1)"
    assert compression_action_agrees(op, small, 1, 8)
    # a wrong corner operator fails the action certificate
    assert not compression_action_agrees(op, small.algebra.monomial((1,), (0,)), 1, 8)
    # misaligned terms act by zero on the subring
    assert not morita_compress(alg.monomial((1,), (1,)), 1, degree_bound=8).terms.size
    assert not morita_compress(alg.monomial((2,), (1,)), 1, degree_bound=8).terms.size
    with pytest.raises(WindowError):
        morita_compress(alg.monomial((4,), (4,)), 1, degree_bound=4)


# Each depth-r function at p = 2, r = 10^12, in a child process whose address
# space is capped at 1.5 GiB: a p^r formed before its bound check would raise
# MemoryError there after about 11 s, not take the machine's memory.
_DEEP_TWISTS = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
sys.path.insert(0, sys.argv[1])
from hhdx.dpdo import OperatorAlgebra, compression_action_agrees, matrix_realize, morita_compress
from hhdx.tower import filtered_hh_sequence
one, r = OperatorAlgebra(2, 1).monomial((0,), (0,)), 10 ** 12
for call in (lambda: filtered_hh_sequence(2, r, 100, 100), lambda: matrix_realize(one, r, 100),
             lambda: morita_compress(one, r, 100),
             lambda: compression_action_agrees(one, one, r, 100)):
    start = time.perf_counter()
    try:
        call()
    except Exception as err:
        print(f"{time.perf_counter() - start:.3f} {type(err).__name__}: {err}")
"""


def test_a_huge_twist_depth_is_refused_before_its_power():
    """filtered_hh_sequence, matrix_realize, morita_compress and
    compression_action_agrees each refuse r = 10^12 with the message of
    their first bound, in under 1 s, before p^r is formed."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-c", _DEEP_TWISTS, src], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 0, run.stderr
    lines = [line.split(" ", 1) for line in run.stdout.splitlines()]
    assert [message for _, message in lines] == [
        "WindowError: divided-power window too small for the deepest level",
        "CapacityError: twist-basis rank exceeds capacity",
        "WindowError: degree window 100 cannot certify compression at depth 1000000000000",
        "WindowError: degree window 100 holds no monomial of the depth-1000000000000 twist"]
    assert all(float(seconds) < 1 for seconds, _ in lines)


def test_morita_compress_products():
    # compression is multiplicative on aligned operators
    rng = np.random.default_rng(53)
    p, r = 2, 1
    q = p ** r
    alg = OperatorAlgebra(p, 1, names=("t",))
    for _ in range(10):
        a = alg.from_terms({((q * int(rng.integers(0, 3)),), (q * int(rng.integers(0, 3)),)): 1
                            for _ in range(2)})
        b = alg.from_terms({((q * int(rng.integers(0, 3)),), (q * int(rng.integers(0, 3)),)): 1
                            for _ in range(2)})
        ca = morita_compress(a, r, degree_bound=32)
        cb = morita_compress(b, r, degree_bound=32)
        cab = morita_compress(a * b, r, degree_bound=32)
        assert cab == ca * cb
        assert all(compression_action_agrees(x, cx, r, 32)
                   for x, cx in [(a, ca), (b, cb), (a * b, cab)])


def test_invert_variable_frozen_and_involutive():
    alg = OperatorAlgebra(5, 1, names=("v",), laurent=True)
    target = OperatorAlgebra(5, 1, names=("u",), laurent=True)
    d = alg.divided_power(0, 1)
    flipped = invert_variable(d, target)
    # the derivation in v becomes -u^2 Du
    assert flipped == target.monomial((2,), (1,), -1)
    back = invert_variable(flipped, alg)
    assert back == d

    rng = np.random.default_rng(61)
    for _ in range(10):
        op = random_operator(alg, rng, max_a=3, max_b=3)
        other = invert_variable(op, target)
        assert invert_variable(other, alg) == op


def test_invert_variable_matches_action():
    p = 3
    alg = OperatorAlgebra(p, 1, names=("v",), laurent=True)
    target = OperatorAlgebra(p, 1, names=("u",), laurent=True)
    rng = np.random.default_rng(67)
    for _ in range(10):
        op = random_operator(alg, rng, max_a=3, max_b=3)
        flipped = invert_variable(op, target)
        for k in range(-5, 6):
            # u^k corresponds to v^(-k)
            image = op.act(alg.ring.monomial((-k,)))
            expected = {(-e,): c for (e,), c in image.terms.items()}
            assert flipped.act(target.ring.monomial((k,))).terms == expected


def test_truncated_module_windows():
    alg = OperatorAlgebra(2, 1, names=("t",))
    mod = TruncatedOperatorModule(alg, degree_bound=3, dp_bound=2)
    assert mod.dim == 4 * 3
    assert mod.a.tolist() == [[a] for a in range(4) for _ in range(3)]
    assert mod.b.tolist() == [[b] for _ in range(4) for b in range(3)]
    op = alg.from_terms({((2,), (1,)): 1, ((0,), (0,)): 1})
    vec = vectorize(mod, op)
    assert np.flatnonzero(vec).tolist() == [0, 2 * 3 + 1]
    assert mod.operator(vec) == op

    # [t, -] lowers the divided power and stays inside every window
    t = alg.variable()
    mat = mod.commutator_matrix(t)
    for col, (a, b) in enumerate(window_basis(mod)):
        img = mod.operator(mat.a[:, col])
        if b[0] == 0:
            assert not img.terms.size
        else:
            assert img == alg.monomial(a, (b[0] - 1,), -1)

    # the central power [t^(p^r), -] with p^r > dp window acts by zero
    central = alg.multiplication(alg.ring.monomial((4,)))
    assert mod.commutator_matrix(central).is_zero()

    # ad of a higher divided power raises the dp degree and escapes:
    # [D^(2), t D^(2)] = 3 D^(3), outside the dp window
    with pytest.raises(WindowError, match=r"term \(\(0,\), \(3,\)\) falls outside"):
        mod.commutator_matrix(alg.divided_power(0, 2))


def test_truncated_module_laurent_window():
    alg = OperatorAlgebra(3, 1, names=("u",), laurent=True)
    mod = TruncatedOperatorModule(alg, degree_bound=2, dp_bound=1)
    assert mod.dim == 5 * 2
    assert window_basis(mod)[:3] == [((-2,), (0,)), ((-2,), (1,)), ((-1,), (0,))]
    assert mod.operator(vectorize(mod, alg.monomial((-2,), (1,)))) == alg.monomial((-2,), (1,))
    # [u^-1, -] sends u^a Du^(b) to -sum_(1 <= j <= b) (-1)^j u^(a-1-j) Du^(b-j)
    wide = TruncatedOperatorModule(alg, degree_bound=4, dp_bound=1)
    got = mod.commutator_matrix(alg.variable(0, power=-1), wide)
    assert got == oracle_operator_matrix(mod, alg.variable(0, power=-1).commutator, wide)
    with pytest.raises(WindowError):
        mod.commutator_matrix(alg.variable(0, power=-1))


def test_window_past_the_rank_cap_builds_arrays_only_as_a_domain():
    """A window past `MAX_WINDOW_RANK` builds its exponent arrays on first
    read.  As the target of a map it only locates terms, so it builds none and
    is not refused; as a domain it is refused at `commutator_matrix`, before
    its arrays exist."""
    alg = OperatorAlgebra(7, 1, names=("t",))
    big = TruncatedOperatorModule(alg, 447, 447)
    assert big.dim == 448 ** 2 > dpdo.MAX_WINDOW_RANK
    small, g = TruncatedOperatorModule(alg, 20, 20), alg.divided_power(0, 7)
    arrays = 2 * big.dim * 8  # bytes of a and b
    tracemalloc.start()
    try:
        into_big = small.commutator_matrix(g, target=big)
        target_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CapacityError, match=f"operator window of rank {big.dim} exceeds"):
            big.commutator_matrix(alg.variable())
        domain_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target_peak < arrays / 10 and domain_peak < arrays / 10
    # the same map into a window under the cap, its rows renumbered into big's
    into = small.commutator_matrix(g, target=TruncatedOperatorModule(alg, 20, 27))
    a, b = np.divmod(into.row, 28)
    assert into_big.shape == (big.dim, small.dim) and not into_big.is_zero()
    assert into_big == FpMatrix.from_triples(7, into_big.shape, a * 448 + b, into.col, into.val)


@st.composite
def shifted_images(draw):
    """A window, passes of image terms (each the window's own terms shifted
    by its own fixed exponents, with random coefficients per column) and a
    target window of other bounds (so images may leave it)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    alg = OperatorAlgebra(p, n, laurent=draw(st.booleans()))
    bounds = st.tuples(st.integers(0, 3), st.integers(0, 3))
    module = TruncatedOperatorModule(alg, *draw(bounds))
    target = draw(st.none() | bounds.map(lambda b: TruncatedOperatorModule(alg, *b)))
    shift = st.integers(-2 if alg.laurent else 0, 2)
    shifts = draw(st.lists(st.tuples(st.tuples(*[shift] * n), st.tuples(*[st.integers(0, 2)] * n)),
                           max_size=3, unique=True))
    coeffs = st.lists(st.integers(-p, 2 * p), min_size=module.dim, max_size=module.dim)
    passes = [(module.a + da, module.b + db, np.array(draw(coeffs), dtype=np.int64))
              for da, db in shifts]
    return module, passes, target


@settings(max_examples=80, deadline=None)
@given(shifted_images())
def test_operator_matrix_matches_per_column_vectorize(case):
    module, passes, target = case
    column = {ab: k for k, ab in enumerate(window_basis(module))}

    def func(m):
        (key, _), = term_dict(m).items()
        k = column[key]  # the image's terms in pass order, which a sum would sort
        return OracleOperator(module.algebra,
                              {(tuple(a[k]), tuple(b[k])): c[k] for a, b, c in passes})

    try:
        want = oracle_operator_matrix(module, func, target)
    except WindowError as exc:
        with pytest.raises(WindowError) as got:
            module.operator_matrix(passes, target)
        assert str(got.value) == str(exc)
    else:
        got = module.operator_matrix(passes, target)
        assert got == want


def test_operator_matrix_refuses_out_of_window_images():
    alg = OperatorAlgebra(3, 1, names=("t",))
    mod = TruncatedOperatorModule(alg, degree_bound=2, dp_bound=2)
    ones = np.ones(mod.dim, dtype=np.int64)
    # t * t^2 = t^3 leaves the degree window
    with pytest.raises(WindowError, match=r"term \(\(3,\), \(0,\)\) falls outside"):
        mod.operator_matrix([(mod.a + 1, mod.b, ones)])
    # a zero coefficient keeps its term out of the matrix
    assert mod.operator_matrix([(mod.a + 1, mod.b, np.where(mod.a[:, 0] < 2, 1, 3))]) \
        == mod.operator_matrix([(mod.a + 1, mod.b, (mod.a[:, 0] < 2).astype(np.int64))])
    # the inclusion into a smaller target loses D^(2)
    with pytest.raises(WindowError):
        mod.operator_matrix([(mod.a, mod.b, ones)], TruncatedOperatorModule(alg, 2, 1))
    # commutator_matrix takes one monomial
    with pytest.raises(ValueError):
        mod.commutator_matrix(alg.from_terms({((1,), (0,)): 1, ((0,), (1,)): 1}))


@st.composite
def commutator_windows(draw):
    """A window, a monomial g = k x^c D^(e) and a target window: c_i in
    [-3, 3] (nonnegative on polynomial windows), e_i in {0, 1, 2, p, p^2},
    targets of other or enlarged bounds (so some edges force WindowError),
    and p = 2 line windows near the divided-power cap 16 (so some products
    pass it, with binomials that vanish mod 2 or not)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 2))
    alg = OperatorAlgebra(p, n, laurent=draw(st.booleans()))
    c = draw(st.tuples(*[st.integers(-3 if alg.laurent else 0, 3)] * n))
    e = draw(st.tuples(*[st.sampled_from([0, 1, 2, p, p * p])] * n))
    g = alg.monomial(c, e, draw(st.integers(1, p - 1)))
    near_cap = p == 2 and n == 1 and draw(st.booleans())
    d = draw(st.integers(0, 3))
    q = draw(st.integers(12, 17) if near_cap else st.integers(0, 3))
    module = TruncatedOperatorModule(alg, d, q)
    enlarged = st.tuples(st.integers(0, 4), st.integers(0, max(e) + 1 if n == 1 else 4)).map(
        lambda s: TruncatedOperatorModule(alg, d + max(map(abs, c)) + s[0], q + s[1]))
    target = draw(st.none() | enlarged
                  | st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
                      lambda b: TruncatedOperatorModule(alg, *b)))
    return module, g, target


_LINE2 = OperatorAlgebra(2, 1)


@settings(max_examples=150, deadline=None)
@given(commutator_windows())
# [D, D^(16)] = 0, though D * D^(16) = 17 D^(17) alone passes the cap
@example((TruncatedOperatorModule(_LINE2, 0, 16), _LINE2.divided_power(0, 1), None))
@example((TruncatedOperatorModule(_LINE2, 0, 15), _LINE2.divided_power(0, 1), None))
def test_commutator_matrix_matches_per_column_oracle(case):
    """Equal triples, and a refusal exactly where the oracle refuses:
    CapacityError whenever some column meets a cap, since the builder checks
    caps over the whole window before it looks at the target."""
    module, g, target = case
    try:
        want = oracle_operator_matrix(module, g.commutator, target)
    except (CapacityError, WindowError) as exc:
        with pytest.raises(type(exc)):
            module.commutator_matrix(g, target)
    else:
        assert module.commutator_matrix(g, target) == want


@st.composite
def edge_windows(draw):
    """A one-variable window at an edge, up to four of its basis columns (its
    first and last ones likely), a monomial g = k x^c D^(e) and a target:
    either monomial exponents up to MAX_EXPONENT - 1 with divided powers
    below 3 (0 on a Laurent window, so the rank stays under
    MAX_WINDOW_RANK), or divided powers up to the cap p^4 with monomial
    exponents below 4; c in {-1, 0, 1, 2} (c >= 0 on polynomial windows) and
    e in {0, 1, 2, p, p^2}, or p^4 at the divided-power edge, so images pass a
    cap both where L - R vanishes mod p and where it does not; the target the
    window or a narrower one."""
    p = draw(st.sampled_from([2, 3, 5]))
    alg = OperatorAlgebra(p, 1, laurent=draw(st.booleans()))
    monomial_edge = draw(st.booleans())
    if monomial_edge:
        hi = MAX_EXPONENT - 1 - draw(st.integers(0, 2))
        dp = draw(st.integers(0, 0 if alg.laurent else 2))
    else:
        hi, dp = draw(st.integers(0, 3)), alg.dp_cap - draw(st.integers(0, 2))
    module = TruncatedOperatorModule(alg, hi, dp)
    index = st.integers(0, 3) | st.integers(module.dim - 4, module.dim - 1) | st.integers(
        0, module.dim - 1)
    cols = sorted({min(max(k, 0), module.dim - 1) for k in draw(st.lists(index, min_size=1,
                                                                          max_size=4))})
    c = draw(st.sampled_from([-1, 0, 1, 2] if alg.laurent else [0, 1, 2]))
    e = draw(st.sampled_from([0, 1, 2, p, p * p] + ([] if monomial_edge else [alg.dp_cap])))
    g = alg.monomial((c,), (e,), draw(st.integers(1, p - 1)))
    target = draw(st.none() | st.just(TruncatedOperatorModule(alg, max(hi - 1, 0), dp)))
    return module, cols, g, target


def _refusal(alg, a, b):
    """The message `_check_term` refuses the term x^a D^(b) with, if any."""
    try:
        dpdo._check_term(alg, a, b)
    except CapacityError as exc:
        return str(exc)


def _column_commutators(module, cols, g, target):
    """The matrix of [g, -] on the columns `cols`, one `DPDOperator.commutator`
    a column; or CapacityError with the refusal of every term past a cap that
    a refused column's commutator holds (by `oracle_sums`), or WindowError if
    an image leaves the target."""
    alg, target = module.algebra, target or module
    refused, triples = [], []
    for k, col in enumerate(cols):
        basis = alg.monomial(module.a[col], module.b[col])
        try:
            image = g.commutator(basis)
        except CapacityError:
            (held,) = oracle_sums(alg, [g, basis], [(0, 1, 1, 0), (1, 0, -1, 0)], 1)
            refused += filter(None, (_refusal(alg, a, b) for (a, b), c in held.items() if c))
            continue
        row = target._locate(image.terms[1:2].T, image.terms[2:3].T)
        triples.append((row, np.full_like(row, k), image.terms[-1]))
    if refused:
        return CapacityError, refused
    row, col, val = (np.concatenate(x) for x in zip(*triples))
    if (row < 0).any():
        return WindowError, None
    return FpMatrix.from_triples(alg.p, (target.dim, len(cols)), row, col, val)


_LINE5 = OperatorAlgebra(5, 1)


@settings(max_examples=100, deadline=None)
@given(edge_windows())
# [D, D^(16)] = 0 at p = 2: no column is refused
@example((TruncatedOperatorModule(_LINE2, 0, 16), [16], _LINE2.divided_power(), None))
# [x, x^(MAX - 1)] = 0 at p = 5, pd-derham's window at degree bound MAX - 1
@example((TruncatedOperatorModule(_LINE5, MAX_EXPONENT - 1, 0), [MAX_EXPONENT - 1],
          _LINE5.variable(), None))
# [x, x^(MAX - 1) D] = -x^(MAX - 1): in the window, though both products pass the cap
@example((TruncatedOperatorModule(_LINE2, MAX_EXPONENT - 1, 1), [2 * MAX_EXPONENT - 1],
          _LINE2.variable(), None))
# [x, D^(16)] = D^(15) at p = 2, and [x, x D^(16)] = x D^(15)
@example((TruncatedOperatorModule(_LINE2, 1, 16), [16, 33], _LINE2.variable(), None))
def test_commutator_matrix_refuses_as_the_column_commutators(case):
    """`commutator_matrix` equals `DPDOperator.commutator` column by column at
    the monomial and divided-power caps, refusals included: CapacityError
    exactly when some column's commutator holds a term past a cap, naming one
    of those terms; else WindowError exactly when an image leaves the
    target."""
    module, cols, g, target = case
    want = _column_commutators(module, cols, g, target)
    if isinstance(want, FpMatrix):
        assert module.commutator_matrix(g, target, cols) == want
        return
    kind, messages = want
    with pytest.raises(kind) as got:
        module.commutator_matrix(g, target, cols)
    assert messages is None or str(got.value) in messages


def test_capacity_guard_on_products():
    alg = OperatorAlgebra(2, 1)
    big = alg.monomial((0,), (16,))
    # C(32, 16) = 0 mod 2, so the product is zero and must not raise
    assert not (big * big).terms.size
    with pytest.raises(CapacityError, match="^divided-power exponent 17 exceeds cap 16$"):
        # C(17, 16) = 17 = 1 mod 2: a genuinely nonzero term beyond the cap
        _ = alg.divided_power() * big
    # [D, D^(16)] = 0: D D^(16) and D^(16) D both hold 17 D^(17), and cancel
    assert not alg.divided_power().commutator(big).terms.size


def _operators(draw):
    """An algebra on 1-2 variables, polynomial or Laurent, p in {2, 3, 5}, and
    a strategy of its operators, with divided powers of the first variable up
    to the cap p^4 (so products pass it) and monomial exponents next to
    MAX_EXPONENT (so products pass it)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    alg = OperatorAlgebra(p, n, laurent=draw(st.booleans()))
    small = st.integers(-2 if alg.laurent else 0, 2)
    edge = st.integers(MAX_EXPONENT - 2, MAX_EXPONENT - 1)
    exponent = small | edge | (edge.map(lambda e: -e) if alg.laurent else small)
    first_dp = st.integers(0, 3) | st.integers(p ** 4 - 2, p ** 4)
    key = st.tuples(st.tuples(*[exponent] * n),
                    st.tuples(first_dp, *[st.integers(0, 3)] * (n - 1)))
    return alg, st.dictionaries(key, st.integers(1, p - 1), max_size=3).map(alg.from_terms)


@st.composite
def operator_pairs(draw):
    """Two operators of one algebra drawn by `_operators`."""
    alg, ops = _operators(draw)
    return alg, draw(ops), draw(ops)


@st.composite
def operator_batches(draw):
    """K = 1-8 pairs of operators of one algebra drawn by `_operators`."""
    alg, ops = _operators(draw)
    k = draw(st.integers(1, 8))
    return alg, [draw(ops) for _ in range(k)], [draw(ops) for _ in range(k)]


def _outcome(compute):
    try:
        return term_dict(compute())
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(operator_pairs())
def test_normal_ordering_kernel_matches_oracle_product(case):
    """Products and commutators, refusals included, match the oracle: a
    commutator refuses a term past a cap only if the difference holds it."""
    _, x, y = case
    product = _outcome(lambda: oracle_product(x, y))
    commutator = _outcome(lambda: oracle_commutator(x, y))
    assert _outcome(lambda: x * y) == product
    assert _outcome(lambda: x.commutator(y)) == commutator
    assert _outcome(lambda: x * y) == product
    assert _outcome(lambda: x.commutator(y)) == commutator


@st.composite
def digit_edge_pairs(draw):
    """Two operators of one algebra, p in {2, 3, 5, 7}, on 1-2 variables,
    polynomial or Laurent, of one or two terms, whose first coordinate sits at
    the digit edges of `gfp.lucas_support`: the right factor's x exponent c at
    p^k, p^k +- 1 or B +- 1 (B of `gfp.digit_binomials`), negated now and
    then in a Laurent algebra, and the left factor's divided power b just
    below, at or above |c|, up to the cap p^4; the second coordinate small,
    so that the oracle's walk of the whole j-box stays short."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 2))
    alg = OperatorAlgebra(p, n, laurent=draw(st.booleans()))
    base = digit_binomials(p)[0]
    edges = sorted({e for k in range(8) for e in (p ** k - 1, p ** k, p ** k + 1) if e <= p * base}
                   | {base - 1, base + 1})
    small = st.integers(-2 if alg.laurent else 0, 2)
    edge = st.sampled_from(edges)
    c = edge | edge.map(lambda e: -e) if alg.laurent else edge

    def side(left):  # one or two terms, the edge exponent e as b on the left, as c on the right
        terms = {}
        for a, e in draw(st.lists(st.tuples(small, c), min_size=1, max_size=2)):
            first = (((a,), (min(max(abs(e) + draw(st.integers(-2, 2)), 0), alg.dp_cap),)) if left
                     else ((e,), (draw(st.integers(0, 2)),)))
            rest = [((draw(small),), (draw(st.integers(0, 3)),)) for _ in range(n - 1)]
            key = tuple(tuple(x for part in parts for x in part) for parts in zip(first, *rest))
            terms[key] = draw(st.integers(1, p - 1))
        return alg.from_terms(terms)

    return alg, side(True), side(False)


@settings(max_examples=200, deadline=None)
@given(digit_edge_pairs())
def test_kernel_matches_oracle_product_at_digit_edges(case):
    """Products and commutators, refusals included, match `oracle_product`
    and `oracle_commutator` where the Lucas supports the kernel walks cross
    digit blocks, meet hi, or come from Kummer's carry-free rows of a negative
    exponent."""
    _, x, y = case
    assert _outcome(lambda: x * y) == _outcome(lambda: oracle_product(x, y))
    assert _outcome(lambda: x.commutator(y)) == _outcome(lambda: oracle_commutator(x, y))


def _batch_outcome(alg, xs, ys):
    """The products xs[k] * ys[k] as term dicts, from one kernel pass."""
    try:
        product = DPDOperator.concat(xs) * DPDOperator.concat(ys)
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)
    return term_dicts(product)


def _oracle_outcome(xs, ys):
    """The products xs[k] * ys[k] as term dicts, one `oracle_combination` row
    (xs[k], ys[k]) on owner k, or its refusal."""
    k = len(xs)
    try:
        return [op.terms for op in oracle_combination(
            xs[0].algebra, [*xs, *ys], [(i, k + i, 1, i) for i in range(k)], k)]
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)


_EDGE = OperatorAlgebra(3, 1, laurent=True)
_EDGE2 = OperatorAlgebra(3, 2, laurent=True)


@settings(max_examples=150, deadline=None)
@given(operator_batches())
# the middle owner alone is refused: C(17, 16) D^(17) passes the cap 16
@example((_LINE2, [_LINE2.variable(), _LINE2.divided_power(0, 16), _LINE2.divided_power()],
          [_LINE2.divided_power(0, 2), _LINE2.divided_power(), _LINE2.variable(0, 3)]))
# two refused terms: the first in sorted order (x^MAX) is named, not the
# first in right-term order (x^(MAX + 1))
@example((_EDGE, [_EDGE.variable(0, MAX_EXPONENT - 1)],
          [_EDGE.from_terms({((2,), (0,)): 1, ((1,), (0,)): 1})]))
# one term pair's box makes x^(-MAX - 1) first in j order (last coordinate
# fastest) and x^(-MAX - 2) first with the first coordinate fastest; the
# latter sorts first and is named
@example((_EDGE2, [_EDGE2.monomial((0, 0), (3, 3))],
          [_EDGE2.monomial((1 - MAX_EXPONENT, 2 - MAX_EXPONENT), (0, 0))]))
def test_batch_kernel_matches_oracle_product_owner_by_owner(case):
    alg, xs, ys = case
    assert _batch_outcome(alg, xs, ys) == _oracle_outcome(xs, ys)


def test_batch_refuses_its_first_refused_product():
    """A term pair over MAX_PRODUCT_WORK is refused before any term past a
    cap, whatever the owners' order; terms past a cap are refused in owner
    order, and only where the owner's sum holds them."""
    alg = OperatorAlgebra(41, 1, laurent=True)  # dp cap 41^4 > MAX_PRODUCT_WORK
    past = (alg.divided_power(0, alg.dp_cap), alg.divided_power())  # C(cap + 1, 1) = 1
    wide = (alg.divided_power(0, MAX_PRODUCT_WORK), alg.variable(0, -1))  # box cap + 1
    fine = (alg.variable(), alg.divided_power())
    for pairs, message in [((fine, past, past), f"exponent {alg.dp_cap + 1} exceeds"),
                           ((fine, past, wide), "workload exceeds capacity"),
                           ((fine, wide, past), "workload exceeds capacity")]:
        xs, ys = zip(*pairs)
        outcome = _batch_outcome(alg, xs, ys)
        assert outcome == _oracle_outcome(xs, ys)
        assert outcome[0] is CapacityError and message in outcome[1]
    # a batch commutator refuses owner by owner what each sum holds: [L_0, R_0]
    # = x^(-MAX) passes the monomial cap, while the two D^(17) of [L_1, R_1]
    # cancel
    line = OperatorAlgebra(2, 1, laurent=True)
    ls = DPDOperator.concat([line.variable(0, 1 - MAX_EXPONENT), line.divided_power(0, 16)])
    rs = DPDOperator.concat([line.divided_power(), line.divided_power()])
    with pytest.raises(CapacityError, match=f"^monomial exponent {-MAX_EXPONENT} exceeds"):
        ls.commutator(rs)


@pytest.mark.parametrize("chunk", [1, 2, 5, 13])
def test_batch_kernel_in_small_chunks_matches_oracle(chunk, monkeypatch):
    """Chunks far smaller than one owner's expansion, and than one term pair's
    box, sum to the products, and name the term a single chunk would."""
    monkeypatch.setattr(dpdo, "_PRODUCT_CHUNK_TERMS", chunk)
    rng = np.random.default_rng(chunk)
    for p, n, laurent in [(2, 1, False), (3, 2, True), (5, 1, True), (5, 2, False)]:
        alg = OperatorAlgebra(p, n, laurent=laurent)
        xs = [random_operator(alg, rng) for _ in range(6)]
        ys = [random_operator(alg, rng) for _ in range(6)]
        assert _batch_outcome(alg, xs, ys) == _oracle_outcome(xs, ys)
    # two refused terms, x^(MAX + 2) D^(3) from the first term pair and
    # x^MAX D^(4) from the second, in different chunks at chunk sizes up to 5:
    # x^MAX sorts first and is named, though x^(MAX + 2) is made first
    xs = [_EDGE.variable(), _EDGE.from_terms({((MAX_EXPONENT - 1,), (3,)): 1})]
    ys = [_EDGE.divided_power(0, 4), _EDGE.from_terms({((3,), (0,)): 1, ((1,), (1,)): 2})]
    outcome = _batch_outcome(_EDGE, xs, ys)
    assert outcome == _oracle_outcome(xs, ys)
    assert outcome == (CapacityError, f"monomial exponent {MAX_EXPONENT} exceeds capacity")


@pytest.mark.parametrize("chunk", [2, 5, 16])
def test_expand_merges_partial_sums_as_they_come(chunk, monkeypatch):
    """With chunks far smaller than a product, no `_reduce` reads more than
    twice the widest sum it makes plus two chunks (a merge reads the last
    merged sum and the chunks' sums since, which pass it by at most one
    chunk), where reducing every chunk's sum at the end reads them all; and
    the products still match `oracle_product`."""
    monkeypatch.setattr(dpdo, "_PRODUCT_CHUNK_TERMS", chunk)
    reduce, calls = dpdo._reduce, []

    def recording(p, terms):
        out = reduce(p, terms)
        calls.append((terms.shape[1], out[0].shape[1]))
        return out

    monkeypatch.setattr(dpdo, "_reduce", recording)
    rng = np.random.default_rng(chunk)
    alg = OperatorAlgebra(5, 1)
    # D^(8) x^(d+8) D^(d) makes the key x^(8+d-j) D^(8+d-j) from every (d, j)
    # with the same d - j: 72 expanded terms summed into 16
    pairs = [(alg.divided_power(0, 8),
              alg.from_terms({((d + 8,), (d,)): 1 for d in range(8)}))]
    for p, n, laurent in [(2, 1, False), (3, 2, True), (5, 1, True), (7, 2, False)]:
        alg = OperatorAlgebra(p, n, laurent=laurent)
        pairs += [(random_operator(alg, rng, max_terms=6, max_a=6, max_b=12),
                   random_operator(alg, rng, max_terms=6, max_a=12, max_b=6))
                  for _ in range(8)]
    for x, y in pairs:
        calls.clear()
        assert term_dict(x * y) == oracle_product(x, y).terms
        widest = max((width for width, _ in calls), default=0)
        assert widest <= 2 * max((width for _, width in calls), default=0) + 2 * chunk


def test_product_that_hardly_cancels_peaks_under_four_times_its_output():
    """D^(600,600) x^(600,600) at p = 41 expands 601^2 terms on distinct
    monomials; the 405^2 whose C(600, j) is nonzero mod 41 (Lucas) make the
    output.  The last merge of `_expand` must not hold the chunks beside
    their concatenation, which peaked at 4.6 times the output."""
    alg = OperatorAlgebra(41, 2)
    d, x = alg.monomial((0, 0), (600, 600)), alg.monomial((600, 600), (0, 0))
    tracemalloc.start()
    try:
        out = d * x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.terms.shape == (6, 405 ** 2)
    assert peak < 4 * out.terms.nbytes


@st.composite
def combinations(draw):
    """A table of 1-5 operators of one algebra drawn by `_operators`, 0-8
    rows (l, r, s, o) with signs in [-p, 2p] (zero and multiples of p among
    them) over 1-4 owners (some left empty), now and then a row followed
    later by its negation (so the two cancel), and a chunk size: the
    module's, or one far smaller than a product."""
    alg, ops = _operators(draw)
    table = [draw(ops) for _ in range(draw(st.integers(1, 5)))]
    count = draw(st.integers(1, 4))
    index = st.integers(0, len(table) - 1)
    rows = draw(st.lists(st.tuples(index, index, st.integers(-alg.p, 2 * alg.p),
                                   st.integers(0, count - 1)), max_size=8))
    if rows and draw(st.booleans()):
        l, r, s, o = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(rows.index((l, r, s, o)) + 1, len(rows))), (l, r, -s, o))
    return alg, table, rows, count, draw(st.sampled_from([None, 1, 3, 7]))


def _combination_outcome(table, rows, count):
    """The sums of `combination` as term dicts, or its refusal."""
    batch = DPDOperator.concat(table)
    try:
        return term_dicts(batch.combination([np.array(rows, dtype=np.int64).reshape(-1, 4).T],
                                            count))
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)


_WIDE = OperatorAlgebra(41, 1, laurent=True)  # dp cap 41^4 > MAX_PRODUCT_WORK
# x, then D^(MAX_PRODUCT_WORK) and x^(-1), whose product's one box is too wide,
# then D^(cap) and D, whose product C(cap + 1, 1) D^(cap + 1) passes the cap
_WIDE_TABLE = [_WIDE.variable(), _WIDE.divided_power(0, MAX_PRODUCT_WORK), _WIDE.variable(0, -1),
               _WIDE.divided_power(0, _WIDE.dp_cap), _WIDE.divided_power()]


@settings(max_examples=150, deadline=None)
@given(combinations())
# D^(16) D = D^(17) passes the cap, but the next row cancels it: not refused
@example((_LINE2, [_LINE2.divided_power(0, 16), _LINE2.divided_power()],
          [(0, 1, 1, 0), (1, 0, -1, 0)], 1, None))
# a term pair over MAX_PRODUCT_WORK is refused before the term past a cap
# that a row before it or after it leaves in the sum
@example((_WIDE, _WIDE_TABLE, [(0, 4, 1, 0), (1, 2, 1, 1), (3, 4, 1, 0)], 2, None))
@example((_WIDE, _WIDE_TABLE, [(0, 4, 1, 0), (3, 4, 1, 0), (1, 2, 1, 1)], 2, None))
# a row whose sign p divides makes no term pair, so its wide pair is not refused
@example((_WIDE, _WIDE_TABLE, [(1, 2, 41, 0), (3, 4, 1, 0)], 1, None))
# two variables, Laurent, summed in chunks of one term with cancelling rows
@example((_EDGE2, [_EDGE2.monomial((1, -1), (2, 1)), _EDGE2.monomial((-2, 3), (1, 2))],
          [(0, 1, 1, 0), (1, 0, 2, 0), (0, 1, -1, 2), (1, 1, 1, 2)], 3, 1))
def test_combination_matches_signed_oracle_products(case):
    """`combination` is `oracle_combination`: the sums (s L) R owner by owner
    (a row whose sign p divides makes no term pair, so it refuses nothing),
    a term pair over MAX_PRODUCT_WORK refused before anything else, and then
    the first term past a cap that a sum holds, in (owner, a, b) order."""
    alg, table, rows, count, chunk = case
    try:
        want = [op.terms for op in oracle_combination(alg, table, rows, count)]
    except (CapacityError, ValueError) as exc:
        want = type(exc), str(exc)
    saved = dpdo._PRODUCT_CHUNK_TERMS
    dpdo._PRODUCT_CHUNK_TERMS = chunk or saved
    try:
        got = _combination_outcome(table, rows, count)
    finally:
        dpdo._PRODUCT_CHUNK_TERMS = saved
    assert got == want


def test_combination_refuses_a_wide_pair_before_it_expands_anything(monkeypatch):
    """A row whose sum holds D^(cap + 1), then a row whose term pair's j-box
    exceeds MAX_PRODUCT_WORK: the box is refused and `_expand` never runs.
    The first row alone is refused for its term, through `_expand`."""
    calls, expand = [], dpdo._expand
    monkeypatch.setattr(dpdo, "_expand", lambda *args: calls.append(args) or expand(*args))
    batch = DPDOperator.concat(_WIDE_TABLE)
    with pytest.raises(CapacityError, match="^normal-ordering workload exceeds capacity$"):
        batch.combination([np.array([(3, 4, 1, 0), (1, 2, 1, 1)]).T], 2)
    assert not calls
    with pytest.raises(CapacityError, match=f"^divided-power exponent {_WIDE.dp_cap + 1} "):
        batch.combination([np.array([(3, 4, 1, 0)]).T], 1)
    assert len(calls) == 1


def test_monomials_are_one_batch_refused_as_monomial_would_be():
    """`monomials` builds the batch of `monomial`s row by row, and refuses the
    first row `monomial` would refuse, with its exception."""
    alg = OperatorAlgebra(3, 2)
    a, b = [[0, 1], [2, 0], [5, MAX_EXPONENT - 1]], [[1, 0], [0, 81], [3, 3]]
    assert alg.monomials(a, b) == DPDOperator.concat([alg.monomial(*ab) for ab in zip(a, b)])
    assert OperatorAlgebra(3, 1).monomials(np.arange(3), np.zeros(3)).count == 3
    for a, b in [([[0, 0], [1, -1], [MAX_EXPONENT, 0]], [[0, 0]] * 3),
                 ([[0, 0], [MAX_EXPONENT, 0], [1, -1]], [[0, 0]] * 3),
                 ([[0, 0], [0, 0]], [[0, 82], [0, -1]]),
                 ([[0, 0], [0, 0]], [[0, -1], [0, 82]]),
                 ([[1 - MAX_EXPONENT, 0]], [[0, 0]])]:
        with pytest.raises((CapacityError, ValueError)) as want:
            [alg.monomial(*ab) for ab in zip(a, b)]
        with pytest.raises(want.type, match=f"^{want.value}$"):
            alg.monomials(a, b)


def test_action_depth_and_rendering_take_one_operator():
    alg = OperatorAlgebra(3, 1)
    pair = DPDOperator.concat([alg.variable(), alg.divided_power()])
    for method in (lambda op: op.act(alg.ring.one()), DPDOperator.centrality_depth,
                   DPDOperator.render):
        with pytest.raises(ValueError, match="one operator expected, not a batch of 2"):
            method(pair)
    assert repr(pair) == "x; Dx^(1)"
    # [x, D] = -1 and [D, x] = 1, owner by owner
    swapped = DPDOperator.concat([alg.divided_power(), alg.variable()])
    assert pair.commutator(swapped) == DPDOperator.concat([alg.one().scale(-1), alg.one()])
    # a batch is not its first operator, though the others have no terms
    assert DPDOperator.concat([alg.variable(), alg.from_terms({})]) != alg.variable()
    with pytest.raises(ValueError, match="operator batches of different sizes"):
        _ = pair * alg.variable()


@st.composite
def oracle_cases(draw):
    """An algebra on 1-2 variables, polynomial or Laurent, p in {2, 3, 5}; the
    terms of two operators, coefficients in [-p, 2p] (zeros included),
    divided powers of the first variable up to the cap p^4 and monomial
    exponents next to MAX_EXPONENT (so products pass a cap), the first
    operator's now and then with one term a cap or a sign refuses; a
    polynomial or Laurent polynomial in the same variables (an action on the
    former is refused for a Laurent algebra), with exponents next to
    MAX_EXPONENT now and then (so an action passes it); a scalar; and an
    operator of another algebra."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    alg = OperatorAlgebra(p, n, laurent=draw(st.booleans()))
    small = st.integers(-2 if alg.laurent else 0, 2)
    edge = st.integers(MAX_EXPONENT - 2, MAX_EXPONENT - 1)
    exponent = small | edge | (edge.map(lambda e: -e) if alg.laurent else small)
    first_dp = st.integers(0, 3) | st.integers(p ** 4 - 2, p ** 4)
    key = st.tuples(st.tuples(*[exponent] * n),
                    st.tuples(first_dp, *[st.integers(0, 3)] * (n - 1)))
    terms = st.dictionaries(key, st.integers(-p, 2 * p), max_size=3).map(lambda d: [*d.items()])
    x, y = draw(terms), draw(terms)
    if draw(st.booleans()):
        slot = draw(st.integers(0, 2 * n - 1))
        bad = draw(st.sampled_from([MAX_EXPONENT, -MAX_EXPONENT, -1]) if slot < n
                   else st.sampled_from([-1, p ** 4 + 1]))
        exps = [0] * (2 * n)
        exps[slot] = bad
        x.insert(draw(st.integers(0, len(x))), ((tuple(exps[:n]), tuple(exps[n:])), 1))
    ring = PolyRing(p, n, laurent=draw(st.booleans()))
    f_exponent = st.integers(-3 if ring.laurent else 0, 3) | st.just(MAX_EXPONENT - 1)
    f = MultiPoly(ring, draw(st.dictionaries(st.tuples(*[f_exponent] * n),
                                             st.integers(0, p - 1), max_size=3)))
    other = OperatorAlgebra(p, n, laurent=not alg.laurent)
    return alg, dict(x), dict(y), f, draw(st.integers(-p, 2 * p)), other.variable()


def _result(compute):
    """A term dict, polynomial terms or plain value, or a refusal's type and
    message."""
    try:
        value = compute()
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, (DPDOperator, OracleOperator)):
        return term_dict(value)
    return value.terms if isinstance(value, MultiPoly) else value


_LINE3 = OperatorAlgebra(3, 1)


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
# x^(MAX-2) and x^(MAX-1) D send x^2 to x^MAX and 2 x^MAX, which cancel mod 3:
# the cancelled term past the cap is dropped, not refused
@example((_LINE3, {((MAX_EXPONENT - 2,), (0,)): 1, ((MAX_EXPONENT - 1,), (1,)): 1}, {},
          _LINE3.ring.monomial((2,)), 1, OperatorAlgebra(3, 1, laurent=True).variable()))
def test_operators_match_the_dict_oracle(case):
    """Construction (terms in order, or the refusal), scaling, products,
    commutators, equality, action, rendering and centrality depth agree with
    the dict-based operator, refusals by exception type and message; equality
    ignores the order of terms and sees one changed coefficient."""
    alg, x_terms, y_terms, f, c, other = case
    built = _result(lambda: list(term_dict(alg.from_terms(x_terms)).items()))
    assert built == _result(lambda: list(OracleOperator(alg, x_terms).terms.items()))
    if isinstance(built, tuple):
        return
    x, y = alg.from_terms(x_terms), alg.from_terms(y_terms)
    oracle = OracleOperator(alg, x_terms), OracleOperator(alg, y_terms)
    oracle_other = OracleOperator(other.algebra, term_dict(other))
    for compute in [lambda u, v, w: u.scale(c), lambda u, v, w: u * v,
                    lambda u, v, w: u.commutator(v), lambda u, v, w: u == v,
                    lambda u, v, w: u.act(f), lambda u, v, w: u.render(),
                    lambda u, v, w: u.centrality_depth(), lambda u, v, w: u == w]:
        assert _result(lambda: compute(x, y, other)) == _result(
            lambda: compute(*oracle, oracle_other))
    terms = term_dict(x)
    assert x == alg.from_terms(dict(reversed(terms.items())))
    for key, coeff in list(terms.items())[:1]:
        assert x != alg.from_terms({**terms, key: coeff + 1})
