"""Prime validation, binomial coefficients mod p, Fitting decomposition."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhdx.gfp import (
    MAX_PRIME,
    PRIMES,
    binomial_array,
    binomial_mod,
    digit_binomials,
    fitting_decomposition,
    lucas_binomial,
    lucas_support,
    power_exceeds,
    require_prime,
)
from hhdx.linalg import FpMatrix, Subspace


def integer_binomial(m, q):
    """Independent oracle: product formula, exact integer arithmetic.

    C(m, q) = m (m-1) ... (m-q+1) / q!   (an integer for every integer m).
    """
    num = 1
    for i in range(q):
        num *= m - i
    return num // math.factorial(q)


small_primes = st.sampled_from([2, 3, 5, 7, 13, 97])


def test_prime_validation():
    assert require_prime(2) == 2
    assert require_prime(97) == 97
    with pytest.raises(ValueError):
        require_prime(1)
    with pytest.raises(ValueError):
        require_prime(4)
    with pytest.raises(ValueError):
        require_prime(101)  # beyond the supported bound
    assert max(PRIMES) == MAX_PRIME == 97


@settings(deadline=None)
@given(small_primes, st.integers(0, 64), st.integers(0, 64))
def test_lucas_matches_factorial_oracle(p, m, q):
    assert lucas_binomial(m, q, p) == math.comb(m, q) % p


@settings(deadline=None)
@given(small_primes, st.integers(-120, 120), st.integers(0, 40))
def test_binomial_mod_matches_product_oracle(p, m, q):
    assert binomial_mod(m, q, p) == integer_binomial(m, q) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_array_matches_binomial_mod(p):
    m, q = np.meshgrid(np.arange(-30, 60), np.arange(-2, 30), indexing="ij")
    want = np.vectorize(lambda x, y: binomial_mod(int(x), int(y), p))(m, q)
    assert np.array_equal(binomial_array(m, q, p), want)  # elementwise
    assert np.array_equal(binomial_array(m[:, :1], q[0], p), want)  # broadcast
    assert all(binomial_array(int(x), int(y), p) == w  # scalars
               for x, y, w in zip(m.ravel()[::37], q.ravel()[::37], want.ravel()[::37]))


def _block_edges(p):
    """0, 1, 2 and the edges of the base-B digit blocks of `binomial_array`:
    B - 1, B, B + 1 and B^2 - 1, B^2, B^2 + 1."""
    base = digit_binomials(p)[0]
    return [0, 1, 2, base - 1, base, base + 1, base ** 2 - 1, base ** 2, base ** 2 + 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 61, 67, 97])
def test_binomial_array_at_block_edges(p):
    """`binomial_array` against `binomial_mod` where its digit blocks meet: m
    and q at the block edges, q past m and past B, m negative; every pair in
    one block (its one-look-up path) and the edges mixed, broadcast; 0-d
    scalars; empty arrays."""
    base, edges = digit_binomials(p)[0], _block_edges(p)
    oracle = np.vectorize(lambda x, y: binomial_mod(int(x), int(y), p))
    m = np.array(edges + [-e for e in edges if e])
    q = np.array(edges + [-1])
    i, k = np.indices((base, base))
    for top, low in [(m[:, None], q), (i, k), (i[:, :1], k[0]), (m[:, None, None], k[:2])]:
        assert np.array_equal(binomial_array(top, low, p), oracle(top, low))
    for x, y in [(base - 1, base - 1), (base - 1, base), (base, 1), (-base - 1, base + 1)]:
        for top, low in [(x, y), (np.int64(x), np.int64(y)), (np.array(x), np.array(y))]:
            assert binomial_array(top, low, p) == binomial_mod(x, y, p)
    empty = np.zeros(0, dtype=np.int64)
    assert binomial_array(empty, empty, p).shape == (0,)
    assert binomial_array(empty, base - 1, p).shape == (0,)
    assert binomial_array(np.zeros((2, 0), dtype=np.int64), q[:, None, None], p).shape == (
        len(q), 2, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
def test_lucas_support_counts_the_nonzero_binomials(p):
    """`lucas_support` counts the j <= hi with C(c, j) != 0 mod p, for c at
    p^k, p^k +- 1 and the block edges, of either sign, and hi on both sides
    of |c|: no more (the rows' whole supports past hi) and no fewer (a
    carry-free digit dropped), with one row array per base-B digit of hi's
    largest."""
    base = digit_binomials(p)[0]
    edges = sorted({e for k in range(4) for e in (p ** k - 1, p ** k, p ** k + 1) if e <= p * base}
                   | set(_block_edges(p)[:6]) | {p * base - 1, p * base, p * base + 1})
    c, hi = np.broadcast_arrays(np.array(edges + [-e for e in edges if e])[:, None],
                                np.array(edges))
    rows, size = lucas_support(c, hi, p)
    want = [[np.count_nonzero(binomial_array(x, np.arange(h + 1), p)) for x, h in zip(*row)]
            for row in zip(c, hi)]
    assert size.tolist() == want
    assert base ** (len(rows) - 1) <= max(hi.max(), 1) < base ** len(rows)
    assert all(row.shape == c.shape for row in rows)


@settings(deadline=None)
@given(small_primes, st.integers(-60, 60), st.integers(0, 30))
def test_pascal_rule(p, m, q):
    lhs = binomial_mod(m, q + 1, p)
    rhs = (binomial_mod(m - 1, q + 1, p) + binomial_mod(m - 1, q, p)) % p
    assert lhs == rhs


@st.composite
def power_bounds(draw):
    """A prime of hhdx, 0 <= r <= 300 and 0 <= bound < 2^300, the bound now and
    then within 2 of p^r (so both sides of p^r > bound are drawn)."""
    p, r = draw(st.sampled_from(PRIMES)), draw(st.integers(0, 300))
    near = st.integers(-2, 2).map(lambda d: min(max(p ** r + d, 0), 2 ** 300 - 1))
    return p, r, draw(st.integers(0, 2 ** 300 - 1) | near)


@settings(deadline=None)
@given(power_bounds())
@example((2, 8, 255)).via("r at bound's bit length")
@example((2, 8, 256)).via("r one below it, p^r equal to bound")
@example((97, 0, 0)).via("p^0 = 1 > 0")
def test_power_exceeds_matches_the_power(case):
    p, r, bound = case
    assert power_exceeds(p, r, bound) == (p ** r > bound)


def test_power_exceeds_decides_a_deep_power_without_forming_it():
    start = time.perf_counter()
    assert power_exceeds(2, 10 ** 12, 2 ** 300 - 1)
    assert time.perf_counter() - start < 1e-3


def test_binomial_edge_cases():
    assert binomial_mod(5, 0, 3) == 1
    assert binomial_mod(0, 0, 2) == 1
    assert binomial_mod(3, 5, 7) == 0
    assert binomial_mod(-1, 3, 5) == (-1) % 5
    assert binomial_mod(-2, 2, 7) == 3
    assert binomial_mod(4, -1, 5) == 0
    # digit rule: C(p, q) = 0 mod p for 0 < q < p
    for p in (2, 3, 5, 7):
        for q in range(1, p):
            assert lucas_binomial(p, q, p) == 0


def test_fitting_identity_zero_and_projector():
    f = FpMatrix(5, np.eye(3, dtype=np.int64))
    nil, semi, holds = fitting_decomposition(f)
    assert holds
    assert nil.dim == 0 and semi == Subspace.full(5, 3)

    z = FpMatrix(5, np.zeros((3, 3), dtype=np.int64))
    nil, semi, holds = fitting_decomposition(z)
    assert holds
    assert nil == Subspace.full(5, 3) and semi.dim == 0

    proj = FpMatrix(2, np.diag([1, 0]).astype(np.int64))
    nil, semi, holds = fitting_decomposition(proj)
    assert holds
    assert nil.basis.a.tolist() == [[0, 1]]
    assert semi.basis.a.tolist() == [[1, 0]]


def test_fitting_nilpotent_block():
    j = np.array([[0, 1], [0, 0]], dtype=np.int64)
    nil, semi, holds = fitting_decomposition(FpMatrix(3, j))
    assert holds
    assert nil.dim == 2 and semi.dim == 0

    mixed = np.zeros((3, 3), dtype=np.int64)
    mixed[0, 1] = 1  # J_2(0) on first two coordinates
    mixed[2, 2] = 1  # identity on the third
    nil, semi, holds = fitting_decomposition(FpMatrix(3, mixed))
    assert holds
    assert nil.dim == 2 and semi.dim == 1
    assert semi.basis.a.tolist() == [[0, 0, 1]]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_fitting_random_invariants(p, n, seed):
    rng = np.random.default_rng(seed)
    f = FpMatrix(p, rng.integers(0, p, size=(n, n)))
    nil, semi, holds = fitting_decomposition(f)
    assert holds
    assert nil.dim + semi.dim == n
