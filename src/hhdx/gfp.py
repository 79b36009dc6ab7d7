"""Arithmetic over prime fields F_p for small primes.

Provides prime validation, binomial coefficients mod p via the base-p
digit product rule (with the sign-flip extension to negative upper
arguments), and the Fitting decomposition of an endomorphism of F_p^n into
its nilpotent and semisimple (bijective) parts.  A Frobenius-semilinear map
F(v) = M . v^[p] acts on F_p^n as its matrix M (x^p = x on F_p), so it is
passed as that FpMatrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg

MAX_PRIME = 97

PRIMES = tuple(
    n for n in range(2, MAX_PRIME + 1)
    if all(n % d for d in range(2, int(n ** 0.5) + 1))
)


def require_prime(p):
    if p not in PRIMES:
        raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")
    return p


def lucas_binomial(m, q, p):
    """C(m, q) mod p for m, q >= 0 via the base-p digit product rule."""
    require_prime(p)
    if m < 0 or q < 0:
        raise ValueError("lucas_binomial needs nonnegative arguments")
    out = 1
    while q:
        mq, md = divmod(m, p)
        qq, qd = divmod(q, p)
        if qd > md:
            return 0
        out = (out * math.comb(md, qd)) % p
        m, q = mq, qq
    return out


def binomial_mod(m, q, p):
    """C(m, q) mod p for any integer m and q >= 0.

    Negative upper argument follows C(-n, q) = (-1)^q C(n + q - 1, q).
    """
    if q < 0:
        return 0
    if m >= 0:
        return lucas_binomial(m, q, p)
    base = lucas_binomial(-m + q - 1, q, p)
    return (-base) % p if q % 2 else base


@functools.cache
def digit_binomials(p):
    """The largest power B of p with B^2 <= 2^12, its table of C(i, k) mod p for
    base-B digits i, k (Lucas over base-p digits, grouped B at a time), and
    per row, flat 2B x (B + 1), the k < B with C(i, k) != 0 (row i) or with
    (-1)^k C(i + k, k) != 0 (row B + i: no base-p carry), ascending, with
    their values and counts[r * (B + 1) + h], how many of row r's are < h.
    B is odd for odd p, so the sign (-1)^j of a number is its digits'."""
    base = p
    while (base * p) ** 2 <= 1 << 12:
        base *= p
    digits = np.array([[math.comb(i, k) % p for k in range(p)] for i in range(p)])
    (i, k), square, power = np.indices((base, base)), np.ones((base, base), dtype=np.int64), 1
    while power < base:
        square, power = square * digits[i // power % p, k // power % p] % p, power * p
    carry_free = np.where(i + k < base, square[(i + k) % base, k] * (-1) ** k % p, 0)
    rows = np.pad(np.concatenate([square, carry_free]), ((0, 0), (0, 1)))
    cols = np.argsort(rows == 0, axis=1, kind="stable")
    return (base, square.ravel(), cols.ravel(), np.take_along_axis(rows, cols, 1).ravel(),
            (np.cumsum(rows != 0, axis=1) - (rows != 0)).ravel())


def binomial_array(m, q, p):
    """`binomial_mod` elementwise over broadcast integer arrays: one table look-up
    when 0 <= m, q < B (see `digit_binomials`), else Lucas digit by digit, B at
    a time, C(-n, q) = (-1)^q C(n + q - 1, q), and 0 for q < 0."""
    base, table = digit_binomials(p)[:2]
    m, q = np.asarray(m), np.asarray(q)
    if m.size and q.size and min(m.min(), q.min()) >= 0 and max(m.max(), q.max()) < base:
        return table.take(m * base + q)
    top, low = np.where(m < 0, q - m - 1, m), np.maximum(q, 0)
    out = np.where(q < 0, 0, np.where((m < 0) & (q % 2 == 1), p - 1, 1))
    while low.any():
        top, i = np.divmod(top, base)
        low, k = np.divmod(low, base)
        out = out * table.take(i * base + k) % p
    return out


def lucas_support(c, hi, p):
    """The j <= hi with C(c, j) != 0 mod p, elementwise over int64 arrays c
    and hi >= 0: per base-B digit of hi's largest, lowest first, each c's
    support row in `digit_binomials` (for c < 0 the carry-free row of
    -1 - c's, as C(c, j) = (-1)^j C(j - c - 1, j)); and how many j there are."""
    base, _, _, _, counts = digit_binomials(p)
    digits, kummer, top = np.where(c < 0, -1 - c, c), (c < 0) * (base * (base + 1)), hi
    rows, size, whole = [], 1, 1
    while not rows or top.any():
        (digits, digit), (top, h) = np.divmod(digits, base), np.divmod(top, base)
        rows.append(digit * (base + 1) + kummer)
        below, upto = counts.take(rows[-1] + h), counts.take(rows[-1] + h + 1)
        size, whole = below * whole + (upto > below) * size, whole * counts.take(rows[-1] + base)
    return rows, size


def fitting_decomposition(f):
    """Split F_p^n into F-stable pieces H_nil ⊕ H_semi for a square FpMatrix.

    H_nil = ker(F^n) and H_semi = im(F^n) where n = dim.  Returns
    (nil, semi, holds): the two `Subspace`s and whether they obey the Fitting
    laws, checked in turn until one fails: they span F_p^n (their dims add to
    n by rank-nullity), each is F-stable and F^n kills H_nil.  Then F is
    bijective on H_semi, as ker F lies in H_nil, which meets H_semi in 0.
    """
    n = f.rows
    power = f.power(n)
    nil = linalg.Subspace._from_rref(f.p, n, power.kernel_basis())
    semi = linalg.Subspace._from_rref(f.p, n, power.image_basis())
    # the rows of N F^T are F applied to the basis rows of N
    transpose = f.transpose()
    holds = (nil.sum(semi).dim == n
             and nil.reduce_rows(linalg.product(nil.basis, transpose, f.p)).is_zero()
             and linalg.product(nil.basis, power.transpose(), f.p).is_zero()
             and semi.reduce_rows(linalg.product(semi.basis, transpose, f.p)).is_zero())
    return nil, semi, holds
