"""Arithmetic over prime fields F_p for small primes.

Provides prime validation, binomial coefficients mod p via the base-p
digit product rule (with the sign-flip extension to negative upper
arguments), Frobenius-semilinear maps F(v) = M . v^[p] on F_p^n, and the
Fitting decomposition of a semilinear endomorphism into its nilpotent and
semisimple (bijective) parts.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import CapacityError

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


class SemilinearMap:
    """Frobenius-semilinear endomorphism F(v) = M . v^[p] of F_p^n.

    v^[p] raises each coordinate to the p-th power, which is the identity on
    F_p (x^p = x), so F acts on coordinates as the matrix M.
    """

    __slots__ = ("p", "matrix")

    def __init__(self, p, matrix):
        require_prime(p)
        self.p = p
        m = np.mod(np.asarray(matrix, dtype=np.int64), p)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("semilinear map needs a square matrix")
        if m.shape[0] > 512:
            raise CapacityError("semilinear dimension exceeds capacity")
        self.matrix = m

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, v):
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of length {self.dim} expected")
        return (self.matrix @ (v % self.p)) % self.p

    def iterate_matrix(self, k):
        """Matrix of F^k as a plain linear map: M^k, reduced after each product."""
        out = np.eye(self.dim, dtype=np.int64)
        for _ in range(k):
            out = (self.matrix @ out) % self.p
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.p == other.p
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self):
        return f"SemilinearMap(p={self.p}, dim={self.dim})"


def fitting_decomposition(f):
    """Split F_p^n into F-stable pieces H_nil ⊕ H_semi for a SemilinearMap.

    H_nil = ker(F^n) and H_semi = im(F^n) where n = dim.  Returns a pair of
    row-basis arrays (nil_rows, semi_rows).  Verifies the defining
    properties before returning: the two pieces are complementary, each is
    F-stable, F is bijective on H_semi and F^n vanishes on H_nil.
    """
    n = f.dim
    power = f.iterate_matrix(n)
    m = linalg.FpMatrix(f.p, power)
    nil_rows = m.kernel_basis()
    semi_rows = m.image_basis()

    nil = linalg.Subspace._from_rref(f.p, n, nil_rows)
    semi = linalg.Subspace._from_rref(f.p, n, semi_rows)
    if nil.dim + semi.dim != n or nil.intersect(semi).dim != 0:
        raise AssertionError("nilpotent and semisimple parts are not complementary")
    for row in nil_rows:
        if not nil.contains(f.apply(row)):
            raise AssertionError("nilpotent part is not F-stable")
        if (power @ row % f.p).any():
            raise AssertionError("F^n does not kill the nilpotent part")
    images = [f.apply(row) for row in semi_rows]
    for w in images:
        if not semi.contains(w):
            raise AssertionError("semisimple part is not F-stable")
    if semi.dim and linalg.Subspace(f.p, n, np.array(images)).dim != semi.dim:
        raise AssertionError("F is not bijective on the semisimple part")
    return nil_rows, semi_rows
