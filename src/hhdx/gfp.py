"""Arithmetic over prime fields F_p for small primes.

Provides exact scalar arithmetic, binomial coefficients mod p via the
base-p digit product rule (with the sign-flip extension to negative upper
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


class PrimeField:
    """The field F_p.  Callable: field(a) lifts an integer to a scalar."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = require_prime(p)

    def __call__(self, a):
        return FpScalar(self, a)

    def zero(self):
        return FpScalar(self, 0)

    def one(self):
        return FpScalar(self, 1)

    def inv_int(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inversion of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def binomial(self, m, q):
        return FpScalar(self, binomial_mod(m, q, self.p))

    def elements(self):
        return [FpScalar(self, a) for a in range(self.p)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class FpScalar:
    """Element of F_p with exact operator arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = int(value) % field.p

    def _coerce(self, other):
        if isinstance(other, FpScalar):
            if other.field != self.field:
                raise ValueError("scalars from different fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, self.value * self.field.inv_int(v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FpScalar(self.field, v * self.field.inv_int(self.value))

    def __neg__(self):
        return FpScalar(self.field, -self.value)

    def __pow__(self, e):
        if e < 0:
            return FpScalar(self.field, pow(self.field.inv_int(self.value), -e, self.field.p))
        return FpScalar(self.field, pow(self.value, e, self.field.p))

    def inverse(self):
        return FpScalar(self.field, self.field.inv_int(self.value))

    def frobenius(self):
        """a -> a^p (the identity on F_p, kept for interface symmetry)."""
        return self ** self.field.p

    def __eq__(self, other):
        if isinstance(other, FpScalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"


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

    v^[p] raises each coordinate to the p-th power (the identity on F_p
    coordinates, but the twist is applied honestly so compositions scale
    entries correctly and stay exact).
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

    def twist(self, v):
        """Entrywise p-th power mod p, evaluated in exact integer arithmetic."""
        return np.array([pow(int(x) % self.p, self.p, self.p) for x in v], dtype=np.int64)

    def apply(self, v):
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of length {self.dim} expected")
        return (self.matrix @ self.twist(v)) % self.p

    def iterate_matrix(self, k):
        """Matrix of F^k as a plain linear map (exact via column images)."""
        n = self.dim
        cols = np.eye(n, dtype=np.int64)
        for _ in range(k):
            cols = np.array([self.apply(c) for c in cols.T], dtype=np.int64).T
        return cols % self.p

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
