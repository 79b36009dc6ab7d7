"""Sparse multivariate polynomials over F_p with optional Laurent exponents.

Polynomials are immutable maps from exponent tuples to nonzero coefficients
in [1, p), with exact arithmetic, evaluation at points of F_p^n and a
deterministic rendering (`repr`).  The depth-r Frobenius-twist subring
F_p[x_i^(p^r)] is handled by its membership test.  Degree windows and the
twist variable of a matrix realization live on `dpdo.MatrixRealization`'s
term array, not here.
"""

from __future__ import annotations

from .errors import CapacityError
from .gfp import require_prime

# At the edge, one process each on a 2-vCPU Xeon guest, start-up included:
# pd-derham p = 7, dp cap 2, degree bound 65535 reports in 0.26 s and 77 MB, and
# 65536 is refused in 0.14 s; morita-matrix p = 2, r = 1 at 65535 is refused in
# 0.6 s (its action check reaches x^65536); smith-tower p = 2, depth 15, 0.16 s.
MAX_EXPONENT = 2 ** 16


class PolyRing:
    """F_p[x_0..x_{n-1}], or the Laurent ring F_p[x_i^{+-1}] when laurent."""

    __slots__ = ("p", "n", "names", "laurent")

    def __init__(self, p, n, names=None, laurent=False):
        self.p = require_prime(p)
        if n < 1:
            raise ValueError("number of variables must be at least 1")
        self.n = n
        if names is None:
            names = tuple(f"x{i}" for i in range(n)) if n > 1 else ("x",)
        if len(names) != n:
            raise ValueError("one name per variable required")
        self.names = tuple(names)
        self.laurent = bool(laurent)

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return MultiPoly(self, {(0,) * self.n: 1})

    def constant(self, c):
        c %= self.p
        return MultiPoly(self, {(0,) * self.n: c} if c else {})

    def variable(self, i=0):
        exps = [0] * self.n
        exps[i] = 1
        return self.monomial(tuple(exps))

    def monomial(self, exps, coeff=1):
        return MultiPoly(self, {tuple(exps): coeff % self.p})

    def from_terms(self, terms):
        return MultiPoly(self, dict(terms))

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and (self.p, self.n, self.names, self.laurent)
            == (other.p, other.n, other.names, other.laurent)
        )

    def __repr__(self):
        kind = "LaurentRing" if self.laurent else "PolyRing"
        return f"{kind}(p={self.p}, vars={', '.join(self.names)})"


class MultiPoly:
    """Immutable sparse polynomial; terms maps exponent tuples to coeffs."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != ring.n:
                raise ValueError(f"exponent tuple of length {ring.n} expected")
            for e in exps:
                if abs(e) >= MAX_EXPONENT:
                    raise CapacityError(f"exponent {e} exceeds capacity {MAX_EXPONENT}")
                if e < 0 and not ring.laurent:
                    raise ValueError("negative exponents need a Laurent ring")
            c = int(c) % ring.p
            if c:
                clean[exps] = c
        self.terms = clean

    # -- basic queries -----------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def total_degree(self):
        """Max total degree over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    # -- arithmetic (exact) --------------------------------------------------

    def _require_same_ring(self, other):
        if not isinstance(other, MultiPoly) or other.ring != self.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._require_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) + c) % self.ring.p
        return MultiPoly(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c %= self.ring.p
        return MultiPoly(self.ring, {e: cc * c for e, cc in self.terms.items()})

    def __mul__(self, other):
        self._require_same_ring(other)
        # At the cap, 2000 x 2000 one-variable terms at p = 97 take 3.2-3.4 s
        # and 32 MB (2-vCPU Xeon); no report multiplies past the Hasse power's
        # 49 x 95 pairs at p = 97.
        if len(self.terms) * len(other.terms) > 4_000_000:
            raise CapacityError("product support exceeds capacity")
        out = {}
        n = self.ring.n
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(e1[k] + e2[k] for k in range(n))
                out[e] = (out.get(e, 0) + c1 * c2) % self.ring.p
        return MultiPoly(self.ring, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined termwise")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    # -- the Frobenius-twist subring ----------------------------------------------

    def in_twist_subring(self, r):
        """True when every exponent is divisible by p^r."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        q = self.ring.p ** r
        return all(e % q == 0 for exps in self.terms for e in exps)

    # -- evaluation and rendering ----------------------------------------------

    def evaluate(self, point):
        """Value at a point of F_p^n (coordinates as ints).

        Laurent monomials require the corresponding coordinates to be
        nonzero; modular inverses handle negative exponents exactly.
        """
        p = self.ring.p
        point = [int(v) % p for v in point]
        if len(point) != self.ring.n:
            raise ValueError("one coordinate per variable required")
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e == 0:
                    continue
                if x == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at a zero coordinate")
                v = (v * pow(x, e, p)) % p
            total = (total + v) % p
        return total

    def __repr__(self):
        """Terms in descending graded-lexicographic order, as "3*x^2 + x*y + 1"."""
        support = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return render_terms((self.terms[e], power_factors(self.ring.names, e))
                            for e in support) or "0"


def power_factors(names, exps):
    """The factors x, x^e of a monomial, its zero exponents dropped."""
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]


def render_terms(items):
    """Terms (coefficient, factors) joined by " + ": c*f*g, with the
    coefficient alone for no factors and dropped when it is 1."""
    return " + ".join("*".join(factors if c == 1 and factors else [str(c), *factors])
                      for c, factors in items)
