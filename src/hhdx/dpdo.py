"""Divided-power differential operators over F_p.

An operator is a finite sum of normal-ordered terms  c * x^a D^(b)  where
x^a is a (possibly Laurent) monomial and D^(b) = prod_i D_i^(b_i) is a
product of divided powers of the partial derivatives, acting on monomials
by  x^a D^(b) (x^m) = prod_i C(m_i, b_i) * x^(m - b + a).

Products are normal-ordered through the commutation rule

    D^(b) x^c = sum_j prod_i C(c_i, j_i) x^(c - j) D^(b - j),

with generalized binomials handling negative Laurent exponents, so the
algebra is exact for every prime.  Products and commutators share one
kernel, `_add_product`, which adds +-(left * right) into a single term dict;
each monomial pair is normal-ordered once per OperatorAlgebra and memoized
on it (`products`; the memo dies with the algebra, so nothing outlives a
report), and terms the kernel or the linear structure makes are wrapped
without re-validation.  The module also provides the closed-form
centrality depth, realization of an operator as a matrix over the
Frobenius-twist subring, compression of a twist-aligned operator to the
corner copy acting on the subring (and the compressed degree window every
depth-r scenario shares), operator windows held as exponent arrays whose
matrices one builder writes from closed-form image terms (never through
the product memo), and a renderer for a stable operator syntax such as
"2*t^3*Dt^(2) + t + 1".
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .errors import CapacityError, DepthError, WindowError
from .gfp import binomial_array, binomial_mod, require_prime
from .poly import MAX_EXPONENT, MultiPoly, PolyRing, power_factors, render_terms

MAX_PRODUCT_WORK = 2_000_000
# The rank of one operator window.  One process per report, 2-vCPU guest: the
# edge pd-derham p = 5, N = 446 (447^2 = 199 809) takes 0.44 s and 115 MB, and
# a1-hh p = 5, r = 2, window 384 0.26 s and 77 MB.  A window costs 270-400 bytes
# a unit of rank, so memory, not time, sets how far the cap could rise; lifting it
# waits for a plan that predicts a report's bytes before its windows are built.
MAX_WINDOW_RANK = 200_000


class OperatorAlgebra:
    """Algebra of divided-power differential operators on F_p[x_1..x_n]
    (or its Laurent ring).  Divided-power exponents are capped at p^4."""

    __slots__ = ("ring", "dp_cap", "products")

    def __init__(self, p, n=1, names=None, laurent=False):
        require_prime(p)
        self.ring = PolyRing(p, n, names=names, laurent=laurent)
        # A term with a divided power past p^4 is refused (CapacityError, exit 4),
        # not built.  The cap stays because reports rest on its value: smith-tower
        # samples D^(min(p * p, dp_cap)), and a p = 2 window of 20 is refused at
        # D^(17), as test_p2_divided_power_window_past_the_cap_exits_4 pins.
        self.dp_cap = p ** 4
        self.products = {}

    @property
    def p(self):
        return self.ring.p

    @property
    def n(self):
        return self.ring.n

    @property
    def laurent(self):
        return self.ring.laurent

    def one(self):
        z = (0,) * self.n
        return DPDOperator(self, {(z, z): 1})

    def monomial(self, a, b, coeff=1):
        return DPDOperator(self, {(tuple(a), tuple(b)): coeff % self.p})

    def variable(self, i=0, power=1):
        a = [0] * self.n
        a[i] = power
        return self.monomial(a, (0,) * self.n)

    def divided_power(self, i=0, level=1):
        b = [0] * self.n
        b[i] = level
        return self.monomial((0,) * self.n, b)

    def multiplication(self, f):
        """Left multiplication by a polynomial of this algebra's ring."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        z = (0,) * self.n
        return DPDOperator(self, {(e, z): c for e, c in f.terms.items()})

    def from_terms(self, terms):
        return DPDOperator(self, dict(terms))

    def __eq__(self, other):
        return isinstance(other, OperatorAlgebra) and other.ring == self.ring

    def __hash__(self):
        return hash(("OperatorAlgebra", self.ring))

    def __repr__(self):
        kind = "Laurent" if self.laurent else "polynomial"
        return f"OperatorAlgebra(p={self.p}, vars={', '.join(self.ring.names)}, {kind})"


class DPDOperator:
    """Finite sum of normal-ordered terms c * x^a D^(b)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        p = algebra.p
        n = algebra.n
        clean = {}
        for (a, b), c in terms.items():
            a = tuple(int(e) for e in a)
            b = tuple(int(e) for e in b)
            if len(a) != n or len(b) != n:
                raise ValueError(f"exponent tuples of length {n} expected")
            c = int(c) % p
            if not c:
                continue
            _check_term(algebra, a, b)
            clean[(a, b)] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, algebra, terms):
        """Wrap valid terms reduced mod p (no validation); zero ones are dropped."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    # -- linear structure ------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, DPDOperator) or other.algebra != self.algebra:
            raise ValueError("operators from different algebras")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = (out.get(k, 0) + c) % self.algebra.p
        return DPDOperator._wrap(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        p = self.algebra.p
        c = int(c)
        return DPDOperator._wrap(self.algebra, {k: cc * c % p for k, cc in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, DPDOperator)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items()))))

    # -- multiplication ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._require_same(other)
        out = {}
        if _add_product(out, self, other, 1):
            return DPDOperator(self.algebra, out)
        return DPDOperator._wrap(self.algebra, out)

    __rmul__ = __mul__

    def commutator(self, other):
        self._require_same(other)
        out = {}
        for left, right, sign in ((self, other, 1), (other, self, -1)):
            if _add_product(out, left, right, sign):
                left * right  # refused terms may cancel: refuse as the product alone would
        return DPDOperator._wrap(self.algebra, out)

    # -- action on polynomials -----------------------------------------------------

    def act(self, f):
        """Apply the operator to a polynomial of the underlying ring.

        A polynomial-coefficient operator may also act on a Laurent
        polynomial in the same variables.
        """
        ring = f.ring
        ok = ring == self.algebra.ring or (
            not self.algebra.laurent
            and ring.laurent
            and (ring.p, ring.n, ring.names) == (self.algebra.ring.p,
                                                 self.algebra.ring.n,
                                                 self.algebra.ring.names)
        )
        if not ok:
            raise ValueError("polynomial ring does not match the operator algebra")
        p = ring.p
        n = ring.n
        out = {}
        for (a, b), c1 in self.terms.items():
            for m, c2 in f.terms.items():
                coeff = c1 * c2
                for i in range(n):
                    if not coeff:
                        break
                    coeff = (coeff * binomial_mod(m[i], b[i], p)) % p
                if not coeff:
                    continue
                exps = tuple(m[i] - b[i] + a[i] for i in range(n))
                out[exps] = (out.get(exps, 0) + coeff) % p
        return MultiPoly(ring, out)

    # -- centrality --------------------------------------------------------------------

    def centrality_depth(self):
        """Smallest r such that the operator commutes with every p^r-th
        power of a coordinate (equivalently with the whole depth-r twist
        subring).  Closed form: p^r must exceed every divided-power
        exponent; commutators with x_i^(p^r) shift terms injectively, so
        there is no cancellation and the bound is exact."""
        if not self.terms:
            return 0
        p = self.algebra.p
        top = max(max(b) for _, b in self.terms)
        r = 0
        while p ** r <= top:
            r += 1
        return r

    # -- rendering ---------------------------------------------------------------------------

    def support(self):
        return sorted(self.terms,
                      key=lambda ab: (sum(ab[1]), ab[1], sum(ab[0]), ab[0]),
                      reverse=True)

    def render(self):
        if not self.terms:
            return "0"
        names = self.algebra.ring.names
        return render_terms(
            (self.terms[a, b],
             power_factors(names, a) + [f"D{name}^({e})" for name, e in zip(names, b) if e])
            for a, b in self.support())

    def __repr__(self):
        return self.render()


def _check_term(algebra, a, b):
    """Refuse the term x^a D^(b) of an operator in the algebra."""
    for e in a:
        if abs(e) >= MAX_EXPONENT:
            raise CapacityError(f"monomial exponent {e} exceeds capacity")
        if e < 0 and not algebra.laurent:
            raise ValueError("negative exponents need a Laurent algebra")
    for e in b:
        if e < 0:
            raise ValueError("divided-power exponents must be nonnegative")
        if e > algebra.dp_cap:
            raise CapacityError(f"divided-power exponent {e} exceeds cap {algebra.dp_cap}")


def _order_pair(algebra, left, right):
    """Normal-ordered terms (key, coeff) of x^a D^(b) * x^c D^(d), and
    whether one of them is refused by `_check_term`."""
    (a, b), (c, d) = left, right
    p, n = algebra.p, algebra.n
    ranges = []
    work = 1
    for i in range(n):
        hi = b[i] if c[i] < 0 else min(b[i], c[i])
        ranges.append(range(hi + 1))
        work *= hi + 1
    if work > MAX_PRODUCT_WORK:
        raise CapacityError("normal-ordering workload exceeds capacity")
    terms = []
    for j in itertools.product(*ranges):
        coeff = 1
        for i in range(n):
            if not coeff:
                break
            coeff = (coeff
                     * binomial_mod(c[i], j[i], p)
                     * binomial_mod(b[i] + d[i] - j[i], b[i] - j[i], p)) % p
        if coeff:
            terms.append(((tuple(a[i] + c[i] - j[i] for i in range(n)),
                           tuple(b[i] + d[i] - j[i] for i in range(n))), coeff))
    try:
        for (e, f), _ in terms:
            _check_term(algebra, e, f)
    except CapacityError:
        return tuple(terms), True
    return tuple(terms), False


def _add_product(out, left, right, sign):
    """Add sign * (left * right) into the term dict out, each monomial pair
    normal-ordered once per algebra (the memo `algebra.products`).  Returns
    whether some pair made a term `_check_term` refuses; the caller then
    validates the product, in which such terms may cancel."""
    algebra = left.algebra
    p = algebra.p
    refused = False
    for x, c1 in left.terms.items():
        row = algebra.products.setdefault(x, {})
        for y, c2 in right.terms.items():
            entry = row.get(y)
            if entry is None:
                entry = row[y] = _order_pair(algebra, x, y)
            terms, refused_pair = entry
            refused = refused or refused_pair
            c = sign * c1 * c2
            for key, coeff in terms:
                out[key] = (out.get(key, 0) + c * coeff) % p
    return refused


# -- matrix realization over the twist subring ------------------------------------------------


class MatrixRealization:
    """An operator written as a matrix over the depth-r twist subring.

    rows/columns are indexed by the monomial basis {x^a : 0 <= a_i < p^r}
    of the polynomial ring over its twist subring, in lexicographic order;
    entries are polynomials with every exponent divisible by p^r.
    """

    __slots__ = ("algebra", "r", "basis", "entries", "truncated")

    def __init__(self, algebra, r, basis, entries, truncated):
        self.algebra = algebra
        self.r = r
        self.basis = basis
        self.entries = entries
        self.truncated = truncated

    @property
    def size(self):
        return len(self.basis)

    def entry(self, row, col):
        return self.entries[row][col]

    def entries_in_twist_variables(self):
        """Entries rewritten in fresh variables u_i = x_i^(p^r) (u alone for
        one variable)."""
        ring = self.algebra.ring
        names = tuple(f"u{i}" for i in range(ring.n)) if ring.n > 1 else ("u",)
        target = PolyRing(ring.p, ring.n, names=names, laurent=ring.laurent)
        out = []
        for row in self.entries:
            out.append([MultiPoly(target, f.twist_root(self.r).terms) for f in row])
        return out

    def render(self):
        return [[f.render() for f in row] for row in self.entries]


def matrix_realize(op, r, degree_bound=None):
    """Realize an operator of centrality depth <= r as a matrix over the
    twist subring.  Entries are exact unless degree_bound is given, in
    which case they are truncated to the window and flagged."""
    if op.algebra.laurent:
        raise ValueError("matrix realization needs a polynomial algebra")
    if r < 0:
        raise ValueError("r must be nonnegative")
    depth = op.centrality_depth()
    if depth > r:
        raise DepthError(
            f"operator has centrality depth {depth}, not a twist-subring-linear "
            f"map at depth {r}")
    ring = op.algebra.ring
    p, n = ring.p, ring.n
    q = p ** r
    # A rank-q realization renders q^2 entries.  One process per morita-matrix
    # report (degree bound 2q, dp cap q - 1), 2-vCPU Xeon guest: q = 625 takes
    # 3.4 s and 117 MB, q = 2401 41 s and 1.2 GB (a 173 MB report), and the
    # largest accepted rank, q = 3721 (p = 61), 96 s and 2.8 GB (415 MB).
    # Lowering the cap waits for a plan of a report's cost before it is built.
    if q ** n > 4096:
        raise CapacityError("twist-basis rank exceeds capacity")
    basis = sorted(itertools.product(range(q), repeat=n))
    index = {a: i for i, a in enumerate(basis)}
    zero = ring.zero()
    entries = [[zero for _ in basis] for _ in basis]
    truncated = False
    for col, c_exps in enumerate(basis):
        image = op.act(ring.monomial(c_exps))
        cells = {}
        for m, coeff in image.terms.items():
            quot = tuple((e // q) * q for e in m)
            res = tuple(e % q for e in m)
            row = index[res]
            cell = cells.setdefault(row, {})
            cell[quot] = (cell.get(quot, 0) + coeff) % p
        for row, terms in cells.items():
            f = MultiPoly(ring, terms)
            if degree_bound is not None:
                f, dropped = f.truncate(degree_bound)
                truncated = truncated or dropped
            entries[row][col] = f
    return MatrixRealization(op.algebra, r, basis, entries, truncated)


# -- Morita compression to the twist corner ------------------------------------------------------


def morita_compress(op, r, degree_bound):
    """Corner copy of a twist-aligned operator acting on the subring
    F_p[x^(p^r)], written in the compressed variable u = x^(p^r).

    Terms x^a D^(b) survive exactly when p^r | a and p^r | b; they map to
    u^(a/p^r) Du^(b/p^r) because C(p^r m, p^r k) = C(m, k) mod p digitwise.
    Misaligned divided powers annihilate the subring and misaligned
    monomials leave it, so nothing is silently lost.  The closed form is
    re-certified by `compression_action_agrees` inside the degree window,
    which must be large enough to exercise the top divided power
    (p^r * (max b/p^r + 1) <= degree_bound); a smaller window raises
    WindowError here.
    """
    if op.algebra.n != 1:
        raise ValueError("compression is defined for one-variable operators")
    if r < 0:
        raise ValueError("r must be nonnegative")
    p = op.algebra.p
    q = p ** r
    compressed = {}
    beta_max = 0
    for (a, b), c in op.terms.items():
        if a[0] % q == 0 and b[0] % q == 0:
            compressed[((a[0] // q,), (b[0] // q,))] = c
            beta_max = max(beta_max, b[0] // q)
    target = OperatorAlgebra(p, 1, names=("u",), laurent=op.algebra.laurent)
    if degree_bound < q * (beta_max + 1):
        raise WindowError(
            f"degree window {degree_bound} cannot certify compression; "
            f"need at least {q * (beta_max + 1)}")
    return DPDOperator(target, compressed)


def compressed_degree(p, r, degree_bound):
    """The degree window degree_bound // p^r in the compressed variable
    u = x^(p^r); WindowError when it holds no monomial u^k with k >= 1."""
    du = degree_bound // p ** r
    if du < 1:
        raise WindowError(
            f"degree window {degree_bound} holds no monomial of the depth-{r} twist")
    return du


def compression_action_agrees(op, compressed, r, degree_bound):
    """Whether op and its compression act alike on every subring monomial
    x^(p^r k) = u^k inside the degree window."""
    q = op.algebra.p ** r
    lo = -(degree_bound // q) if op.algebra.laurent else 0
    hi = degree_bound // q
    for k in range(lo, hi + 1):
        big = op.act(op.algebra.ring.monomial((q * k,)))
        small = compressed.act(compressed.algebra.ring.monomial((k,)))
        projected = {}
        for (e,), c in big.terms.items():
            if e % q == 0:
                projected[(e // q,)] = c
        if projected != small.terms:
            return False
    return True


# -- windowed operator modules ------------------------------------------------------------------------


class WindowIndex:
    """Mixed-radix numbering of the window x^a D^(b) of an operator algebra,
    each monomial exponent in [lo, hi] (lo = -hi for Laurent algebras, 0
    otherwise) and each divided-power exponent in [0, dp_bound], terms in
    lexicographic order.  It builds no exponent arrays, so it serves as the
    target of a window map and is not bounded by `MAX_WINDOW_RANK`; the map's
    domain is a TruncatedOperatorModule, which is."""

    __slots__ = ("algebra", "lo", "hi", "dp_bound", "radix", "dim")

    def __init__(self, algebra, degree_bound, dp_bound):
        if degree_bound < 0 or dp_bound < 0:
            raise ValueError("window bounds must be nonnegative")
        self.algebra = algebra
        self.hi = degree_bound
        self.lo = -degree_bound if algebra.laurent else 0
        self.dp_bound = dp_bound
        n = algebra.n
        radix = (self.hi - self.lo + 1,) * n + (dp_bound + 1,) * n
        self.radix, self.dim = np.array(radix), math.prod(radix)

    def _locate(self, a, b):
        """Index of each term (rows of a, b) in the window, -1 outside it."""
        digits = np.concatenate([a - self.lo, b], axis=1)
        inside = ((digits >= 0) & (digits < self.radix)).all(axis=1)
        return np.where(inside, np.ravel_multi_index(digits.T, self.radix, mode="clip"), -1)


class TruncatedOperatorModule(WindowIndex):
    """Finite-dimensional window of an operator algebra, the space of the
    commutator (Koszul-type) complexes: the WindowIndex's terms x^a D^(b),
    held as int64 exponent arrays `a` and `b` (dim x n), so a term's index is
    its mixed-radix number.  Window maps are written exactly from their image
    terms; a term leaving the target raises WindowError, never truncation.
    """

    __slots__ = ("a", "b")

    def __init__(self, algebra, degree_bound, dp_bound):
        super().__init__(algebra, degree_bound, dp_bound)
        if self.dim > MAX_WINDOW_RANK:
            raise CapacityError(f"operator window of rank {self.dim} exceeds capacity")
        n = algebra.n
        digits = np.indices(tuple(self.radix)).reshape(2 * n, -1).T
        self.a, self.b = digits[:, :n] + self.lo, digits[:, n:]

    def operator(self, vec):
        """The operator with coordinates vec in this window."""
        return DPDOperator(self.algebra, {(tuple(self.a[k]), tuple(self.b[k])): vec[k]
                                          for k in np.flatnonzero(np.mod(vec, self.algebra.p))})

    def operator_matrix(self, images, target=None, cols=slice(None)):
        """Matrix over the target window (a WindowIndex, this module by
        default) of the map sending basis column k to the sum of its image
        terms: `images` holds (a, b, coefficient) arrays, one term per column
        (a column's terms distinct; a coefficient may be a scalar), its
        columns the basis elements `cols` picks (all by default).
        The window's own basis past the caps is refused first; once all images
        are read, a nonzero term outside the target raises WindowError."""
        target, p = target or self, self.algebra.p
        own_a, own_b = self.a[cols], self.b[cols]
        _check_terms(self.algebra, own_a, own_b, True)
        triples, misses = [(np.zeros(0, dtype=np.int64),) * 3], []
        for a, b, c in images:
            c = np.broadcast_to(c, len(own_a))
            col = np.flatnonzero(np.mod(c, p))
            row = target._locate(a[col], b[col])
            misses += [(k, tuple(a[k].tolist()), tuple(b[k].tolist())) for k in col[row < 0][:1]]
            triples.append((row, col, c[col]))
        if misses:
            term = min(misses, key=lambda miss: miss[0])[1:]
            raise WindowError(f"term {term} falls outside the module window")
        return linalg.FpMatrix.from_triples(p, (target.dim, len(own_a)),
                                             *(np.concatenate(x) for x in zip(*triples)))

    def commutator_matrix(self, g, target=None, cols=slice(None)):
        """Matrix of [g, -] into the target window for a monomial g = k x^c D^(e),
        on the columns `cols` picks, one array pass per j in the box 0 <= j_i <=
        max(e_i, h_i), h_i = dp_bound if c_i < 0 else min(dp_bound, c_i) (e_i
        capped at hi in a polynomial window, where C(a_i, j_i) = 0 for
        j_i > a_i): x^(a+c-j) D^(b+e-j) gets k (L - R),
        L = prod_i C(a_i, j_i) C(b_i+e_i-j_i, e_i-j_i) from g x^a D^(b) and
        R = prod_i C(c_i, j_i) C(b_i+e_i-j_i, b_i-j_i) from x^a D^(b) g, each
        factor evaluated once on its coordinate's range and gathered.  A term
        past the caps is refused where L or R is nonzero."""
        ((c, e), k), = g.terms.items()
        p, c, e = self.algebra.p, np.array(c), np.array(e)
        box = np.maximum(e if self.lo else np.minimum(e, self.hi),
                         np.where(c < 0, self.dp_bound, np.minimum(self.dp_bound, c))) + 1
        own_a, own_b = self.a[cols], self.b[cols]
        at_a, at_b = (own_a - self.lo).T, own_b.T  # each column's place in each range
        a_range, b_range = np.arange(self.lo, self.hi + 1), np.arange(self.dp_bound + 1)

        def images():
            for j in map(np.array, np.ndindex(*box)):
                left, right = 1, binomial_array(c, j, p).prod() % p
                for i in range(len(j)):
                    top = b_range + e[i] - j[i]
                    left = (left * binomial_array(a_range, j[i], p)[at_a[i]]
                            * binomial_array(top, e[i] - j[i], p)[at_b[i]] % p)
                    right = right * binomial_array(top, b_range - j[i], p)[at_b[i]] % p
                a, b = own_a + c - j, own_b + e - j
                _check_terms(self.algebra, a, b, (left != 0) | (right != 0))
                yield a, b, k * (left - right)

        return self.operator_matrix(images(), target, cols)


def _check_terms(algebra, a, b, where):
    """`_check_term` on the first term (rows of a, b) in `where` past a cap."""
    past = where & ((np.abs(a) >= MAX_EXPONENT) | (b > algebra.dp_cap)).any(axis=1)
    for k in np.flatnonzero(past)[:1]:
        _check_term(algebra, a[k].tolist(), b[k].tolist())
