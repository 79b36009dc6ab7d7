"""Divided-power differential operators over F_p.

An operator is a finite sum of normal-ordered terms  c * x^a D^(b)  where
x^a is a (possibly Laurent) monomial and D^(b) = prod_i D_i^(b_i) is a
product of divided powers of the partial derivatives, acting on monomials
by  x^a D^(b) (x^m) = prod_i C(m_i, b_i) * x^(m - b + a).

Products are normal-ordered through the commutation rule

    D^(b) x^c = sum_j prod_i C(c_i, j_i) x^(c - j) D^(b - j),

with generalized binomials handling negative Laurent exponents, so the
algebra is exact for every prime.  A `DPDOperator` holds K >= 1 operators
as one int64 array of terms (owner, a, b, c); a single operator is a batch
of one.  Its constructors check every term while its exponents are still
Python ints or arrays, before any term is made.  One array kernel makes
every product: `combination` sums (s L_l) R_r over rows (l, r, s, o) of one
batch on owners o in one numpy pass, each term pair expanded over the j of
its j-box with C(c, j) != 0 mod p alone (Lucas) and the expansion summed on
one sort key, in chunks of bounded size.  A
product is one row per owner, a commutator two, and a check linear in
products one signed sum that must vanish; nothing is memoized.  The module
also provides the closed-form centrality depth, realization of an operator
as a matrix over the Frobenius-twist subring (one term array (row, col, e,
c) filled by array passes over terms x chunks of basis columns, its entry
grids rendered from it and single entries built on demand), compression of a
twist-aligned operator to the corner copy acting on the subring (and the
compressed degree window every depth-r scenario shares), operator windows
whose exponent arrays are built on first read and whose matrices one builder
writes from closed-form image terms (never through the product kernel), and
a renderer for a stable operator syntax such as "2*t^3*Dt^(2) + t + 1".
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .errors import CapacityError, WindowError
from .gfp import binomial_array, binomial_mod, digit_binomials, lucas_support, require_prime
from .poly import MAX_EXPONENT, MultiPoly, PolyRing, power_factors, render_terms

# The j-box of one term pair of a product (its Lucas support alone is expanded).
# No CLI input reaches it: reports multiply one-variable polynomial operators
# only (smith-tower, cup-ring-map), whose boxes min(b, c) + 1 stay at most 2^16
# since c < MAX_EXPONENT.  At the edge, one process on a 2-vCPU Xeon guest:
# D^(1413, 1413) x^(1413, 1413) at p = 41 (box 1 999 396, support 490 000) takes
# 0.26 s and 115 MB, and the Laurent D^(1 999 999) x^(-1) at p = 41 (box and
# support 2 000 000) 0.7 s and 307 MB before its term x^(-65536) is refused.
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

    __slots__ = ("ring", "dp_cap")

    def __init__(self, p, n=1, names=None, laurent=False):
        require_prime(p)
        self.ring = PolyRing(p, n, names=names, laurent=laurent)
        # A term with a divided power past p^4 is refused (CapacityError, exit 4),
        # not built.  The cap stays because reports rest on its value: smith-tower
        # samples D^(min(p * p, dp_cap)), and a p = 2 window of 20 is refused at
        # D^(17), as test_p2_divided_power_window_past_the_cap_exits_4 pins.
        self.dp_cap = p ** 4

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
        return self.monomial(z, z)

    def monomial(self, a, b, coeff=1):
        return self.from_terms({(tuple(a), tuple(b)): coeff})

    def monomials(self, a, b):
        """The batch of the monomials x^(a_k) D^(b_k), owner k, from the rows
        of the exponent arrays a and b (K x n; a vector when n = 1)."""
        a, b = (np.asarray(e, dtype=np.int64).reshape(-1, self.n).T for e in (a, b))
        _check_terms(self, a, b)
        k = np.arange(a.shape[1])
        return DPDOperator(self, len(k), np.concatenate([[k], a, b, [np.ones_like(k)]]))

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
        return self.from_terms({(e, z): c for e, c in f.terms.items()})

    def from_terms(self, terms):
        """The operator sum of c x^a D^(b) over the items ((a, b), c) of
        `terms`, keys distinct, in their order.  Each coefficient is reduced
        mod p, and each nonzero term checked while its exponents are Python
        ints, before they become int64."""
        p, n = self.p, self.n
        columns = []
        for (a, b), c in dict(terms).items():
            a, b = tuple(map(int, a)), tuple(map(int, b))
            if len(a) != n or len(b) != n:
                raise ValueError(f"exponent tuples of length {n} expected")
            c = int(c) % p
            if c:
                _check_term(self, a, b)
                columns.append((0, *a, *b, c))
        return DPDOperator(self, 1, np.array(columns, dtype=np.int64).reshape(-1, 2 * n + 2).T)

    def __eq__(self, other):
        return isinstance(other, OperatorAlgebra) and other.ring == self.ring

    def __repr__(self):
        kind = "Laurent" if self.laurent else "polynomial"
        return f"OperatorAlgebra(p={self.p}, vars={', '.join(self.ring.names)}, {kind})"


class DPDOperator:
    """K >= 1 operators of one algebra, each a finite sum of normal-ordered
    terms c x^a D^(b), held as one int64 array `terms` of 2n + 2 rows (owner,
    a_1..a_n, b_1..b_n, c), a column per term with c in [1, p), columns
    grouped by owner 0..K-1.  A single operator is a batch of one.
    `from_terms` keeps its terms' order; products and sums return columns
    sorted by (owner, a, b).  Products, sums and equality act owner by owner,
    so an equality of two batches is the conjunction of K operator
    equalities; `act`, `centrality_depth` and `render` take a batch of one."""

    __slots__ = ("algebra", "count", "terms")

    def __init__(self, algebra, count, terms):
        self.algebra, self.count, self.terms = algebra, count, terms

    @staticmethod
    def concat(batches):
        """One batch of the batches' operators (of one algebra), in order."""
        offset = np.cumsum([0] + [batch.count for batch in batches])
        terms = np.concatenate([batch.terms for batch in batches], axis=1)
        terms[0] += np.repeat(offset[:-1], [batch.terms.shape[1] for batch in batches])
        return DPDOperator(batches[0].algebra, int(offset[-1]), terms)

    # -- linear structure ------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, DPDOperator) or other.algebra != self.algebra:
            raise ValueError("operators from different algebras")
        if other.count != self.count:
            raise ValueError("operator batches of different sizes")

    def __add__(self, other):
        self._require_same(other)
        terms, _ = _reduce(self.algebra.p, np.concatenate([self.terms, other.terms], axis=1))
        return DPDOperator(self.algebra, self.count, terms)

    def scale(self, c):
        p = self.algebra.p
        terms = self.terms.copy()
        terms[-1] = terms[-1] * (int(c) % p) % p
        return DPDOperator(self.algebra, self.count, terms[:, terms[-1] != 0])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + -other

    def __eq__(self, other):
        return (isinstance(other, DPDOperator)
                and (other.algebra, other.count) == (self.algebra, self.count)
                and not (self - other).terms.size)

    # -- multiplication ----------------------------------------------------------

    def combination(self, blocks, count):
        """The batch of `count` operators whose o-th sums (s self[l]) self[r]
        over the rows (l, r, s, o) of `blocks` (a block's entries broadcast
        together, rows in block order), in one `_expand` pass over the rows'
        term pairs, indexed off this batch's per-operator starts and sizes, the
        sign folded into the left coefficient.  It refuses as its rows one at a
        time would: the first row with a term pair whose j-box exceeds
        `MAX_PRODUCT_WORK`, once the rows before it are expanded, or a term past
        a cap that survives its row's product, the first in (row, left term,
        right term, j) order."""
        sizes = [np.broadcast(*block).size for block in blocks]
        l, r, s, o = rows = np.empty((4, sum(sizes)), dtype=np.int64)
        for block, end, size in zip(blocks, itertools.accumulate(sizes), sizes):
            for row, x in zip(rows, block):  # broadcast into the block's columns
                row[end - size:end] = x
        alg, n = self.algebra, self.algebra.n
        bound = np.searchsorted(self.terms[0], np.arange(self.count + 1))
        start, size = bound[:-1], np.diff(bound)
        l_size, r_size = size.take(l) * (s % alg.p != 0), size.take(r)  # s L is 0 if p | s
        per = np.repeat(r_size, l_size)  # right terms for each row's left term
        left = np.repeat(_segments(start.take(l), l_size), per)  # each pair's two terms
        right = _segments(np.repeat(start.take(r), l_size), per)
        row = np.repeat(np.arange(len(l)), l_size * r_size)
        box = np.ones(len(row), dtype=np.int64)
        for b, c in zip(self.terms[1 + n:-1], self.terms[1:1 + n]):
            b, c = b.take(left), c.take(right)
            box = np.minimum(box * (np.where(c < 0, b, np.minimum(b, c)) + 1), MAX_PRODUCT_WORK + 1)
        over = np.flatnonzero(box > MAX_PRODUCT_WORK)
        del box, b, c  # `_expand` holds a pair's indices only
        if over.size:  # the rows before the first one refused are checked first
            cut = np.searchsorted(row, row[over[0]])
            _expand(self, left[:cut], right[:cut], row[:cut], s, o)
            raise CapacityError("normal-ordering workload exceeds capacity")
        return DPDOperator(alg, count, _expand(self, left, right, row, s, o))

    def __mul__(self, other):
        """Every product L_k R_k of the k-th operators of two batches: one row
        (L_k, R_k) of `combination` per owner."""
        self._require_same(other)
        k = np.arange(self.count)
        return DPDOperator.concat([self, other]).combination([(k, k + k.size, 1, k)], k.size)

    def commutator(self, other):
        """[L_k, R_k] owner by owner: the rows L_0 R_0, -R_0 L_0, L_1 R_1, ...
        of one `combination`, refused as those products one at a time would
        be, though refused terms may cancel in a difference."""
        self._require_same(other)
        k, count = np.arange(self.count), self.count
        left, right = np.stack([k, k + count], axis=1), np.stack([k + count, k], axis=1)
        return DPDOperator.concat([self, other]).combination(
            [(left.ravel(), right.ravel(), [1, -1] * count, np.repeat(k, 2))], count)

    # -- one operator: action, centrality, rendering --------------------------------

    def _require_one(self):
        if self.count != 1:
            raise ValueError(f"one operator expected, not a batch of {self.count}")

    def act(self, f):
        """Apply the operator to a polynomial of the underlying ring.

        A polynomial-coefficient operator may also act on a Laurent
        polynomial in the same variables.  Kept beside `matrix_realize`'s
        array pass: one pass for both took report-stream from 0.253 to 0.257 s
        CPU, and run over every k of `compression_action_agrees` at once it
        reported morita-matrix p = 2, r = 1, degree bound 70000, which the loop
        over k refuses at x^65536 (exit 4); at 10^12 it would need 3.6 TiB.
        """
        self._require_one()
        ring, own = f.ring, self.algebra.ring
        if (ring.p, ring.n, ring.names) != (own.p, own.n, own.names) or own.laurent > ring.laurent:
            raise ValueError("polynomial ring does not match the operator algebra")
        p = ring.p
        n = ring.n
        out = {}
        for _, *ab, c1 in self.terms.T.tolist():
            a, b = ab[:n], ab[n:]
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
        # a term whose coefficients cancel may carry an exponent MultiPoly refuses
        return MultiPoly(ring, {exps: c for exps, c in out.items() if c})

    def centrality_depth(self):
        """Smallest r such that the operator commutes with every p^r-th
        power of a coordinate (equivalently with the whole depth-r twist
        subring).  Closed form: p^r must exceed every divided-power
        exponent; commutators with x_i^(p^r) shift terms injectively, so
        there is no cancellation and the bound is exact."""
        self._require_one()
        p = self.algebra.p
        top = int(self.terms[1 + self.algebra.n:-1].max(initial=0))
        r = 0
        while p ** r <= top:
            r += 1
        return r

    def render(self):
        """Terms in descending (|b|, b, |a|, a) order, as "2*t^3*Dt^(2) + t + 1"."""
        self._require_one()
        n, names = self.algebra.n, self.algebra.ring.names
        terms = [(t[1:1 + n], t[1 + n:-1], t[-1]) for t in self.terms.T.tolist()]
        terms.sort(key=lambda t: (sum(t[1]), t[1], sum(t[0]), t[0]), reverse=True)
        return render_terms(
            (c, power_factors(names, a) + [f"D{name}^({e})" for name, e in zip(names, b) if e])
            for a, b, c in terms) or "0"

    def __repr__(self):  # `render` reads no owner
        return "; ".join(DPDOperator(self.algebra, 1, self.terms[:, self.terms[0] == k]).render()
                         for k in range(self.count))


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


def _past(algebra, a, b):
    """Which terms (columns of the int64 arrays a, b) `_check_term` refuses."""
    low = 1 - MAX_EXPONENT if algebra.laurent else 0
    return ((a < low) | (a >= MAX_EXPONENT) | (b < 0) | (b > algebra.dp_cap)).any(axis=0)


def _check_terms(algebra, a, b, where=True):
    """`_check_term` on the first term (columns of the int64 arrays a, b) it
    refuses among those `where` holds.  A mask, not a filtered copy: boolean
    indexing took 3.7 ms on a 200 000-term window pass, the whole check 0.7 ms."""
    past = np.flatnonzero(where & _past(algebra, a, b))
    if past.size:
        _check_term(algebra, a[:, past[0]].tolist(), b[:, past[0]].tolist())


def _segments(start, size):
    """The concatenated ranges [start_k, start_k + size_k)."""
    return np.repeat(start - (np.cumsum(size) - size), size) + np.arange(size.sum())


def _reduce(p, terms):
    """Sum the terms (columns) of one owner and monomial mod p: the sums,
    sorted by (owner, a, b) with zero sums dropped, and each one's first
    column in `terms`.  The key rows sort as one mixed-radix int64 key when
    their spans allow (a stable argsort of 2^16 such keys took 2.5 ms, a
    lexsort of their three rows 17 ms), else by lexsort."""
    if not terms.shape[1]:
        return terms, np.zeros(0, dtype=np.int64)
    keys = terms[:-1]
    lo = keys.min(axis=1)
    span = (keys.max(axis=1) - lo + 1).tolist()
    if math.prod(span) < 2 ** 62:
        key = keys[0] - lo[0]
        for row, low, size in zip(keys[1:], lo[1:], span[1:]):
            key = key * size + (row - low)
        order = np.argsort(key, kind="stable")
        new = np.diff(key.take(order)) != 0
    else:
        order = np.lexsort(keys[::-1])
        new = (np.diff(keys.take(order, axis=1)) != 0).any(axis=0)
    heads = np.flatnonzero(np.concatenate(([True], new)))
    sums = np.add.reduceat(terms[-1].take(order), heads) % p
    keep = np.flatnonzero(sums)
    head = order.take(heads.take(keep))
    out = terms.take(head, axis=1)
    out[-1] = sums.take(keep)
    return out, head


# Terms of one chunk of a product's expansion (and term pairs of one chunk of
# pairs), or of a matrix realization's terms x basis columns, so working memory
# does not grow with either.  A product chunk peaks at 9.5 MB of arrays at n = 1
# (144 bytes a term) and 11.5 MB at n = 2 (tracemalloc).  smith-tower p = 37
# r = 3 expands 2.07 million terms in about 0.8 s at 2^16 and 0.9 s at 2^18,
# with 205 MB and 260 MB peak RSS (2-vCPU Xeon guest).  A 2000-term operator
# realizes at q = 3721 in 0.8 s and 38 MB, where one pass took 1.5 s and 719 MB.
_PRODUCT_CHUNK_TERMS = 1 << 16


def _expand(batch, left, right, row, sign, owner):
    """The reduced sum of the term pairs' expansions: pair k, sign[row_k]
    x^a D^(b) * x^c D^(d) (terms left_k and right_k of `batch`) on owner
    owner[row_k], expands into prod_i C(c_i, j_i) C(b_i+d_i-j_i, b_i-j_i)
    x^(a+c-j) D^(b+d-j) over the j in its j-box with C(c, j) != 0 mod p
    (`gfp.lucas_support`), j ascending and the last coordinate fastest, pairs
    and then their terms in chunks of at most `_PRODUCT_CHUNK_TERMS`, each
    reduced alone, their sums merged once they pass a chunk and the last
    merged sum.  A term past a cap sums on owner -1 - row, apart from every
    owner, and the first such sum to survive, in pair and j order, is refused."""
    algebra, p, n = batch.algebra, batch.algebra.p, batch.algebra.n
    if not len(row):
        return np.zeros((2 * n + 2, 0), dtype=np.int64)
    base, _, cols, values, counts = digit_binomials(p)
    parts, firsts, merged, pending, done = [], [], 0, 0, 0  # the last merged sum, then chunks
    for offset in range(0, len(row), _PRODUCT_CHUNK_TERMS):
        k = slice(offset, offset + _PRODUCT_CHUNK_TERMS)
        l, r = batch.terms.take(left[k], axis=1), batch.terms.take(right[k], axis=1)
        b, c, pairs = l[1 + n:-1], r[1:1 + n], l + r  # pairs: row, a + c, b + d, coefficient
        pairs[0], pairs[-1] = row[k], l[-1] * sign.take(row[k]) % p * r[-1] % p
        rows, size = lucas_support(c, np.where(c < 0, b, np.minimum(b, c)), p)  # j-box ends
        ends = np.cumsum(count := size.prod(axis=0))
        total = int(ends[-1])
        for s in range(0, total, _PRODUCT_CHUNK_TERMS):
            e = min(s + _PRODUCT_CHUNK_TERMS, total)
            lo, up = np.searchsorted(ends, [s, e - 1], side="right") + (0, 1)  # pairs in [s, e)
            begin = ends[lo:up] - count[lo:up]
            each = np.minimum(ends[lo:up], e) - np.maximum(begin, s)  # of the chunk's terms
            pair = np.repeat(np.arange(lo, up), each)
            rest = np.arange(s, e) - np.repeat(begin, each)
            terms = pairs.take(pair, axis=1)
            coeff = terms[-1]
            for i in reversed(range(n)):
                rest, rank = np.divmod(rest, size[i].take(pair)) if i else (None, rest)
                for t, at in enumerate(rows):  # rank's digits in the radix of the rows' sizes
                    at = at[i].take(pair)
                    rank, d = (np.divmod(rank, counts.take(at + base)) if t < len(rows) - 1
                               else (0, rank))
                    j = cols.take(at + d) if not t else j + cols.take(at + d) * base ** t
                    coeff = coeff * values.take(at + d) % p  # C(c_i, j_i), digit by digit
                terms[[1 + i, 1 + n + i]] -= j  # x^(a+c-j) D^(b+d-j)
                coeff = coeff * binomial_array(terms[1 + n + i], b[i].take(pair) - j, p) % p
            nz = np.flatnonzero(coeff)
            terms = terms.take(nz, axis=1)
            terms[-1] = coeff.take(nz)
            past = _past(algebra, terms[1:1 + n], terms[1 + n:-1])
            terms[0] = np.where(past, -1 - terms[0], owner.take(terms[0]))
            terms, head = _reduce(p, terms)
            parts.append(terms)
            firsts.append(done + s + nz.take(head))
            pending += terms.shape[1]
            last = e == total and k.stop >= len(row)
            if len(parts) > 1 and (last or pending > max(_PRODUCT_CHUNK_TERMS, merged)):
                parts = [np.concatenate(parts, axis=1)]  # free the chunks before the merge
                terms, head = _reduce(p, parts.pop())
                parts, firsts = [terms], [np.concatenate(firsts).take(head)]
                merged, pending = terms.shape[1], 0
        done += total
    (terms,), (first,) = parts, firsts
    past = np.flatnonzero(terms[0] < 0)
    if past.size:
        k = past[np.argmin(first.take(past))]
        _check_term(algebra, terms[1:1 + n, k].tolist(), terms[1 + n:-1, k].tolist())
    return terms


# -- matrix realization over the twist subring ------------------------------------------------


class MatrixRealization:
    """An operator written as a matrix over the depth-r twist subring.

    Rows and columns are indexed by the monomial basis {x^m : 0 <= m_i < q},
    q = p^r, of the polynomial ring over its twist subring, numbered in
    lexicographic order.  `terms` is one int64 array of rows (row, col,
    e_1..e_n, c), a column per nonzero term c x^e of entry (row, col); every
    e_i is divisible by q.
    """

    __slots__ = ("algebra", "r", "terms", "truncated")

    def __init__(self, algebra, r, terms, truncated):
        self.algebra, self.r, self.terms, self.truncated = algebra, r, terms, truncated

    @property
    def size(self):
        return self.algebra.p ** (self.r * self.algebra.n)

    def entry(self, row, col):
        """Entry (row, col) as a polynomial of the algebra's ring."""
        cell = self.terms[:, (self.terms[0] == row) & (self.terms[1] == col)]
        return self.algebra.ring.from_terms((tuple(e), c) for _, _, *e, c in cell.T.tolist())

    def render(self, twist=False):
        """The entries as a size x size grid of strings, "0" where empty, each
        entry's terms in descending graded-lexicographic order: c*x^e, or with
        `twist` c*u^(e/q) in the twist variables u_i = x_i^q (u alone for one
        variable)."""
        ring, q = self.algebra.ring, self.algebra.p ** self.r
        names, exps = ring.names, self.terms[2:-1]
        if twist:
            names = tuple(f"u{i}" for i in range(ring.n)) if ring.n > 1 else ("u",)
            exps = exps // q
        order = np.lexsort([*-exps[::-1], -exps.sum(axis=0), *self.terms[1::-1]])
        terms = np.concatenate([self.terms[:2], exps, self.terms[-1:]]).take(order, axis=1)
        grid = [["0"] * self.size for _ in range(self.size)]
        for (row, col), cell in itertools.groupby(terms.T.tolist(), key=lambda t: t[:2]):
            grid[row][col] = render_terms((t[-1], power_factors(names, t[2:-1])) for t in cell)
        return grid


def matrix_realize(op, r, degree_bound=None):
    """Realize an operator of centrality depth <= r as a matrix over the
    twist subring, one array pass per chunk of basis columns (one pass when
    terms x columns <= `_PRODUCT_CHUNK_TERMS`): c x^a D^(b) sends the column
    x^m to c C(m, b) x^(m - b + a), in row (m - b + a) mod q.  A chunk's image
    terms are summed, an exponent past `MAX_EXPONENT` is refused (the first,
    in column and term order, that survives its sum), and the sums are
    truncated to total degree <= degree_bound, if given, and flagged."""
    if op.algebra.laurent:
        raise ValueError("matrix realization needs a polynomial algebra")
    if r < 0:
        raise ValueError("r must be nonnegative")
    depth = op.centrality_depth()
    if depth > r:
        raise ValueError(
            f"operator has centrality depth {depth}, not a twist-subring-linear "
            f"map at depth {r}")
    ring = op.algebra.ring
    p, n = ring.p, ring.n
    q = p ** r
    # A rank-q realization is one term array, built and rendered in 0.14 s at
    # q = 2401; encoding its report's two q^2-entry grids costs the rest.  One
    # process per morita-matrix --json report (default operator, degree bound
    # 2q), 2-vCPU Xeon guest: q = 2401 takes 2.9-4.4 s and 124 MB (173 MB of
    # JSON), and the largest accepted rank, q = 3721 (p = 61), 6.1-7.5 s and
    # 248 MB (415 MB).  A 1024-term operator at q = 3721 (3.8 million image
    # terms) takes 23 s and 1.2 GB, 16.6 s of it rendering grids.  Replacing
    # the cap waits for a plan of a report's cost before it is built.
    if q ** n > 4096:
        raise CapacityError("twist-basis rank exceeds capacity")
    shape = (q,) * n
    a, b, c = op.terms[1:1 + n], op.terms[1 + n:-1], op.terms[-1]
    step = max(1, _PRODUCT_CHUNK_TERMS // max(1, len(c)))  # columns of one chunk
    parts, truncated = [np.zeros((n + 3, 0), dtype=np.int64)], False
    for first in range(0, q ** n, step):  # columns in basis order, terms in order
        cols = np.arange(first, min(first + step, q ** n))
        col, term = np.repeat(cols, len(c)), np.tile(np.arange(len(c)), len(cols))
        m = np.array(np.unravel_index(col, shape))
        coeff = c.take(term)
        for i in range(n):
            coeff = coeff * binomial_array(m[i], b[i].take(term), p) % p
        nz = np.flatnonzero(coeff)
        col, term = col.take(nz), term.take(nz)
        image = m.take(nz, axis=1) - b.take(term, axis=1) + a.take(term, axis=1)
        terms, head = _reduce(p, np.concatenate(
            [[np.ravel_multi_index(image % q, shape), col], image, [coeff.take(nz)]]))
        exps = terms[2:-1]
        past = np.flatnonzero((exps >= MAX_EXPONENT).any(axis=0))
        if past.size:  # the ring refuses it with MultiPoly's message
            ring.monomial(exps[:, past[np.argmin(head.take(past))]].tolist())
        exps -= exps % q
        inside = exps.sum(axis=0) <= (np.inf if degree_bound is None else degree_bound)
        parts.append(terms[:, inside])
        truncated = truncated or not inside.all()
    return MatrixRealization(op.algebra, r, np.concatenate(parts, axis=1), truncated)


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
    _, a, b, _ = op.terms
    terms = op.terms[:, (a % q == 0) & (b % q == 0)]
    terms[1:3] //= q
    beta_max = int(terms[2].max(initial=0))
    target = OperatorAlgebra(p, 1, names=("u",), laurent=op.algebra.laurent)
    if degree_bound < q * (beta_max + 1):
        raise WindowError(
            f"degree window {degree_bound} cannot certify compression; "
            f"need at least {q * (beta_max + 1)}")
    return DPDOperator(target, op.count, terms)


def compressed_degree(p, r, degree_bound):
    """The degree window degree_bound // p^r in the compressed variable
    u = x^(p^r); WindowError when it holds no monomial u^k with k >= 1.  For
    p >= 2, r >= degree_bound.bit_length() gives p^r > degree_bound, so such a
    depth is refused before p^r is formed: at r = 10^9, p^r alone would not
    fit in memory."""
    du = 0 if r >= int(degree_bound).bit_length() else degree_bound // p ** r
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


# -- windowed operator modules ---------------------------------------------------------------


class TruncatedOperatorModule:
    """Finite-dimensional window of an operator algebra, the space of the
    commutator (Koszul-type) complexes: the terms x^a D^(b), each monomial
    exponent in [lo, hi] (lo = -hi for Laurent algebras, 0 otherwise) and
    each divided-power exponent in [0, dp_bound], in lexicographic order, so a
    term's index is its mixed-radix number.  Its int64 exponent arrays `a`
    and `b` (dim x n) are built on first read, where `MAX_WINDOW_RANK` caps
    them, so a window that only locates the terms of a map into it is not
    capped.  Window maps are written exactly from their image terms; a term
    leaving the target raises WindowError, never truncation.
    """

    __slots__ = ("algebra", "lo", "hi", "dp_bound", "radix", "dim", "a", "b")

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

    def __getattr__(self, name):
        """Build `a` and `b` on their first read, refused past `MAX_WINDOW_RANK`."""
        if name not in ("a", "b"):
            raise AttributeError(name)
        if self.dim > MAX_WINDOW_RANK:
            raise CapacityError(f"operator window of rank {self.dim} exceeds capacity")
        n = self.algebra.n
        digits = np.indices(tuple(self.radix)).reshape(2 * n, -1).T
        self.a, self.b = digits[:, :n] + self.lo, digits[:, n:]
        return getattr(self, name)

    def _locate(self, a, b):
        """Index of each term (rows of a, b) in the window, -1 outside it."""
        digits = np.concatenate([a - self.lo, b], axis=1)
        inside = ((digits >= 0) & (digits < self.radix)).all(axis=1)
        return np.where(inside, np.ravel_multi_index(digits.T, self.radix, mode="clip"), -1)

    def operator(self, vec):
        """The operator with coordinates vec in this window."""
        vec = np.mod(vec, self.algebra.p)
        k = np.flatnonzero(vec)
        a, b = self.a[k].T, self.b[k].T
        _check_terms(self.algebra, a, b)
        return DPDOperator(self.algebra, 1, np.concatenate([[np.zeros_like(k)], a, b, [vec[k]]]))

    def operator_matrix(self, images, target=None, cols=slice(None)):
        """Matrix over the target window (this module by default) of the map
        sending basis column k to the sum of its image terms: `images` holds
        (a, b, coefficient) arrays, one term per column (a column's terms
        distinct; a coefficient may be a scalar), its columns the basis
        elements `cols` picks (all by default).
        The window's own basis past the caps is refused first; once all images
        are read, a nonzero term outside the target raises WindowError."""
        target, p = target or self, self.algebra.p
        own_a, own_b = self.a[cols], self.b[cols]
        _check_terms(self.algebra, own_a.T, own_b.T)
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
        past the caps is refused where L or R is nonzero.  Kept beside
        `DPDOperator.combination`, which makes equal matrices slower, 2-vCPU
        Xeon: window-ladder's 37 calls a pass in 17.6 ms against 15.9 here, and
        pd-derham p = 7, N = 446's 3 in 0.227 s against 0.029 s."""
        (_, *ce, k), = g.terms.T.tolist()
        p, n = self.algebra.p, self.algebra.n
        c, e = np.array(ce[:n]), np.array(ce[n:])
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
                _check_terms(self.algebra, a.T, b.T, where=(left != 0) | (right != 0))
                yield a, b, k * (left - right)

        return self.operator_matrix(images(), target, cols)

