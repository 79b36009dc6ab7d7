"""Exact linear algebra over F_p.

A matrix has one form, the FpMatrix: its nonzeros only (row, column and value
triples, values reduced to [1, p), sorted row-major) with a shape, from the
builders, which take no other form, through elimination to the cohomology
representatives; a dense int64 array, the only thing `MAX_MATRIX_ENTRIES`
caps, is made per stack of blocks and on demand (`.a`).  Elimination gives the
canonical RREF (first nonzero pivot, row-major), so every kernel basis and
cohomology representative is deterministic.  `_rref` eliminates a small or
dense matrix whole (`_rref_dense`).  Any other it first peels of its unit
rows: a row whose one nonzero is at column j puts e_j in the row space, so
e_j is the RREF row of pivot j and column j is cleared from every row, round
by round until a round clears under 1 / `_PEEL_STOP` of what is left.  What
is left it splits into the connected components of its nonzero pattern: a
one-column component is a unit row and a one-row component its row over its
leading value, with no elimination.  Every other component is a block: the
blocks' rows and columns, taken in block order, give one block-diagonal
submatrix, whose blocks are padded with zeros into a few (B, H, W) stacks
that `_rref_stack` eliminates one column step at a time for all their blocks
together.  `product` multiplies from the nonzeros, and it is the one
multiplication: `@`, `power` and every reduction call it.
Pivots are ascending int64 arrays wherever they are made or read, and whether
an index is a pivot is looked up in a count mask over [0, n) (`np.bincount`),
never hashed.  A kernel basis is read off one elimination, a quotient
transversal off the pivots with none, and a reduction modulo a subspace is one
product with its RREF basis.  A coordinate subspace (a span of unit vectors)
stays an index set: `contains_units` reads off the RREF which unit vectors lie
in a span, and a kernel inside one is the kernel of the columns it keeps.  On
top sit bounded cochain complexes, first-quadrant double complexes (sign
convention: d = d_h + (-1)^i d_v on column i), and the spectral sequence of
the column filtration, read off the persistence pairs of each total
differential: page dimensions are cumulative sums over pair lengths, d_r ranks
are pair counts, no representatives.  Block-structured differentials are all
built by `block_matrix`, every simplicial cochain complex (Koszul, nerve and
Cech) by the alternating face sum `face_sum` / `face_complex` on top of it,
and every double complex hhdx builds by their twin `face_double_complex`.

Each complex checks its law once, as d∘d = 0 (a double complex on its
totalization, built with it; its laws per bidegree are tried only to name a
failure), and memoizes what it eliminates: a CochainComplex its kernels,
images and cohomology, a DoubleComplex its total differentials, totalization
and one persistence-pair table per total degree.  Dimensions come from ranks:
rank d^m is dim C^m less dim ker d^m, read off the memoized kernel, so Betti
numbers take one elimination per differential and no image; images and
representatives are eliminated only where a report reads them.  The memo
lives on the object (nothing is shared between complexes, so nothing
outlives a report).
A complex's matrices must not be mutated after construction, and a complex
is not shared between threads.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapacityError

# The entries of one dense int64 array (320 MB), checked before such an array
# is made: `FpMatrix.a`, each stack of blocks in `_rref`, the output of
# `product`'s dense `@` and the pair arrays of its join, and `StructAlgebra`'s
# associativity check; and the predicted triples of `bar_differential_matrix`.
# Matrices are held as nonzeros everywhere else, so their shape is not capped.
MAX_MATRIX_ENTRIES = 40_000_000


def _check_capacity(entries, what="dense array"):
    if entries > MAX_MATRIX_ENTRIES:
        raise CapacityError(f"{what} of {entries} entries exceeds capacity")


# On a 2-vCPU Xeon with numpy 2.4, below 512 entries fixed per-call costs rule,
# so `_rref` eliminates the whole matrix (report-stream's sparse matrices, all
# under 256 entries: 14 us whole, 150 split; p1-cover's 34 x 35: 451 us whole,
# 422 split, its 45 x 45 495 and 137, a1-hh's 25 x 25 262 and 151) and
# `FpMatrix.from_triples` adds up densely (two 8 x 8 summed: 11 us, 20 by
# sorting; report-stream's 52 sums of 512 to 2047 entries a pass: 1.44 ms
# dense, 1.11 sorted).  `_rref` also eliminates whole above one nonzero in 16,
# so labels (35 bytes a nonzero) stay within a quarter of the whole copy (8
# bytes an entry).  `product` joins nonzeros (15 us + 20 ns a pair) where that
# beats int64 `@` (0.4 ns a multiply-add).
_SPLIT_MIN_ENTRIES, _SPLIT_MAX_DENSITY = 512, 16
# A stack of blocks holds at most `_STACK_PAD` times its blocks' own entries,
# or `_STACK_SMALL` entries in all.  One `_rref_stack` column step costs about
# 35 us plus 14 ns an entry (4 x 8 x 8: 37 us, 64 x 8 x 8: 91 us, 256 x 8 x 8:
# 240 us), so padding is nearly free below 4096 entries, and past them the
# bound keeps a stack's arithmetic and memory within 4 times its blocks'.
# p1-cover's and gs-point's 45 split matrices took 36-39 ms under every bound
# from 2 to 8 times (29 to 37 stacks), 41 ms at 1.5 times (57 stacks).
_STACK_PAD, _STACK_SMALL = 4, 4096
# `_rref`'s unit-row peel ends with a round that clears under 1 / `_PEEL_STOP`
# of the nonzeros left.  A round is linear in the nonzeros left, so the rounds
# together cost at most about `_PEEL_STOP` times the nonzeros.  Rounds (share
# cleared) on p1-cover p = 7 at (du, qu) = (8, 4): d^0's kernel 0.956, 0.8;
# d^1's image 0.594, 0.382, 0.398, 0.294, 0.039; d^0's image 0.079 and d^1's
# kernel 0.094, one round each; the image bases and row head 1.0.  A 7000 x
# 7000 bidiagonal stops after one round and is refused over capacity in
# 4.4-6.9 ms; without the rule it peels one row a round and reports rank 7000
# after 0.57-0.59 s.  One in-process window-ladder pass (seed 1, best of 15,
# three runs, 2-vCPU Xeon) took 53.7-54.1 ms at 1 / 4, 54.1-55.4 at 1 / 8 and
# 54.4-54.9 at 1 / 16, against 60.4-61.2 ms with no peel.
_PEEL_STOP = 8
_JOIN_FIXED_WORK, _JOIN_PAIR_WORK = 37_500, 50


def _components(u, v, n):
    """Labels of the graph on nodes 0..n-1 with edges (u[k], v[k]): the least
    node of each node's component.  Each round every edge hooks the larger
    label of its ends onto the smaller, then pointer jumping; O(len(u))."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        low, hooked = np.minimum(lu, lv), label.copy()
        np.minimum.at(hooked, lu, low)
        np.minimum.at(hooked, lv, low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


@functools.cache
def _inverses(p):
    """Inverse of each residue mod p (0 at 0), read-only: every call shares it."""
    out = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    out.flags.writeable = False
    return out


def _unique(x):
    """The distinct values of an int array, ascending: sort, then mask the
    repeats.  numpy 2.4's `np.unique` hashes: on 10^6 int64s, 2-vCPU Xeon, it
    takes 860 ms sorted and 670 ms shuffled, this 17 and 26 ms."""
    x = np.sort(x)
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _rref(a, p):
    """RREF mod p of an FpMatrix: (its rows as an FpMatrix, their pivot
    columns as an ascending int64 array).

    The RREF is canonical, so a small or dense matrix is eliminated whole,
    and any other is first peeled of its unit rows, round by round: a row
    whose one nonzero is at column j puts e_j in the row space, and a vector
    of the row space with one nonzero is a multiple of the RREF row whose
    pivot is there (RREF rows vanish at each other's pivots), so e_j is the
    RREF row of pivot j and column j is cleared from every row.  A round that
    clears under 1 / `_PEEL_STOP` of the nonzeros left is the last.  A round
    finds the rows with one nonzero from each nonzero's neighbours in the
    row-major triples, so it is linear in the nonzeros left, and the peel
    costs at most about `_PEEL_STOP` times the nonzeros.  What is left
    is assembled per connected component of its nonzero pattern, a graph on
    the rows and columns left (none where the peel took every row): all
    one-column components at once give unit rows (a stopped peel can leave
    them), all one-row ones their rows over their leading values, and every
    other is a block.
    The blocks' rows and columns, tallest block first (then widest), give
    one block-diagonal submatrix; zero padding leaves a block's RREF
    unchanged, so its blocks are padded into stacks, each within the padding
    bound, checked against capacity and eliminated by one `_rref_stack`
    call.  A row's pivot is its first nonzero; rows are in pivot order.
    """
    nrows, ncols = a.shape
    if nrows * ncols < _SPLIT_MIN_ENTRIES or a.val.size * _SPLIT_MAX_DENSITY > nrows * ncols:
        red, pivots = _rref_dense(a.a, p)  # small or dense: eliminated whole
        return FpMatrix(p, red), pivots
    is_unit = np.zeros(ncols, dtype=bool)  # the columns j whose e_j is an RREF row
    while a.val.size:
        starts = np.ones(a.row.size + 1, dtype=bool)  # nonzero k starts its row
        starts[1:-1] = a.row[1:] != a.row[:-1]  # (the triples are row-major)
        alone = starts[:-1] & starts[1:]  # alone in its row
        is_unit[a.col[alone]] = True
        keep = ~is_unit[a.col]
        cleared = a.val.size - np.count_nonzero(keep)
        a = FpMatrix._wrap(p, a.shape, a.row[keep], a.col[keep], a.val[keep])
        if cleared * _PEEL_STOP < a.val.size + cleared:
            break
    # the graph's nodes are the rows, then the columns, that the peel left
    # nonzero, so labelling is linear in what is left, not in the shape
    left_rows, left_cols = _unique(a.row), _unique(a.col)
    node = np.concatenate([left_rows, nrows + left_cols])
    nleft = left_rows.size
    row_node = np.searchsorted(left_rows, a.row)
    label = _components(row_node, nleft + np.searchsorted(left_cols, a.col), node.size)
    height = np.bincount(label[:nleft], minlength=node.size)  # rows a component has
    width = np.bincount(label[nleft:], minlength=node.size)  # columns it has
    is_unit[left_cols[width[label[nleft:]] == 1]] = True  # one-column components
    unit = np.flatnonzero(is_unit)
    at = label[row_node]  # the component of each nonzero
    one = np.flatnonzero((height[at] == 1) & (width[at] > 1))
    head = one[np.searchsorted(a.row[one], a.row[one])]  # the first nonzero of its row
    inverse = _inverses(p)
    # (pivot of its row, column, value) of every RREF entry
    pieces = [(unit, unit, np.ones(unit.size, dtype=np.int64)),
              (a.col[head], a.col[one], a.val[one] * inverse[a.val[head]] % p)]
    # every other component is a block; blocks go tallest first (then widest)
    # and are cut into stacks, each the longest run that stays within the
    # padding bound (a block alone always does)
    block = (height > 1) & (width > 1)
    labels = np.flatnonzero(block)  # the blocks' labels, ascending
    node, lab = node[block[label]], label[block[label]]  # their rows, then columns
    if labels.size:  # `take` makes arrays over all rows and columns: not without blocks
        order = np.lexsort((-width[labels], -height[labels]))
        h, w = height[labels][order], width[labels][order]
        cuts = [0]
        while cuts[-1] < h.size:
            s = cuts[-1]
            padded = np.arange(1, h.size - s + 1) * h[s] * np.maximum.accumulate(w[s:])
            fits = ((padded <= np.maximum(_STACK_PAD * np.cumsum(h[s:] * w[s:]), _STACK_SMALL))
                    & (padded <= MAX_MATRIX_ENTRIES))
            cuts.append(s + max(int(np.argmin(np.append(fits, False))), 1))  # first misfit
        # m is block-diagonal in that order: block k from row rs[k], column cs[k]
        node = node[np.lexsort((lab, -width[lab], -height[lab]))]
        cols = node[node >= nrows] - nrows
        m = a.take(node[node < nrows], cols)
        rs, cs = np.cumsum(h) - h, np.cumsum(w) - w
        in_block = np.repeat(np.arange(h.size), h)[m.row]  # the block of each entry of m
        for lo, hi in zip(cuts, cuts[1:]):
            e = slice(*np.searchsorted(in_block, [lo, hi]))  # the stack's entries
            shape = (hi - lo, int(h[lo]), int(w[lo:hi].max()))
            _check_capacity(np.prod(shape))
            stack = np.zeros(shape, dtype=np.int64)
            blk = in_block[e]
            stack[blk - lo, m.row[e] - rs[blk], m.col[e] - cs[blk]] = m.val[e]
            _rref_stack(stack, p)
            b, r, k = np.nonzero(stack)
            row, col = rs[lo + b] + r, cs[lo + b] + k  # row-major in m
            lead = col[np.searchsorted(row, row)]  # a row's pivot is its first nonzero
            pieces.append((cols[lead], cols[col], stack[b, r, k]))
    lead, col, val = (np.concatenate(part) for part in zip(*pieces))
    pivots = _unique(lead)
    basis = FpMatrix.from_triples(p, (pivots.size, ncols), np.searchsorted(pivots, lead), col, val)
    return basis, pivots


def _rref_dense(a, p):
    """`_rref` of a fresh reduced int64 array, eliminated in place; pivots an
    int64 array.  Kept beside `_rref_stack`: report-stream's 390 whole matrices
    a pass (seed 1, at most 1024 entries) take 13.0 ms here and 39.1 ms as
    one-block stacks, 2-vCPU Xeon, on a 0.25 s pass.

    Measured and not taken: updating only the columns right of the pivot and
    reducing only the pivot column until the end.  It took a 256 x 256
    elimination at p = 97 from 113-142 to 24-32 ms and proper-hh on a dense
    strictly upper-triangular 256 x 256 F (p = 97, entries 1-9) from 6.0-6.3
    to 2.6-3.2 s in-process, but report-stream's `report_ref_s.p50` read
    +6.2 % and +6.9 % in two calibrated seed-3 runs (0.909 -> 0.965 ms,
    0.912 -> 0.975 ms), where its many small whole matrices are eliminated."""
    nrows, ncols = a.shape
    pivots = np.empty(min(nrows, ncols), dtype=np.int64)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])  # first nonzero pivot, row-major
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        rows_nz = np.nonzero(col)[0]
        if rows_nz.size:
            a[rows_nz] = (a[rows_nz] - np.outer(col[rows_nz], a[r])) % p
        pivots[r] = c
        r += 1
    return a[:r], pivots[:r]


def _rref_stack(stack, p):
    """`_rref_dense` of every block of a fresh reduced (B, H, W) int64 stack
    at once, in place: one step per column for all blocks together."""
    nb, height, width = stack.shape
    inverse = _inverses(p)
    top = np.zeros(nb, dtype=np.int64)  # each block's next pivot row
    below = np.arange(height)
    for c in range(width):
        nz = (stack[:, :, c] != 0) & (below >= top[:, None])
        live = np.flatnonzero(nz.any(axis=1))
        if not live.size:
            continue
        r, i = top[live], nz[live].argmax(axis=1)  # first nonzero pivot, row-major
        part, at = stack[live, :, c:], np.arange(live.size)  # left of c the pivot rows are 0
        row = part[at, i] * inverse[part[at, i, 0]][:, None] % p
        part[at, i] = part[at, r]
        part[at, r] = row
        col = part[:, :, 0].copy()
        col[at, r] = 0
        part -= col[:, :, None] * row[:, None, :]
        stack[live, :, c:] = np.mod(part, p, out=part)
        top[live] += 1


def _segments(start, size):
    """The concatenated ranges [start_k, start_k + size_k)."""
    return np.repeat(start - (np.cumsum(size) - size), size) + np.arange(size.sum())


def product(x, y, p):
    """x @ y mod p for FpMatrix x and y, refused over capacity before a dense
    array is made; the one multiplication of FpMatrix (`@` and `power` call
    it).  Each nonzero x[i, k] meets the nonzeros of row k of y (a join on k)
    and the products add into (i, j); numpy's dense `@` serves where it is
    cheaper or the join would hold more pairs than the product has entries."""
    m, n = x.rows, y.cols
    work = m * x.cols * n
    if work >= _JOIN_FIXED_WORK:
        counts = np.bincount(y.row, minlength=y.rows)  # nonzeros in each row of y
        reps = counts[x.col]
        pairs = int(reps.sum())
        if work >= _JOIN_FIXED_WORK + _JOIN_PAIR_WORK * pairs and pairs <= m * n:
            _check_capacity(pairs)
            xt = np.repeat(np.arange(x.val.size), reps)
            yt = _segments((np.cumsum(counts) - counts)[x.col], reps)
            return FpMatrix.from_triples(p, (m, n), x.row[xt], y.col[yt],
                                          x.val[xt] * y.val[yt])
    _check_capacity(m * n)
    return FpMatrix(p, x.a @ y.a)


class FpMatrix:
    """Exact matrix over F_p: its nonzeros as `row`, `col`, `val` arrays (values in
    [1, p), positions distinct, sorted row-major) and a shape; `.a` is dense."""

    __slots__ = ("p", "shape", "row", "col", "val")

    def __init__(self, p, data):
        if p < 2:
            raise ValueError("p must be at least 2")
        a = np.asarray(data, dtype=np.int64)
        a = a.reshape(1, -1) if a.ndim == 1 else a
        if a.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        a = a % p
        row, col = a.nonzero()
        self.p, self.shape, self.row, self.col, self.val = p, a.shape, row, col, a[row, col]

    @classmethod
    def _wrap(cls, p, shape, row, col, val):
        """Wrap triples already in canonical form (no copy, no check)."""
        out = cls.__new__(cls)
        out.p, out.shape, out.row, out.col, out.val = p, shape, row, col, val
        return out

    @classmethod
    def from_triples(cls, p, shape, row, col, val):
        """The matrix whose entry (i, j) is the sum mod p of the values at
        (i, j): duplicates add, zeros drop."""
        shape = (int(shape[0]), int(shape[1]))
        row, col, val = (np.asarray(x, dtype=np.int64) for x in (row, col, val))
        if shape[0] * shape[1] < _SPLIT_MIN_ENTRIES:  # small: add up in a dense block
            dense = np.zeros(shape, dtype=np.int64)
            np.add.at(dense, (row, col), val)
            return cls(p, dense)
        # Kept beside `dpdo._reduce`, which sorts and sums operator terms alike:
        # run through this sort in a scratch prototype, `_reduce` took 38.7 ->
        # 57.1 us at 600 triples, 545 -> 543 us at 5 000, 6.09 -> 8.51 ms at
        # 50 000 and 63.9 -> 77.0 ms at 400 000 (2-vCPU Xeon), so folding the
        # two would slow window-ladder.
        key = row * shape[1] + col
        if key.size > 1 and not (key[1:] > key[:-1]).all():  # not sorted and distinct
            order = np.argsort(key, kind="stable")
            key, val = key[order], val[order]
            first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
            key, val = key[first], np.add.reduceat(val, first)
        val = np.mod(val, p)
        keep = val != 0
        key, val = key[keep], val[keep]
        row, col = np.divmod(key, shape[1]) if shape[1] else (key, key)
        return cls._wrap(p, shape, row, col, val)

    @classmethod
    def zeros(cls, p, rows, cols):
        empty = np.zeros(0, dtype=np.int64)
        return cls._wrap(p, (rows, cols), empty, empty, empty)

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    @property
    def a(self):
        """A dense int64 copy, refused over capacity."""
        _check_capacity(self.rows * self.cols)
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row, self.col] = self.val
        return out

    def __array__(self, dtype=None, copy=None):
        return self.a if dtype is None else self.a.astype(dtype)

    def __matmul__(self, other):
        """`product` with an FpMatrix over the same prime.  Anything else is a
        TypeError, not NotImplemented, on which numpy would multiply the
        `__array__` view without reducing mod p."""
        if not isinstance(other, FpMatrix):
            raise TypeError(f"FpMatrix @ {type(other).__name__}: multiply FpMatrix only")
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return product(self, other, self.p)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return FpMatrix.from_triples(self.p, self.shape, np.concatenate([self.row, other.row]),
                                      np.concatenate([self.col, other.col]),
                                      np.concatenate([self.val, other.val]))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        val = self.val * (c % self.p) % self.p
        keep = val != 0
        return FpMatrix._wrap(self.p, self.shape, self.row[keep], self.col[keep], val[keep])

    def transpose(self):
        order = np.argsort(self.col, kind="stable")  # column-major = row-major of the transpose
        return FpMatrix._wrap(self.p, self.shape[::-1], self.col[order], self.row[order],
                              self.val[order])

    def take(self, rows, cols):
        """The submatrix on the rows and columns that `rows` and `cols` index
        (slices, or arrays of distinct indices), numbered in that order."""
        rows, cols = np.arange(self.rows)[rows], np.arange(self.cols)[cols]
        row_slot, col_slot = np.full(self.rows, -1), np.full(self.cols, -1)
        row_slot[rows], col_slot[cols] = np.arange(rows.size), np.arange(cols.size)
        row, col = row_slot[self.row], col_slot[self.col]
        keep = np.flatnonzero((row >= 0) & (col >= 0))
        keep = keep[np.argsort(row[keep] * cols.size + col[keep], kind="stable")]  # row-major
        return FpMatrix._wrap(self.p, (rows.size, cols.size), row[keep], col[keep], self.val[keep])

    def power(self, k):
        """The k-th power of a square matrix, by repeated squaring with `product`."""
        if self.rows != self.cols or k < 0:
            raise ValueError("powers need a square matrix and k >= 0")
        eye = np.arange(self.rows)
        out, base = FpMatrix._wrap(self.p, self.shape, eye, eye, np.ones_like(eye)), self
        while k:
            if k & 1:
                out = product(out, base, self.p)
            k >>= 1
            if k:
                base = product(base, base, self.p)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and self.val.size == other.val.size
            and (self.row == other.row).all()
            and (self.col == other.col).all()
            and (self.val == other.val).all()
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, shape={self.shape})"

    def is_zero(self):
        return not self.val.size

    def rref(self):
        return _rref(self, self.p)

    def rank(self):
        return len(_rref(self, self.p)[1])

    def kernel_basis(self):
        """RREF rows spanning {v : M v = 0}, from one elimination of M with its
        columns reversed (j -> n-1-j): the row of free column f is e_f less f's
        column of that RREF at the pivots, which all lie right of f."""
        n = self.cols
        red, pivots = _rref(self.take(slice(None), slice(None, None, -1)), self.p)
        pivots = n - 1 - pivots
        free = np.flatnonzero(np.bincount(pivots, minlength=n) == 0)  # a mask of non-pivots
        at_free = red.take(slice(None), n - 1 - free)  # column k: free[k]'s column of red
        return FpMatrix.from_triples(
            self.p, (free.size, n), np.concatenate([np.arange(free.size), at_free.col]),
            np.concatenate([free, pivots[at_free.row]]),
            np.concatenate([np.ones_like(free), -at_free.val]))

    def image_basis(self):
        """Rows spanning the column space, in RREF."""
        return _rref(self.transpose(), self.p)[0]


class Subspace:
    """Subspace of F_p^n stored as an RREF row basis (canonical): `basis`, an
    FpMatrix, and `pivots`, the pivot column of each row as an ascending int64
    array (empty for the zero space)."""

    __slots__ = ("p", "n", "basis", "pivots")

    def __init__(self, p, n, rows=None):
        self.p = p
        self.n = n
        if rows is not None and rows.rows * rows.cols:
            self.basis, self.pivots = _rref(rows, p)
        else:  # no rows, or rows of length 0
            self.basis, self.pivots = FpMatrix.zeros(p, 0, n), np.zeros(0, dtype=np.int64)

    @classmethod
    def _from_rref(cls, p, n, rows):
        """Wrap rows already in RREF (no elimination); pivots are the leading
        nonzeros."""
        out = cls.__new__(cls)
        out.p, out.n, out.basis = p, n, rows
        first = np.searchsorted(rows.row, np.arange(rows.rows))  # leading entries
        out.pivots = rows.col[first]
        return out

    @classmethod
    def units(cls, p, n, indices):
        """Span of the unit vectors e_k, k in indices (ascending, distinct)."""
        cols = np.asarray(indices, dtype=np.int64).reshape(-1)
        return cls._from_rref(p, n, FpMatrix._wrap(p, (cols.size, n), np.arange(cols.size),
                                                   cols, np.ones_like(cols)))

    @classmethod
    def full(cls, p, n):
        return cls.units(p, n, np.arange(n))

    @property
    def dim(self):
        return self.basis.rows

    def reduce(self, v):
        """`reduce_rows` of the vector v as one row, as an int64 array."""
        return self.reduce_rows(FpMatrix(self.p, v)).a[0]

    def reduce_rows(self, mat):
        """Canonical representative of each row of the FpMatrix mat modulo this
        subspace: the row less its coordinates at the pivots times the RREF basis."""
        return mat - product(mat.take(slice(None), self.pivots), self.basis, self.p)

    def contains(self, v):
        return not self.reduce(v).any()

    def contains_space(self, other):
        """Whether other's basis is its coordinates at the pivots times the RREF basis."""
        coords = other.basis.take(slice(None), self.pivots)
        return product(coords, self.basis, self.p) == other.basis

    def contains_units(self, indices):
        """Whether every unit vector e_k, k in indices, lies in this subspace.

        e_k lies in an RREF span iff k is a pivot whose row is exactly e_k;
        an index outside [0, n) names no unit vector, so it is not contained.
        """
        units = self.pivots[np.bincount(self.basis.row, minlength=self.dim) == 1]
        k = np.asarray(indices, dtype=np.int64)
        inside = ((k >= 0) & (k < self.n)).all()  # a negative k would wrap in the lookup
        return bool(inside and np.bincount(units, minlength=self.n)[k].all())

    def express(self, v):
        """Coordinates of v in the RREF basis rows (its entries at the
        pivots); None if not contained."""
        v = np.mod(np.asarray(v, dtype=np.int64), self.p)
        return None if self.reduce(v).any() else v[self.pivots]

    def sum(self, other):
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.p, self.n, block_matrix(self.p, [self.dim, other.dim], [self.n],
                                                     {(0, 0): self.basis, (1, 0): other.basis}))

    def intersect(self, other):
        """One elimination of [[A, A], [B, 0]] (Zassenhaus): the right halves of
        its RREF rows with pivots past n are the intersection's RREF."""
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.p, self.n)
        stacked = block_matrix(self.p, [self.dim, other.dim], [self.n, self.n],
                               {(0, 0): self.basis, (0, 1): self.basis, (1, 0): other.basis})
        red, pivots = _rref(stacked, self.p)
        inside = slice(int(np.searchsorted(pivots, self.n)), None)  # rows with zero left half
        return Subspace._from_rref(self.p, self.n, red.take(inside, slice(self.n, None)))

    def quotient_reps(self, sub):
        """Canonical transversal rows for self/sub (sub must be contained): the
        RREF rows of self whose pivots are not sub's.  sub's pivots are among
        self's, so those rows are zero at each of them."""
        kept = np.flatnonzero(np.bincount(sub.pivots, minlength=self.n)[self.pivots] == 0)
        return Subspace._from_rref(self.p, self.n, self.basis.take(kept, slice(None)))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.p == other.p
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.n}, p={self.p})"


def block_matrix(p, row_dims, col_dims, blocks):
    """Block matrix with the given row and column block sizes.

    blocks maps (row block, col block) to an FpMatrix over F_p, or is an
    iterable of such pairs; contributions to one block add, absent blocks are
    zero, and the sum is reduced mod p once.
    """
    row_off = np.concatenate([[0], np.cumsum(row_dims, dtype=np.int64)])
    col_off = np.concatenate([[0], np.cumsum(col_dims, dtype=np.int64)])
    triples = [(np.zeros(0, dtype=np.int64),) * 3]
    for (r, c), block in (blocks.items() if isinstance(blocks, dict) else blocks):
        if block.p != p:
            raise ValueError("modulus mismatch")
        expected = (int(row_off[r + 1] - row_off[r]), int(col_off[c + 1] - col_off[c]))
        if block.shape != expected:
            raise ValueError(f"block {(r, c)} has shape {block.shape}, expected {expected}")
        triples.append((block.row + row_off[r], block.col + col_off[c], block.val))
    return FpMatrix.from_triples(p, (row_off[-1], col_off[-1]),
                                  *(np.concatenate(part) for part in zip(*triples)))


def face_sum(p, lower, upper, dim, face):
    """Alternating face-sum matrix from cochains on `lower` to cochains on `upper`.

    Cells are vertex tuples; cell s carries a coefficient space of size
    dim(s).  The block from tau to sigma is sum_k (-1)^k face(sigma, k) over
    the faces tau = sigma minus vertex k that lie in `lower`.
    """
    col = {tau: c for c, tau in enumerate(lower)}
    blocks = []
    for row, sigma in enumerate(upper):
        for k in range(len(sigma)):
            tau = sigma[:k] + sigma[k + 1:]
            if tau in col:
                block = face(sigma, k)  # the nerve, Cech and GS faces are int arrays
                block = block if isinstance(block, FpMatrix) else FpMatrix(p, block)
                blocks.append(((row, col[tau]), block.scale(-1) if k % 2 else block))
    return block_matrix(p, [dim(s) for s in upper], [dim(t) for t in lower], blocks)


def face_complex(p, cells, dim, face):
    """Cochain complex over the cell lists cells[0], cells[1], ... whose
    differentials are the alternating face sums (no cells: zero in degree 0).
    Kept beside `face_double_complex`: totalizing a one-row double complex
    drops trailing degrees of dimension 0 and took window-ladder from 0.065
    to 0.069 s CPU a pass (median of 6 processes, 2-vCPU Xeon)."""
    cells = cells or [[]]
    dims = {q: sum(dim(s) for s in level) for q, level in enumerate(cells)}
    diffs = {q: face_sum(p, cells[q], cells[q + 1], dim, face)
             for q in range(len(cells) - 1)}
    return CochainComplex(p, dims, diffs)


def face_double_complex(p, cells, rows, dim, vertical, face):
    """Double complex of rows 0 .. rows - 1 over the cell lists cells[0], ...:
    cell s has size dim(s, j) in row j, column i is (-1)^i times the direct sum
    over cells[i] of vertical(s, j), row j the face sum of face(s, k, j).  The
    unflipped verticals commute with the face sums; flipped, they anticommute."""
    dims, d_h, d_v = {}, {}, {}
    for i, level in enumerate(cells):
        for j in range(rows):
            sizes = [dim(s, j) for s in level]
            dims[(i, j)] = sum(sizes)
            if j + 1 < rows:
                column = block_matrix(p, [dim(s, j + 1) for s in level], sizes,
                                      {(k, k): vertical(s, j) for k, s in enumerate(level)})
                d_v[(i, j)] = column.scale(-1) if i % 2 else column
            if i + 1 < len(cells):
                d_h[(i, j)] = face_sum(p, level, cells[i + 1], lambda s: dim(s, j),
                                       lambda s, k: face(s, k, j))
    return DoubleComplex(p, dims, d_h, d_v)


def _kernel_space(d, p, dim):
    """ker d as a Subspace of F_p^dim; everything when d is None."""
    return Subspace.full(p, dim) if d is None else Subspace._from_rref(p, dim, d.kernel_basis())


def _image_space(d, p, dim):
    """im d as a Subspace of F_p^dim; zero when d is None."""
    return Subspace(p, dim) if d is None else Subspace._from_rref(p, dim, d.image_basis())


def cohomology_at(d_in, d_out, p, dim):
    """(dimension, RREF FpMatrix of representatives) of ker(d_out)/im(d_in).

    d_in maps into the space (may be None), d_out maps out of it (may be None).
    """
    reps = _kernel_space(d_out, p, dim).quotient_reps(_image_space(d_in, p, dim))
    return reps.dim, reps.basis


class CochainComplex:
    """Bounded cochain complex over F_p with differentials raising degree."""

    def __init__(self, p, dims, diffs):
        self.p = p
        if not dims:
            raise ValueError("empty complex")
        self.lo = min(dims)
        self.hi = max(dims)
        self.dims = {m: int(dims.get(m, 0)) for m in range(self.lo, self.hi + 1)}
        self.diffs = {}
        for m in range(self.lo, self.hi):
            d = diffs.get(m)
            if d is None:
                d = FpMatrix.zeros(p, self.dims[m + 1], self.dims[m])
            if d.shape != (self.dims[m + 1], self.dims[m]):
                raise ValueError(f"differential at degree {m} has shape {d.shape}, "
                                 f"expected {(self.dims[m + 1], self.dims[m])}")
            self.diffs[m] = d
        for m in range(self.lo, self.hi - 1):
            if not (self.diffs[m + 1] @ self.diffs[m]).is_zero():
                raise ValueError(f"d∘d != 0 at degree {m}")
        self._kernels = {}
        self._images = {}
        self._cohomology = {}

    def differential(self, m):
        if m in self.diffs:
            return self.diffs[m]
        rows = self.dims.get(m + 1, 0)
        cols = self.dims.get(m, 0)
        return FpMatrix.zeros(self.p, rows, cols)

    def kernel(self, m):
        """ker d^m as a Subspace of C^m."""
        if m not in self._kernels:
            self._kernels[m] = _kernel_space(self.diffs.get(m), self.p, self.dims[m])
        return self._kernels[m]

    def image(self, m):
        """im d^(m-1) as a Subspace of C^m."""
        if m not in self._images:
            self._images[m] = _image_space(self.diffs.get(m - 1), self.p, self.dims[m])
        return self._images[m]

    def cohomology(self, m):
        """(dimension, RREF FpMatrix of representatives) at degree m."""
        if m not in self._cohomology:
            if m < self.lo or m > self.hi:
                raise ValueError(f"degree {m} outside complex range [{self.lo}, {self.hi}]")
            reps = self.kernel(m).quotient_reps(self.image(m))
            self._cohomology[m] = (reps.dim, reps.basis)
        return self._cohomology[m]

    def rank(self, m):
        """rank d^m: dim C^m less dim ker d^m, read off the memoized kernel; 0
        where there is no differential (m outside [lo, hi))."""
        return self.dims[m] - self.kernel(m).dim if m in self.diffs else 0

    def betti(self):
        """{m: dim H^m} as dim C^m - rank d^m - rank d^(m-1), for m in [lo, hi]:
        one kernel elimination per differential, no image eliminated."""
        return {m: self.dims[m] - self.rank(m) - self.rank(m - 1)
                for m in range(self.lo, self.hi + 1)}


# Largest max_i and max_j of a double complex.  The full triangle of cells of
# dimension 1 (d_h alternately identity and zero) is built, paged and checked in
# 0.4-0.7 s and 40 MB RSS at extent 64, 2.2-3.3 s and 115 MB at 128 (fresh process,
# 2-vCPU Xeon guest), mostly in pair-table eliminations.  No report comes near it.
MAX_DOUBLE_EXTENT = 64


class DoubleComplex:
    """First-quadrant double complex with anticommuting differentials.

    dims maps (i, j) to a dimension.  d_h[(i, j)] : C^{i,j} -> C^{i+1,j} and
    d_v[(i, j)] : C^{i,j} -> C^{i,j+1} must satisfy d_h^2 = 0, d_v^2 = 0 and
    d_h d_v + d_v d_h = 0, checked as d∘d = 0 on the totalization.
    `face_double_complex` builds one from commuting differentials, flipping
    d_v by (-1)^i on column i.
    """

    def __init__(self, p, dims, d_h, d_v):
        self.p = p
        self.dims = {}
        for (i, j), dim in dims.items():
            if i < 0 or j < 0:
                raise ValueError("double complex must live in the first quadrant")
            if dim:
                self.dims[(i, j)] = int(dim)
        if not self.dims:
            self.max_i = self.max_j = 0
        else:
            self.max_i = max(i for i, _ in self.dims)
            self.max_j = max(j for _, j in self.dims)
        if self.max_i > MAX_DOUBLE_EXTENT or self.max_j > MAX_DOUBLE_EXTENT:
            raise CapacityError("double complex extent exceeds capacity")
        self.d_h = {k: m for k, m in d_h.items() if not m.is_zero()}
        self.d_v = {k: m for k, m in d_v.items() if not m.is_zero()}
        for name, part, (di, dj) in (("d_h", self.d_h, (1, 0)), ("d_v", self.d_v, (0, 1))):
            for (i, j), m in part.items():
                expected = (self.dim(i + di, j + dj), self.dim(i, j))
                if m.shape != expected:
                    raise ValueError(f"{name} block at {(i, j)} has shape {m.shape}, "
                                     f"expected {expected}")
        self._pairs = {}
        top = self.max_i + self.max_j
        diffs = {}
        for n in range(0, top):
            src, tgt = self.total_blocks(n), self.total_blocks(n + 1)
            row = {(i, j): k for k, (i, j, _, _) in enumerate(tgt)}
            blocks = [((row[target], col), part[(i, j)]) for col, (i, j, _, _) in enumerate(src)
                      for part, target in ((self.d_h, (i + 1, j)), (self.d_v, (i, j + 1)))
                      if (i, j) in part and target in row]
            diffs[n] = block_matrix(p, [b[3] for b in tgt], [b[3] for b in src], blocks)
        try:  # d∘d = 0 on the totalization is the three laws at every bidegree
            self._total = CochainComplex(p, {n: self.total_dim(n) for n in range(0, top + 1)},
                                         diffs)
        except ValueError:  # name the first bidegree that breaks one
            for (i, j) in self.dims:
                if not (self.horizontal(i + 1, j) @ self.horizontal(i, j)).is_zero():
                    raise ValueError(f"d_h^2 != 0 at {(i, j)}") from None
                if not (self.vertical(i, j + 1) @ self.vertical(i, j)).is_zero():
                    raise ValueError(f"d_v^2 != 0 at {(i, j)}") from None
                if (self.vertical(i + 1, j) @ self.horizontal(i, j)
                        != -(self.horizontal(i, j + 1) @ self.vertical(i, j))):
                    raise ValueError(f"d_h d_v + d_v d_h != 0 at {(i, j)}") from None
            raise

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def horizontal(self, i, j):
        m = self.d_h.get((i, j))
        if m is None:
            m = FpMatrix.zeros(self.p, self.dim(i + 1, j), self.dim(i, j))
        return m

    def vertical(self, i, j):
        m = self.d_v.get((i, j))
        if m is None:
            m = FpMatrix.zeros(self.p, self.dim(i, j + 1), self.dim(i, j))
        return m

    # -- totalization ------------------------------------------------------

    def total_blocks(self, n):
        """Ordered (i, j, offset, dim) blocks of T^n, ascending in i."""
        out = []
        off = 0
        for i in range(0, n + 1):
            j = n - i
            d = self.dim(i, j)
            if d:
                out.append((i, j, off, d))
                off += d
        return out

    def total_dim(self, n):
        return sum(b[3] for b in self.total_blocks(n))

    def total_differential(self, n):
        return self._total.differential(n)

    def totalize(self):
        return self._total

    # -- spectral sequence of the column filtration ------------------------

    def _pair_counts(self, n):
        """m[a, b]: persistence pairs of d^n from filtration a in T^n to
        filtration b in T^(n+1), for a, b in 0..max_i.

        rho(a, b), the rank of F^a T^n -> T^(n+1) / F^(b+1), counts the pairs
        born at or past a that die at or before b, so m is its second
        difference.  With every row of T^(n+1) kept, rho is dim F^a less the
        totalization's kernel pivots inside F^a (a tail of T^n).  Each proper
        head of rows is eliminated once, its column blocks in descending
        filtration, so that F^a is a prefix and its rank the pivots inside it.
        """
        if n not in self._pairs:
            top = self.max_i + 1
            levels = np.array([self.dim(i, n - i) for i in range(top)], dtype=np.int64)
            width = np.append(np.cumsum(levels[::-1])[::-1], 0)  # width[a] = dim F^a T^n
            rows = [self.dim(i, n + 1 - i) for i in range(top)]
            height = np.concatenate([[0], np.cumsum(rows)])  # rows below filtration c
            offsets = width[0] - width  # F^a starts at column offsets[a]
            # rho[a, c]: the rank of F^a T^n into the rows below filtration c
            rho = np.zeros((top + 1, top + 1), dtype=np.int64)
            if width[0] and height[-1]:
                d = self.total_differential(n)
                for c in range(1, top + 1):
                    h = height[c]
                    if h == height[c - 1]:
                        rho[:, c] = rho[:, c - 1]
                    elif h == height[-1]:
                        pivots = self.totalize().kernel(n).pivots
                        rho[:, c] = width - (pivots >= offsets[:, None]).sum(axis=1)
                    else:
                        cols = np.concatenate([np.arange(offsets[i], offsets[i + 1])
                                               for i in reversed(range(c))])
                        pivots = _rref(d.take(slice(h), cols), self.p)[1]
                        prefix = np.maximum(width - width[c], 0)
                        rho[:, c] = np.searchsorted(pivots, prefix)
            self._pairs[n] = rho[:-1, 1:] - rho[1:, 1:] - rho[:-1, :-1] + rho[1:, :-1]
        return self._pairs[n]

    def spectral_sequence(self):
        """Pages E_1 .. E_(max_i + max_j + 2) of the column filtration spectral
        sequence, the last one E_inf.

        A pair (a, b) of d^n (see `_pair_counts`) is one rank of d_(b-a) from
        (a, n - a) to (b, n + 1 - b); both ends live through page b - a and
        are gone from page b - a + 1 on.  So with out[k] the pairs of length k
        out of (i, j) and into[k] those into it, dim E_r^{i,j} is dim C^{i,j}
        less the cumulative sum of out + into over k < r, and rank d_r^{i,j}
        is out[r] = m_(i+j)(i, i + r).  Each call returns new pages.
        """
        stab = self.max_i + self.max_j + 2
        cells = sorted(self.dims)
        out, into = np.zeros((2, len(cells), stab + 1), dtype=np.int64)
        for c, (i, j) in enumerate(cells):
            out[c, :self.max_i + 1 - i] = self._pair_counts(i + j)[i, i:]
            into[c, :i + 1] = self._pair_counts(i + j - 1)[i::-1, i]
        dims = np.array([self.dims[cell] for cell in cells], dtype=np.int64)
        left = np.add(out, into, out=into)  # in place: two (cells x pages) arrays at most
        np.subtract(dims[:, None], np.cumsum(left, axis=1, out=left), out=left)  # dim E_r at r - 1

        def nonzero(column):
            return {cell: v for cell, v in zip(cells, column.tolist()) if v}
        return [SpectralSequencePage(r, nonzero(left[:, r - 1]), nonzero(out[:, r]))
                for r in range(1, stab + 1)]

    def infinity_page(self):
        return self.spectral_sequence()[-1]

    def convergence_check(self):
        """Sum over i+j=m of dim E_inf equals dim H^m(Tot) for every m.

        The two sides must come from different eliminations.  Every pair of
        d^n leaves both its ends out of E_inf, and the pairs of d^n number
        rank d^n, read off the kernel of the total differential
        (`_pair_counts`).  So the sum over i+j=m of dim E_inf telescopes to
        dim T^m - rank d^m - rank d^(m-1): that is the totalization's
        `betti()`, from the same kernels, and comparing with it would hold
        by construction.  dim H^m(Tot) is therefore `cohomology(m)`, whose
        quotient eliminates the image of d^(m-1) (the transpose of d^(m-1))
        on its own; that image elimination is this certificate's independent
        half and must stay.
        """
        einf, tot = self.infinity_page(), self.totalize()
        table = {m: (sum(einf.dim(i, m - i) for i in range(m + 1)), tot.cohomology(m)[0])
                 for m in range(self.max_i + self.max_j + 1)}
        return all(a == b for a, b in table.values()), table


class SpectralSequencePage:
    """One page of a spectral sequence: dim E_r^{i,j} and the rank of d_r out
    of (i, j), each kept where nonzero."""

    def __init__(self, r, dims, ranks):
        self.r = r
        self.dims = dims
        self.ranks = ranks

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def __repr__(self):
        return f"E_{self.r}{dict(sorted(self.dims.items()))}"
