"""Shared builders for tests: known complexes and random double complexes,
plus the uncached linear algebra the memoized complexes are tested against,
the whole-matrix elimination and dense product the block split and the
nonzero product are tested against, the two-elimination intersection the
Zassenhaus one is tested against, the dense matrices, block and face-sum
builders the nonzero triples of FpMatrix are tested against, the
hand-written constructions the
shared builders replaced, the general tower limit the closed-form Tower is
tested against, the dict-based operator and term-by-term product the
operator term arrays and their normal-ordering kernel are tested against,
the operator-by-operator smith-tower check its batched passes are tested
against, the Kronecker-product bar differential its triples are tested
against, the grid of polynomials the matrix realization's term array is
tested against, the per-column operator window the array window builder
is tested against, the per-degree tables the filtered sequence's degree
table is tested against, the stacked commutator kernels the nested
centralizers are tested against, the unit-span intersection and chart quotient the
index-set certificates are tested against, the per-vector unit test
`contains_units` is tested against, and the direct commutation check,
tensor algebra and algebra product that only tests need."""

import collections
import itertools

import numpy as np

from hhdx import linalg
from hhdx.dpdo import MAX_PRODUCT_WORK, OperatorAlgebra, TruncatedOperatorModule
from hhdx.errors import CapacityError, WindowError
from hhdx.gfp import binomial_mod
from hhdx.gs import Poset, SpaceDiagram
from hhdx.hochschild import StructAlgebra
from hhdx.linalg import (
    CochainComplex,
    DoubleComplex,
    FpMatrix,
    Subspace,
    block_matrix,
)
from hhdx.poly import MAX_EXPONENT, MultiPoly, PolyRing, power_factors, render_terms


def staircase(p, length):
    """Length-L staircase double complex.

    Cells a_k at (k, L-1-k) for k = 0..L-1 and b_k at (k, L-k) for
    k = 1..L, each one-dimensional.  d_h sends a_k to b_{k+1}, d_v sends
    a_k to b_k (k >= 1).  The total complex is acyclic, while the column
    filtration keeps a one-dimensional E_r^{0, L-1} alive until the page-L
    differential kills it against E_L^{L, 0}.
    """
    if length < 1:
        raise ValueError("length must be positive")
    L = length
    dims = {}
    for k in range(L):
        dims[(k, L - 1 - k)] = 1
    for k in range(1, L + 1):
        dims[(k, L - k)] = 1
    one = FpMatrix(p, [[1]])
    d_h = {(k, L - 1 - k): one for k in range(L)}
    d_v = {(k, L - 1 - k): one for k in range(1, L)}
    return DoubleComplex(p, dims, d_h, column_flipped(d_v))


def column_flipped(d_v):
    """Commuting verticals made to anticommute: column i times (-1)^i."""
    return {(i, j): m.scale(-1) if i % 2 else m for (i, j), m in d_v.items()}


def apply(m, v):
    """m v for an FpMatrix m and an int vector v, as an int64 vector: one
    product with v as a column."""
    return (m @ FpMatrix(m.p, np.reshape(v, (-1, 1)))).a[:, 0]


def matrix_polynomial(m, coeffs, p):
    """coeffs[k] * m^k summed, mod p (polynomials in m commute with m)."""
    n = m.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for c in coeffs:
        out = (out + c * power) % p
        power = (power @ m) % p
    return out


def random_complex(p, rng, max_len=3, max_dim=3):
    """Random bounded cochain complex built from an exact pair trick.

    Choose random matrices and keep only d with d o d = 0 by construction:
    d_i = B_i A_i where consecutive products vanish because A_{i+1} B_i = 0
    is arranged via kernels.
    """
    n = int(rng.integers(1, max_len + 1))
    dims = {i: int(rng.integers(1, max_dim + 1)) for i in range(n + 1)}
    diffs = {}
    prev = None
    for i in range(n):
        a = rng.integers(0, p, size=(dims[i + 1], dims[i]))
        m = FpMatrix(p, a)
        if prev is not None:
            # project onto maps vanishing on the image of the previous d
            img = prev.image_basis()
            if img.shape[0]:
                # replace m by m composed with projection killing img
                sub = Subspace(p, dims[i], img)
                cols = []
                for c in range(dims[i]):
                    e = np.zeros(dims[i], dtype=np.int64)
                    e[c] = 1
                    cols.append(sub.reduce(e))
                proj = FpMatrix(p, np.array(cols).T)
                m = m @ proj
        diffs[i] = m
        prev = m
    return CochainComplex(p, dims, diffs)


def tensor_double(p, cx, cy):
    """Double complex C ⊗ D from two cochain complexes (commuting, then
    column-flipped)."""
    dims = {}
    d_h = {}
    d_v = {}
    for i in range(cx.lo, cx.hi + 1):
        for j in range(cy.lo, cy.hi + 1):
            dims[(i, j)] = cx.dims[i] * cy.dims[j]
    for i in range(cx.lo, cx.hi + 1):
        for j in range(cy.lo, cy.hi + 1):
            if i < cx.hi:
                d_h[(i, j)] = FpMatrix(p, np.kron(cx.differential(i).a,
                                                  np.eye(cy.dims[j], dtype=np.int64)))
            if j < cy.hi:
                d_v[(i, j)] = FpMatrix(p, np.kron(np.eye(cx.dims[i], dtype=np.int64),
                                                  cy.differential(j).a))
    return DoubleComplex(p, dims, d_h, column_flipped(d_v))


def direct_sum_double(p, first, second):
    """Blockwise direct sum of two double complexes."""
    dims = {}
    keys = set(first.dims) | set(second.dims)
    for k in keys:
        dims[k] = first.dims.get(k, 0) + second.dims.get(k, 0)

    def block(m1, m2, rows, cols):
        out = np.zeros((rows, cols), dtype=np.int64)
        r1, c1 = m1.shape
        out[:r1, :c1] = m1.a
        out[r1:r1 + m2.shape[0], c1:c1 + m2.shape[1]] = m2.a
        return FpMatrix(p, out)

    d_h = {}
    d_v = {}
    for (i, j) in keys:
        h = block(first.horizontal(i, j), second.horizontal(i, j),
                  dims.get((i + 1, j), 0), dims[(i, j)])
        if not h.is_zero():
            d_h[(i, j)] = h
        v = block(first.vertical(i, j), second.vertical(i, j),
                  dims.get((i, j + 1), 0), dims[(i, j)])
        if not v.is_zero():
            d_v[(i, j)] = v
    return DoubleComplex(p, dims, d_h, d_v)


def random_double_complex(p, rng):
    """Random double complex: staircases summed with a tensor square."""
    pieces = []
    for _ in range(int(rng.integers(1, 3))):
        pieces.append(staircase(p, int(rng.integers(1, 5))))
    if rng.integers(0, 2):
        cx = random_complex(p, rng)
        cy = random_complex(p, rng)
        pieces.append(tensor_double(p, cx, cy))
    out = pieces[0]
    for piece in pieces[1:]:
        out = direct_sum_double(p, out, piece)
    return out


def gapped_double_complex(p, rng):
    """Random double complex with a missing middle filtration level: a
    staircase of length 3..5 summed with a random double complex, then one
    middle row zeroed and, half the time, one middle column.

    Zeroing a whole row or column keeps d_h^2, d_v^2 and d_h d_v + d_v d_h
    zero (each square through a zeroed cell starts or ends in its line).
    The staircase's cell (L-1-j, j) on the zeroed row j, 0 < j < L-1, leaves
    a gap between the cells at filtration 0 and L-1 of total degree L-1.
    """
    dc = direct_sum_double(p, staircase(p, int(rng.integers(3, 6))),
                           random_double_complex(p, rng))
    row = int(rng.integers(1, dc.max_j))
    col = int(rng.integers(1, dc.max_i)) if rng.integers(0, 2) and dc.max_i > 1 else None

    def kept(cells, di=0, dj=0):
        """The entries whose cell and target cell (i + di, j + dj) both stay."""
        return {(i, j): v for (i, j), v in cells.items()
                if row not in (j, j + dj) and col not in (i, i + di)}

    return DoubleComplex(p, kept(dc.dims), kept(dc.d_h, di=1), kept(dc.d_v, dj=1))


# -- uncached oracles -------------------------------------------------------------
#
# The library memoizes kernels, images, cohomology and the spectral sequence's
# rank tables on each complex and skips eliminations whose result it already
# knows.  The functions below are the reference: they recompute everything
# from scratch with a per-column kernel loop, a re-eliminating Subspace(...)
# around every basis and per-vector reduce/express for the page differentials.
# The whole-matrix elimination, the dense product, the per-pivot
# reduce/express, the reduce-then-eliminate quotient, the explicit page
# subquotients, the dense matrix arithmetic and block and face-sum builders,
# and the stack of one commutator per divided power are the paths the library
# replaced by the block split of `_rref`, the nonzero join of `product`,
# reduce_rows' one product, the pivot selection of quotient_reps, persistence
# pairs, the nonzero triples of FpMatrix, and the Lucas generators of
# tower.lucas_centralizers.  The oracle window (a tuple basis, a dict lookup
# and one operator normal-ordered per column, with `invert_variable` for
# the coordinate change u = 1/x) is what TruncatedOperatorModule's exponent
# arrays and closed-form image terms replaced.


def oracle_rref(a, p):
    """RREF of the whole matrix by one dense column loop, first nonzero pivot
    in row-major order: the elimination `linalg._rref` splits into blocks."""
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        rows_nz = np.nonzero(col)[0]
        if rows_nz.size:
            a[rows_nz] = (a[rows_nz] - np.outer(col[rows_nz], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def planted_blocks(p, rng):
    """A matrix the block split eliminates: 1-12 random blocks of mixed
    shapes, each side up to 5 or up to 24 (some all zero, some entries raised
    by multiples of p, negatives included), and 1-3 rows of 2-5 entries
    nonzero mod p on a block diagonal, padded with zero rows and columns to at
    least `linalg._SPLIT_MIN_ENTRIES` entries with at most one nonzero in
    `linalg._SPLIT_MAX_DENSITY`, then rows and columns shuffled."""
    rows = int(rng.integers(1, 4))  # the one-row blocks, planted last
    count = int(rng.integers(1, 13))
    shapes = np.concatenate([rng.integers(1, rng.choice([6, 25], size=(count, 2))),
                             np.stack([np.ones(rows, dtype=np.int64),
                                       rng.integers(2, 6, size=rows)], axis=1)])
    nrows = int(shapes[:, 0].sum() + rng.integers(0, 8))
    budget = max(linalg._SPLIT_MIN_ENTRIES,
                 linalg._SPLIT_MAX_DENSITY * int(shapes.prod(axis=1).sum()))
    ncols = max(int(shapes[:, 1].sum() + rng.integers(0, 8)), -(-budget // nrows))
    a = np.zeros((nrows, ncols), dtype=np.int64)
    r0 = c0 = 0
    for k, (h, w) in enumerate(shapes):
        one_row = k >= len(shapes) - rows
        block = rng.integers(int(one_row), p, size=(h, w)) * int(one_row or rng.random() < 0.9)
        block += p * rng.integers(-2, 3, size=(h, w)) * (rng.random((h, w)) < 0.2)
        a[r0:r0 + h, c0:c0 + w] = block
        r0, c0 = r0 + h, c0 + w
    return a[rng.permutation(nrows)][:, rng.permutation(ncols)]


def peeled_cascades(p, rng):
    """A matrix whose unit rows `linalg._rref` peels, with the rows the peel
    leaves, as indices into it: bidiagonal cascades (row 0 is [c_0], row i
    [c_(i-1), c_i]) of lengths 1-6, each peeled one row a round to the end;
    one long cascade of 20-39 rows, which the stop rule halts after round
    7, once the short ones are gone; a row [c_6 of the long one, z] that the
    last round leaves as a one-column component; 1-3 rows that clearing
    empties ([c_i, c_i] of two cascades longer than i); and 0-3 full blocks
    of 2-4 rows and 3-5 columns, each with a unit row on one of its columns
    half the time.  Enough length-6 cascades that every round up to the
    sixth clears at least 1 / `linalg._PEEL_STOP` of what is left; padded
    with zero rows and columns past `linalg._SPLIT_MIN_ENTRIES` and
    `linalg._SPLIT_MAX_DENSITY`, then rows and columns shuffled."""
    stop = linalg._PEEL_STOP
    rows, cols, vals = [], [], []
    nrows = ncols = 0

    def put(row, col):
        rows.append(row)
        cols.append(col)
        vals.append(int(rng.integers(1, p)))

    blocks = []
    for _ in range(int(rng.integers(0, 4))):
        h, w = int(rng.integers(2, 5)), int(rng.integers(3, 6))
        for i, j in itertools.product(range(h), range(w)):
            put(nrows + i, ncols + j)
        blocks.append((nrows, h, ncols, w))
        nrows, ncols = nrows + h, ncols + w
    kept = [r for r0, h, _, _ in blocks for r in range(r0, r0 + h)]
    for _, _, c0, w in blocks:  # unit rows on block columns
        if rng.random() < 0.5:
            put(nrows, c0 + int(rng.integers(w)))
            nrows += 1
    long = int(rng.integers(20, 40))
    # entries of the blocks and their unit rows, the long cascade, the late
    # row and at most 3 emptied rows; round 1, the tightest, clears 2 of each
    # length-6 cascade's 11 and 2 of these (a shorter cascade clears 2 of at
    # most 9)
    entries = len(rows) + (2 * long - 1) + 2 + 6
    six = -(-(entries - 2 * stop) // (2 * stop - 11)) + int(rng.integers(0, 4))
    lengths = [long] + [6] * six + [int(k) for k in rng.integers(1, 6, size=rng.integers(3, 12))]
    cascades = []
    for k in lengths:
        r0, c0 = nrows, ncols
        for i in range(k):
            put(r0 + i, c0 + i)
            if i:
                put(r0 + i, c0 + i - 1)
        cascades.append((r0, c0, k))
        nrows, ncols = nrows + k, ncols + k
    r0, c0, _ = cascades[0]
    kept += list(range(r0 + 7, r0 + long)) + [nrows]
    put(nrows, c0 + 6)  # the late row: [z] once round 7 clears c_6
    put(nrows, ncols)
    nrows, ncols = nrows + 1, ncols + 1
    for _ in range(int(rng.integers(1, 4))):  # rows that clearing empties
        i = int(rng.integers(0, 6))
        longer = [c for _, c, k in cascades[1:] if k > i]
        for c in rng.choice(longer, size=2, replace=False):
            put(nrows, int(c) + i)
        nrows += 1
    nrows += int(rng.integers(0, 8))
    ncols = max(ncols + int(rng.integers(0, 8)),
                -(-max(linalg._SPLIT_MIN_ENTRIES, linalg._SPLIT_MAX_DENSITY * len(rows)) // nrows))
    a = np.zeros((nrows, ncols), dtype=np.int64)
    a[rows, cols] = vals
    row_order, col_order = rng.permutation(nrows), rng.permutation(ncols)
    return a[row_order][:, col_order], np.flatnonzero(np.isin(row_order, kept))


def joins(x, y):
    """Whether `linalg.product` multiplies the reduced arrays x and y from their
    nonzeros rather than with numpy's `@`."""
    pairs = int(np.count_nonzero(x, axis=0) @ np.count_nonzero(y, axis=1))
    work = x.size * y.shape[1]
    return (work >= linalg._JOIN_FIXED_WORK + linalg._JOIN_PAIR_WORK * pairs
            and pairs <= x.shape[0] * y.shape[1])


def oracle_reduce(space, v):
    """v modulo an RREF span, one pivot at a time on a single vector."""
    v = np.mod(np.asarray(v, dtype=np.int64), space.p).copy()
    rows = space.basis.a
    for r, c in enumerate(space.pivots):
        if v[c]:
            v = (v - v[c] * rows[r]) % space.p
    return v


def oracle_contains_units(space, indices):
    """Whether every e_k, k in indices, reduces to zero modulo space by
    `oracle_reduce`, one vector at a time; an index outside [0, n) names no
    unit vector."""
    eye = np.eye(space.n, dtype=np.int64)
    return all(0 <= k < space.n and not oracle_reduce(space, eye[k]).any() for k in indices)


def oracle_quotient_reps(space, sub):
    """Transversal of space/sub: every RREF row of space reduced modulo sub
    by `oracle_reduce`, then eliminated again."""
    reduced = [oracle_reduce(sub, row) for row in space.basis.a]
    reduced = np.array(reduced, dtype=np.int64).reshape(space.dim, space.n)
    return Subspace(space.p, space.n, FpMatrix(space.p, reduced))


def oracle_intersect(space, other):
    """x A over the left kernel (x, y) of the stacked bases [A; -B]: one
    elimination for that kernel, one more for the span of x A."""
    if space.dim == 0 or other.dim == 0:
        return Subspace(space.p, space.n)
    stacked = np.concatenate([space.basis.a, -other.basis.a])
    x = oracle_kernel_basis(FpMatrix(space.p, stacked.T))[:, :space.dim]
    return Subspace(space.p, space.n, FpMatrix(space.p, x @ space.basis.a))


def oracle_express(space, v):
    """Coordinates of v in the RREF rows, checked by one residual product."""
    v = np.mod(np.asarray(v, dtype=np.int64), space.p)
    coords = np.array([v[c] for c in space.pivots], dtype=np.int64)
    resid = (v - coords @ space.basis.a) % space.p if space.dim else v
    return None if resid.any() else coords


def window_basis(module):
    """The window's basis as (a, b) exponent tuples, in column order."""
    return [(tuple(a), tuple(b)) for a, b in zip(module.a.tolist(), module.b.tolist())]


def vectorize(module, op, index=None):
    """The dense coordinate list of op in the window (index: its basis
    position dict, if already built); WindowError off it."""
    index = index or {ab: i for i, ab in enumerate(window_basis(module))}
    vec = [0] * module.dim
    for key, c in term_dict(op).items():
        if key not in index:
            raise WindowError(f"term {key} falls outside the module window")
        vec[index[key]] = c
    return vec


def oracle_operator_matrix(module, func, target=None):
    """Matrix of a linear map given on basis operators, one dense
    vectorize list written per column.  Every column is tried, and a
    CapacityError in any column is raised before a WindowError in an earlier
    one: the window builder checks caps over the whole window first."""
    target = target or module
    index = {ab: i for i, ab in enumerate(window_basis(target))}
    mat = np.zeros((target.dim, module.dim), dtype=np.int64)
    refusals = []
    for col, ab in enumerate(window_basis(module)):
        try:
            mat[:, col] = vectorize(target, func(module.algebra.from_terms({ab: 1})), index)
        except (CapacityError, WindowError) as exc:
            refusals.append(exc)
    if refusals:
        raise next((e for e in refusals if isinstance(e, CapacityError)), refusals[0])
    return FpMatrix(module.algebra.p, mat)


def invert_variable(op, target):
    """Rewrite a one-variable Laurent operator in the coordinate u = 1/x.

    x^c D^(d) acts on x^m = u^(-m) by C(m, d) x^(m-d+c); matching that
    action in the u-picture gives sum_{b<=d} t_b u^(b+d-c) Du^(b) with
    t_b the b-th forward difference at 0 of k |-> C(-k, d).
    """
    p = op.algebra.p
    out = {}
    for ((c,), (d,)), coeff in term_dict(op).items():
        values = [binomial_mod(-k, d, p) for k in range(d + 1)]
        # forward differences evaluated at 0
        diffs = list(values)
        table = []
        for _ in range(d + 1):
            table.append(diffs[0])
            diffs = [(diffs[i + 1] - diffs[i]) % p for i in range(len(diffs) - 1)]
        for b in range(d + 1):
            key = ((b + d - c,), (b,))
            out[key] = out.get(key, 0) + table[b] * coeff
    return target.from_terms(out)


class DenseMatrix:
    """The dense matrix over F_p that FpMatrix's nonzero triples replaced: an
    int64 array reduced to [0, p), with the arithmetic written on it."""

    def __init__(self, p, a):
        self.p, self.a = p, np.mod(np.asarray(a, dtype=np.int64), p)

    def __add__(self, other):
        return DenseMatrix(self.p, self.a + other.a)

    def __sub__(self, other):
        return DenseMatrix(self.p, self.a - other.a)

    def __neg__(self):
        return DenseMatrix(self.p, -self.a)

    def __matmul__(self, other):
        return DenseMatrix(self.p, self.a @ other.a)

    def scale(self, c):
        return DenseMatrix(self.p, self.a * (c % self.p))

    def transpose(self):
        return DenseMatrix(self.p, self.a.T)


def oracle_block_matrix(p, row_dims, col_dims, blocks):
    """`linalg.block_matrix` written into one dense zero array, block by block."""
    row_off = np.concatenate([[0], np.cumsum(row_dims, dtype=np.int64)])
    col_off = np.concatenate([[0], np.cumsum(col_dims, dtype=np.int64)])
    mat = np.zeros((int(row_off[-1]), int(col_off[-1])), dtype=np.int64)
    for (r, c), block in (blocks.items() if isinstance(blocks, dict) else blocks):
        block = block.a if isinstance(block, FpMatrix) else np.asarray(block, dtype=np.int64)
        mat[row_off[r]:row_off[r + 1], col_off[c]:col_off[c + 1]] += block
    return DenseMatrix(p, mat)


def oracle_face_sum(p, lower, upper, dim, face):
    """`linalg.face_sum` from dense signed copies (-1)^k face(sigma, k)."""
    col = {tau: c for c, tau in enumerate(lower)}
    blocks = []
    for row, sigma in enumerate(upper):
        for k in range(len(sigma)):
            tau = sigma[:k] + sigma[k + 1:]
            if tau in col:
                blocks.append(((row, col[tau]), (-1) ** k * np.asarray(face(sigma, k))))
    return oracle_block_matrix(p, [dim(s) for s in upper], [dim(t) for t in lower], blocks)


def assert_pivots(got, want):
    """got is in the one pivot format, an int64 array, and equals want."""
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert np.array_equal(got, want)


def assert_canonical(m):
    """m's triples are what every FpMatrix holds: values in [1, p), distinct
    positions inside the shape, sorted row-major."""
    key = m.row * m.cols + m.col
    assert m.row.dtype == m.col.dtype == m.val.dtype == np.int64
    assert ((0 <= m.row) & (m.row < m.rows) & (0 <= m.col) & (m.col < m.cols)).all()
    assert ((1 <= m.val) & (m.val < m.p)).all()
    assert (np.diff(key) > 0).all()


def oracle_centralizer(p, degree_bound, dp_bound, q_top):
    """Joint kernel, over the window [0, degree_bound] x [0, dp_bound], of
    [t, -] and [D^(q), -] for every 1 <= q <= q_top: one stacked commutator
    per divided power, each into a codomain enlarged by q."""
    alg = OperatorAlgebra(p, 1, names=("t",))
    dom = TruncatedOperatorModule(alg, degree_bound, dp_bound)
    stacked = [oracle_operator_matrix(dom, alg.variable().commutator).a]
    for q in range(1, q_top + 1):
        target = TruncatedOperatorModule(alg, degree_bound, dp_bound + q)
        stacked.append(oracle_operator_matrix(dom, alg.divided_power(0, q).commutator,
                                              target).a)
    kernel = oracle_kernel_basis(FpMatrix(p, np.concatenate(stacked)))
    return Subspace(p, dom.dim, FpMatrix(p, kernel))


def oracle_lucas_centralizers(p, levels, degree_bound, dp_bound, dp_cap=None):
    """`tower.lucas_centralizers` as it stacked its commutators: every depth
    eliminates the stack of [t, -] and a prefix of the [D^(p^k), -] over the
    whole window.  dp_cap, when given, replaces the algebra's cap on
    divided-power exponents."""
    alg = OperatorAlgebra(p, 1, names=("t",))
    alg.dp_cap = alg.dp_cap if dp_cap is None else dp_cap
    dom = TruncatedOperatorModule(alg, degree_bound, dp_bound)
    window_digits = next(k for k in itertools.count() if p ** k > dp_bound)
    mats = [dom.commutator_matrix(alg.variable())]
    for q in (p ** k for k in range(max(levels, window_digits))):
        target = TruncatedOperatorModule(alg, degree_bound, dp_bound + q)
        mats.append(dom.commutator_matrix(alg.divided_power(0, q), target=target))

    def centralizer(n):
        mat = block_matrix(p, [m.rows for m in mats[:n]], [dom.dim],
                           [((k, 0), m) for k, m in enumerate(mats[:n])])
        return Subspace._from_rref(p, dom.dim, mat.kernel_basis())

    depths = [centralizer(r + 1) for r in range(levels + 1)]
    return dom, depths, centralizer(1 + window_digits)


def oracle_filtered_degrees(p, levels, degree_bound):
    """The per-degree reading of `filtered_hh_sequence`, degree by degree as
    the tower module wrote it before the degree table: a graded table and a
    quotient table of closed-form dims with their certificates, and the
    exactness loop of 0 -> k -> k[t] -> lim Q -> 0 over the certified
    degrees.  Degree 0's limit comes from the eliminating tower oracle."""
    graded, quotient = {}, {}
    for d in range(0, degree_bound + 1):
        dims = [1 if d % (p ** r) == 0 else 0 for r in range(levels + 1)]
        if d == 0:
            constants = oracle_limit_report(p, [1] * (levels + 1), [[[1]]] * levels)
            graded[d] = {"certified": constants["certified"],
                         "certified_lim_dim": constants["certified_lim_dim"]}
            quotient[d] = {"certified": True, "certified_lim_dim": 0}
            continue
        first_zero = next((r for r, x in enumerate(dims) if x == 0), None)
        certified = first_zero is not None and first_zero <= levels - 1
        graded[d] = {"certified": certified, "certified_lim_dim": 0 if certified else None}
        mirrored = [1 - x for x in dims]
        first_one = next((r for r, x in enumerate(mirrored) if x == 1), None)
        certified = first_one is not None and first_one <= levels - 1
        quotient[d] = {"certified": certified, "certified_lim_dim": 1 if certified else None}
    positive = range(1, degree_bound + 1)
    certified_degrees = [d for d in positive if graded[d]["certified"]]
    exactness = {}
    for d in [0] + certified_degrees:
        if not quotient[d]["certified"]:
            continue
        constants_dim = 1 if d == 0 else 0
        exactness[d] = (graded[d]["certified_lim_dim"] == constants_dim
                        and constants_dim - 1 + quotient[d]["certified_lim_dim"] == 0)
    return {
        "certified_degrees": certified_degrees,
        "uncertified_degrees": [d for d in positive if not graded[d]["certified"]],
        "quotient_certified_degrees": [d for d in positive if quotient[d]["certified"]],
        "m1_exact_at_certified_degrees": bool(exactness) and all(exactness.values()),
        "m1_checked_degrees": sorted(exactness),
    }


def oracle_kernel_basis(m):
    """RREF rows spanning {v : M v = 0}, built column by column."""
    red, pivots = m.rref()
    red = red.a
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-int(red[r, c])) % m.p
    return Subspace(m.p, m.cols, FpMatrix(m.p, basis)).basis.a


def oracle_cohomology(d_in, d_out, p, dim):
    """(kernel, image, (dim, reps)) of ker(d_out)/im(d_in), uncached."""
    if d_out is None:
        kernel = Subspace(p, dim, FpMatrix(p, np.eye(dim, dtype=np.int64)))
    else:
        kernel = Subspace(p, dim, FpMatrix(p, oracle_kernel_basis(d_out)))
    image = Subspace(p, dim) if d_in is None else Subspace(p, dim, d_in.image_basis())
    reps = oracle_quotient_reps(kernel, image)
    return kernel, image, (reps.dim, reps.basis)


def fresh_copy(dc):
    """The same double complex with empty caches."""
    return DoubleComplex(dc.p, dc.dims, dc.d_h, dc.d_v)


# One page of the oracle spectral sequence: dims and the nonzero d_r matrices,
# keyed by position.
OraclePage = collections.namedtuple("OraclePage", "r dims diffs")


def oracle_spectral_sequence(dc, max_page):
    """Pages E_1 .. E_max_page of the column filtration, rebuilt from
    explicit subquotients Z_r / B_r with nothing reused between positions
    or pages.  This is the construction the library's pages replaced by the
    persistence pairs of one rank table per total degree."""
    p = dc.p
    dc = fresh_copy(dc)

    def approx_cycles(n, f, r):
        blocks = dc.total_blocks(n)
        total = sum(b[3] for b in blocks)
        cols = [c for i, _, off, d in blocks if i >= f for c in range(off, off + d)]
        low = [c for i, _, off, d in dc.total_blocks(n + 1) if i < f + r
               for c in range(off, off + d)]
        if not cols:
            return Subspace(p, total)
        if low:
            sub = dc.total_differential(n).a[:, cols][low, :]
            ker = oracle_kernel_basis(FpMatrix(p, sub))
        else:
            ker = np.eye(len(cols), dtype=np.int64)
        lift = np.zeros((ker.shape[0], total), dtype=np.int64)
        lift[:, cols] = ker
        return Subspace(p, total, FpMatrix(p, lift))

    pages = []
    positions = [(i, j) for i in range(dc.max_i + 1) for j in range(dc.max_j + 1)]
    for r in range(1, max_page + 1):
        reps, denoms, dims = {}, {}, {}
        for (i, j) in positions:
            n = i + j
            total = dc.total_dim(n)
            num = approx_cycles(n, i, r)
            den = approx_cycles(n, i + 1, max(r - 1, 0))
            prev = approx_cycles(n - 1, i - r + 1, r - 1) if n >= 1 else None
            if prev is not None and prev.dim and total:
                bound = (prev.basis.a @ dc.total_differential(n - 1).a.T) % p
                den = den.sum(Subspace(p, total, FpMatrix(p, bound)))
            denoms[(i, j)] = den
            rep = Subspace(p, total, den.reduce_rows(num.basis))
            reps[(i, j)] = rep
            if rep.dim:
                dims[(i, j)] = rep.dim
        diffs = {}
        for (i, j) in positions:
            tgt = (i + r, j - r + 1)
            if reps[(i, j)].dim == 0 or tgt not in reps or reps[tgt].dim == 0:
                continue
            d_mat = dc.total_differential(i + j).a
            cols = []
            for v in reps[(i, j)].basis.a:
                coord = reps[tgt].express(denoms[tgt].reduce((d_mat @ v) % p))
                assert coord is not None, "spectral differential left the page"
                cols.append(coord)
            mat = FpMatrix(p, np.array(cols, dtype=np.int64).T)
            if not mat.is_zero():
                diffs[(i, j)] = mat
        pages.append(OraclePage(r, dims, diffs))
    return pages


def assert_same_pages(got, want):
    """Library pages agree with oracle pages in dims and d_r ranks."""
    assert [page.r for page in got] == [page.r for page in want]
    for g, w in zip(got, want):
        assert g.dims == w.dims, g.r
        assert g.ranks == {k: d.rank() for k, d in w.diffs.items()}, g.r


# The library builds Koszul complexes with the alternating face sum of
# linalg.face_complex and reads p1-cover's structure-sheaf nerve from
# gs.projective_line_twist_diagram(p, 0, du).  These are the constructions
# they replaced: the Koszul sign counted per subset, and the two-chart
# function windows with the second chart embedded through v = 1/u.


def oracle_koszul_commutator_complex(p, dim, matrices):
    """M (x) Lambda^*(k^n), d(m e_S) = sum_(i not in S) (-1)^#{x in S : x < i}
    K_i m e_(S u i), subsets in lexicographic order, module index minor."""
    n = len(matrices)
    mats = [np.mod(np.asarray(mat, dtype=np.int64), p) for mat in matrices]
    subsets = {j: list(itertools.combinations(range(n), j)) for j in range(n + 1)}
    dims = {j: len(subsets[j]) * dim for j in range(n + 1)}
    diffs = {}
    for j in range(n):
        tgt = {s: k for k, s in enumerate(subsets[j + 1])}
        blocks = []
        for col, s in enumerate(subsets[j]):
            for i in range(n):
                if i not in s:
                    sign = (-1) ** sum(x < i for x in s)
                    block = FpMatrix(p, sign * mats[i])
                    blocks.append(((tgt[tuple(sorted(s + (i,)))], col), block))
        diffs[j] = block_matrix(p, [dim] * len(tgt), [dim] * len(subsets[j]), blocks)
    return CochainComplex(p, dims, diffs)


# The bar differential as it was built before it was written as triples: a
# dense matrix summed from Kronecker products of the action matrices, the
# multiplication table and identities.


def oracle_bar_differential_matrix(bimodule, j):
    """Matrix of d : C^j -> C^(j+1) on C-order flattened cochains.

    C^j(A, M) = maps A^(x)j -> M stored as arrays of shape (n,)*j + (m,),
    index ((i_1..i_j), t).
    """
    a = bimodule.algebra
    p = a.p
    n = a.dim
    m = bimodule.dim
    rows = n ** (j + 1) * m
    cols = n ** j * m
    linalg._check_capacity(rows * cols)
    eye_front = np.eye(n ** j, dtype=np.int64)
    # insertion of a_0 through the left action
    stack_l = np.concatenate(bimodule.left, axis=0)  # ((i0, t), s)
    term0 = np.kron(eye_front, stack_l)
    # rows of term0 are ordered ((i_1..i_j), i_0, t) but we need
    # (i_0, (i_1..i_j), t): permute the row blocks
    term0 = term0.reshape(n ** j, n, m, cols).transpose(1, 0, 2, 3).reshape(rows, cols)
    total = term0 % p
    # interior multiplications
    mul = a.table.reshape(n * n, n)
    for i in range(1, j + 1):
        mat = np.kron(np.kron(np.eye(n ** (i - 1), dtype=np.int64), mul),
                      np.eye(n ** (j - i) * m, dtype=np.int64))
        total = (total + (-1) ** i * mat) % p
    # appending a_(j+1) through the right action
    stack_r = np.concatenate(bimodule.right, axis=0)  # ((i_last, t), s)
    last = np.kron(eye_front, stack_r)
    total = (total + (-1) ** (j + 1) * last) % p
    return FpMatrix(p, total)


def oracle_structure_window_diagram(p, du):
    """F(U0) = span{u^0..u^du}, F(U1) = span{v^0..v^du}, F(U01) =
    span{u^-du..u^du}; the second chart embeds through v = 1/u."""
    poset = Poset(["U01", "U0", "U1"], [("U01", "U0"), ("U01", "U1")])
    dims = {"U0": du + 1, "U1": du + 1, "U01": 2 * du + 1}
    incl0 = np.zeros((2 * du + 1, du + 1), dtype=np.int64)
    incl1 = np.zeros((2 * du + 1, du + 1), dtype=np.int64)
    for k in range(du + 1):
        incl0[du + k, k] = 1
        incl1[du - k, k] = 1
    return SpaceDiagram(p, poset, dims, {("U0", "U01"): incl0, ("U1", "U01"): incl1})


def oracle_limit_report(p, dims, transitions):
    """Limit data of a general tower M_R -> ... -> M_0 (level dims, and one
    dims[r] x dims[r+1] transition per step), all by elimination.

    Eliminates the resolution Phi(x_0..x_R) = (x_r - f_r x_{r+1})_r for its
    rank and again for its kernel, checks the Euler identity and that the
    kernel projects onto the bottom stable image, and reads every image
    I_{r,s} = im(M_s -> M_r) off an explicit composite.  This is the path
    the constant Tower replaced by one image chain and closed-form raw
    limits.
    """
    top = len(dims) - 1
    fs = [FpMatrix(p, np.asarray(t, dtype=np.int64).reshape(dims[r], dims[r + 1]))
          for r, t in enumerate(transitions)]

    def image_at(r, s):
        composite = FpMatrix(p, np.eye(dims[s], dtype=np.int64))
        for k in range(s - 1, r - 1, -1):
            composite = fs[k] @ composite
        return Subspace(p, dims[r], composite.transpose())

    blocks = {}
    for r, f in enumerate(fs):
        blocks[(r, r)] = FpMatrix(p, np.eye(dims[r], dtype=np.int64))
        blocks[(r, r + 1)] = -f
    phi = block_matrix(p, dims[:-1], dims, blocks)
    rank = phi.rank()
    raw_lim, raw_lim1 = phi.cols - rank, phi.rows - rank
    assert raw_lim - raw_lim1 == dims[-1], "Euler identity fails for the resolution"
    kernel = phi.kernel_basis().a
    stable = image_at(0, top)
    assert Subspace(p, dims[0], FpMatrix(p, kernel[:, :dims[0]])) == stable, \
        "kernel projection differs from the stable image"

    levels = []
    for r in range(top + 1):
        images = [image_at(r, s) for s in range(r, top + 1)]
        first_stable = next(k for k, im in enumerate(images) if im == images[-1])
        levels.append({
            "level": r,
            "image_dims": [im.dim for im in images],
            "stable_dim": images[-1].dim,
            "stabilized_at": r + first_stable,
            "certified": r + first_stable < top,
        })
    certified = levels[0]["certified"]
    return {
        "raw": {"lim_dim": raw_lim, "lim1_dim": raw_lim1, "euler": raw_lim - raw_lim1},
        "levels": levels,
        "stable_image": stable,
        "certified": certified,
        "certified_lim_dim": levels[0]["stable_dim"] if certified else None,
        "certified_lim1_dim": 0 if certified else None,
    }


def term_dict(op):
    """The terms {(a, b): c} of one operator: an OracleOperator's own, or the
    columns of a DPDOperator batch of one."""
    if isinstance(op, OracleOperator):
        return op.terms
    assert op.count == 1
    return term_dicts(op)[0]


def term_dicts(batch):
    """The terms {(a, b): c} of each operator of a DPDOperator batch."""
    n, out = batch.algebra.n, [{} for _ in range(batch.count)]
    for k, *ab, c in batch.terms.T.tolist():
        out[k][tuple(ab[:n]), tuple(ab[n:])] = c
    return out


class OracleOperator:
    """The dict-based operator that DPDOperator's term arrays replaced: terms
    maps distinct (a, b) exponent tuples to coefficients in [1, p), in
    insertion order, each term checked on construction; products and
    commutators are `oracle_combination`s."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        p, n = algebra.p, algebra.n
        self.algebra, self.terms = algebra, {}
        for (a, b), c in terms.items():
            a, b = tuple(int(e) for e in a), tuple(int(e) for e in b)
            if len(a) != n or len(b) != n:
                raise ValueError(f"exponent tuples of length {n} expected")
            c = int(c) % p
            if not c:
                continue
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
            self.terms[(a, b)] = c

    def __add__(self, other):
        if not isinstance(other, OracleOperator) or other.algebra != self.algebra:
            raise ValueError("operators from different algebras")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return OracleOperator(self.algebra, out)

    def scale(self, c):
        return OracleOperator(self.algebra, {key: cc * int(c) for key, cc in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + -other

    def __eq__(self, other):
        return (isinstance(other, OracleOperator) and other.algebra == self.algebra
                and other.terms == self.terms)

    def __mul__(self, other):
        return oracle_product(self, other)

    def commutator(self, other):
        return oracle_commutator(self, other)

    def act(self, f):
        """The action on a polynomial, term by term; terms whose coefficients
        cancel are dropped before the polynomial is built."""
        ring = f.ring
        if (ring.p, ring.n, ring.names) != (self.algebra.p, self.algebra.n,
                                            self.algebra.ring.names) or (
                self.algebra.laurent and not ring.laurent):
            raise ValueError("polynomial ring does not match the operator algebra")
        p, n = ring.p, ring.n
        out = {}
        for (a, b), c1 in self.terms.items():
            for m, c2 in f.terms.items():
                coeff = c1 * c2
                for i in range(n):
                    coeff = coeff * binomial_mod(m[i], b[i], p) % p
                if coeff:
                    exps = tuple(m[i] - b[i] + a[i] for i in range(n))
                    out[exps] = (out.get(exps, 0) + coeff) % p
        return MultiPoly(ring, {exps: c for exps, c in out.items() if c})

    def centrality_depth(self):
        """The least r with p^r above every divided-power exponent."""
        top = max((max(b) for _, b in self.terms), default=0)
        return next(r for r in itertools.count() if self.algebra.p ** r > top)

    def render(self):
        if not self.terms:
            return "0"
        names = self.algebra.ring.names
        support = sorted(self.terms, key=lambda ab: (sum(ab[1]), ab[1], sum(ab[0]), ab[0]),
                         reverse=True)
        return render_terms(
            (self.terms[a, b],
             power_factors(names, a) + [f"D{name}^({e})" for name, e in zip(names, b) if e])
            for a, b in support)


def _oracle_box(b, c):
    """The j ranges of a term pair x^a D^(b) * x^c D^(d): j_i <= b_i, and
    j_i <= c_i too when c_i >= 0."""
    return [range((bi if ci < 0 else min(bi, ci)) + 1) for bi, ci in zip(b, c)]


def oracle_sums(algebra, table, rows, count):
    """The sums of (s L_l) R_r over the rows (l, r, s, o) on each owner
    o < count (the table's operators either kind), normal-ordered pair by
    pair through the commutation rule with no memo, as unconstrained dicts
    {(a, b): c}, c in [0, p) and terms past a cap kept; every term pair's
    j-box (rows whose sign p divides make none) is checked first."""
    p, n = algebra.p, algebra.n
    pairs = [(o, s * c1 * c2, ab, cd)
             for l, r, s, o in rows if s % p
             for ab, c1 in term_dict(table[l]).items()
             for cd, c2 in term_dict(table[r]).items()]
    for _, _, (_, b), (c, _) in pairs:
        if np.prod([len(js) for js in _oracle_box(b, c)]) > MAX_PRODUCT_WORK:
            raise CapacityError("normal-ordering workload exceeds capacity")
    sums = [{} for _ in range(count)]
    for o, c12, (a, b), (c, d) in pairs:
        for j in itertools.product(*_oracle_box(b, c)):
            coeff = c12
            for i in range(n):
                coeff = (coeff
                         * binomial_mod(c[i], j[i], p)
                         * binomial_mod(b[i] + d[i] - j[i], b[i] - j[i], p)) % p
            if coeff:
                key = (tuple(a[i] + c[i] - j[i] for i in range(n)),
                       tuple(b[i] + d[i] - j[i] for i in range(n)))
                sums[o][key] = (sums[o].get(key, 0) + coeff) % p
    return sums


def oracle_combination(algebra, table, rows, count):
    """The `oracle_sums` as OracleOperators, under `DPDOperator.combination`'s
    refusal rule written plainly: past the j-box check, the first term past a
    cap that a sum holds is refused, owners in order and each owner's terms
    in sorted (a, b) order."""
    return [OracleOperator(algebra, dict(sorted(terms.items())))
            for terms in oracle_sums(algebra, table, rows, count)]


def oracle_product(x, y):
    """x * y as one `oracle_combination` row."""
    return oracle_combination(x.algebra, [x, y], [(0, 1, 1, 0)], 1)[0]


def oracle_commutator(x, y):
    """[x, y] as one `oracle_combination` sum of the rows x y and -y x."""
    return oracle_combination(x.algebra, [x, y], [(0, 1, 1, 0), (1, 0, -1, 0)], 1)[0]


def oracle_smith_tower_check(p, levels):
    """The four flags of `tower.smith_tower_check` (derivation_ok,
    tail_invisible, increments_in_twist_subring, witness_ok) computed
    operator by operator, every product and commutator through
    `oracle_product`."""
    alg = OperatorAlgebra(p, 1, names=("t",))
    ring = alg.ring

    def partial_sum(s):
        poly = ring.zero()
        for r in range(0, s + 1):
            poly = poly + ring.monomial((p ** r,))
        return poly

    def commutator(x, y):
        return oracle_product(x, y) - oracle_product(y, x)

    f_full = alg.multiplication(partial_sum(levels))
    samples = [alg.monomial((a,), (b,))
               for a in (0, 1, 2)
               for b in (1, 2, 3, 4, p, min(p * p, alg.dp_cap))]
    samples.append(alg.variable())

    ads = [commutator(f_full, m) for m in samples]
    derivation_ok = all(
        commutator(f_full, oracle_product(x, y))
        == oracle_product(ads[i], y) + oracle_product(x, ads[j])
        for (i, x), (j, y) in itertools.combinations(enumerate(samples), 2))
    truncations = [alg.multiplication(partial_sum(s)) for s in range(0, levels)]
    tail_invisible = all(
        commutator(f_full, m) == commutator(f_s, m)
        for s, f_s in enumerate(truncations)
        for m in [alg.monomial((a,), (b,))
                  for a in (0, 1)
                  for b in range(0, min(p ** (s + 1), alg.dp_cap + 1))])
    increments_ok = all(ring.monomial((p ** (s + 1),)).in_twist_subring(s + 1)
                        for s in range(0, levels))
    witnesses = [alg.multiplication(partial_sum(levels) - partial_sum(s))
                 for s in range(0, levels)]
    witness_ok = all(
        ad - commutator(f_s, m) == commutator(x_s, m)
        for f_s, x_s in zip(truncations, witnesses)
        for m, ad in zip(samples, ads))
    return derivation_ok, tail_invisible, increments_ok, witness_ok


def oracle_matrix_realize(op, r, degree_bound=None):
    """The grid realization that `MatrixRealization`'s term array replaced,
    by dict loops: each basis column x^m's image under every term c x^a D^(b)
    of op, c C(m, b) x^(m - b + a), is summed into one polynomial (which
    refuses an exponent past the cap, the first of the column in term order),
    then split into row (m - b + a) mod q and entry term x^(m - b + a - row),
    and entries of total degree past degree_bound, if given, are dropped.
    Returns (the q^n x q^n grid of polynomials, the same grid in the twist
    variables u_i = x_i^q, whether any term was dropped)."""
    ring = op.algebra.ring
    p, n, q = ring.p, ring.n, ring.p ** r
    twist = PolyRing(p, n, names=tuple(f"u{i}" for i in range(n)) if n > 1 else ("u",))
    basis = sorted(itertools.product(range(q), repeat=n))
    index = {m: k for k, m in enumerate(basis)}
    cells = [[{} for _ in basis] for _ in basis]
    truncated = False
    for col, m in enumerate(basis):
        image = {}
        for (a, b), c in term_dict(op).items():
            coeff = c
            for i in range(n):
                coeff = coeff * binomial_mod(m[i], b[i], p) % p
            if coeff:
                x = tuple(m[i] - b[i] + a[i] for i in range(n))
                image[x] = (image.get(x, 0) + coeff) % p
        for x, c in MultiPoly(ring, image).terms.items():
            e = tuple(xi - xi % q for xi in x)
            if degree_bound is not None and sum(e) > degree_bound:
                truncated = True
            else:
                cells[index[tuple(xi % q for xi in x)]][col][e] = c
    grid = [[MultiPoly(ring, cell) for cell in row] for row in cells]
    twisted = [[MultiPoly(twist, {tuple(e // q for e in exps): c for exps, c in cell.items()})
                for cell in row] for row in cells]
    return grid, twisted, truncated


# The plane's middle-degree certificate and the elliptic chart window read
# their answers off index sets.  These are the Subspace paths they replaced:
# ker d^j intersected with the span of the window's unit vectors, and a vector
# reduced modulo both charts, expressed in the quotient transversal and divided
# by the class of y/x.


def oracle_middle_window_vanishes(cx, module, j, window):
    """(ker d^j ∩ W + im d^(j-1)) / im = 0, with ker d^j ∩ W a Zassenhaus
    intersection with the span of W's unit vectors."""
    dim_j = cx.dims[j]
    keep = (np.arange(dim_j // module.dim)[:, None] * module.dim
            + np.flatnonzero((module.b <= window).all(axis=1))).ravel()
    if not keep.size:
        return True
    small = cx.kernel(j).intersect(Subspace.units(cx.p, dim_j, keep))
    return cx.image(j).contains_space(small)


def oracle_chart_class(poly, offset, p, w):
    """The class of y x^offset poly as a multiple of class(y/x) in the window
    H^1 of the two-chart cover, whose window holds x^i and y x^i for |i| <= w
    (x^i at index i + w, y x^i at 3w + 1 + i), through the quotient of the
    full space by the charts."""
    dim = 4 * w + 2
    affine = [*range(w, 2 * w + 1), *range(3 * w + 1, dim)]
    infinity = [*range(0, w + 1), *range(2 * w + 1, 3 * w)]
    charts = Subspace.units(p, dim, sorted(set(affine + infinity)))
    reps = Subspace.full(p, dim).quotient_reps(charts)
    assert reps.dim == 1
    generator = np.zeros(dim, dtype=np.int64)
    generator[3 * w] = 1
    vec = np.zeros(dim, dtype=np.int64)
    for (j,), c in poly.terms.items():
        vec[3 * w + 1 + j + offset] = c
    base = reps.express(charts.reduce(generator))
    coords = reps.express(charts.reduce(vec))
    return int(coords[0]) * pow(int(base[0]), p - 2, p) % p


# Oracles and inputs the library itself never uses: the direct commutation
# check behind DPDOperator.centrality_depth's closed form, the tensor
# product algebra of the Morita-invariance test, and the product of two
# algebra elements.


def commutes_with(op, f):
    """Direct check: [multiplication by f, op] = 0."""
    return not op.algebra.multiplication(f).commutator(op).terms.size


def tensor_algebra(a, b):
    """A (x) B with basis e_i (x) f_j flattened in C order."""
    if a.p != b.p:
        raise ValueError("tensor factors over different primes")
    dim = a.dim * b.dim
    table = np.einsum("ikm,jln->ijklmn", a.table, b.table).reshape(dim, dim, dim) % a.p
    return StructAlgebra(a.p, table, np.outer(a.unit, b.unit).reshape(dim) % a.p)


def mul_vec(algebra, u, v):
    """The coordinates of u * v in a StructAlgebra."""
    u = np.mod(np.asarray(u, dtype=np.int64), algebra.p)
    v = np.mod(np.asarray(v, dtype=np.int64), algebra.p)
    return np.einsum("i,j,ijk->k", u, v, algebra.table) % algebra.p
