"""Exact linear algebra, cochain complexes, spectral sequences."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DenseMatrix,
    assert_canonical,
    assert_pivots,
    assert_same_pages,
    column_flipped,
    direct_sum_double,
    fresh_copy,
    gapped_double_complex,
    joins,
    oracle_block_matrix,
    oracle_cohomology,
    oracle_contains_units,
    oracle_express,
    oracle_face_sum,
    oracle_intersect,
    oracle_kernel_basis,
    oracle_quotient_reps,
    oracle_reduce,
    oracle_rref,
    oracle_spectral_sequence,
    planted_blocks,
    random_complex,
    random_double_complex,
    staircase,
    tensor_double,
)
from hhdx import linalg
from hhdx.errors import CapacityError
from hhdx.gs import Poset
from hhdx.linalg import (
    CochainComplex,
    DoubleComplex,
    FpMatrix,
    Subspace,
    block_matrix,
    cohomology_at,
    face_complex,
    face_double_complex,
    face_sum,
    product,
)


def test_rref_known_matrix():
    m = FpMatrix(5, [[1, 2, 0], [3, 1, 1], [0, 2, 1]])  # det = 3 mod 5
    red, pivots = m.rref()
    assert_pivots(pivots, [0, 1, 2])
    assert red.a.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    # rows proportional mod 5: [2,4,1] = 2*[1,2,3], [3,1,4] = 3*[1,2,3]
    low = FpMatrix(5, [[2, 4, 1], [1, 2, 3], [3, 1, 4]])
    assert low.rank() == 1

    m2 = FpMatrix(3, [[1, 2, 0], [2, 2, 0], [0, 0, 0]])  # second row not proportional
    red2, pivots2 = m2.rref()
    assert_pivots(pivots2, [0, 1])
    assert red2.a.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_rank_nullity_random():
    rng = np.random.default_rng(11)
    for p in (2, 3, 7):
        for _ in range(25):
            rows, cols = rng.integers(1, 7, size=2)
            m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
            rank, ker, img = m.rank(), m.kernel_basis(), m.image_basis()
            assert rank + ker.shape[0] == cols
            assert img.shape[0] == rank
            for v in ker.a:
                assert not (m @ v).any()
            # image rows really are hit by columns
            img_space = Subspace(p, rows, img)
            for c in m.a.T:
                assert img_space.contains(c)


def test_matrix_ops():
    a = FpMatrix(7, [[1, 2], [3, 4]])
    b = FpMatrix(7, [[0, 1], [1, 0]])
    assert (a @ b).a.tolist() == [[2, 1], [4, 3]]
    assert (a + b).a.tolist() == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert a.scale(3).a.tolist() == [[3, 6], [2, 5]]
    assert a.transpose().a.tolist() == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        FpMatrix(5, [[1]]) @ FpMatrix(7, [[1]])


def test_power_matches_numpy_matrix_power():
    # a Frobenius-semilinear map of F_p^n iterates as its matrix (x^p = x)
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        m = rng.integers(0, p, size=(4, 4))
        for k in range(6):
            assert np.array_equal(FpMatrix(p, m).power(k).a,
                                  np.linalg.matrix_power(m, k) % p)
    with pytest.raises(ValueError):
        FpMatrix(3, [[1, 2]]).power(2)
    with pytest.raises(ValueError):
        FpMatrix(3, [[1]]).power(-1)


def test_block_matrix_places_adds_and_reduces_blocks():
    p = 5
    a = FpMatrix(p, [[1, 2], [3, 4]])
    # block (0, 1) gets two contributions, block (1, 0) a negative int array,
    # blocks (0, 0) and (1, 1) none
    m = block_matrix(p, [2, 1], [1, 2], [((0, 1), a), ((0, 1), a), ((1, 0), [[-1]])])
    assert m.a.tolist() == [[0, 2, 4], [0, 1, 3], [4, 0, 0]]
    assert block_matrix(p, [2], [2], {(0, 0): -a.a}) == -a
    assert block_matrix(p, [], [3], {}).shape == (0, 3)
    with pytest.raises(ValueError):
        block_matrix(p, [1, 2], [2], {(0, 0): a})


def _traced_peak(build):
    """(build(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empty_giant_matrices_stay_sparse():
    """Only a dense array is capped: an empty 10^5 x 10^5 matrix is built,
    assembled and multiplied from its nonzeros."""
    n = 10 ** 5
    for build in (lambda: FpMatrix.zeros(2, n, n),
                  lambda: block_matrix(2, [n], [n], {}),
                  lambda: FpMatrix.zeros(2, n, 1) @ FpMatrix.zeros(2, 1, n)):
        out, peak = _traced_peak(build)
        assert out.shape == (n, n) and out.is_zero()
        assert peak < 1 << 20


def test_dense_arrays_over_capacity_are_refused_before_allocating():
    """The dense view of an empty 10^5 x 10^5 matrix, the dense product of a
    column and a row of 10^5 ones, and a 7000 x 7000 lower bidiagonal that
    `_rref` must eliminate as one connected block are each over the cap."""
    n, k = 10 ** 5, 7000
    ones = np.ones(n, dtype=np.int64)
    column = FpMatrix.from_triples(2, (n, 1), np.arange(n), 0 * ones, ones)
    row = column.transpose()
    diagonal = np.arange(k)
    bidiagonal = FpMatrix.from_triples(3, (k, k), np.concatenate([diagonal, diagonal[1:]]),
                                       np.concatenate([diagonal, diagonal[:-1]]),
                                       np.ones(2 * k - 1, dtype=np.int64))
    empty = FpMatrix.zeros(2, n, n)
    for refused in (lambda: empty.a, lambda: column @ row, bidiagonal.rref):
        info, peak = _traced_peak(lambda: pytest.raises(CapacityError, refused))
        assert "dense array" in str(info.value)
        assert peak < 4 << 20


def raw_triples(p, a, rng):
    """Triples that sum to the int array a mod p, in shuffled order: each
    nonzero of a split in two duplicates half the time and shifted by a
    multiple of p (negatives included), plus entries that are multiples of p
    at random positions."""
    row, col = np.nonzero(a)
    val = a[row, col] + p * rng.integers(-2, 3, size=row.size)
    split = rng.random(row.size) < 0.5
    part = rng.integers(-p, 2 * p, size=int(split.sum()))
    val[split] -= part
    extra = rng.integers(0, 5) if a.size else 0
    rows = np.concatenate([row, row[split], rng.integers(0, a.shape[0] or 1, size=extra)])
    cols = np.concatenate([col, col[split], rng.integers(0, a.shape[1] or 1, size=extra)])
    vals = np.concatenate([val, part, p * rng.integers(-3, 4, size=extra)])
    order = rng.permutation(rows.size)
    return rows[order], cols[order], vals[order]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 10 ** 6))
def test_block_split_matches_whole_elimination(p, seed):
    rng = np.random.default_rng(seed)
    a = planted_blocks(p, rng)
    m = FpMatrix.from_triples(p, a.shape, *raw_triples(p, a, rng))
    assert_canonical(m)
    assert np.array_equal(m.a, a % p)
    stacks, rref_stack = [], linalg._rref_stack

    def stacked(stack, p):
        stacks.append(stack.copy())
        return rref_stack(stack, p)

    with mock.patch.object(linalg, "_components", wraps=linalg._components) as labels, \
            mock.patch.object(linalg, "_rref_dense", wraps=linalg._rref_dense) as dense, \
            mock.patch.object(linalg, "_rref_stack", stacked):
        rows, pivots = linalg._rref(m, p)
    # the split ran: components were labelled and nothing was eliminated
    # whole.  Each stacked block is a connected component, so every row and
    # column it has holds a nonzero and its extent is its own shape: none is
    # the whole matrix, one-row and one-column components were solved without
    # a block, so each has at least two rows and two columns, and no stack is
    # padded past the bound
    assert labels.call_count == 1 and dense.call_count == 0
    for stack in stacks:
        extents = [(blk.any(axis=1).sum(), blk.any(axis=0).sum()) for blk in stack]
        assert all(rows > 1 and cols > 1 and (rows, cols) != a.shape for rows, cols in extents)
        own = sum(rows * cols for rows, cols in extents)
        assert stack.size <= max(linalg._STACK_PAD * own, linalg._STACK_SMALL) or len(stack) == 1
    want_rows, want_pivots = oracle_rref(a, p)
    assert_pivots(pivots, want_pivots)
    assert_canonical(rows)
    assert rows.shape == want_rows.shape and np.array_equal(rows.a, want_rows)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 9), st.integers(1, 12),
       st.integers(1, 12), st.integers(0, 10 ** 6))
def test_stacked_elimination_matches_each_block(p, blocks, height, width, seed):
    """`_rref_stack` against the dense column loop, block by block: random,
    all-zero and full-rank blocks, each padded with zero rows and columns."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((blocks, height, width), dtype=np.int64)
    shapes = []
    for b in range(blocks):
        h, w = int(rng.integers(1, height + 1)), int(rng.integers(1, width + 1))
        kind = rng.choice(["random", "zero", "full rank"])
        if kind == "random":
            block = rng.integers(0, p, size=(h, w)) * (rng.random((h, w)) < rng.random())
        elif kind == "zero":
            block = np.zeros((h, w), dtype=np.int64)
        else:  # a unit triangle with its rows and columns shuffled
            block = np.triu(rng.integers(0, p, size=(h, w)), 1)
            block[np.arange(min(h, w)), np.arange(min(h, w))] = rng.integers(1, p, size=min(h, w))
            block = block[rng.permutation(h)][:, rng.permutation(w)]
        stack[b, :h, :w] = block
        shapes.append((h, w))
    planted = stack.copy()
    assert linalg._rref_stack(stack, p) is None
    for b, (h, w) in enumerate(shapes):
        want_rows, want_pivots = oracle_rref(planted[b, :h, :w], p)
        rank = len(want_pivots)
        assert np.array_equal(stack[b, :rank, :w], want_rows)
        assert not stack[b, rank:].any() and not stack[b, :, w:].any()


def test_a_split_matrix_without_blocks_takes_no_submatrix():
    """A sparse matrix past `_SPLIT_MIN_ENTRIES` whose components all have
    one row or one column (a shuffled permutation matrix, one-row runs and
    one-column runs): its RREF is read off the triples, with no submatrix
    taken and no stack eliminated, so no array over its rows or columns is
    made for blocks it does not have."""
    p, rng = 5, np.random.default_rng(3)
    a = np.zeros((70, 75), dtype=np.int64)
    a[np.arange(40), np.arange(40)] = rng.integers(1, p, size=40)  # one by one
    for k in range(10):  # one row, three columns
        a[40 + k, 40 + 3 * k:43 + 3 * k] = rng.integers(1, p, size=3)
    for k in range(5):  # one column, two rows
        a[50 + 2 * k:52 + 2 * k, 70 + k] = rng.integers(1, p, size=2)
    a = a[rng.permutation(70)][:, rng.permutation(75)]
    assert a.size >= linalg._SPLIT_MIN_ENTRIES
    m = FpMatrix(p, a)
    with mock.patch.object(linalg, "_components", wraps=linalg._components) as labels, \
            mock.patch.object(linalg, "_rref_stack", wraps=linalg._rref_stack) as stacked, \
            mock.patch.object(FpMatrix, "take", autospec=True,
                              side_effect=FpMatrix.take) as take:
        rows, pivots = linalg._rref(m, p)
    assert labels.call_count == 1 and take.call_count == 0 and stacked.call_count == 0
    want_rows, want_pivots = oracle_rref(a, p)
    assert_pivots(pivots, want_pivots)
    assert rows == FpMatrix(p, want_rows)


def test_a_large_block_beside_many_small_ones_is_not_padded_past_the_bound(monkeypatch):
    """A dense 60 x 60 block beside 300 2 x 2 blocks.  One stack of all would
    pad each small block to 60 x 60: 301 x 3600 entries, 8.7 MB.  With the
    cap lowered to the large block's own size the blocks still fit one by one,
    so the split gives the whole elimination's RREF with no CapacityError.
    Either way the traced peak stays within 8 times the padding bound (8
    bytes times `_STACK_PAD` times the blocks' own entries): a stack, its
    working copy and their product, beside the index arrays.  One stack of
    all peaks at 27 MB."""
    p, big, small = 5, 60, 300
    rng = np.random.default_rng(7)
    n = big + 2 * small
    a = np.zeros((n, n), dtype=np.int64)
    a[:big, :big] = rng.integers(1, p, size=(big, big))
    for k in range(big, n, 2):
        a[k:k + 2, k:k + 2] = rng.integers(1, p, size=(2, 2))
    a = a[rng.permutation(n)][:, rng.permutation(n)]
    m = FpMatrix(p, a)
    want_rows, want_pivots = oracle_rref(a, p)
    bound = 8 * linalg._STACK_PAD * (big * big + 4 * small)
    for cap in (big * big, linalg.MAX_MATRIX_ENTRIES):
        monkeypatch.setattr(linalg, "MAX_MATRIX_ENTRIES", cap)
        (rows, pivots), peak = _traced_peak(lambda: linalg._rref(m, p))
        assert_pivots(pivots, want_pivots)
        assert rows == FpMatrix(p, want_rows)
        assert peak < 8 * bound, (cap, peak)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-4, 4)) | st.lists(st.integers(-2 ** 62, 2 ** 62)),
       st.sampled_from(["as drawn", "sorted", "reversed"]))
def test_sorted_unique_matches_numpy(values, order):
    """Empty, sorted, reverse-sorted and duplicate-heavy int64 inputs."""
    x = np.array(values, dtype=np.int64)
    x = {"as drawn": x, "sorted": np.sort(x), "reversed": np.sort(x)[::-1]}[order]
    got, want = linalg._unique(x), np.unique(x)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _selection(kind, n, rng):
    """One way to index n rows or columns: everything, a reversed slice, a
    shuffled permutation, a shuffled subset of distinct indices, nothing."""
    if kind == "all":
        return slice(None)
    if kind == "reversed":
        return slice(None, None, -int(rng.integers(1, 4)))
    if kind == "shuffled":
        return rng.permutation(n)
    if kind == "subset":
        return rng.permutation(n)[:int(rng.integers(0, n + 1))]
    return np.zeros(0, dtype=np.int64)


SELECTIONS = st.sampled_from(["all", "reversed", "shuffled", "subset", "empty"])


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 12), st.integers(0, 12), SELECTIONS,
       SELECTIONS, st.integers(0, 10 ** 6))
def test_take_matches_dense_selection(p, nrows, ncols, row_kind, col_kind, seed):
    """`FpMatrix.take` against numpy's selection of the dense matrix, for
    monotone and non-monotone index arrays alike."""
    rng = np.random.default_rng(seed)
    a = random_sparse(p, rng, nrows, ncols)
    rows, cols = _selection(row_kind, nrows, rng), _selection(col_kind, ncols, rng)
    got = FpMatrix(p, a).take(rows, cols)
    assert_canonical(got)
    want = a[np.ix_(np.arange(nrows)[rows], np.arange(ncols)[cols])] % p
    assert got.shape == want.shape and np.array_equal(got.a, want)


@pytest.mark.parametrize("shape", [(0, 3000), (3000, 0), (0, 0), (40, 60)])
def test_block_split_of_empty_and_zero_matrices(shape, monkeypatch):
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 0)  # even 0 x n splits
    for p in (2, 11):
        a = np.zeros(shape, dtype=np.int64)
        a[::8, ::8] = p  # nonzero, but zero mod p
        row, col = np.nonzero(a)
        m = FpMatrix.from_triples(p, shape, row, col, a[row, col])
        with mock.patch.object(linalg, "_components", wraps=linalg._components) as labels:
            rows, pivots = linalg._rref(m, p)
        assert labels.call_count == 1
        assert_pivots(pivots, [])
        assert rows.shape == oracle_rref(a, p)[0].shape == (0, shape[1])


def random_sparse(p, rng, rows, cols):
    """A random rows x cols int array, each entry nonzero with a random
    probability, entries in [-2p, 2p)."""
    keep = rng.random((rows, cols)) < rng.random()
    return rng.integers(-2 * p, 2 * p, size=(rows, cols)) * keep


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 10 ** 6))
def test_matrix_arithmetic_matches_dense_oracle(p, seed):
    rng = np.random.default_rng(seed)
    m, k, n = (int(v) for v in rng.integers(0, 60, size=3))
    x, y, z = (random_sparse(p, rng, *shape) for shape in ((m, k), (m, k), (k, n)))
    fx, fy, fz = FpMatrix(p, x), FpMatrix(p, y), FpMatrix(p, z)
    dx, dy, dz = DenseMatrix(p, x), DenseMatrix(p, y), DenseMatrix(p, z)
    c = int(rng.integers(-2 * p, 2 * p))
    for got, want in [(fx, dx), (fx.transpose(), dx.transpose()), (fx + fy, dx + dy),
                      (fx - fy, dx - dy), (-fx, -dx), (fx.scale(c), dx.scale(c)),
                      (fx @ fz, dx @ dz), (product(fx, fz, p), dx @ dz)]:
        assert_canonical(got)
        assert got.shape == want.a.shape and np.array_equal(got.a, want.a)
        assert np.array_equal(np.asarray(got), want.a)
    assert (fx - fx).is_zero() and fx.transpose().transpose() == fx


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 10 ** 6))
def test_block_matrix_matches_dense_oracle(p, seed):
    rng = np.random.default_rng(seed)
    row_dims = rng.integers(0, 5, size=rng.integers(1, 5))
    col_dims = rng.integers(0, 5, size=rng.integers(1, 5))
    blocks = []
    for _ in range(int(rng.integers(0, 8))):  # keys may repeat: contributions add
        r, c = int(rng.integers(row_dims.size)), int(rng.integers(col_dims.size))
        block = random_sparse(p, rng, row_dims[r], col_dims[c])
        blocks.append(((r, c), FpMatrix(p, block) if rng.random() < 0.5 else block))
    got = block_matrix(p, row_dims, col_dims, blocks)
    assert_canonical(got)
    assert np.array_equal(got.a, oracle_block_matrix(p, row_dims, col_dims, blocks).a)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_face_sum_matches_dense_oracle(p, length, seed):
    rng = np.random.default_rng(seed)
    vertices = range(int(rng.integers(length + 1, 6)))
    lower = list(itertools.combinations(vertices, length))
    upper = list(itertools.combinations(vertices, length + 1))
    lower = [s for s in lower if rng.random() < 0.8]  # faces missing from lower drop
    dims = {s: int(rng.integers(0, 4)) for s in lower + upper}
    faces = {}
    for sigma in upper:
        for k in range(len(sigma)):
            tau = sigma[:k] + sigma[k + 1:]
            face = random_sparse(p, rng, dims[sigma], dims.get(tau, 0))
            faces[(sigma, k)] = FpMatrix(p, face) if rng.random() < 0.5 else face
    got = face_sum(p, lower, upper, dims.get, lambda s, k: faces[(s, k)])
    assert_canonical(got)
    want = oracle_face_sum(p, lower, upper, dims.get, lambda s, k: np.asarray(faces[(s, k)]))
    assert np.array_equal(got.a, want.a)


# The nerve posets of the acceptance criteria: a point, a chain a < b, and
# two charts glued along their overlap w.
ACCEPTANCE_POSETS = [Poset(["pt"], []), Poset(["a", "b"], [("a", "b")]),
                     Poset(["w", "a", "b"], [("w", "a"), ("w", "b")])]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 2), st.integers(0, 10 ** 6))
def test_one_row_face_double_complex_is_the_face_complex(p, which, seed):
    rng = np.random.default_rng(seed)
    poset = ACCEPTANCE_POSETS[which]
    cells = poset.nerve_cells()
    size = {e: int(rng.integers(0, 4)) for e in poset.elements}
    restr = {(v, u): random_sparse(p, rng, size[u], size[v]) for v, u in poset.strict_pairs()}

    def face(sigma, k):  # a nerve face: drop the least vertex by restricting
        return restr[sigma[1], sigma[0]] if k == 0 else np.eye(size[sigma[0]], dtype=np.int64)

    want = face_complex(p, cells, lambda s: size[s[0]], face)
    got = face_double_complex(p, cells, 1, lambda s, j: size[s[0]], None,
                              lambda s, k, j: face(s, k))
    for n in range(len(cells)):
        assert got.total_dim(n) == want.dims[n]
        assert got.total_differential(n) == want.differential(n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_face_double_complex_columns_are_block_diagonal_and_flipped(p):
    rng = np.random.default_rng(p)
    cells = [[("a",), ("b",)], [("a", "b"), ("b", "c")]]
    size = {(s, j): int(rng.integers(1, 4)) for level in cells for s in level for j in (0, 1)}
    maps = {s: random_sparse(p, rng, size[s, 1], size[s, 0]) for level in cells for s in level}
    dc = face_double_complex(
        p, cells, 2, lambda s, j: size[s, j], lambda s, j: maps[s],
        lambda s, k, j: np.zeros((size[s, j], size[s[:k] + s[k + 1:], j]), dtype=np.int64))
    for i, level in enumerate(cells):
        want = np.zeros((sum(size[s, 1] for s in level), sum(size[s, 0] for s in level)),
                        dtype=np.int64)
        r = c = 0
        for s in level:
            want[r:r + size[s, 1], c:c + size[s, 0]] = maps[s]
            r, c = r + size[s, 1], c + size[s, 0]
        assert np.array_equal(dc.vertical(i, 0).a, (-1) ** i * want % p)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 10 ** 6))
def test_nonzero_product_matches_dense(p, seed):
    rng = np.random.default_rng(seed)
    m, k, n = (int(v) for v in rng.integers(40, 81, size=3))
    x, y = np.zeros((m, k), dtype=np.int64), np.zeros((k, n), dtype=np.int64)
    for _ in range(2):  # at most two nonzeros in each column of x and row of y
        x[rng.integers(0, m, size=k), np.arange(k)] = rng.integers(0, p, size=k)
        y[np.arange(k), rng.integers(0, n, size=k)] = rng.integers(0, p, size=k)
    assert joins(x, y)
    assert np.array_equal(product(FpMatrix(p, x), FpMatrix(p, y), p).a, (x @ y) % p)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_subspace_dimension_formula(p, n, seed):
    rng = np.random.default_rng(seed)
    u = Subspace(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
    v = Subspace(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
    s = u.sum(v)
    i = u.intersect(v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains_space(u) and s.contains_space(v)
    assert u.contains_space(i) and v.contains_space(i)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_intersect_matches_the_two_elimination_oracle(data):
    """One Zassenhaus elimination against the left kernel of the stacked
    bases; B shares a random part of A so that intersections are nonzero."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    a = rng.integers(0, p, size=(rng.integers(0, n + 1), n))
    shared = rng.integers(0, p, size=(rng.integers(0, 3), a.shape[0])) @ a
    b = np.concatenate([shared, rng.integers(0, p, size=(rng.integers(0, n + 1), n))])
    u, v = Subspace(p, n, a), Subspace(p, n, b)
    got = u.intersect(v)
    assert_canonical(got.basis)
    assert got == oracle_intersect(u, v) == v.intersect(u)


def test_subspace_reduce_express():
    p = 5
    u = Subspace(p, 4, [[1, 2, 0, 0], [0, 0, 1, 3]])
    assert u.dim == 2
    v = np.array([2, 4, 3, 9]) % p
    assert u.contains(v)
    coords = u.express(v)
    assert coords is not None
    assert np.array_equal((coords @ u.basis.a) % p, v % p)
    w = np.array([0, 1, 0, 0])
    assert not u.contains(w)
    assert u.express(w) is None
    # reduce is idempotent and kills exactly the subspace
    r = u.reduce(v)
    assert not r.any()
    r2 = u.reduce(w)
    assert np.array_equal(u.reduce(r2), r2)
    # rows of length 0 (a map out of the zero space) span the zero subspace
    assert Subspace(p, 0, np.zeros((3, 0), dtype=np.int64)).dim == 0


def test_circle_cochain_complex():
    # vertex/edge functions on a triangle: H^0 = H^1 = 1 over any prime
    for p in (2, 3, 5):
        d = FpMatrix(p, [[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
        cx = CochainComplex(p, {0: 3, 1: 3}, {0: d})
        assert cx.betti() == {0: 1, 1: 1}
        dim0, reps0 = cx.cohomology(0)
        assert dim0 == 1
        # the constant function generates H^0
        assert Subspace(p, 3, reps0).contains([1, 1, 1])


def _random_shifted_complex(p, rng):
    """A complex on degrees lo .. lo + n, lo in 0..3 and n in 0..4, whose dimensions may be
    0 and whose differentials may be omitted, zero or of any rank: d^m is a
    random map after rows that kill the image of d^(m-1), so d∘d = 0."""
    lo, n = int(rng.integers(0, 4)), int(rng.integers(0, 5))
    dims = {lo + i: int(rng.integers(0, 6)) for i in range(n + 1)}
    diffs, prev = {}, None
    for m in range(lo, lo + n):
        kind = rng.random()
        if kind < 0.1:  # omitted: the complex fills in a zero matrix
            prev = None
            continue
        if kind < 0.2:
            d = np.zeros((dims[m + 1], dims[m]), dtype=np.int64)
        else:
            killing = (np.eye(dims[m], dtype=np.int64) if prev is None
                       else oracle_kernel_basis(FpMatrix(p, prev.T)))
            full = prev is not None and rng.random() < 0.7  # low rank first leaves room
            width = killing.shape[0] if full else int(rng.integers(killing.shape[0] + 1))
            d = rng.integers(0, p, size=(dims[m + 1], width)) @ killing[:width]
        diffs[m] = FpMatrix(p, d)
        prev = diffs[m].a
    return CochainComplex(p, dims, diffs)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 10 ** 6))
def test_betti_from_ranks_matches_the_oracle_cohomology(p, seed):
    cx = _random_shifted_complex(p, np.random.default_rng(seed))
    want = {m: oracle_cohomology(cx.diffs.get(m - 1), cx.diffs.get(m), p, cx.dims[m])[2][0]
            for m in range(cx.lo, cx.hi + 1)}
    assert cx.betti() == want
    for m in range(cx.lo - 1, cx.hi + 2):
        d = cx.diffs.get(m)
        assert cx.rank(m) == (0 if d is None else len(oracle_rref(d.a, p)[1]))


def test_cochain_complex_rejects_bad_differential():
    p = 3
    d0 = FpMatrix(p, [[1, 0], [0, 1]])
    d1 = FpMatrix(p, [[1, 1]])
    with pytest.raises(ValueError):
        CochainComplex(p, {0: 2, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_cochain_complex_rejects_bad_differential_past_the_join_threshold():
    p, n = 3, 64
    shift = {k: FpMatrix(p, np.eye(n, k=k, dtype=np.int64)) for k in (31, 32)}
    assert joins(shift[31].a, shift[32].a)
    with pytest.raises(ValueError, match="d∘d != 0 at degree 0"):
        CochainComplex(p, {0: n, 1: n, 2: n}, {0: shift[32], 1: shift[31]})
    cx = CochainComplex(p, {0: n, 1: n, 2: n}, {0: shift[32], 1: shift[32]})
    assert cx.betti() == {0: 32, 1: 0, 2: 32}


def test_cohomology_at_orientation():
    # 0 -> k^2 --[1 0]--> k -> 0
    p = 2
    d = FpMatrix(p, [[1, 0]])
    dim, reps = cohomology_at(None, d, p, 2)
    assert dim == 1
    assert reps.a.tolist() == [[0, 1]]
    dim1, _ = cohomology_at(d, None, p, 1)
    assert dim1 == 0


def test_double_complex_validation():
    p = 3  # mod 2 commuting and anticommuting coincide, so use an odd prime
    one = FpMatrix(p, [[1]])
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d_h = {(0, 0): one, (0, 1): one}
    d_v = {(0, 0): one, (1, 0): one}
    # commuting squares must be flipped before they anticommute
    with pytest.raises(ValueError):
        DoubleComplex(p, dims, d_h, d_v)
    DoubleComplex(p, dims, d_h, column_flipped(d_v))

    with pytest.raises(ValueError):
        DoubleComplex(p, {(-1, 0): 1}, {}, {})


def test_double_complex_validation_past_the_join_threshold():
    p, n = 3, 64
    s = FpMatrix(p, np.eye(n, k=1, dtype=np.int64))
    assert joins(s.a, s.a)
    square = {(0, 0): n, (1, 0): n, (0, 1): n, (1, 1): n}
    with pytest.raises(ValueError, match=r"d_h d_v \+ d_v d_h != 0 at \(0, 0\)"):
        DoubleComplex(p, square, {(0, 0): s, (0, 1): s}, {(0, 0): s, (1, 0): s})
    DoubleComplex(p, square, {(0, 0): s, (0, 1): s}, {(0, 0): s, (1, 0): s.scale(-1)})
    with pytest.raises(ValueError, match=r"d_h\^2 != 0 at \(0, 0\)"):
        DoubleComplex(p, {(0, 0): n, (1, 0): n, (2, 0): n}, {(0, 0): s, (1, 0): s}, {})
    with pytest.raises(ValueError, match=r"d_v\^2 != 0 at \(0, 0\)"):
        DoubleComplex(p, {(0, 0): n, (0, 1): n, (0, 2): n}, {}, {(0, 0): s, (0, 1): s})


def _ones(p, *cells):
    return {cell: FpMatrix(p, [[1]]) for cell in cells}


# Broken laws away from (0, 0); the totalization's d∘d check finds each, and
# the bidegree loop names it.  Entries of 1 mod 3 neither square to zero nor
# anticommute.
BROKEN_DOUBLE_COMPLEXES = [
    ({(1, 2): 1, (2, 2): 1, (3, 2): 1}, _ones(3, (1, 2), (2, 2)), {},
     r"d_h\^2 != 0 at \(1, 2\)"),
    ({(2, 1): 1, (2, 2): 1, (2, 3): 1}, {}, _ones(3, (2, 1), (2, 2)),
     r"d_v\^2 != 0 at \(2, 1\)"),
    ({(1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1}, _ones(3, (1, 1), (1, 2)),
     _ones(3, (1, 1), (2, 1)), r"d_h d_v \+ d_v d_h != 0 at \(1, 1\)"),
    # a valid anticommuting square at the origin, the broken row further out
    ({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (3, 1): 1, (4, 1): 1, (5, 1): 1},
     _ones(3, (0, 0), (0, 1), (3, 1), (4, 1)),
     {(0, 0): FpMatrix(3, [[1]]), (1, 0): FpMatrix(3, [[2]])},
     r"d_h\^2 != 0 at \(3, 1\)"),
]


@pytest.mark.parametrize("dims,d_h,d_v,message", BROKEN_DOUBLE_COMPLEXES,
                         ids=["d_h-squared", "d_v-squared", "anticommutator", "past-a-valid-square"])
def test_double_complex_names_a_broken_law_off_the_origin(dims, d_h, d_v, message):
    with pytest.raises(ValueError, match=message):
        DoubleComplex(3, dims, d_h, d_v)


@pytest.mark.parametrize("part", ["d_h", "d_v"])
def test_double_complex_refuses_a_block_into_an_empty_target(part):
    """The totalization has no rows for an empty target, so only the shape
    check stands between such a block and a silently dropped map."""
    block = {(0, 0): FpMatrix(3, [[1, 0]])}
    d_h, d_v = (block, {}) if part == "d_h" else ({}, block)
    with pytest.raises(ValueError, match="shape"):
        DoubleComplex(3, {(0, 0): 2}, d_h, d_v)


def test_tensor_double_is_kunneth():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for _ in range(8):
            cx = random_complex(p, rng)
            cy = random_complex(p, rng)
            dc = tensor_double(p, cx, cy)
            tot = dc.totalize()
            bx = cx.betti()
            by = cy.betti()
            for m in range(0, dc.max_i + dc.max_j + 1):
                expected = sum(bx.get(i, 0) * by.get(m - i, 0) for i in range(m + 1))
                assert tot.cohomology(m)[0] == expected


def test_staircase_total_complex_is_acyclic():
    for p in (2, 5):
        for length in (1, 2, 3, 4):
            tot = staircase(p, length).totalize()
            assert all(v == 0 for v in tot.betti().values())


def test_staircase_survives_until_page_L():
    p = 3
    for length in (2, 3, 4):
        dc = staircase(p, length)
        pages = dc.spectral_sequence()[:length + 1]
        for page in pages:
            r = page.r
            if r <= length:
                assert page.dim(0, length - 1) == 1
                assert page.dim(length, 0) == 1
            else:
                assert page.dim(0, length - 1) == 0
                assert page.dim(length, 0) == 0
        # the page-L differential is the nonzero killer
        assert pages[length - 1].ranks[(0, length - 1)] == 1


def test_staircase_convergence():
    for p in (2, 3):
        for length in (1, 2, 3):
            ok, table = staircase(p, length).convergence_check()
            assert ok, table


def test_random_double_complex_convergence():
    rng = np.random.default_rng(2024)
    for p in (2, 3, 5):
        for _ in range(7):
            dc = random_double_complex(p, rng)
            ok, table = dc.convergence_check()
            assert ok, table


def test_direct_sum_adds_pages():
    p = 2
    a = staircase(p, 2)
    b = staircase(p, 3)
    c = direct_sum_double(p, a, b)
    pa = a.spectral_sequence()[1]
    pb = b.spectral_sequence()[1]
    pc = c.spectral_sequence()[1]
    cells = set(pa.dims) | set(pb.dims) | set(pc.dims)
    for cell in cells:
        assert pc.dim(*cell) == pa.dim(*cell) + pb.dim(*cell)


def test_first_page_is_vertical_cohomology():
    rng = np.random.default_rng(5)
    for _ in range(6):
        p = 3
        dc = random_double_complex(p, rng)
        page1 = dc.spectral_sequence()[0]
        for i in range(dc.max_i + 1):
            for j in range(dc.max_j + 1):
                d_out = dc.vertical(i, j)
                d_in = dc.vertical(i, j - 1) if j else None
                dim, _ = cohomology_at(d_in, d_out, p, dc.dim(i, j))
                assert page1.dim(i, j) == dim, (i, j)


def _triangle(p, extent):
    """Cells i + j <= extent of dimension 1; d_h is the identity out of each
    even column into the next, where that cell exists, and d_v is zero."""
    dims = {(i, j): 1 for i in range(extent + 1) for j in range(extent + 1 - i)}
    one = FpMatrix(p, [[1]])
    return dims, {(i, j): one for (i, j) in dims if i % 2 == 0 and (i + 1, j) in dims}


def test_triangle_at_the_extent_cap_has_closed_form_pages(monkeypatch):
    e = linalg.MAX_DOUBLE_EXTENT
    dims, d_h = _triangle(3, e)
    dc = DoubleComplex(3, dims, d_h, {})
    pages = dc.spectral_sequence()
    assert len(pages) == 2 * e + 2
    assert pages[0].dims == dims
    assert pages[0].ranks == {cell: 1 for cell in d_h}
    # d_1 cancels each even column against the next; an even last cell is left
    survivors = {(e - j, j): 1 for j in range(e + 1) if (e - j) % 2 == 0}
    assert len(survivors) == e // 2 + 1
    for page in pages[1:]:
        assert page.dims == survivors and not page.ranks
    ok, table = dc.convergence_check()
    assert ok
    assert table == {m: (len(survivors),) * 2 if m == e else (0, 0) for m in range(2 * e + 1)}
    # one past the cap is refused before any total differential is assembled
    monkeypatch.setattr(linalg, "block_matrix", mock.Mock(side_effect=AssertionError))
    with pytest.raises(CapacityError, match="extent"):
        DoubleComplex(3, *_triangle(3, e + 1), {})


def test_pages_at_the_extent_cap_hold_under_three_page_tables():
    """With its pair tables filled, a spectral_sequence call keeps dim E_r and
    the ranks in two (cells x pages) int64 arrays, summed in place."""
    e = linalg.MAX_DOUBLE_EXTENT
    dims, d_h = _triangle(3, e)
    dc = DoubleComplex(3, dims, d_h, {})
    pages = dc.spectral_sequence()  # fills the pair tables
    tracemalloc.start()
    try:
        again = dc.spectral_sequence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [page.dims for page in again] == [page.dims for page in pages]
    assert peak < 3 * len(dims) * (len(pages) + 1) * 8


# -- memoized complexes against the uncached oracles in helpers.py ----------------


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 6), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_kernel_basis_matches_column_loop(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    # a small matrix eliminated whole, and planted blocks that `_rref` splits
    for a in (rng.integers(0, p, size=(rows, cols)), planted_blocks(p, rng)):
        m = FpMatrix(p, a)
        ker = m.kernel_basis()
        assert_canonical(ker)
        assert np.array_equal(ker, oracle_kernel_basis(m))
        assert Subspace._from_rref(p, m.cols, ker) == Subspace(p, m.cols, ker)
        img = m.image_basis()
        assert Subspace._from_rref(p, m.rows, img) == Subspace(p, m.rows, img)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 7), st.integers(0, 10 ** 6))
def test_batched_unit_vector_test_equals_per_vector_contains(p, n, seed):
    rng = np.random.default_rng(seed)
    # unit rows, rows e_k + (a tail right of k) whose pivot k is a unit row
    # only if elimination clears the tail, and random rows, so both answers occur
    eye = np.eye(n, dtype=np.int64)
    units = eye[rng.integers(0, n, size=rng.integers(0, n + 1))]
    heads = rng.integers(0, n, size=rng.integers(0, n + 1))
    tails = eye[heads] + np.triu(rng.integers(0, p, size=(n, n)), 1)[heads]
    noise = rng.integers(0, p, size=(rng.integers(0, n), n))
    space = Subspace(p, n, np.vstack([units, tails, noise]))
    for k in range(n):
        assert space.contains_units([k]) == space.contains(eye[k])
    ks = sorted(set(rng.integers(0, n, size=rng.integers(0, n + 1)).tolist()))
    # empty and full index sets, and indices past n or negative, which name no
    # unit vector (a negative one must not wrap round to n + k)
    for indices in ([], list(range(n)), ks, *([*ks, k] for k in (n, n + 3, -1, -n, -n - 1))):
        want = oracle_contains_units(space, indices)
        assert space.contains_units(indices) is want
        assert space.contains_units(np.array(indices, dtype=np.int64)) is want
    full = Subspace.full(p, n)
    assert full.contains_units(range(n)) and not full.contains_units([-1])
    other = Subspace(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
    assert space.contains_space(other) == all(space.contains(row) for row in other.basis.a)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 7), st.integers(0, 10 ** 6))
def test_reduce_and_express_match_per_vector_pivot_loop(p, n, seed):
    rng = np.random.default_rng(seed)
    space = Subspace(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
    inside = rng.integers(-p, 2 * p, size=space.dim) @ space.basis.a
    for v in (rng.integers(-p, 2 * p, size=n), inside):
        got = space.reduce(v)
        assert got.shape == (n,) and np.array_equal(got, oracle_reduce(space, v))
        got, want = space.express(v), oracle_express(space, v)
        assert (got is None) == (want is None)
        assert want is None or np.array_equal(got, want)
    assert space.express(inside) is not None
    # a wide sparse space and a batch of rows that `product` reduces by its join
    wide = Subspace(p, 400, np.eye(400, dtype=np.int64)[rng.choice(400, 100, replace=False)]
                    + rng.integers(0, p, size=(100, 400)) * (rng.random((100, 400)) < 0.005))
    batch = rng.integers(-p, 2 * p, size=(12, 400)) * (rng.random((12, 400)) < 0.05)
    assert joins(np.mod(batch[:, wide.pivots], p), wide.basis.a)
    got = wide.reduce_rows(FpMatrix(p, batch))
    assert_canonical(got)
    assert np.array_equal(got.a, [oracle_reduce(wide, row) for row in batch])


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 8), st.integers(0, 10 ** 6),
       st.sampled_from(["random", "full", "spread"]), st.sampled_from(["random", "zero", "all"]))
def test_quotient_reps_match_reduce_then_eliminate(p, n, seed, outer, inner):
    rng = np.random.default_rng(seed)
    if outer == "full":
        space = Subspace.full(p, n)
    elif outer == "spread":  # a few pivots spread over 100x their number
        k, n = n + 1, 100 * (n + 1)
        rows = np.eye(n, dtype=np.int64)[rng.choice(n, size=k)]
        tails = rng.integers(0, p, size=rows.shape) * (rng.random(rows.shape) < 0.01)
        space = Subspace(p, n, rows + tails)
    else:
        space = Subspace(p, n, rng.integers(0, p, size=(rng.integers(0, n + 1), n)))
    combos = {"random": rng.integers(0, p, size=(rng.integers(0, space.dim + 1), space.dim)),
              "zero": np.zeros((0, space.dim), dtype=np.int64),
              "all": np.eye(space.dim, dtype=np.int64)}[inner]
    sub = Subspace(p, n, combos @ space.basis.a)
    got, want = space.quotient_reps(sub), oracle_quotient_reps(space, sub)
    assert got == want
    assert_pivots(got.pivots, want.pivots)
    assert got.dim == space.dim - sub.dim
    assert_canonical(got.basis)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 8), st.integers(0, 10 ** 6))
def test_units_equal_eliminated_unit_rows(p, n, seed):
    rng = np.random.default_rng(seed)
    indices = sorted(rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist())
    units = Subspace.units(p, n, indices)
    want = Subspace(p, n, np.eye(n, dtype=np.int64)[indices])
    assert units == want
    assert_pivots(units.pivots, want.pivots)
    assert_pivots(Subspace(p, n).pivots, [])
    assert_pivots(want.pivots, indices)
    full = Subspace(p, n, np.eye(n, dtype=np.int64))
    assert Subspace.full(p, n) == full
    assert_pivots(Subspace.full(p, n).pivots, full.pivots)
    assert_pivots(full.pivots, np.arange(n))


def test_cached_cohomology_matches_uncached_oracle():
    rng = np.random.default_rng(77)
    for p in (2, 3, 5):
        for _ in range(30):
            cx = random_complex(p, rng, max_len=4, max_dim=5)
            degrees = list(range(cx.lo, cx.hi + 1))
            for m in [*rng.permutation(degrees), *degrees]:
                m = int(m)
                d_in, d_out = cx.diffs.get(m - 1), cx.diffs.get(m)
                kernel, image, (dim, reps) = oracle_cohomology(d_in, d_out, p, cx.dims[m])
                assert cx.kernel(m) == kernel
                assert_pivots(cx.kernel(m).pivots, kernel.pivots)
                assert cx.image(m) == image
                assert_pivots(cx.image(m).pivots, image.pivots)
                got_dim, got_reps = cx.cohomology(m)
                assert got_dim == dim and got_reps == reps
                at_dim, at_reps = cohomology_at(d_in, d_out, p, cx.dims[m])
                assert at_dim == dim and at_reps == reps


def test_cached_cohomology_is_read_only():
    cx = CochainComplex(3, {0: 3, 1: 3}, {0: FpMatrix(3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])})
    _, reps = cx.cohomology(0)
    assert isinstance(reps, FpMatrix)
    assert cx.cohomology(0)[1] is reps


def _staircases_and_random_doubles():
    yield from (staircase(p, length) for p in (2, 3) for length in (1, 2, 3, 4))
    rng = np.random.default_rng(808)  # the 50 random double complexes of criterion 8
    for _ in range(50):
        yield random_double_complex(int(rng.choice([2, 3, 5])), rng)


def test_cached_pages_match_uncached_oracle():
    for dc in _staircases_and_random_doubles():
        stab = dc.max_i + dc.max_j + 2
        want = oracle_spectral_sequence(dc, stab + 1)
        assert_same_pages(dc.spectral_sequence()[:2], want[:2])
        ok, table = dc.convergence_check()
        assert ok, table
        assert_same_pages(dc.spectral_sequence(), want[:stab])
        assert_same_pages([dc.infinity_page()], want[stab - 1:stab])
        assert_same_pages(dc.spectral_sequence()[:1], want[:1])
        # the last page is E_inf: the oracle's next page is the same
        assert want[stab].dims == dc.infinity_page().dims and not want[stab].diffs
        # a fresh complex asked for the infinity page first agrees too
        fresh = fresh_copy(dc)
        assert_same_pages([fresh.infinity_page()], want[stab - 1:stab])
        assert_same_pages(fresh.spectral_sequence(), want[:stab])
        tot = dc.totalize()
        assert tot is dc.totalize()
        for m in range(tot.lo, tot.hi + 1):
            _, _, (dim, reps) = oracle_cohomology(tot.diffs.get(m - 1), tot.diffs.get(m),
                                                  dc.p, tot.dims[m])
            assert tot.cohomology(m) == (dim, reps)


def test_mutating_a_returned_page_list_leaves_later_calls_alone():
    dc = staircase(3, 3)
    pages = dc.spectral_sequence()
    before = [repr(page) for page in pages]
    pages.pop()
    pages.reverse()
    pages.append(None)
    assert [repr(page) for page in dc.spectral_sequence()] == before
    assert dc.spectral_sequence() is not dc.spectral_sequence()
    assert repr(dc.infinity_page()) == before[-1]


def _missing_middle_level(dc):
    """Whether some total degree has cells at filtrations a < c < b but none at c."""
    for n in range(dc.max_i + dc.max_j + 1):
        levels = [i for i in range(n + 1) if dc.dim(i, n - i)]
        if levels and len(levels) < levels[-1] - levels[0] + 1:
            return True
    return False


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 10 ** 6))
def test_pages_with_missing_filtration_levels_match_oracle(p, seed):
    dc = gapped_double_complex(p, np.random.default_rng(seed))
    assert _missing_middle_level(dc)
    stab = dc.max_i + dc.max_j + 2
    pages = dc.spectral_sequence()
    assert_same_pages(pages, oracle_spectral_sequence(dc, stab))
    # E_(r+1) = H(E_r, d_r): each position loses the ranks of d_r out and in
    for page, after in zip(pages, pages[1:]):
        r = page.r
        for (i, j) in dc.dims:
            rank_out = page.ranks.get((i, j), 0)
            rank_in = page.ranks.get((i - r, j + r - 1), 0)
            assert after.dim(i, j) == page.dim(i, j) - rank_out - rank_in, (r, i, j)
    ok, table = dc.convergence_check()
    assert ok, table
