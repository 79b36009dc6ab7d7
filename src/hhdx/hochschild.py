"""Hochschild cochain complexes over F_p.

Two complementary models are implemented.

* The bar model: for a finite-dimensional associative algebra given by
  structure constants and a bimodule given by action matrices, the degree-j
  cochains are arrays indexed by j algebra slots and one module slot
  (flattened in C order), and d^j is written as its nonzeros by index
  arithmetic: each term's action or multiplication tensor nonzeros, repeated
  over the slots it leaves alone.  Their count, n^j (nnz L + nnz R) +
  j n^(j-1) m nnz(table), is refused past `linalg.MAX_MATRIX_ENTRIES` before
  any is made.  The action
  of any algebra element is `Bimodule.action`, and `cup_contract` is the one
  cup contraction, shared with the diagram cup product in `gs`.

* The commutator (Koszul-type) model: for a module with n commuting
  endomorphisms (typically ad of the coordinate functions on a windowed
  operator module), the complex M (x) Lambda^* with d(m e_S) =
  sum_{i not in S} +- [x_i, m] e_(S u i), built by `linalg.face_complex`
  over the subsets S as cells.  For divided-power operator
  windows the commutators are window-exact, the kernel in degree 0 is
  certified to be exactly the multiplication operators, and vanishing in
  higher degrees is certified inside an explicit divided-power window while
  edge classes are reported as truncation artifacts rather than results.
  `hh_of_pair` reads the depth-r table in the compressed window of
  `dpdo.compressed_degree`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dpdo import OperatorAlgebra, TruncatedOperatorModule, compressed_degree
from .errors import CapacityError
from .gfp import require_prime
from .linalg import CochainComplex, FpMatrix, Subspace, _check_capacity, face_complex


class StructAlgebra:
    """Finite-dimensional associative unital algebra via structure constants.

    table[i, j, k] is the e_k-coefficient of e_i * e_j; unit is the
    coordinate vector of 1.  Associativity and unit laws are checked on
    construction.
    """

    __slots__ = ("p", "dim", "table", "unit")

    def __init__(self, p, table, unit):
        require_prime(p)
        self.p = p
        t = np.mod(np.asarray(table, dtype=np.int64), p)
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise ValueError("structure constants must form a cube")
        self.dim = t.shape[0]
        self.table = t
        u = np.mod(np.asarray(unit, dtype=np.int64), p)
        if u.shape != (self.dim,):
            raise ValueError("unit vector has the wrong length")
        self.unit = u
        self._check()

    def _check(self):
        t = self.table
        # (e_i e_j) e_k == e_i (e_j e_k), as two dense dim^4 arrays
        _check_capacity(self.dim ** 4)
        left = np.einsum("ijm,mkl->ijkl", t, t) % self.p
        right = np.einsum("jkm,iml->ijkl", t, t) % self.p
        if not np.array_equal(left, right):
            raise ValueError("structure constants are not associative")
        # 1 e_j == e_j and e_i 1 == e_i
        eye = np.eye(self.dim, dtype=np.int64)
        if not np.array_equal(np.einsum("i,ijk->jk", self.unit, t) % self.p, eye):
            raise ValueError("unit fails on the left")
        if not np.array_equal(np.einsum("j,ijk->ik", self.unit, t) % self.p, eye):
            raise ValueError("unit fails on the right")

    # -- constructions ----------------------------------------------------

    @classmethod
    def matrix_algebra(cls, p, n):
        """M_n(F_p) on the basis e_(rc), ordered row-major."""
        dim = n * n
        table = np.zeros((dim, dim, dim), dtype=np.int64)
        for r in range(n):
            for c in range(n):
                for c2 in range(n):
                    table[r * n + c, c * n + c2, r * n + c2] = 1
        unit = np.zeros(dim, dtype=np.int64)
        for r in range(n):
            unit[r * n + r] = 1
        return cls(p, table, unit)

    @classmethod
    def product_of_copies(cls, p, m):
        """F_p x ... x F_p with componentwise product."""
        table = np.zeros((m, m, m), dtype=np.int64)
        for i in range(m):
            table[i, i, i] = 1
        return cls(p, table, np.ones(m, dtype=np.int64))

    @classmethod
    def truncated_polynomial(cls, p, n):
        """F_p[x]/(x^n) on the basis 1, x, ..., x^(n-1)."""
        table = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    table[i, j, i + j] = 1
        unit = np.zeros(n, dtype=np.int64)
        unit[0] = 1
        return cls(p, table, unit)

    def __repr__(self):
        return f"StructAlgebra(p={self.p}, dim={self.dim})"


class Bimodule:
    """A-bimodule via commuting unital left/right action matrices.

    left[i] and right[i] are the actions of the basis element e_i; an
    optional internal product tensor prod[s, u, t] (the e_t-coefficient of
    m_s * m_u) enables cup products landing back in the module.
    """

    __slots__ = ("algebra", "dim", "left", "right", "product")

    def __init__(self, algebra, left, right, product=None):
        self.algebra = algebra
        p = algebra.p
        left = np.mod(np.asarray(left, dtype=np.int64), p)
        right = np.mod(np.asarray(right, dtype=np.int64), p)
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element")
        self.dim = left.shape[-1]
        if left.shape != (algebra.dim, self.dim, self.dim) or right.shape != left.shape:
            raise ValueError("action matrices must be square of equal size")
        self.left = left
        self.right = right
        self.product = None
        if product is not None:
            prod = np.mod(np.asarray(product, dtype=np.int64), p)
            if prod.shape != (self.dim,) * 3:
                raise ValueError("product tensor must be a module-sized cube")
            self.product = prod
        self._check()

    @classmethod
    def _wrap(cls, algebra, left, right, product=None):
        """Wrap reduced action matrices whose laws are known to hold (no copy,
        no check)."""
        out = cls.__new__(cls)
        out.algebra, out.dim, out.left, out.right, out.product = (
            algebra, left.shape[-1], left, right, product)
        return out

    def action(self, coords, side):
        """Matrix by which the algebra element with the given coordinates acts
        on the "left" or the "right": sum_k coords[k] L_k (or R_k).  A stack
        of coordinate rows gives the stack of their matrices."""
        mats = self.left if side == "left" else self.right
        return np.tensordot(np.asarray(coords, dtype=np.int64), mats, axes=1) % self.algebra.p

    def _check(self):
        # every pair (e_i, e_j) at once: e_i e_j acts as L_i L_j and as R_j R_i,
        # and L_i R_j == R_j L_i
        p = self.algebra.p
        t = self.algebra.table
        left, right = self.left[:, None], self.right[None, :]
        if not np.array_equal(self.action(t, "left"), (left @ self.left[None, :]) % p):
            raise ValueError("left action is not a module structure")
        if not np.array_equal(self.action(t, "right"), (right @ self.right[:, None]) % p):
            raise ValueError("right action is not a module structure")
        if not np.array_equal((left @ right) % p, (right @ left) % p):
            raise ValueError("left and right actions do not commute")
        eye = np.eye(self.dim, dtype=np.int64)
        if not (np.array_equal(self.action(self.algebra.unit, "left"), eye)
                and np.array_equal(self.action(self.algebra.unit, "right"), eye)):
            raise ValueError("unit does not act as the identity")

    @classmethod
    def regular(cls, algebra):
        """The algebra as a bimodule over itself, with its own product."""
        t = algebra.table
        return cls(algebra, t.transpose(0, 2, 1), t.transpose(1, 2, 0), product=t)

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over {self.algebra!r})"


# -- bar complex -------------------------------------------------------------


def bar_differential_matrix(bimodule, j):
    """Matrix of d : C^j -> C^(j+1) on C-order flattened cochains, as triples.

    C^j(A, M) = maps A^(x)j -> M stored as arrays of shape (n,)*j + (m,),
    index ((i_1..i_j), t) at I m + t.  (d phi)(a_0..a_j) = a_0 phi(a_1..a_j)
    + sum_k (-1)^k phi(.., a_(k-1) a_k, ..) + (-1)^(j+1) phi(a_0..a_(j-1)) a_j;
    each term's triples are the nonzeros of its action or multiplication
    tensor repeated over the slots it leaves alone.
    """
    a = bimodule.algebra
    n, m, nj = a.dim, bimodule.dim, a.dim ** j
    left, right, mul = (np.nonzero(x) for x in (bimodule.left, bimodule.right, a.table))
    _check_capacity(nj * (left[0].size + right[0].size)
                    + j * n ** max(j - 1, 0) * m * mul[0].size, "bar differential")
    front = np.arange(nj)[:, None]  # (a_1..a_j) for a_0's action, (a_0..a_(j-1)) for a_j's
    (i, t, s), (r, u, w) = left, right
    terms = [((i * nj + front) * m + t, front * m + s, np.tile(bimodule.left[left], nj)),
             ((front * n + r) * m + u, front * m + w,
              np.tile((-1) ** (j + 1) * bimodule.right[right], nj))]
    x, y, z = (c[:, None] for c in mul)  # e_x e_y has an e_z term
    for k in range(1, j + 1):  # a_(k-1) a_k, between a block P < n^(k-1) and Q < n^(j-k) m
        back = np.arange(n ** (j - k) * m)
        pre = np.arange(n ** (k - 1))[:, None, None]
        terms.append((((pre * n + x) * n + y) * back.size + back, (pre * n + z) * back.size + back,
                      np.tile(np.repeat((-1) ** k * a.table[mul], back.size), pre.size)))
    row, col, val = (np.concatenate([c.ravel() for c in part]) for part in zip(*terms))
    return FpMatrix.from_triples(a.p, (n * nj * m, nj * m), row, col, val)


def bar_complex(bimodule, top):
    """Bar cochain complex C^0 .. C^top.

    Cohomology is only meaningful strictly below the top degree (the
    complex is a truncation, so the top group lacks its outgoing
    differential).
    """
    a = bimodule.algebra
    dims = {j: a.dim ** j * bimodule.dim for j in range(top + 1)}
    diffs = {j: bar_differential_matrix(bimodule, j) for j in range(top)}
    return CochainComplex(a.p, dims, diffs)


def hochschild_cohomology(bimodule, top):
    """{j: (dim, RREF FpMatrix of representatives)} for j = 0..top via the bar model."""
    cx = bar_complex(bimodule, top + 1)
    return {j: cx.cohomology(j) for j in range(top + 1)}


def cup_contract(bimodule, i, phi_t, j, psi_t):
    """Contract an i-cochain and a j-cochain tensor, of shapes (n,)*i + (m,)
    and (n,)*j + (m,), through the module product into an (i+j)-cochain."""
    if bimodule.product is None:
        raise ValueError("cup products need a bimodule with an internal product")
    letters = "abcdefgh"
    if i + j > len(letters):
        raise CapacityError("cup degree exceeds capacity")
    spec = letters[:i] + "s," + letters[i:i + j] + "u,sut->" + letters[:i + j] + "t"
    return np.einsum(spec, phi_t, psi_t, bimodule.product) % bimodule.algebra.p


def cup_product(bimodule, i, phi, j, psi):
    """Cup product C^i (x) C^j -> C^(i+j) using the module's product."""
    n, m = bimodule.algebra.dim, bimodule.dim
    phi_t = np.asarray(phi, dtype=np.int64).reshape((n,) * i + (m,))
    psi_t = np.asarray(psi, dtype=np.int64).reshape((n,) * j + (m,))
    return cup_contract(bimodule, i, phi_t, j, psi_t).reshape(-1)


# -- commutator (Koszul-type) complexes ------------------------------------------


def koszul_commutator_complex(p, dim, matrices):
    """Complex M (x) Lambda^*(k^n) with d(m e_S) = sum +- K_i m e_(S u i).

    matrices are pairwise commuting FpMatrix endomorphisms of F_p^dim.
    Basis of degree j: (subset S of size j, module index), subsets in
    lexicographic order, module index minor.  The subsets are the cells of a
    face complex whose k-th face of S u i drops i = (S u i)[k], so the face
    sign (-1)^k is the Koszul sign (-1)^#{x in S : x < i}.
    """
    n = len(matrices)
    if any(mat.shape != (dim, dim) for mat in matrices):
        raise ValueError(f"commutator complex needs {dim} x {dim} matrices")
    cells = [list(itertools.combinations(range(n), j)) for j in range(n + 1)]
    try:  # d∘d on degree 0 is the commutator [K_i, K_j] on each pair {i, j}
        return face_complex(p, cells, lambda s: dim, lambda s, k: matrices[s[k]])
    except ValueError as err:
        raise ValueError("commutator complex needs commuting endomorphisms") from err


def operator_window_koszul(p, n, degree_bound, dp_bound):
    """Commutator complex of a windowed operator module over the coordinate
    functions, with certification of what the window can really see.

    Returns (complex, module, report).  The report separates:

    * degree 0: the kernel is proved to be exactly the multiplication
      operators of the window (ad x_i shifts divided-power exponents
      injectively, so no cancellation can produce extra kernel);
    * top degree: classes supported on divided-power exponents <= dp_bound-1
      are boundaries inside the window, so the certified cokernel there is
      zero and only the dp = dp_bound edge layer remains as an
      uncertified truncation artifact;
    * middle degrees: vanishing is certified for classes supported on
      divided-power exponents <= dp_bound - n.
    """
    alg = OperatorAlgebra(p, n)
    module = TruncatedOperatorModule(alg, degree_bound, dp_bound)
    mats = [module.commutator_matrix(alg.variable(i)) for i in range(n)]
    cx = koszul_commutator_complex(p, module.dim, mats)

    report = {"degree_bound": degree_bound, "dp_bound": dp_bound, "vars": n}
    # degree 0: kernel == multiplication operators, exactly
    h0 = cx.kernel(0)  # d_in is zero in degree 0
    mult = np.flatnonzero((module.b == 0).all(axis=1))
    certified0 = h0.dim == mult.size and h0.contains_units(mult)
    report["h0"] = {"dim": h0.dim, "certified_multiplication_operators": bool(certified0)}

    # top degree: surjectivity onto the dp <= dp_bound - 1 sub-window
    top = n
    raw_top, _ = cx.cohomology(top)
    # top-degree block of the basis is the last lambda-block (full subset)
    offset = cx.dims[top] - module.dim
    inner = offset + np.flatnonzero((module.b <= dp_bound - 1).all(axis=1))
    vanished = cx.image(top).contains_units(inner)
    report["h_top"] = {
        "raw_dim": raw_top,
        "certified_vanishing_window": dp_bound - 1 if vanished else None,
        "edge_artifacts": raw_top if vanished else None,
    }

    # middle degrees: certified window dp_bound - n (one integration per step)
    middle = {}
    for j in range(1, top):
        raw, reps = cx.cohomology(j)
        window = dp_bound - n
        ok = _middle_window_vanishes(cx, module, j, window)
        middle[j] = {"raw_dim": raw,
                     "certified_vanishing_window": window if ok else None}
    report["middle"] = middle
    return cx, module, report


def _middle_window_vanishes(cx, module, j, window):
    """(ker d^j  ∩ W + im d^(j-1)) / im = 0 for the dp <= window layer W.

    ker d^j ∩ W is the kernel of d^j on W's columns, renumbered through them
    (ascending, so its rows stay in RREF)."""
    keep = (np.arange(cx.dims[j] // module.dim)[:, None] * module.dim
            + np.flatnonzero((module.b <= window).all(axis=1))).ravel()
    if not keep.size:
        return True
    ker = cx.diffs[j].take(slice(None), keep).kernel_basis()
    small = FpMatrix._wrap(cx.p, (ker.rows, cx.dims[j]), ker.row, keep[ker.col], ker.val)
    return cx.image(j).contains_space(Subspace._from_rref(cx.p, cx.dims[j], small))


def hh_of_pair(p, r, degree_bound, dp_bound):
    """Hochschild table of the depth-r twisted operator algebra on the line.

    The depth-r twist of the full divided-power algebra is the same algebra
    in the variable u = t^(p^r) (the corner compression is an isomorphism
    onto the operators of the subring), so its windowed commutator complex
    is computed in compressed coordinates Du = D // p^r, Qu = Q // p^r and
    the degree-0 basis is pulled back along u^k -> t^(k p^r).

    Returns a report dict; windows too small to fit one compressed degree
    raise WindowError rather than reporting an empty table silently.
    """
    require_prime(p)
    if r < 0:
        raise ValueError("r must be nonnegative")
    du = compressed_degree(p, r, degree_bound)
    q = p ** r
    qu = max(1, dp_bound // q)
    cx, module, report = operator_window_koszul(p, 1, du, qu)
    dim0, reps0 = cx.cohomology(0)
    names = []
    for row in reps0.a:
        op = module.operator(row)
        (_, a, b, _), *rest = op.terms.T.tolist()
        name = f"t^{a * q}" if a * q > 1 else ("t" if a else "1")
        names.append(op.render() if rest or b else name)
    return {
        "depth": r,
        "compressed_window": {"degree_bound": du, "dp_bound": qu},
        "h0_dim": dim0,
        "h0_basis": names,
        "h0_certified": report["h0"]["certified_multiplication_operators"],
        "h_top": report["h_top"],
    }
