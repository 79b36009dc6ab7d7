"""Diagram cohomology over finite posets.

Three layers, all exact over F_p:

* plain space diagrams (a finite poset, a vector space per element,
  restriction maps downward) with nerve cohomology and, for covers whose
  intersections exist in the poset, alternating Cech cohomology — the two
  agree and `nerve_vs_cech` checks that agreement on the nose;

* algebra/bimodule diagrams: each element carries a structure-constant
  algebra and a bimodule, restrictions are algebra/bimodule maps, and the
  diagram cochain double complex has Hochschild (bar) columns and
  nerve-face rows.  Cochains multiply through a front/back-face cup
  product satisfying the Leibniz rule for the total differential;

* the windowed operator scenario on the two-chart projective line, where
  the vertical complexes are commutator (Koszul) complexes of divided-power
  operator windows instead of bar complexes (on the affine line that is one
  column, `hochschild.operator_window_koszul`).
  Window sizes are chosen so every differential and face map is exact
  (computed in full, captured in an enlarged window, never silently
  truncated); the second-page row j = 0 is then artifact-free and is
  checked against the nerve cohomology of the structure-sheaf windows,
  while j = 1 cells are reported raw with explicit uncertified flags plus
  a windowed-surjectivity certificate for their inner layers.

Nerve and Cech complexes come from `linalg.face_complex`, and every diagram
double complex from its twin `linalg.face_double_complex`: one vertical map
and one set of faces per cell, over the cells `Poset.nerve_cells` lists or,
for the two-chart projective line, over its vertices and edges; an algebra
diagram's algebra and module restrictions are each validated as a
`SpaceDiagram` before the algebra-map and module-map laws are checked.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .dpdo import OperatorAlgebra, TruncatedOperatorModule, compressed_degree
from .errors import CapacityError, WindowError
from .gfp import binomial_array, require_prime
from .hochschild import Bimodule, bar_differential_matrix, cup_contract
from .linalg import FpMatrix, Subspace, face_complex, face_double_complex


class Poset:
    """Finite poset from a list of elements and generating relations."""

    def __init__(self, elements, relations):
        self.elements = list(elements)
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self.index = index
        le = {(e, e) for e in self.elements}
        for a, b in relations:
            if a not in index or b not in index:
                raise ValueError(f"relation on unknown elements {(a, b)}")
            le.add((a, b))
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(le), repeat=2):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
        for a, b in le:
            if a != b and (b, a) in le:
                raise ValueError(f"antisymmetry fails on {(a, b)}")
        self.le_pairs = le

    def le(self, a, b):
        return (a, b) in self.le_pairs

    def lt(self, a, b):
        return a != b and (a, b) in self.le_pairs

    def chains(self, length):
        """Strictly increasing chains with `length` + 1 vertices, ordered."""
        out = []

        def extend(chain):
            if len(chain) == length + 1:
                out.append(tuple(chain))
                return
            for e in self.elements:
                if self.lt(chain[-1], e):
                    extend(chain + [e])

        for e in self.elements:
            extend([e])
        out.sort(key=lambda c: tuple(self.index[v] for v in c))
        return out

    def strict_pairs(self):
        """Pairs (v, u) with u < v: the keys of a diagram's restriction maps."""
        return [(v, u) for u, v in itertools.permutations(self.elements, 2)
                if self.lt(u, v)]

    def nerve_cells(self):
        """[chains(0), chains(1), ...] until the first empty length."""
        cells = []
        for j in itertools.count():
            chains = self.chains(j)
            if not chains:
                return cells
            cells.append(chains)

    def meet(self, items):
        """Greatest common lower bound; None when no lower bound exists."""
        lower = [e for e in self.elements
                 if all(self.le(e, x) for x in items)]
        if not lower:
            return None
        tops = [e for e in lower if all(self.le(f, e) for f in lower)]
        if len(tops) != 1:
            raise ValueError(f"no unique meet for {tuple(items)}")
        return tops[0]

    def __repr__(self):
        return f"Poset({self.elements})"


class SpaceDiagram:
    """A vector space per poset element with downward restriction maps.

    restrictions[(v, u)] (for u < v) is the matrix of F(v) -> F(u); all
    comparable pairs must be supplied and composites must agree.
    """

    def __init__(self, p, poset, dims, restrictions):
        require_prime(p)
        self.p = p
        self.poset = poset
        self.dims = {e: int(dims[e]) for e in poset.elements}
        self.restr = {}
        for key in poset.strict_pairs():
            v, u = key
            if key not in restrictions:
                raise ValueError(f"missing restriction for {key}")
            mat = np.mod(np.asarray(restrictions[key], dtype=np.int64), p)
            if mat.shape != (self.dims[u], self.dims[v]):
                raise ValueError(f"restriction {key} has shape {mat.shape}")
            self.restr[key] = mat
        for u in poset.elements:
            self.restr[(u, u)] = np.eye(self.dims[u], dtype=np.int64)
        for u, w, v in itertools.permutations(poset.elements, 3):
            if poset.lt(u, w) and poset.lt(w, v):
                left = self.restr[(w, u)] @ self.restr[(v, w)] % p
                if not np.array_equal(left % p, self.restr[(v, u)]):
                    raise ValueError(f"restrictions do not compose along {(v, w, u)}")

    def restriction(self, v, u):
        return self.restr[(v, u)]

    # -- nerve cohomology -----------------------------------------------------

    def nerve_complex(self):
        """Cochain complex over nerve chains with F(min sigma) coefficients.

        Dropping the minimal vertex restricts along F(new min) -> F(min);
        all other faces keep the coefficient space.
        """
        def face(sigma, k):
            if k == 0:
                return self.restriction(sigma[1], sigma[0])
            return np.eye(self.dims[sigma[0]], dtype=np.int64)

        return face_complex(self.p, self.poset.nerve_cells(),
                            lambda s: self.dims[s[0]], face)

    def nerve_betti(self):
        return self.nerve_complex().betti()

    # -- Cech cohomology of a cover ---------------------------------------------

    def cech_complex(self, cover):
        """Alternating Cech complex of the cover inside the poset.

        Tuples are strictly increasing in cover order; the coefficient on a
        tuple is F(meet).  Tuples with no common lower bound contribute 0;
        a common lower bound without a unique greatest one is an error.
        """
        order = {c: k for k, c in enumerate(cover)}
        if len(order) != len(cover):
            raise ValueError("cover has repeated elements")
        meets = {}
        cells = []
        for q in range(len(cover)):
            level = {t: m for t in itertools.combinations(cover, q + 1)
                     if (m := self.poset.meet(t)) is not None}
            if not level:
                break
            meets.update(level)
            cells.append(list(level))
        return face_complex(
            self.p, cells, lambda t: self.dims[meets[t]],
            lambda t, k: self.restriction(meets[t[:k] + t[k + 1:]], meets[t]))

    def cech_betti(self, cover):
        return self.cech_complex(cover).betti()


def nerve_vs_cech(diagram, cover):
    """Compare nerve and Cech cohomology; they must agree degreewise.

    Raises ValueError when the poset is missing a needed intersection, so
    a cover that is not intersection-closed is loudly rejected.
    """
    nerve = diagram.nerve_betti()
    cech = diagram.cech_betti(cover)
    degrees = sorted(set(nerve) | set(cech))
    table = {m: (nerve.get(m, 0), cech.get(m, 0)) for m in degrees}
    return {"agree": all(a == b for a, b in table.values()), "table": table}


def _identity_restrictions(poset, dim):
    eye = np.eye(dim, dtype=np.int64)
    return {key: eye for key in poset.strict_pairs()}


def constant_diagram(p, poset, dim=1):
    return SpaceDiagram(p, poset, {e: dim for e in poset.elements},
                        _identity_restrictions(poset, dim))


def projective_line_twist_diagram(p, twist, degree_bound):
    """Monomial-window model of a line-bundle twist on the two-chart line.

    F(U0) spans s^0..s^D, F(U1) spans s^(twist-D)..s^twist, F(U01) spans
    the union window; restrictions are the inclusions.  Global sections
    and the gap monomials s^(twist+1)..s^(-1) give the classical tables.
    """
    if degree_bound < abs(twist):
        raise ValueError("degree window too small for this twist")
    d = degree_bound
    windows = {"U0": range(0, d + 1), "U1": range(twist - d, twist + 1)}
    windows["U01"] = range(min(0, twist - d), max(d, twist) + 1)
    poset = Poset(["U01", "U0", "U1"], [("U01", "U0"), ("U01", "U1")])
    dims = {u: len(w) for u, w in windows.items()}

    # each window is a run of exponents, so s^e sits at e - w[0] in window w
    restr = {(u, "U01"): np.eye(dims["U01"], dims[u], windows["U01"][0] - windows[u][0],
                                dtype=np.int64) for u in ("U0", "U1")}
    return SpaceDiagram(p, poset, dims, restr), ["U0", "U1"]


# -- diagram Hochschild double complex (bar columns) ---------------------------------


class GSDiagram:
    """Algebras and bimodules over a poset with downward restriction maps.

    restr_alg[(v, u)] must be unital algebra maps, restr_mod[(v, u)]
    module maps over them; composites must agree, and when the bimodules
    carry internal products the module maps must respect them (needed for
    cup products).
    """

    def __init__(self, p, poset, algebras, bimodules, restr_alg, restr_mod):
        require_prime(p)
        self.p = p
        self.poset = poset
        self.algebras = algebras
        self.bimodules = bimodules
        # the two space diagrams check shapes and composites and add identities
        self.restr_alg = SpaceDiagram(p, poset, {e: a.dim for e, a in algebras.items()},
                                      restr_alg).restr
        self.restr_mod = SpaceDiagram(p, poset, {e: m.dim for e, m in bimodules.items()},
                                      restr_mod).restr
        for key in poset.strict_pairs():
            v, u = key
            self._check_algebra_map(algebras[v], algebras[u], self.restr_alg[key], key)
            self._check_module_map(bimodules[v], bimodules[u], self.restr_alg[key],
                                   self.restr_mod[key], key)

    def _check_algebra_map(self, av, au, pa, key):
        p = self.p
        if not np.array_equal(pa @ av.unit % p, au.unit):
            raise ValueError(f"{key}: restriction does not preserve the unit")
        lhs = np.einsum("ijk,tk->ijt", av.table, pa) % p
        rhs = np.einsum("ri,sj,rst->ijt", pa, pa, au.table) % p
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"{key}: restriction is not multiplicative")

    def _check_module_map(self, mv, mu, pa, qm, key):
        p = self.p
        for side, acts in (("left", mv.left), ("right", mv.right)):
            if not np.array_equal(np.matmul(qm, acts) % p,
                                  np.matmul(mu.action(pa.T, side), qm) % p):
                raise ValueError(f"{key}: module map breaks the {side} action")
        if mv.product is not None and mu.product is not None:
            lhs = np.einsum("sut,vt->suv", mv.product, qm) % p
            rhs = np.einsum("as,bu,abv->suv", qm, qm, mu.product) % p
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"{key}: module map is not multiplicative")

    @classmethod
    def constant(cls, poset, bimodule):
        """The same algebra and bimodule everywhere, identity restrictions."""
        a = bimodule.algebra
        return cls(a.p, poset, {e: a for e in poset.elements},
                   {e: bimodule for e in poset.elements},
                   _identity_restrictions(poset, a.dim),
                   _identity_restrictions(poset, bimodule.dim))


MAX_BAR = 2  # top bar degree of every GSComplex: the cups hhdx checks land in degree <= 2


class GSComplex:
    """Diagram cochain double complex: bar columns, nerve-face rows.

    C^(i,j) = direct sum over length-i chains sigma of the Hochschild
    j-cochains of A(max sigma) with values in M(min sigma) (the bimodule
    pulled back along the chain's restriction), for j up to `MAX_BAR`.
    `face_double_complex` builds it from the nerve chains on the first read of
    `double` (so a diagram whose double complex fails its d∘d check raises
    there, and cochains and cups never build it): each chain's vertical map is
    its bar differential, its k-th face `_face_matrix`.
    """

    def __init__(self, diagram):
        self.diagram = diagram
        self.p = diagram.p
        self.chains = dict(enumerate(diagram.poset.nerve_cells()))
        self.max_i = len(self.chains) - 1
        self.max_j = MAX_BAR

    @functools.cached_property
    def double(self):
        cells = list(self.chains.values())
        pulled = {sigma: self._pullback_bimodule(sigma) for level in cells for sigma in level}
        return face_double_complex(
            self.p, cells, MAX_BAR + 1, self.block_dim,
            lambda s, j: bar_differential_matrix(pulled[s], j), self._face_matrix)

    def _pullback_bimodule(self, sigma):
        """M(min sigma) over A(max sigma), a acting as rho(a) for the chain's
        restriction rho.  Its laws are not checked again, since they follow
        from checks already made, each law checked once: `GSDiagram` checked
        every strict pair's rho as a unital, multiplicative algebra map,
        `SpaceDiagram` added the identities, and M(min sigma) was checked
        when it was built.  So a -> L(rho(a)) and a -> R(rho(a)) are unital
        and multiplicative, and they commute as L and R do."""
        top, bottom = sigma[-1], sigma[0]
        m_bot = self.diagram.bimodules[bottom]
        rho = self.diagram.restr_alg[(top, bottom)]
        return Bimodule._wrap(self.diagram.algebras[top], m_bot.action(rho.T, "left"),
                              m_bot.action(rho.T, "right"), product=m_bot.product)

    def block_dim(self, sigma, j):
        return (self.diagram.algebras[sigma[-1]].dim ** j
                * self.diagram.bimodules[sigma[0]].dim)

    def _face_matrix(self, sigma, k, j):
        """Matrix of the k-th face map C^j(face) -> C^j(sigma)."""
        n_sigma = self.diagram.algebras[sigma[-1]].dim
        m_sigma = self.diagram.bimodules[sigma[0]].dim
        if k == 0:
            q = self.diagram.restr_mod[(sigma[1], sigma[0])]
            return np.kron(np.eye(n_sigma ** j, dtype=np.int64), q) % self.p
        if k == len(sigma) - 1:
            pa = self.diagram.restr_alg[(sigma[-1], sigma[-2])]
            block = np.eye(1, dtype=np.int64)
            for _ in range(j):
                block = np.kron(block, pa.T)
            return np.kron(block, np.eye(m_sigma, dtype=np.int64)) % self.p
        return np.eye(n_sigma ** j * m_sigma, dtype=np.int64)

    # -- cochain utilities ------------------------------------------------------

    def zero_cochain(self, i, j):
        return {sigma: np.zeros(self.block_dim(sigma, j), dtype=np.int64)
                for sigma in self.chains[i]}

    def random_cochain(self, i, j, rng):
        return {sigma: rng.integers(0, self.p, size=self.block_dim(sigma, j))
                for sigma in self.chains[i]}

    def pack(self, i, cochain):
        return np.concatenate([cochain[sigma] for sigma in self.chains[i]]) % self.p

    def unpack(self, i, j, vec):
        cuts = np.cumsum([self.block_dim(sigma, j) for sigma in self.chains[i]])[:-1]
        return dict(zip(self.chains[i], np.split(vec, cuts)))

    def differential(self, i, j, cochain):
        """Total differential of a bidegree-(i, j) cochain.

        Returns {(i+1, j): ..., (i, j+1): ...} using the double complex's
        sign convention (the vertical part carries (-1)^i).
        """
        vec = FpMatrix(self.p, self.pack(i, cochain)[:, None])  # one column
        parts = (((i + 1, j), self.double.horizontal), ((i, j + 1), self.double.vertical))
        return {(a, b): self.unpack(a, b, (part(i, j) @ vec).a[:, 0])
                for (a, b), part in parts if (a, b) in self.double.dims}

    def cup(self, i1, j1, alpha, i2, j2, beta):
        """Front/back-face cup product into bidegree (i1+i2, j1+j2)."""
        if j1 + j2 > self.max_j:
            raise CapacityError("cup degree exceeds the bar range")
        i, j = i1 + i2, j1 + j2
        if i not in self.chains:
            return {}  # no chains of that length: the group is zero
        sign = (-1) ** (i2 * j1)
        out = self.zero_cochain(i, j)
        for sigma in self.chains[i]:
            front = sigma[: i1 + 1]
            back = sigma[i1:]
            mid = sigma[i1]
            a_sig = self.diagram.algebras[sigma[-1]]
            m_sig = self.diagram.bimodules[sigma[0]]
            n = a_sig.dim
            # alpha on the front face: arguments restricted from A(max sigma)
            pa = self.diagram.restr_alg[(sigma[-1], front[-1])]
            a_arr = np.asarray(alpha[front], dtype=np.int64)
            m_front = self.diagram.bimodules[front[0]].dim
            a_t = a_arr.reshape((self.diagram.algebras[front[-1]].dim,) * j1
                                + (m_front,))
            for axis in range(j1):
                a_t = np.tensordot(pa, a_t, axes=(0, axis))
                a_t = np.moveaxis(a_t, 0, axis) % self.p
            # beta on the back face: value pushed down to M(min sigma)
            qm = self.diagram.restr_mod[(mid, sigma[0])]
            b_arr = np.asarray(beta[back], dtype=np.int64)
            b_t = b_arr.reshape((n,) * j2 + (self.diagram.bimodules[mid].dim,))
            b_t = np.tensordot(b_t, qm, axes=(j2, 1)) % self.p
            val = cup_contract(m_sig, j1, a_t, j2, b_t)
            out[sigma] = (sign * val.reshape(-1)) % self.p
        return out


# -- windowed operator scenarios on the line and the two-chart projective line -----


def _surjective_onto_window(p, image_matrix, target_module, a_lo, a_hi, b_max):
    """Does the image of the matrix contain every basis operator x^a D^(b)
    of the target window with a in [a_lo, a_hi] and b <= b_max?"""
    space = Subspace._from_rref(p, image_matrix.rows, image_matrix.image_basis())
    a, b = target_module.a[:, 0], target_module.b[:, 0]
    return space.contains_units(np.flatnonzero((a_lo <= a) & (a <= a_hi) & (b <= b_max)))


def gs_for_subalgebra_scenario(p, r=1, degree_bound=16, dp_bound=8):
    """Diagram double complex of depth-r operator windows, Koszul columns, on
    the projective line glued from two charts along u -> 1/u.

    Each chart is a [0, du] x [0, qu] window of the compressed (depth-r)
    operator algebra, du = degree_bound // p^r, qu = max(1, dp_bound // p^r).
    The vertex columns are chart windows, the edge columns Laurent windows
    with the j = 1 cell enlarged so every vertical differential and face
    map is computed exactly.  The faces are the window inclusion, the
    chart change, and the comparison chain map (id, m -> -u^-1 m u^-1)
    from the [u, -] column to the [1/u, -] column.  `face_double_complex`
    builds it from one commutator matrix per nerve cell (U0, U1, U01,
    (U01, U0), (U01, U1)) and each edge's faces.

    Returns (report, double_complex).  The report's row j = 0 is exact
    and compared against the nerve cohomology of the function windows;
    row j = 1 dims are raw window artifacts and are flagged uncertified,
    with per-column inner-window surjectivity certificates alongside, one
    certification per distinct column.
    """
    require_prime(p)
    if r < 0:
        raise ValueError("depth must be nonnegative")
    du = compressed_degree(p, r, degree_bound)
    qu = max(1, dp_bound // p ** r)
    flags = []
    # p1 reports with the caps lifted, one process on a 2-vCPU guest: p = 2 (du, qu)
    # = (8, 4) 0.39 s, 32 MB; (32, 16) 0.71 s, 38 MB.  p = 7, r = 0, after the
    # unit-row peel: (16, 8) 0.20-0.26 s, 33 MB (0.02-0.03 s in-process);
    # (64, 32) 2.2-2.3 s, 136 MB, 1.8 s of it `_rref_stack`.  Before the peel:
    # (128, 64) 52 s, 815 MB; (256, 128) exit 4 after 1.8 GB.  The caps stay because
    # window-ladder's p1-cover reports and perfbench/digests.json pin them.
    if du > 8:
        du = 8
        flags.append("degree_window_capped")
    if qu > 4:
        qu = 4
        flags.append("dp_window_capped")
    if du < 2 * qu:
        qu = max(1, du // 2)
        flags.append("dp_window_adjusted")
    if du < 2 * qu:
        raise WindowError("degree window too small for the two-chart scenario")

    # per nerve cell, in column order: (label, commutator matrix, its source and
    # target windows, the monomial window of the surjectivity certificate).
    # U1's chart is U0's window in v = 1/u, with the same [v, -] matrix; the
    # edge columns' sources are U01's Laurent window
    alg_u = OperatorAlgebra(p, 1, names=("u",))
    alg_l = OperatorAlgebra(p, 1, names=("u",), laurent=True)
    m_u0 = TruncatedOperatorModule(alg_u, du, qu)
    m_u01 = TruncatedOperatorModule(alg_l, du, qu)
    m_edge1 = TruncatedOperatorModule(alg_l, du + qu + 2, qu)
    u_l = alg_l.variable()
    u_inv = alg_l.variable(0, power=-1)
    chart = (m_u0.commutator_matrix(alg_u.variable()), m_u0, m_u0, (0, du))
    cells = {
        ("U0",): ("U0", *chart),
        ("U1",): ("U1", *chart),
        ("U01",): ("U01", m_u01.commutator_matrix(u_l), m_u01, m_u01, (-du, du)),
        ("U01", "U0"): ("edge0", m_u01.commutator_matrix(u_l, target=m_edge1), m_u01,
                        m_edge1, (-du, du)),
        ("U01", "U1"): ("edge1", m_u01.commutator_matrix(u_inv, target=m_edge1), m_u01,
                        m_edge1, (-du + qu, du - 2)),
    }

    # image terms, one per column and pass t: inclusion and transport are the
    # identity; the chart change u = 1/v sends v^c Dv^(d) to the Lah expansion
    # of (-u^2 Du)^d / d!, sum_t (-1)^d C(d-1, d-t) u^(t+d-c) Du^(t); the
    # comparison sends x^a D^(b) to -u^-1 x^a D^(b) u^-1 = -sum_t (-1)^t x^(a-2-t) D^(b-t)
    c, d = m_u0.a[:, 0], m_u0.b[:, 0]
    chart_change = [((t + d - c)[:, None], np.full_like(m_u0.b, t),
                     (-1) ** d * binomial_array(d - 1, d - t, p)) for t in range(qu + 1)]
    comparison = [(m_u01.a - 2 - t, m_u01.b - t, np.where(m_u01.b[:, 0] >= t, -(-1) ** t, 0))
                  for t in range(qu + 1)]
    # faces[edge, k, row j]: each edge's faces are its vertex (transport or
    # chart change) and U01, by the inclusion; on row 1 the second edge's
    # U01 face is the comparison chain map (id, m -> -u^-1 m u^-1) instead
    faces = {}
    for j, target in enumerate([m_u01, m_edge1]):
        inclusion = m_u01.operator_matrix([(m_u01.a, m_u01.b, 1)], target)
        faces[("U01", "U0"), 0, j] = m_u0.operator_matrix([(m_u0.a, m_u0.b, 1)], target)
        faces[("U01", "U0"), 1, j] = inclusion
        faces[("U01", "U1"), 0, j] = m_u0.operator_matrix(chart_change, target)
        faces[("U01", "U1"), 1, j] = (m_u01.operator_matrix(comparison, target) if j
                                      else inclusion)
    nerve = projective_line_twist_diagram(p, 0, du)[0].nerve_betti()

    levels = [[s for s in cells if len(s) == n] for n in (1, 2)]
    double = face_double_complex(p, levels, 2, lambda s, j: cells[s][2 + j].dim,
                                 lambda s, j: cells[s][1], lambda s, k, j: faces[s, k, j])

    pages = double.spectral_sequence()
    e2 = pages[1]
    einf = pages[-1]
    ok, table = double.convergence_check()

    # U0 and U1 share one column, so each distinct column is certified once
    holds = {}
    surjectivity = []
    for label, mat, _, target, window in cells.values():
        key = (id(mat), id(target), window)
        if key not in holds:
            holds[key] = _surjective_onto_window(p, mat, target, *window, qu - 1)
        surjectivity.append({
            "column": label,
            "monomial_window": [int(a) for a in window],
            "dp_window": int(qu - 1),
            "surjective": bool(holds[key]),
        })

    columns = range(double.max_i + 1)
    grid = [(i, j) for i in columns for j in range(double.max_j + 1)]
    row0 = [e2.dim(i, 0) for i in columns]
    row1 = [e2.dim(i, 1) for i in columns]
    nerve_row = [nerve.get(i, 0) for i in columns]
    report = {
        "scenario": "p1",
        "prime": p,
        "depth": r,
        "window": {"degree": du, "dp": qu},
        "flags": flags,
        "e2": {f"{i},{j}": e2.dim(i, j) for i, j in grid},
        "e2_row0": row0,
        "nerve_row0": nerve_row,
        "row0_matches_nerve": row0 == nerve_row,
        "e2_row1": row1,
        "row1_status": "uncertified (truncation)",
        "column_surjectivity": surjectivity,
        "einf": {f"{i},{j}": einf.dim(i, j) for i, j in grid},
        "convergence": {
            "agree": bool(ok),
            "table": {str(m): [int(a), int(b)] for m, (a, b) in table.items()},
        },
    }
    return report, double
