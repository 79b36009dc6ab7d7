"""Frobenius towers and their derived inverse limits.

A Tower is the constant inverse system M <- M <- ... <- M of levels + 1
copies of F_p^n joined by one square matrix F.  Its limit data is reported
twice, and the two readings are deliberately kept apart:

* raw: the kernel and cokernel of the resolution map
  Phi(x_0..x_R) = (x_r - F x_{r+1})_r on the displayed levels.  Phi is
  block upper-bidiagonal with identity diagonal blocks, so it is
  surjective and its kernel is {(F^R v, ..., F v, v)}: the raw lim is
  dim M and the raw lim^1 is 0, in closed form, with no elimination.  Both
  see only the window: the raw kernel of a tower of zero maps is all of M
  though the limit of the infinite system is 0.

* certified: statements about the infinite system.  The images
  I_k = im F^k decrease, and once I_(k+1) = I_k every later image equals
  I_k, so the first repeat is a proof.  The chain I_0 ⊇ I_1 ⊇ ... is built
  once, one product with F and one elimination per step, and stops at the
  first repeat; a repeat strictly before the top level certifies the limit
  im F^k.  The stable subsystem has surjective (indeed bijective)
  transitions, so lim^1 vanishes there (Mittag-Leffler).

Around the Tower core this module provides: the certified limit of a
constant Frobenius tower over dim + 1 levels against its Fitting
decomposition; the Hasse invariant of y^2 = cubic together with a
two-chart cross-check, in the |exponent| <= 3p function window, of the
Frobenius action on first cohomology and on its module structure;
consistency checks for the nested derivation ad(t + t^p + ... + t^(p^R))
against its depth truncations; and the filtered centralizer sequence of
divided-power windows on the line.  Each certificate is returned as a flag
that is false when it fails, for the report to name; only a constant tower
that does not certify at dim + 1 levels raises.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dpdo import DPDOperator, OperatorAlgebra, TruncatedOperatorModule
from .errors import CapacityError, WindowError
from .gfp import fitting_decomposition, require_prime
from .linalg import FpMatrix, Subspace, _unique, product
from .poly import PolyRing

# Largest dim F a tower accepts.  The image chain stops at its first repeat,
# after at most dim + 1 eliminations whatever the number of levels, so dim F
# sets the cost; the worst case is a nilpotent Jordan block, whose chain
# shrinks by one dimension per step.  A proper-hh report on the 256 x 256
# Jordan block takes 2.1 s, 1.6 s of it in the chain, on a 2-vCPU Xeon guest.
# The CLI reads the matrix from one `--operator` argument, which Linux caps at
# 128 KiB (MAX_ARG_STRLEN): a 256 x 256 matrix of one-digit entries fits, and
# of two-digit entries about 209 x 209.  So this cap is reached only in-process.
MAX_TOWER_DIM = 256


class Tower:
    """levels + 1 copies of F_p^n, each mapping to the next by one square F."""

    def __init__(self, p, matrix, levels):
        require_prime(p)
        self.p = p
        self.f = matrix if isinstance(matrix, FpMatrix) and matrix.p == p else FpMatrix(p, matrix)
        if self.f.rows != self.f.cols:
            raise ValueError("a tower needs a square transition")
        if self.f.rows > MAX_TOWER_DIM:
            raise CapacityError(f"tower of dimension {self.f.rows} exceeds "
                                f"the cap {MAX_TOWER_DIM}")
        self.top = int(levels)
        if self.top < 1:
            raise ValueError("a tower needs at least two levels")

    def image_chain(self):
        """im F^0 ⊋ im F^1 ⊋ ... ⊋ im F^k, ending at the first repeat
        (im F^(k+1) = im F^k) or at the top level k = levels."""
        n = self.f.rows
        chain = [Subspace.full(self.p, n)]
        transpose = self.f.transpose()
        while len(chain) <= self.top:
            image = Subspace(self.p, n, product(chain[-1].basis, transpose, self.p))
            if image.dim == chain[-1].dim:  # a subspace of equal dimension
                break
            chain.append(image)
        return chain

    def limit_report(self):
        """Raw limits in closed form plus the certified stable image.

        `image_dims` lists dim im F^k for k = 0..levels; the images past the
        first repeat all equal it, so they are read off without elimination.
        """
        chain = self.image_chain()
        stable = chain[-1]
        stabilized_at = len(chain) - 1
        certified = stabilized_at < self.top
        return {
            "raw": {"lim_dim": self.f.rows, "lim1_dim": 0},
            "image_dims": ([space.dim for space in chain]
                           + [stable.dim] * (self.top - stabilized_at)),
            "stabilized_at": stabilized_at,
            "stable_image": stable,
            "certified": certified,
            "certified_lim_dim": stable.dim if certified else None,
            "certified_lim1_dim": 0 if certified else None,
        }


# -- constant Frobenius towers -----------------------------------------------------


def proper_tower_report(p, matrix):
    """Certified limit of the constant tower of a (semi)linear map.

    Over the prime field the Frobenius twist is the identity on
    coordinates, so the map iterates exactly like its matrix.  The
    certified limit of M <- M <- ... is the semisimple Fitting part
    im(F^dim), on which F is bijective; the nilpotent part is what the
    limit forgets.  Both computations run independently over dim + 1
    levels, enough for a certified repeat; `agree` says whether the Fitting
    parts satisfy their laws and the two give the same subspace.
    """
    f = FpMatrix(p, matrix)
    n = f.rows
    levels = n + 1
    report = Tower(p, f, levels).limit_report()
    if not report["certified"]:
        raise AssertionError("constant tower failed to certify at dim+1 levels")
    _, semi, holds = fitting_decomposition(f)
    return {
        "dim": n,
        "levels": levels,
        "raw_lim_dim": report["raw"]["lim_dim"],
        "raw_lim1_dim": report["raw"]["lim1_dim"],
        "certified_lim_dim": report["certified_lim_dim"],
        "certified_lim1_dim": report["certified_lim1_dim"],
        "semisimple_dim": semi.dim,
        "nilpotent_dim": n - semi.dim,
        "agree": bool(holds and report["stable_image"] == semi),
    }


# -- the Hasse invariant and its two-chart cross-check -------------------------------


def _cubic(p, cubic):
    """sum_k cubic[k] x^k as a polynomial of F_p[x]."""
    return PolyRing(p, 1).from_terms({(k,): c for k, c in enumerate(cubic)})


def hasse_invariant(p, cubic):
    """Coefficient of x^(p-1) in f^((p-1)/2) for the curve y^2 = f(x).

    Requires an odd prime and a nonsingular cubic (nonzero discriminant
    mod p, i.e. gcd(f, f') constant).  Returns an integer in [0, p); the
    curve is ordinary exactly when it is nonzero.
    """
    require_prime(p)
    if p == 2:
        raise ValueError("the double cover model needs an odd prime")
    f = _cubic(p, cubic)
    if f.total_degree() != 3:
        raise ValueError("a cubic in x is required")
    d, c, b, a = (f.coefficient((k,)) for k in range(4))
    if (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d
            + 18 * a * b * c * d) % p == 0:
        raise ValueError("singular curve: gcd(f, f') is not constant")
    return (f ** ((p - 1) // 2)).coefficient((p - 1,))


def _h1_multiplier(poly, offset, w):
    """The class of y x^offset poly, for poly in F_p[x], as a multiple of
    class(y/x) in the window first cohomology of the two-chart cover.

    The window holds x^i and y x^i for |i| <= w.  The affine chart spans the
    nonnegative powers, the chart at infinity x^-j and y x^i with i <= -2;
    both are spans of basis vectors, so their sum leaves y/x alone and the
    class is the coefficient of x^(-1-offset) in poly.
    """
    for (j,) in poly.terms:
        if abs(j + offset) > w:
            raise WindowError(f"exponent {j + offset} falls outside the window")
    return poly.coefficient((-1 - offset,))


def _frobenius_window(p, cubic):
    """What both elliptic reports compute first, in the |exponent| <= 3p
    window (room for f^((p-1)/2) x^-p and for the module check's y x^(2p-1)).

    Validates the model (ValueError for even primes, non-cubics, singular
    curves, all through hasse_invariant, and for cubics vanishing at every
    point of the prime field: no usable translate), translates the cubic off
    x = 0 by the smallest c with f(c) != 0, and applies Frobenius to the
    generator y/x: (y x^-1)^p = y f^((p-1)/2) x^-p = lambda y/x in the
    window H^1.  lambda is the x^(p-1) coefficient of f(x + shift)^((p-1)/2),
    the Hasse coefficient of the translated curve, so comparing it with that
    of the given curve checks that translation keeps the invariant.

    Returns (cubic as four coefficients mod p, shift, hasse, window,
    f(x + shift)^((p-1)/2), lambda).
    """
    hasse = hasse_invariant(p, cubic)
    f = _cubic(p, cubic)
    shift = next((c for c in range(p) if f.evaluate((c,))), None)
    if shift is None:
        raise ValueError("no translate of the cubic avoids x = 0; "
                         "this window model does not apply")
    x_shift = f.ring.variable() + f.ring.constant(shift)
    fs = sum(((x_shift ** k).scale(c) for (k,), c in f.terms.items()), f.ring.zero())
    power = fs ** ((p - 1) // 2)
    w = 3 * p
    lam = _h1_multiplier(power, -p, w)
    return [int(c % p) for c in (list(cubic) + [0] * 4)[:4]], shift, hasse, w, power, lam


def elliptic_frobenius_report(p, cubic):
    """Frobenius on H^1 of y^2 = cubic through explicit function windows.

    The p-th power of the generator y/x of the window first cohomology
    is y f^((p-1)/2) x^-p; reduced modulo both charts it is a multiple
    of y/x, and the multiplier must equal the Hasse invariant.

    When f(0) = 0 the chart decomposition degenerates, so the
    computation shifts x by the smallest c with f(c) != 0 (translation
    does not change the invariant, and `agree` re-checks that); if no
    such c exists the model is rejected.
    """
    coeffs, shift, hasse, w, _, lam = _frobenius_window(p, cubic)
    tower_report = Tower(p, [[lam]], 3).limit_report()
    return {
        "prime": p,
        "cubic": coeffs,
        "shift": shift,
        "hasse": int(hasse),
        "cech_multiplier": int(lam),
        "agree": lam == hasse,
        "ordinary": lam != 0,
        "h1_proper_dim": tower_report["certified_lim_dim"],
        "window": w,
    }


def elliptic_frobenius_module_check(p, cubic):
    """Frobenius respects the module structure of H^1 over the functions.

    For xi = class(y/x) and the affine function x^k, the product class
    x^k . xi is represented by y x^(k-1) -- the generator itself at k = 0
    and a chart function (class zero) for k >= 1.  Applying Frobenius to
    the product gives y f^((p-1)/2) x^(pk-p), whose class must equal
    F(x^k) . F(xi) = x^(pk) . (lambda xi) = lambda . class(y x^(pk-1)).
    Both sides are read off the chart window independently, for k = 0, 1, 2.
    """
    coeffs, shift, hasse, w, power, lam = _frobenius_window(p, cubic)
    table = {}
    for k in (0, 1, 2):
        lhs = _h1_multiplier(power, p * k - p, w)
        rhs = _h1_multiplier(power.ring.constant(lam), p * k - 1, w)
        table[k] = {"lhs_multiplier": int(lhs), "rhs_multiplier": int(rhs),
                    "equal": lhs == rhs}
    return {
        "prime": p,
        "cubic": coeffs,
        "shift": shift,
        "hasse": int(hasse),
        "frobenius_multiplier": int(lam),
        "powers": table,
        "multiplicative": all(entry["equal"] for entry in table.values()),
    }


# -- nested derivation towers ---------------------------------------------------------


def smith_tower_check(p, levels, degree_bound):
    """Consistency checks for ad(f_R), f_R = t + t^p + ... + t^(p^R).

    (a) ad(f_R) satisfies the Leibniz rule on operator samples; (b) on
    operators whose divided-power exponents stay below p^(s+1) it agrees
    with the depth truncation ad(f_s) -- the deep tail is invisible at
    finite depth; (c) the successive increments t^(p^(s+1)) live in the
    depth-(s+1) twist subring; (d) ad(f_R) - ad(f_s) is the inner
    derivation of the explicit witness f_R - f_s.  Each check is reported as
    a flag that is false when it fails.  Whether the limit derivation is
    outer cannot be decided from finitely many levels, and the report says
    so instead of pretending.

    The arithmetic is two `DPDOperator.combination` passes, each check one
    signed sum of products per owner that holds when its owners have no
    terms: the first makes x y, ad(f_R)(m), (b) ad(f_R)(t) - ad(f_s)(t) and
    (d) ad(f_R)(m) - ad(f_s)(m) - ad(f_R - f_s)(m), the second (a)
    ad(f_R)(x y) - ad(f_R)(x) y - x ad(f_R)(y).  No product is refused: no
    divided power passes p^4 (products of two samples reach 2 p^2; f_R, f_s
    and the witnesses are multiplications), and once t^(p^R) exists
    (p^R < 2^16, so p^R <= 3^10) exponents stay below p^R + 5.
    """
    require_prime(p)
    levels = int(levels)
    if levels < 1:
        raise ValueError("need at least one level")
    # p^levels > degree_bound once levels >= degree_bound.bit_length() (p >= 2),
    # so a deep tower is refused before p^levels is formed
    if levels >= int(degree_bound).bit_length() or p ** levels > degree_bound:
        raise WindowError("p^levels exceeds the degree bound")
    alg = OperatorAlgebra(p, 1, names=("t",))
    ring = alg.ring
    sums = list(itertools.accumulate(ring.monomial((p ** r,)) for r in range(levels + 1)))
    # the samples t^a D^(b), a < 3, b in the list, then t
    samples = alg.monomials(np.repeat([0, 1, 2, 1], [6, 6, 6, 1]),
                            [*[1, 2, 3, 4, p, min(p * p, alg.dp_cap)] * 3, 0])
    tops = [min(p ** (s + 1), alg.dp_cap + 1) for s in range(levels)]
    # operators f_0..f_R, the witnesses f_R - f_s, the samples, then each
    # truncation's monomials t^a D^(b), a < 2, b < tops[s]
    ops = DPDOperator.concat([
        *(alg.multiplication(f) for f in sums),
        *(alg.multiplication(sums[-1] - f) for f in sums[:-1]),
        samples,
        alg.monomials(np.repeat(np.tile([0, 1], levels), np.repeat(tops, 2)),
                      np.concatenate([np.arange(top) for top in tops for _ in (0, 1)]))])
    f, w, k = levels, levels + 1, samples.count
    sample = 2 * levels + 1 + np.arange(k)
    tail = sample[-1] + 1 + np.arange(2 * sum(tops))
    tail_s = np.repeat(np.arange(levels), [2 * top for top in tops])
    at_s, at_m = np.repeat(np.arange(levels), k), np.tile(sample, levels)
    i, j = np.array(list(itertools.combinations(range(k), 2))).T

    def ad(g, m, sign, owner):  # the rows of sign [g, m] on owner
        return (g, m, sign, owner), (m, g, -sign, owner)

    # the first pass's owners: x y, ad(f_R)(m), then the sums of (b) and (d)
    xy, ads, tails, witnesses = np.split(np.arange(len(i) + k + len(tail) + levels * k),
                                         np.cumsum([len(i), k, len(tail)]))
    first = ops.combination([
        (sample[i], sample[j], 1, xy), *ad(f, sample, 1, ads),
        *ad(f, tail, 1, tails), *ad(tail_s, tail, -1, tails), *ad(f, at_m, 1, witnesses),
        *ad(at_s, at_m, -1, witnesses), *ad(w + at_s, at_m, -1, witnesses)], witnesses[-1] + 1)
    at_xy, at_ad = ops.count + xy, ops.count + ads  # the first pass's results follow ops
    second = DPDOperator.concat([ops, first]).combination([
        *ad(f, at_xy, 1, xy), (at_ad[i], sample[j], -1, xy), (sample[i], at_ad[j], -1, xy)],
        len(i))
    owner = first.terms[0]
    derivation_ok = not second.terms.size
    tail_invisible = not ((owner >= tails[0]) & (owner < witnesses[0])).any()
    witness_ok = not (owner >= witnesses[0]).any()
    increments_ok = all(ring.monomial((p ** (s + 1),)).in_twist_subring(s + 1)
                        for s in range(0, levels))

    return {
        "prime": p,
        "levels": levels,
        "derivation_ok": bool(derivation_ok),
        "tail_invisible": bool(tail_invisible),
        "increments_in_twist_subring": bool(increments_ok),
        "witness_ok": bool(witness_ok),
        "outer_certified": False,
        "note": "outerness of the limit derivation is not decidable from "
                "finitely many displayed levels; the checks above certify "
                "the tower structure only",
    }


# -- filtered centralizer sequence on the line ------------------------------------------


def lucas_centralizers(p, levels, degree_bound, dp_bound):
    """Joint commutants, inside the window [0, degree_bound] x [0, dp_bound]
    of the operators on the line, of t and the divided powers D^(q): with
    q < p^r at each depth r <= levels, and with q <= dp_bound for the full
    commutant.

    By Lucas' theorem D^(q) = prod_k (D^(p^k))^(q_k) / q_k! for the base-p
    digits q_k < p of q, and each q_k! is a unit mod p, so an operator that
    commutes with every D^(p^k) with p^k <= q commutes with D^(q).  The
    commutant against D^(q), q < p^r, is therefore the joint kernel of
    [t, -] and the [D^(p^k), -] with k < r, and the full one that of [t, -]
    and the [D^(p^k), -] with p^k <= dp_bound.  The kernels are nested: with
    K the RREF basis of one commutant and G the next generator's commutator
    matrix, built (into a codomain enlarged by p^k, so it is exact) on K's
    support columns only, the next commutant is ker(G K^T) K.  That product
    is already in RREF, since at K's pivots it equals ker(G K^T).

    Returns (module, [depth-0 .. depth-levels spaces], full space), each
    space a Subspace of the module's coordinates.
    """
    alg = OperatorAlgebra(p, 1, names=("t",))
    dom = TruncatedOperatorModule(alg, degree_bound, dp_bound)
    window_digits = next(k for k in itertools.count() if p ** k > dp_bound)
    spaces = [Subspace._from_rref(p, dom.dim, dom.commutator_matrix(alg.variable()).kernel_basis())]
    for q in (p ** k for k in range(max(levels, window_digits))):
        basis = spaces[-1].basis
        keep = _unique(basis.col)
        # the enlarged codomain only locates terms, so its exponent arrays are
        # never read, never built and never capped by `MAX_WINDOW_RANK`.  From
        # filtered_hh_sequence, which requires p^levels - 1 <= dp_bound, every
        # q is at most dp_bound, so its rank stays under twice the capped
        # domain's
        target = TruncatedOperatorModule(alg, degree_bound, dp_bound + q)
        g = dom.commutator_matrix(alg.divided_power(0, q), target=target, cols=keep)
        inner = product(g, basis.take(slice(None), keep).transpose(), p).kernel_basis()
        spaces.append(Subspace._from_rref(p, dom.dim, product(inner, basis, p)))
    return dom, spaces[:levels + 1], spaces[window_digits]


def filtered_hh_sequence(p, levels, degree_bound, dp_bound):
    """Centralizer windows of the depth filtration on the line.

    For each depth r <= levels, the joint commutant of multiplication by
    t and the divided powers D^(q) with q < p^r is computed inside the
    window [0, degree_bound] x [0, dp_bound] with enlarged codomains (so
    every commutator matrix is exact).  `h0_models` lists the t-exponents
    of each computed basis, and `nesting_frobenius` says whether the spaces
    are nested and each is the Frobenius-nested window k[t^(p^r)] cap
    window -- exactly, basis by basis.  By Lucas' theorem the D^(p^k) with
    k < r generate the same commutant as all D^(q) with q < p^r, so only
    their kernels are taken, each inside the previous depth's
    (`lucas_centralizers`).  `h0_full` lists every
    positive degree in the full commutant, for the report to check that
    none lies inside the certified dp window.

    The graded pieces in each polynomial degree then form towers, read off
    one 0/1 table dims[r, d] of the computed centralizers (t^d at depth r).
    Their certificates are arithmetic, not repeat-counting: a graded piece
    of degree d >= 1 vanishes at depth r exactly when p^r does not divide
    d, and once it vanishes it stays zero at all deeper levels, so the
    limit is certified 0 as soon as a vanishing depth at most levels-1 is
    displayed (the top level confirms it).  Degrees divisible by
    p^(levels-1) show no such depth and are reported as uncertified
    window survivors instead of being silently trusted.  Degree 0 is the
    constants line, certified by its constant-rule tower.  The m = 1 side
    applies the mirrored rule to the quotient table 1 - dims of the windows
    k[t]/k[t^(p^r)] and checks degreewise exactness of
    0 -> k -> k[t] -> lim Q -> 0 at the degrees certified on both sides.
    """
    require_prime(p)
    levels = int(levels)
    if levels < 1:
        raise ValueError("need at least one level")
    if p ** levels - 1 > dp_bound:
        raise WindowError("divided-power window too small for the deepest level")
    if p ** levels > degree_bound:
        raise WindowError("degree window too small for the deepest level")
    d_bound = int(degree_bound)
    q_bound = int(dp_bound)
    dom, depth_spaces, full_space = lucas_centralizers(p, levels, d_bound, q_bound)

    models = {}
    twist_ok = True
    dims = np.zeros((levels + 1, d_bound + 1), dtype=np.int64)
    for r, space in enumerate(depth_spaces):
        exponents = sorted(dom.a[space.basis.col, 0].tolist())
        twist_ok = (twist_ok and not dom.b[space.basis.col].any() and space.dim == len(exponents)
                    and exponents == list(range(0, d_bound + 1, p ** r)))
        models[r] = {"dim": space.dim, "exponents": exponents}
        dims[r, dom.a[space.basis.col, 0]] = 1

    nesting_ok = all(depth_spaces[r].contains_space(depth_spaces[r + 1])
                     for r in range(0, levels))

    # the commutant against every divided power the window offers
    survivors = _unique(dom.a[full_space.basis.col, 0]).tolist()
    h0_full = {
        "dim": full_space.dim,
        "certified_window": q_bound,
        "survivors_above_window": [a for a in survivors if a > 0],
    }

    degrees = np.arange(1, d_bound + 1)
    certified = (dims[:levels, 1:] == 0).any(axis=0)
    quotient = 1 - dims
    quotient_certified = (quotient[:levels, 1:] == 1).any(axis=0)

    # 0 -> k -> k[t] -> lim Q -> 0 in degree d: lim Z_d = k in degree 0 only
    # and lim Q_d = k[t]_d / lim Z_d.  lim Z_d and lim Q_d are the top depth's
    # pieces, but lim Z_0 is the constants tower's certified limit.
    both = degrees[certified & quotient_certified]
    lim_z, lim_q = dims[levels], quotient[levels]
    lim_z0 = Tower(p, [[1]], levels).limit_report()["certified_lim_dim"]
    exact_ok = bool(lim_z0 == 1 and lim_q[0] == 0
                    and (lim_z[both] == 0).all() and (lim_q[both] == 1).all())

    return {
        "scenario": "a1",
        "prime": p,
        "levels": levels,
        "window": {"degree": d_bound, "dp": q_bound},
        "h0_models": models,
        "nesting_frobenius": bool(nesting_ok and twist_ok),
        "h0_full": h0_full,
        "certified_degrees": degrees[certified].tolist(),
        "uncertified_degrees": degrees[~certified].tolist(),
        "quotient_certified_degrees": degrees[quotient_certified].tolist(),
        "m1_exact_at_certified_degrees": exact_ok,
        "m1_checked_degrees": [0] + both.tolist(),
    }
