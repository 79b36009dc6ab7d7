"""Inverse-system towers, Frobenius splitting, Hasse invariants, filtered windows."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_centralizer,
    oracle_chart_class,
    oracle_filtered_degrees,
    oracle_limit_report,
    oracle_lucas_centralizers,
    oracle_smith_tower_check,
)
from hhdx import dpdo
from hhdx.errors import CapacityError, WindowError
from hhdx.gfp import fitting_decomposition
from hhdx.linalg import FpMatrix
from hhdx.poly import PolyRing
from hhdx.tower import (
    MAX_TOWER_DIM,
    Tower,
    _h1_multiplier,
    elliptic_frobenius_report,
    filtered_hh_sequence,
    hasse_invariant,
    lucas_centralizers,
    proper_tower_report,
    smith_tower_check,
)

# -- Tower core ----------------------------------------------------------------------


def test_zero_tower_raw_vs_certified():
    """A window of zero maps: the raw kernel sees the top level, the
    certified reading sees the actual limit 0."""
    zeros = np.zeros((2, 2), dtype=np.int64)
    report = Tower(2, zeros, 3).limit_report()
    assert report["raw"]["lim_dim"] == 2
    assert report["raw"]["lim1_dim"] == 0
    assert report["certified"] and report["certified_lim_dim"] == 0
    assert report["certified_lim1_dim"] == 0


def test_identity_tower_certifies_full_space():
    report = Tower(3, np.eye(2, dtype=np.int64), 3).limit_report()
    assert report["certified"] and report["certified_lim_dim"] == 2
    assert report["stabilized_at"] == 0 and report["image_dims"] == [2, 2, 2, 2]


def test_top_level_never_certifies_itself():
    """The nilpotent 2 x 2 block reaches its limit 0 at level 2: a window of
    two levels shows no repeat, three levels confirm it."""
    nilpotent = [[0, 1], [0, 0]]
    report = Tower(2, nilpotent, 2).limit_report()
    assert report["image_dims"] == [2, 1, 0] and report["stabilized_at"] == 2
    assert not report["certified"] and report["certified_lim_dim"] is None
    report = Tower(2, nilpotent, 3).limit_report()
    assert report["certified"] and report["certified_lim_dim"] == 0


def test_image_chain_stops_at_first_repeat():
    """The chain never runs past dim + 1 images, however many levels."""
    assert len(Tower(2, np.eye(3, dtype=np.int64), 60).image_chain()) == 1
    jordan = np.eye(4, k=1, dtype=np.int64)
    assert [s.dim for s in Tower(3, jordan, 60).image_chain()] == [4, 3, 2, 1, 0]


def test_tower_validation():
    with pytest.raises(ValueError):
        Tower(2, [[1]], 0)
    with pytest.raises(ValueError):
        Tower(2, np.zeros((2, 3), dtype=np.int64), 2)
    with pytest.raises(ValueError):
        Tower(4, [[1]], 2)
    with pytest.raises(CapacityError):
        Tower(2, np.zeros((MAX_TOWER_DIM + 1,) * 2, dtype=np.int64), 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tower_internal_identities_hold_on_random_towers(data):
    """The general-dims oracle re-derives the Euler identity and the
    kernel/stable-image match internally; on top, its resolution has full
    row rank (raw lim^1 = 0, raw lim = dim M_R), the closed form the Tower
    reports.  Dimensions may hit zero."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    dims = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                              min_size=2, max_size=5))
    transitions = []
    for r in range(len(dims) - 1):
        entries = data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                                     min_size=dims[r] * dims[r + 1],
                                     max_size=dims[r] * dims[r + 1]))
        transitions.append(np.array(entries, dtype=np.int64).reshape(dims[r], dims[r + 1]))
    report = oracle_limit_report(p, dims, transitions)
    assert report["raw"] == {"lim_dim": dims[-1], "lim1_dim": 0, "euler": dims[-1]}
    # image dims never increase along the window
    for level in report["levels"]:
        seq = level["image_dims"]
        assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tower_matches_oracle_on_random_square_maps(data):
    """The image chain with closed-form raw limits against the resolution
    and composite eliminations of the general oracle."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(min_value=0, max_value=5))
    levels = data.draw(st.integers(min_value=1, max_value=6))
    entries = data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                                 min_size=n * n, max_size=n * n))
    f = np.array(entries, dtype=np.int64).reshape(n, n)
    got = Tower(p, f, levels).limit_report()
    want = oracle_limit_report(p, [n] * (levels + 1), [f] * levels)
    assert got["raw"] == {k: want["raw"][k] for k in ("lim_dim", "lim1_dim")}
    assert got["image_dims"] == want["levels"][0]["image_dims"]
    assert got["stabilized_at"] == want["levels"][0]["stabilized_at"]
    assert got["certified"] == want["certified"]
    assert got["certified_lim_dim"] == want["certified_lim_dim"]
    assert got["certified_lim1_dim"] == want["certified_lim1_dim"]
    assert got["stable_image"] == want["stable_image"]


# -- constant Frobenius towers ---------------------------------------------------------


def test_proper_tower_nilpotent_block():
    report = proper_tower_report(2, [[0, 1], [0, 0]])
    assert report["certified_lim_dim"] == 0
    assert report["nilpotent_dim"] == 2
    assert report["raw_lim_dim"] == 2  # the window artifact, reported alongside


def test_proper_tower_mixed_block():
    report = proper_tower_report(2, [[1, 1], [0, 0]])
    assert report["certified_lim_dim"] == 1
    assert report["semisimple_dim"] == 1 and report["nilpotent_dim"] == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_proper_tower_matches_fitting_on_random_maps(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                                 min_size=n * n, max_size=n * n))
    matrix = np.array(entries, dtype=np.int64).reshape(n, n)
    report = proper_tower_report(p, matrix)
    assert report["agree"]
    _, semi, holds = fitting_decomposition(FpMatrix(p, matrix))
    assert holds
    assert report["certified_lim_dim"] == semi.dim
    assert report["semisimple_dim"] + report["nilpotent_dim"] == n


# -- Hasse invariants -----------------------------------------------------------------


def test_hasse_frozen_values():
    assert hasse_invariant(3, [0, 1, 0, 1]) == 0        # y^2 = x^3 + x
    assert hasse_invariant(3, [1, 0, 1, 1]) == 1        # y^2 = x^3 + x^2 + 1
    assert hasse_invariant(5, [1, 0, 0, 1]) == 0        # y^2 = x^3 + 1
    assert hasse_invariant(7, [0, 1, 0, 1]) == 0        # y^2 = x^3 + x


def test_hasse_oracle_direct_expansion():
    """Independent re-derivation: expand f^((p-1)/2) with plain integers
    and reduce, for one ordinary and one supersingular curve per prime."""
    for p, cubic in [(3, [1, 0, 1, 1]), (5, [1, 1, 0, 1]), (7, [1, 2, 0, 1])]:
        coeffs = [1]
        for _ in range((p - 1) // 2):
            nxt = [0] * (len(coeffs) + 3)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(cubic):
                    nxt[i + j] += a * b
            coeffs = nxt
        assert hasse_invariant(p, cubic) == coeffs[p - 1] % p


def test_hasse_rejects_singular_and_even():
    with pytest.raises(ValueError):
        hasse_invariant(3, [0, 0, 0, 1])                # y^2 = x^3, cusp
    with pytest.raises(ValueError):
        hasse_invariant(5, [0, 0, 1, 1])                # y^2 = x^2(x+1), node
    with pytest.raises(ValueError):
        hasse_invariant(2, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        hasse_invariant(5, [1, 1, 0, 0])                # not a cubic


def test_hasse_every_cubic_against_repeated_roots_and_direct_expansion():
    """Every cubic with a nonzero leading coefficient at p = 3, 5, 7.

    A repeated root of a cubic over F_p is always rational (a conjugate
    pair would bring a second repeated root, and the degree is 3), so the
    curve is singular exactly when some r in F_p has f(r) = f'(r) = 0.
    """
    checked = singular_count = 0
    for p in (3, 5, 7):
        for c0, c1, c2, c3 in itertools.product(range(p), range(p), range(p), range(1, p)):
            cubic = [c0, c1, c2, c3]
            singular = any((c0 + c1 * r + c2 * r * r + c3 * r ** 3) % p == 0
                           and (c1 + 2 * c2 * r + 3 * c3 * r * r) % p == 0
                           for r in range(p))
            if singular:
                with pytest.raises(ValueError, match="singular curve"):
                    hasse_invariant(p, cubic)
                singular_count += 1
            else:
                coeffs = [1]
                for _ in range((p - 1) // 2):
                    coeffs = [sum(coeffs[i] * cubic[k - i] for i in range(len(coeffs))
                                  if 0 <= k - i <= 3)
                              for k in range(len(coeffs) + 3)]
                assert hasse_invariant(p, cubic) == coeffs[p - 1] % p
            checked += 1
    # c3 * (one of the p^2 monic cubics with zero discriminant) for each c3
    assert checked == 2612 and singular_count == 2 * 9 + 4 * 25 + 6 * 49


# -- the two-chart Frobenius cross-check -------------------------------------------------


def test_elliptic_report_frozen_curves():
    r = elliptic_frobenius_report(3, [0, 1, 0, 1])
    assert r["shift"] == 1                              # f(0) = 0 forces a translate
    assert r["hasse"] == 0 and r["cech_multiplier"] == 0
    assert r["agree"] and not r["ordinary"] and r["h1_proper_dim"] == 0

    r = elliptic_frobenius_report(3, [1, 0, 1, 1])
    assert r["shift"] == 0
    assert r["hasse"] == 1 and r["cech_multiplier"] == 1
    assert r["agree"] and r["ordinary"] and r["h1_proper_dim"] == 1

    r = elliptic_frobenius_report(5, [1, 0, 0, 1])
    assert r["agree"] and not r["ordinary"] and r["h1_proper_dim"] == 0

    r = elliptic_frobenius_report(7, [0, 1, 0, 1])
    assert r["agree"] and not r["ordinary"] and r["h1_proper_dim"] == 0


def _nonsingular_cubics(p):
    """All monic cubics over F_p with gcd(f, f') constant."""
    out = []
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(p):
                cubic = [c0, c1, c2, 1]
                try:
                    hasse_invariant(p, cubic)
                except ValueError:
                    continue
                out.append(cubic)
    return out


def test_elliptic_report_sweep_p3():
    """Every monic nonsingular cubic over F_3 that admits a shifted chart."""
    seen_ordinary = seen_supersingular = 0
    tested = 0
    for cubic in _nonsingular_cubics(3):
        try:
            r = elliptic_frobenius_report(3, cubic)
        except ValueError:
            continue                                    # no translate avoids x = 0
        assert r["agree"], cubic
        assert r["h1_proper_dim"] == (1 if r["ordinary"] else 0)
        tested += 1
        if r["ordinary"]:
            seen_ordinary += 1
        else:
            seen_supersingular += 1
    assert tested >= 5
    assert seen_ordinary and seen_supersingular


def test_elliptic_report_samples_p5_p7():
    for p, cubics in [
        (5, [[1, 0, 0, 1], [1, 1, 0, 1], [2, 1, 0, 1], [1, 0, 1, 1], [1, 2, 0, 1], [4, 4, 0, 1]]),
        (7, [[1, 1, 0, 1], [2, 0, 1, 1], [1, 3, 0, 1], [5, 0, 0, 1], [1, 0, 2, 1], [3, 3, 3, 1]]),
    ]:
        for cubic in cubics:
            r = elliptic_frobenius_report(p, cubic)
            assert r["agree"], (p, cubic)
            assert r["h1_proper_dim"] == (1 if r["ordinary"] else 0)


def test_elliptic_module_multiplicativity():
    from hhdx.tower import elliptic_frobenius_module_check

    for p, cubic in [(3, [1, 0, 1, 1]), (3, [0, 1, 0, 1]), (5, [1, 1, 0, 1]),
                     (7, [1, 1, 0, 1]), (7, [2, 0, 1, 1])]:
        r = elliptic_frobenius_module_check(p, cubic)
        assert r["multiplicative"], (p, cubic)
        # k = 0 reproduces the Frobenius multiplier; k >= 1 lands on chart
        # functions, so both sides must independently reduce to zero
        assert r["powers"][0]["lhs_multiplier"] == r["frobenius_multiplier"]
        for k in (1, 2):
            assert r["powers"][k]["lhs_multiplier"] == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chart_multiplier_matches_the_chart_quotient(p):
    rng = np.random.default_rng(p)
    w = 3 * p
    ring = PolyRing(p, 1)
    for offset in range(-w, w + 1):
        top = w - offset  # poly's exponents j keep |j + offset| <= w
        low = max(0, -w - offset)
        for _ in range(3):
            coeffs = rng.integers(0, p, top - low + 1)
            poly = ring.from_terms({(low + j,): int(c) for j, c in enumerate(coeffs)})
            assert _h1_multiplier(poly, offset, w) == oracle_chart_class(poly, offset, p, w)
    with pytest.raises(WindowError, match="exponent 10 falls outside the window"):
        _h1_multiplier(ring.monomial((3,)), 7, 9)


def test_elliptic_unshiftable_curve_is_rejected():
    # x^3 - x vanishes on all of F_3, so no chart translate exists
    with pytest.raises(ValueError):
        elliptic_frobenius_report(3, [0, -1, 0, 1])


# -- nested derivation towers -------------------------------------------------------------


def test_smith_tower_checks():
    for p, levels, bound in [(2, 3, 16), (3, 2, 12)]:
        report = smith_tower_check(p, levels, bound)
        assert report["derivation_ok"]
        assert report["tail_invisible"]
        assert report["increments_in_twist_subring"]
        assert report["witness_ok"]
        assert report["outer_certified"] is False
        assert "not decidable" in report["note"]


@pytest.mark.parametrize("p,levels", itertools.product([2, 3, 5, 7], [1, 2, 3]))
def test_smith_tower_flags_match_the_operator_by_operator_check(p, levels):
    report = smith_tower_check(p, levels, p ** levels)
    flags = ("derivation_ok", "tail_invisible", "increments_in_twist_subring", "witness_ok")
    assert tuple(report[flag] for flag in flags) == oracle_smith_tower_check(p, levels)


# At p = 2 and two levels the first pass's rows are, in order, 171 sample
# pairs x y, 19 f m and 19 m f, then 12 each of f t, t f, f_s t and t f_s on
# the truncations' monomials, then 38 each of f m, m f, f_s m, m f_s, w m and
# m w on the samples; the second pass's start with the 171 f (x y).  Each
# product dropped is nonzero: f (x_0 y_0), f t^0 D^(0) and f_0 m_0.
@pytest.mark.parametrize("flag,kernel_pass,row", [
    ("derivation_ok", 2, 0),
    ("tail_invisible", 1, 171 + 38),
    ("witness_ok", 1, 171 + 38 + 48 + 76),
])
def test_each_smith_tower_check_fails_when_one_product_is_perturbed(
        flag, kernel_pass, row, monkeypatch):
    """Dropping one product from one check's sum (its row's sign set to 0)
    turns that check's flag false and leaves the others true."""
    kernel = dpdo.DPDOperator.combination
    passes = []

    def perturbed(table, blocks, count):
        passes.append(count)
        if len(passes) == kernel_pass:
            l, r, s, o = (np.concatenate(rows) for rows in zip(
                *(np.broadcast_arrays(*block) for block in blocks)))
            s = s.copy()
            s[row] = 0
            blocks = [(l, r, s, o)]
        return kernel(table, blocks, count)

    monkeypatch.setattr(dpdo.DPDOperator, "combination", perturbed)
    report = smith_tower_check(2, 2, 4)
    assert len(passes) == 2
    for name in ("derivation_ok", "tail_invisible", "increments_in_twist_subring", "witness_ok"):
        assert report[name] is (name != flag)


def test_smith_tower_guards():
    with pytest.raises(ValueError):
        smith_tower_check(2, 0, 16)
    with pytest.raises(WindowError):
        smith_tower_check(2, 5, 16)


# -- filtered centralizer sequence -----------------------------------------------------------


def test_filtered_sequence_depth_chain_p2():
    report = filtered_hh_sequence(2, 3, 16, 8)
    assert {r: m["dim"] for r, m in report["h0_models"].items()} == {0: 17, 1: 9, 2: 5, 3: 3}
    assert report["h0_models"][1]["exponents"] == list(range(0, 17, 2))
    assert report["h0_models"][3]["exponents"] == [0, 8, 16]
    assert report["nesting_frobenius"]


def test_filtered_sequence_survivors_p2():
    report = filtered_hh_sequence(2, 3, 16, 8)
    assert report["h0_full"] == {
        "dim": 2, "certified_window": 8, "survivors_above_window": [16]}


def test_filtered_sequence_uncertified_degrees_p2():
    report = filtered_hh_sequence(2, 3, 16, 8)
    assert report["uncertified_degrees"] == [4, 8, 12, 16]
    assert report["certified_degrees"] == [
        d for d in range(1, 17) if d % 4 != 0]


def test_filtered_sequence_exactness_p2():
    report = filtered_hh_sequence(2, 3, 16, 8)
    assert report["m1_exact_at_certified_degrees"]
    assert report["quotient_certified_degrees"] == report["certified_degrees"]
    assert report["m1_checked_degrees"] == [0] + report["certified_degrees"]


def test_filtered_sequence_p3():
    report = filtered_hh_sequence(3, 2, 9, 8)
    assert {r: m["dim"] for r, m in report["h0_models"].items()} == {0: 10, 1: 4, 2: 2}
    assert report["uncertified_degrees"] == [3, 6, 9]
    assert report["h0_full"]["survivors_above_window"] == [9]
    assert report["m1_exact_at_certified_degrees"]


@pytest.mark.parametrize("p,levels", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
@pytest.mark.parametrize("extra_degree", [0, 7])
@pytest.mark.parametrize("extra_dp", [-1, 2])
def test_filtered_sequence_matches_the_per_degree_rules(p, levels, extra_degree, extra_dp):
    degree, dp = p ** levels + extra_degree, p ** levels + extra_dp
    want = oracle_filtered_degrees(p, levels, degree)
    report = filtered_hh_sequence(p, levels, degree, dp)
    assert {key: report[key] for key in want} == want


def test_filtered_sequence_exactness_reads_the_constants_tower(monkeypatch):
    limit_report = Tower.limit_report

    def uncertified(tower):
        return {**limit_report(tower), "certified": False,
                "certified_lim_dim": None, "certified_lim1_dim": None}

    monkeypatch.setattr(Tower, "limit_report", uncertified)
    report = filtered_hh_sequence(2, 3, 16, 8)
    assert report["m1_exact_at_certified_degrees"] is False
    assert report["m1_checked_degrees"] == [0] + report["certified_degrees"]


def test_filtered_sequence_guards():
    with pytest.raises(WindowError):
        filtered_hh_sequence(2, 3, 16, 6)   # dp window below p^R - 1
    with pytest.raises(WindowError):
        filtered_hh_sequence(2, 3, 7, 8)    # degree window below p^R
    with pytest.raises(ValueError):
        filtered_hh_sequence(2, 0, 16, 8)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), depth=st.integers(1, 3),
       degree=st.integers(0, 8), dp=st.integers(0, 8))
def test_lucas_generators_match_the_full_divided_power_stack(p, depth, degree, dp):
    """The D^(p^k) alone cut out the same commutant, row for row, as every
    D^(q): at each depth r (q < p^r) and for the whole dp window."""
    _, depth_spaces, full = lucas_centralizers(p, depth, degree, dp)
    assert len(depth_spaces) == depth + 1
    for r, space in enumerate(depth_spaces):
        want = oracle_centralizer(p, degree, dp, p ** r - 1)
        assert space.basis == want.basis, r
    assert full.basis == oracle_centralizer(p, degree, dp, dp).basis


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), levels=st.integers(1, 3), data=st.data())
def test_nested_centralizers_match_the_stacked_kernels(p, levels, data):
    """Every depth's commutant and the full one, each a kernel taken on the
    previous depth's basis, equal the kernels of the stacked commutators,
    on windows either side of p^levels and of the divided-power cap p^4.
    They refuse only where the stacked kernels refuse too; where only those
    refuse, they match the stacked kernels with the cap lifted."""
    edge, cap = p ** levels, p ** 4
    degree = data.draw(st.sampled_from([edge - 1, edge, edge + 1]) | st.integers(0, 6))
    dp = data.draw(st.sampled_from([edge - 2, edge - 1, edge, cap - 1, cap, cap + 1])
                   | st.integers(0, 8))
    assume(dp >= 0 and (degree + 1) * (dp + 1) <= 30_000)
    try:
        _, depths, full = lucas_centralizers(p, levels, degree, dp)
    except CapacityError:
        with pytest.raises(CapacityError):
            oracle_lucas_centralizers(p, levels, degree, dp)
        return
    _, want_depths, want_full = oracle_lucas_centralizers(p, levels, degree, dp, dp_cap=10 ** 9)
    assert len(depths) == levels + 1
    assert [space.basis for space in depths] == [space.basis for space in want_depths]
    assert full.basis == want_full.basis
