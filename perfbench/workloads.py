"""Seeded input generators for the hhdx benchmark.

Every workload is a list of ``Case(argv, expect)``: the ``hhdx`` argument
vector (without ``--json``) and the exit code the CLI must return.  The
expected code is decided here from the seed and the input alone, by plain
arithmetic (composite moduli, cubic discriminants, window sizes), never by running
hhdx.  The same (workload, seed, size) always gives the same list.

Costs are kept level across seeds on purpose: each workload fixes how many
reports of each kind and size a pass holds and lets the seed draw the
parameters that barely move the cost (primes, coefficients, window offsets,
order).  That keeps run-to-run spread down to host noise.
"""

from __future__ import annotations

import random
from typing import NamedTuple

EXIT_OK, EXIT_INVALID, EXIT_WINDOW = 0, 3, 4


class Case(NamedTuple):
    argv: tuple
    expect: int


def cubic_discriminant(coeffs):
    """Discriminant of c0 + c1 x + c2 x^2 + c3 x^3 (integer, not reduced)."""
    d, c, b, a = coeffs
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def curve_expect(p, coeffs):
    """Exit code of the double-cover model y^2 = cubic over F_p.

    Refused (3) for p = 2, a vanishing leading coefficient, a singular cubic
    (discriminant 0 mod p, i.e. gcd(f, f') is not constant) and a cubic that
    vanishes at every point of F_p (no translate moves the chart off x = 0).
    """
    if p == 2 or coeffs[3] % p == 0 or cubic_discriminant(coeffs) % p == 0:
        return EXIT_INVALID
    if all((coeffs[0] + x * (coeffs[1] + x * (coeffs[2] + x * coeffs[3]))) % p == 0
           for x in range(p)):
        return EXIT_INVALID
    return EXIT_OK


def _csv(values):
    return ",".join(str(v) for v in values)


def _argv(scenario, **opts):
    out = ["--scenario", scenario]
    for key, value in opts.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return tuple(out)


# -- window-ladder -----------------------------------------------------------------


def window_ladder(rng, size):
    """The large windows: pd-derham line/plane Koszul windows on an ascending
    degree ladder, two a1-hh centralizer windows, then one two-chart p1-cover
    report per prime at the scenario's window cap.  The order is fixed, so
    each report meets the same heap."""
    # p = 2 is excluded from the ladder: its divided-power cap p^4 = 16
    # refuses every rung above 16
    primes = [3, 5, 7, 11, 13]
    rungs, a1_windows = ((4, 6), (8,)) if size == "tiny" else ((20, 30, 40, 50), (20, 20))
    cases = [Case(_argv("pd-derham", prime=rng.choice(primes),
                        degree_bound=n, dp_cap=n), EXIT_OK)
             for n in rungs]
    # a depth-2 window at p = 3 and a depth-1 window at p = 5; these two set the
    # middle of the latency distribution, so they do not vary with the seed
    for (p, r), w in zip([(3, 2 if size != "tiny" else 1), (5, 1)], a1_windows):
        cases.append(Case(_argv("a1-hh", prime=p, depth=r,
                                degree_bound=w, dp_cap=w), EXIT_OK))
    # p1-cover windows are p^r times the compressed caps (du = 8, qu = 4) plus
    # a seeded offset, so every report computes at the cap.  The work runs in
    # compressed coordinates: r and the offset change the report, not its cost.
    du, qu = (2, 1) if size == "tiny" else (8, 4)
    for p in (2,) if size == "tiny" else (2, 3, 5, 7):
        r = rng.choice([0, 1])
        q = p ** r
        # offsets stay below one step of q, or land above the cap (flagged)
        d = du * q + (rng.randrange(q) if size == "tiny" else rng.randrange(3 * q))
        c = qu * q + (rng.randrange(q) if size == "tiny" else rng.randrange(2 * q))
        cases.append(Case(_argv("p1-cover", prime=p, depth=r, degree_bound=d, dp_cap=c),
                          EXIT_OK))
    return cases


# -- report-stream -----------------------------------------------------------------


def _random_cubic(rng, p, want):
    """Four coefficients whose curve_expect at p equals want."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)]
        if curve_expect(p, coeffs) == want:
            return coeffs


def _elliptic(rng, p, refuse=False):
    if refuse:
        kind = rng.choice(["singular", "composite", "even"])
        if kind == "composite":
            q = rng.choice([9, 15, 21])
            return Case(_argv("elliptic", prime=q, curve="1,0,1,1"), EXIT_INVALID)
        if kind == "even":
            return Case(_argv("elliptic", prime=2, curve="1,0,1,1"), EXIT_INVALID)
        return Case(_argv("elliptic", prime=p,
                          curve=_csv(_random_cubic(rng, p, EXIT_INVALID))), EXIT_INVALID)
    return Case(_argv("elliptic", prime=p, curve=_csv(_random_cubic(rng, p, EXIT_OK))),
                EXIT_OK)


def _proper_hh(rng, p, n, refuse=False):
    rows = ";".join(_csv(rng.randrange(p) for _ in range(n)) for _ in range(n))
    if refuse:
        return Case(_argv("proper-hh", prime=rng.choice([4, 6, 10]), operator=rows),
                    EXIT_INVALID)
    return Case(_argv("proper-hh", prime=p, operator=rows), EXIT_OK)


def _smith_tower(rng, p, levels, refuse=False):
    q = p ** levels
    if refuse:
        return Case(_argv("smith-tower", prime=p, depth=levels,
                          degree_bound=rng.randrange(1, q)), EXIT_WINDOW)
    # the degree bound only gates the window check, so it does not move the cost
    return Case(_argv("smith-tower", prime=p, depth=levels,
                      degree_bound=rng.randrange(q, q + 24)), EXIT_OK)


def _gs_point(rng, p, algebra, refuse=False):
    if refuse:
        if rng.random() < 0.5:
            return Case(_argv("gs-point", prime=p, algebra="m3"), EXIT_INVALID)
        return Case(_argv("gs-point", prime=rng.choice([4, 8, 9]), algebra=algebra),
                    EXIT_INVALID)
    return Case(_argv("gs-point", prime=p, algebra=algebra), EXIT_OK)


def _cup_ring_map(rng, p, r, algebra, width=1, refuse=False):
    q = p ** r
    if refuse:
        if p == 2 or rng.random() < 0.5:
            # compressed window d // p^r is empty
            return Case(_argv("cup-ring-map", prime=p, depth=r + 1,
                              degree_bound=rng.randrange(1, p ** (r + 1)),
                              algebra=algebra), EXIT_WINDOW)
        return Case(_argv("cup-ring-map", prime=p, depth=r, degree_bound=q * 4,
                          algebra=algebra,
                          curve=_csv(_random_cubic(rng, p, EXIT_INVALID))), EXIT_INVALID)
    d = q * width
    curve = _random_cubic(rng, p, EXIT_OK) if p != 2 else [1, 0, 1, 1]
    return Case(_argv("cup-ring-map", prime=p, depth=r, degree_bound=d,
                      algebra=algebra, curve=_csv(curve)), EXIT_OK)


def _morita_matrix(rng, p, r, extra=0, custom=False, refuse=False):
    q = p ** r
    if refuse:
        if rng.random() < 0.5:
            # compression needs degree_bound >= 2 p^r
            return Case(_argv("morita-matrix", prime=p, depth=r,
                              degree_bound=rng.randrange(1, 2 * q)), EXIT_WINDOW)
        # a divided power D^(b) with b >= p^r is deeper than the twist
        return Case(_argv("morita-matrix", prime=p, depth=r, degree_bound=2 * q,
                          operator=f"1,{rng.randrange(q, q * p)},1"), EXIT_INVALID)
    d = 2 * q + extra % (2 * q + 1)
    if not custom:
        return Case(_argv("morita-matrix", prime=p, depth=r, degree_bound=d), EXIT_OK)
    terms = ";".join(f"{rng.randrange(4)},{rng.randrange(q)},{rng.randrange(1, p)}"
                     for _ in range(1 + extra % 3))
    return Case(_argv("morita-matrix", prime=p, depth=r, degree_bound=d,
                      operator=terms), EXIT_OK)


def report_stream(rng, size):
    """A closed-loop stream of small reports from six scenarios.  Each pass
    holds a fixed number of reports of each kind, and the parameters that set
    a report's cost (prime, depth, matrix size, algebra, window, number of
    operator terms) cycle through fixed lists, so the latency distribution
    is the same for every seed.  The seed draws the rest: coefficients,
    matrix entries, window offsets that only gate a check, and the order.
    A few expected refusals ride along."""
    algebras = ("m2", "kxk", "dual")
    cases = []
    for j in range(1 if size == "tiny" else 8):
        for p in (3, 5, 7, 11, 13):
            cases.append(_elliptic(rng, p))
        for i, p in enumerate((2, 3, 5, 7)):
            cases.append(_proper_hh(rng, p, 2 + (i + j) % 3))
            cases.append(_cup_ring_map(rng, p, j % 2, algebras[(i + j // 2) % 3],
                                       width=1 + (i + 3 * j) % 11))
        for i, algebra in enumerate(algebras):
            cases.append(_gs_point(rng, (2, 3, 5, 7)[(i + j) % 4], algebra))
        for p, r in ((2, 1), (2, 2), (3, 1), (5, 1)):
            cases.append(_morita_matrix(rng, p, r, extra=j, custom=(p + j) % 2 == 1))
        for p, levels in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
            if size != "tiny" or (p, levels) == (2, 1):
                cases.append(_smith_tower(rng, p, levels))
    refusals = [
        lambda: _elliptic(rng, rng.choice([3, 5, 7]), refuse=True),
        lambda: _proper_hh(rng, 2, rng.choice([2, 3, 4]), refuse=True),
        lambda: _smith_tower(rng, rng.choice([2, 3]), 2, refuse=True),
        lambda: _gs_point(rng, rng.choice([2, 3]), "m2", refuse=True),
        lambda: _cup_ring_map(rng, rng.choice([3, 5, 7]), rng.choice([0, 1]),
                              rng.choice(algebras), refuse=True),
        lambda: _morita_matrix(rng, 2, 2, refuse=True),
    ]
    for make in refusals if size != "tiny" else refusals[:2]:
        cases += [make() for _ in range(1 if size == "tiny" else 2)]
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "window-ladder": window_ladder,
    "report-stream": report_stream,
}
# The reference work (worker.CALIB_KINDS) each workload's times are divided
# by: work of the kinds its reports spend their time in, so that a host slow
# spell slows both alike.  window-ladder streams large matrices as well;
# report-stream's reports are small and mostly pure Python.
CALIBRATION = {
    "window-ladder": ("small", "large", "operators"),
    "report-stream": ("small", "operators"),
}
SIZES = ("full", "tiny")


def generate(workload, seed, size="full"):
    """The seeded case list of one workload pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{workload}/{seed}/{size}")
    return WORKLOADS[workload](rng, size)
