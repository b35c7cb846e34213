"""Monte Carlo estimates against the exact measures that they estimate, on
most of a fixed list of seeds: the Wilson interval of
``rio_truncated_measure`` covers mu(U_{n=k}^N E_n), the union of the exact
sets of branch composition; each per-n interval of
``recurrence_measure_scan`` covers mu(E_n); and ``ear_truncated_measure``'s
interval covers the exact eventually-always measure of ``ear_exact``."""

import math

import pytest

from recurlab.circle import IntervalSet
from recurlab.cli import parse_sequence, parse_system
from recurlab.exact_sets import build_recurrence_set_piecewise
from recurlab.experiments import (
    ear_exact, ear_truncated_measure, recurrence_measure_scan, rio_truncated_measure,
    wilson_interval,
)

PIECEWISE = "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"  # the benchmark's map
K, N, M, SEQ = 2, 8, 200, "powerlaw:1/4,1"
SEEDS = range(1, 61)
# The hits of one seed are Binomial(M, mu), so its interval covers mu with
# a probability c that the binomial law gives exactly; c >= COVERAGE on each
# system here (the test checks it first). The number of covering seeds is
# then at least Binomial(60, COVERAGE), and P(Binomial(60, 0.94) < 45) =
# 3.3e-7: a correct program fails one of the three systems with a chance
# below 1e-6.
COVERAGE, FLOOR = 0.94, 45


def binomial_below(trials: int, p: float, t: int) -> float:
    """P(Binomial(trials, p) < t)."""
    return sum(math.comb(trials, j) * p ** j * (1 - p) ** (trials - j) for j in range(t))


def interval_coverage(mu: float, trials: int) -> float:
    """The exact probability that the Wilson interval of Binomial(trials, mu)
    hits covers mu."""
    return sum(math.comb(trials, h) * mu ** h * (1 - mu) ** (trials - h)
               for h in range(trials + 1)
               if wilson_interval(h, trials)[0] <= mu <= wilson_interval(h, trials)[1])


def test_the_stated_bound_holds():
    assert binomial_below(len(SEEDS), COVERAGE, FLOOR) <= 1e-6 / 3


@pytest.mark.parametrize("spec", ("circle:3", PIECEWISE, "beta:5/2"))
def test_rio_intervals_cover_the_exact_union_measure(spec):
    sys, seq = parse_system(spec), parse_sequence(SEQ)
    exact = IntervalSet.union_all([build_recurrence_set_piecewise(sys, n, seq.exact(n)).set
                                   for n in range(K, N + 1)]).measure
    mu = float(exact)
    assert 0.2 < mu < 0.8
    covers = [wilson_interval(h, M)[0] <= mu <= wilson_interval(h, M)[1] for h in range(M + 1)]
    assert sum(math.comb(M, h) * mu ** h * (1 - mu) ** (M - h)
               for h in range(M + 1) if covers[h]) >= COVERAGE
    covered = 0
    for seed in SEEDS:
        r = rio_truncated_measure(sys, seq, K, N, M, seed).results
        covered += r["ci_low"] <= exact <= r["ci_high"]
    assert covered >= FLOOR


@pytest.mark.parametrize("spec", ("circle:-2", PIECEWISE, "beta:5/2"))
def test_scan_intervals_cover_each_exact_measure(spec):
    # Eight intervals a system, 24 in all: a correct program fails one of
    # them with a chance below 24 * 3.3e-7 < 1e-5.
    sys, seq, n_max = parse_system(spec), parse_sequence("powerlaw:1/2,1"), 8
    exact = [build_recurrence_set_piecewise(sys, n, seq.exact(n)).measure
             for n in range(1, n_max + 1)]
    assert all(interval_coverage(float(mu), M) >= COVERAGE for mu in exact)
    covered = [0] * n_max
    for seed in SEEDS:
        table = recurrence_measure_scan(sys, seq, n_max, M, seed).results["table"]
        for row, mu in zip(table, exact):
            covered[row["n"] - 1] += row["ci_low"] <= mu <= row["ci_high"]
    assert min(covered) >= FLOOR, covered


@pytest.mark.parametrize("a", (2, 3, -2))
def test_ear_intervals_cover_the_exact_measure(a):
    seq, n0, horizon = parse_sequence("powerlaw:3/4,1"), 3, 10
    exact = ear_exact(a, seq, n0, horizon).results["measure"]
    assert 0.5 < exact < 0.7
    assert interval_coverage(float(exact), M) >= COVERAGE
    covered = 0
    for seed in SEEDS:
        r = ear_truncated_measure(parse_system(f"circle:{a}"), seq, n0, horizon, M, seed).results
        covered += r["ci_low"] <= exact <= r["ci_high"]
    assert covered >= FLOOR
