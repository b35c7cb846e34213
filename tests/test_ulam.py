"""Transfer-operator discretization: stochasticity, densities, spectra, decay."""

import dataclasses
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from recurlab import ulam
from recurlab.circle import PowerLaw
from recurlab.cli import parse_sequence, parse_system
from recurlab.dynamics import uses_circle_metric
from recurlab.systems import BetaMap, IntegerCircleMap
from recurlab.ulam import (
    build_ulam,
    correlation_decay_fit,
    default_test_pairs,
    density_bounds,
    theoremB_series,
    write_density_csv,
)

GOLDEN = (1 + 5**0.5) / 2
# Parry density of the golden-ratio beta-map: (5+3*sqrt5)/10 on [0, 1/phi),
# (5+sqrt5)/10 on [1/phi, 1); its max/min ratio is the density oracle
PARRY_HI = (5 + 3 * 5**0.5) / 10
PARRY_LO = (5 + 5**0.5) / 10
BENCH_PIECEWISE = "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"
# split point p/q with q about 10^12: the common scale of the integer
# assembly is N*q*(q - p), past int64 at every N
HUGE_P, HUGE_Q = 500_000_000_023, 1_000_000_000_039
HUGE = (f"piecewise:0,{HUGE_P}/{HUGE_Q},{HUGE_Q}/{HUGE_P},0;"
        f"{HUGE_P}/{HUGE_Q},1,{HUGE_Q}/{HUGE_Q - HUGE_P},-{HUGE_P}/{HUGE_Q - HUGE_P}")


@pytest.fixture(scope="module")
def doubling_op():
    return build_ulam(IntegerCircleMap(2), 1024)


@pytest.fixture(scope="module")
def golden_op():
    return build_ulam(BetaMap("golden"), 1024)


@pytest.fixture(scope="module")
def doubling_384():
    return build_ulam(IntegerCircleMap(2), 384)


@pytest.fixture(scope="module")
def tripling_op():
    return build_ulam(IntegerCircleMap(3), 1024)


class TestMatrixStructure:
    def test_doubling_rows_split_evenly(self):
        op = build_ulam(IntegerCircleMap(2), 16)
        # bin i maps onto bins 2i and 2i+1 (mod 16) with conditional mass 1/2
        for i, row in enumerate(op.matrix):
            assert row[(2 * i) % 16] == pytest.approx(0.5)
            assert row[(2 * i + 1) % 16] == pytest.approx(0.5)
            assert row.sum() == pytest.approx(1.0)
        assert np.allclose(op.density, 1.0)
        # the dyadic Ulam matrix is nilpotent off the constants: after 4 steps
        # every bin's mass is spread uniformly over all 16 bins
        assert np.allclose(np.linalg.matrix_power(op.matrix, 4), 1 / 16, atol=1e-15)
        # |lambda2| comes from the degree-1 Galerkin operator, on which the
        # transfer operator has the eigenfunction x - 1/2 for eigenvalue 1/2
        assert op.second_eig == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("sys,N", [
        (IntegerCircleMap(2), 64),
        (IntegerCircleMap(3), 81),
        (BetaMap("golden"), 100),
        (BetaMap(Fraction(5, 2)), 64),
    ])
    def test_rows_are_stochastic(self, sys, N):
        op = build_ulam(sys, N)
        assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(op.matrix >= -1e-15)

    def test_triadic_bins_exact_for_tripling(self):
        op = build_ulam(IntegerCircleMap(3), 27)
        # every bin maps onto three bins with conditional mass 1/3 each
        for row in op.matrix:
            nz = row[row > 0]
            assert np.allclose(nz, 1 / 3)

    def test_density_is_left_eigenvector(self, golden_op):
        pi = golden_op.bin_prob
        assert np.linalg.norm(pi @ golden_op.matrix - pi, 1) < 1e-9
        assert golden_op.residual < 1e-10


def brute_force_ulam(sys, N):
    """P_ij = N * m(B_i ∩ T^{-1}B_j) as Fractions, from the forward image of
    each source bin under each branch (the assembly works from preimages)."""
    P = {}
    for br in sys.branches:
        for i in range(N):
            x0, x1 = max(br.lo, Fraction(i, N)), min(br.hi, Fraction(i + 1, N))
            if not x0 < x1:
                continue
            u, v = sorted((br.apply(x0), br.apply(x1)))
            for j in range(max(0, math.floor(u * N)), min(N, math.ceil(v * N))):
                overlap = min(v, Fraction(j + 1, N)) - max(u, Fraction(j, N))
                if overlap > 0:
                    P[i, j] = P.get((i, j), 0) + N * overlap / abs(br.slope)
    return P


class TestExactAssembly:
    @pytest.mark.parametrize("N", [16, 17, 96, 100])
    @pytest.mark.parametrize("system", [
        "circle:2", "circle:3", "circle:5", "circle:-2", "circle:-3", BENCH_PIECEWISE,
        "piecewise:0,1/2,-2,1;1/2,1,2,-1",
        # three branches, the first with an image [1/10, 9/10) that is not whole
        "piecewise:0,2/5,2,1/10;2/5,7/10,-10/3,7/3;7/10,1,10/3,-7/3",
        HUGE,
    ])
    def test_entries_are_the_rounded_exact_overlaps(self, system, N):
        sys = parse_system(system)
        exact = brute_force_ulam(sys if system.startswith("piecewise") else sys.as_piecewise(), N)
        for i in range(N):
            assert sum(v for (k, _), v in exact.items() if k == i) == 1
        expected = np.zeros((N, N))
        for (i, j), v in exact.items():
            expected[i, j] = float(v)
        assert np.array_equal(build_ulam(sys, N).matrix, expected)

    def test_huge_map_scale_passes_int64(self):
        assert 16 * math.lcm(HUGE_Q, HUGE_Q - HUGE_P) > 2**63


class TestNoDenseStorage:
    def test_build_peaks_far_below_a_dense_matrix(self):
        N = 4096
        build_ulam(BetaMap("golden"), 64)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            op = build_ulam(BetaMap("golden"), N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.second_eig_converged
        assert peak < N * N * 8 // 8  # an eighth of the dense Ulam matrix's 134 MB

    def test_eigen_solve_keeps_a_fixed_basis(self):
        # the restarted Arnoldi basis holds _BLOCK + 1 vectors of length 2N;
        # a basis that grew with the matvec count would pass three of those
        N = 4096
        G = build_ulam(BetaMap("golden"), N).galerkin
        tracemalloc.start()
        try:
            _, converged = ulam._second_eigenvalue(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged
        assert peak < 3 * (ulam._BLOCK + 1) * 2 * N * 8


class TestInvariantDensity:
    def test_doubling_density_exactly_uniform(self, doubling_op):
        assert np.max(np.abs(doubling_op.density - 1.0)) < 1e-10

    def test_golden_density_matches_parry_plateaus(self, golden_op):
        N = golden_op.N
        split = int(N / GOLDEN)
        # boundary bins (near 0, 1 and the density jump) carry the
        # discretization's edge error; the plateaus are interior
        left = golden_op.density[8 : split - 8]
        right = golden_op.density[split + 8 : -8]
        assert np.max(np.abs(left - PARRY_HI)) < 0.02
        assert np.max(np.abs(right - PARRY_LO)) < 0.02

    def test_golden_density_ratio_near_oracle(self, golden_op):
        bounds = density_bounds(golden_op)
        oracle = PARRY_HI / PARRY_LO
        assert bounds.c == pytest.approx(oracle, rel=0.12)
        assert bounds.c_lower <= 1.0 <= bounds.c_upper * bounds.c


class TestSpectrum:
    def test_doubling_second_eigenvalue_vanishes(self, doubling_op):
        # the exact dyadic Ulam matrix is nilpotent off the constants: every
        # zero-mean vector dies in log2(N) steps, so it cannot see lambda2;
        # the degree-1 Galerkin operator it is the (0,0) block of gives 1/2
        assert doubling_op.second_eig == pytest.approx(0.5, abs=1e-9)
        assert doubling_op.second_eig_converged
        v = np.ones(doubling_op.N)
        v[: doubling_op.N // 2] = -1.0
        w = v.copy()
        for _ in range(int(math.log2(doubling_op.N)) + 1):
            w = w @ doubling_op.matrix
        assert np.linalg.norm(w) < 1e-12

    def test_golden_second_eigenvalue_against_dense_solver(self):
        op = build_ulam(BetaMap("golden"), 128)
        moduli = np.sort(np.abs(np.linalg.eigvals(op.matrix)))[::-1]
        assert moduli[0] == pytest.approx(1.0, abs=1e-9)
        assert op.second_eig == pytest.approx(moduli[1], abs=0.05)
        assert 0 < op.gap <= 1

    @pytest.mark.parametrize("sys", [
        IntegerCircleMap(2), IntegerCircleMap(3), IntegerCircleMap(5), IntegerCircleMap(7),
        BetaMap("golden"), BetaMap("sqrt2"), BetaMap(Fraction(5, 2)),
        parse_system(BENCH_PIECEWISE),
    ])
    def test_second_eigenvalue_against_dense_galerkin_solver(self, sys):
        op = build_ulam(sys, 128)
        g = op.galerkin
        G = np.zeros((256, 256))
        np.add.at(G, (g.rows, g.cols), g.weights)
        assert np.allclose(G[:128, :128], op.matrix, atol=1e-12)
        moduli = np.sort(np.abs(np.linalg.eigvals(G)))[::-1]
        assert moduli[0] == pytest.approx(1.0, abs=1e-9)
        assert op.second_eig_converged
        assert op.second_eig == pytest.approx(moduli[1], abs=1e-9)

    @pytest.mark.parametrize("a,N", [(2, 96), (2, 384), (3, 100), (3, 128), (5, 384)])
    def test_integer_map_second_eigenvalue_is_one_over_a(self, a, N):
        # bins that are not a power of a: the Ulam matrix is not nilpotent
        op = build_ulam(IntegerCircleMap(a), N)
        assert op.second_eig_converged
        assert op.second_eig == pytest.approx(1 / a, abs=1e-9)

    def test_a_late_cluster_keeps_growing_the_restarted_basis(self, monkeypatch):
        # at 384 bins circle:5 restarts once before its cluster of moduli 1/5
        # shows; the restarted basis grows on, with no rerun from the start
        op = build_ulam(IntegerCircleMap(5), 384)
        products = []
        apply_left = ulam.SparseMatrix.apply_left
        monkeypatch.setattr(ulam.SparseMatrix, "apply_left",
                            lambda self, w: products.append(1) or apply_left(self, w))
        second, converged = ulam._second_eigenvalue(op.galerkin)
        assert converged and len(products) <= 80
        moduli = np.sort(np.abs(np.linalg.eigvals(op.galerkin.dense())))[::-1]
        assert second == pytest.approx(1 / 5, abs=1e-9)
        assert second == pytest.approx(moduli[1], abs=1e-9)

    def test_tripling_converges_at_1024_bins(self, tripling_op):
        # about a thousand eigenvalues share the modulus 1/3 here
        assert tripling_op.second_eig_converged
        assert tripling_op.second_eig == pytest.approx(1 / 3, abs=1e-9)

    def test_krylov_cap_reports_unconverged(self, tripling_op, monkeypatch):
        monkeypatch.setattr(ulam, "KRYLOV_MAX", 40)
        _, converged = ulam._second_eigenvalue(tripling_op.galerkin)
        assert not converged


class TestCorrelationDecay:
    def test_doubling_rate_matches_log_two(self, doubling_op):
        fit = correlation_decay_fit(doubling_op)
        assert fit.tau == pytest.approx(math.log(2), rel=0.10)

    def test_decay_table_values_shrink(self, golden_op):
        fit = correlation_decay_fit(golden_op)
        values = [v for _, v in fit.table if v > 1e-14]
        assert values[-1] < values[0]
        assert not fit.flagged

    def test_default_pairs_shape(self):
        pairs = default_test_pairs(64)
        for f, g in pairs:
            assert f.shape == (64,)
            assert g.shape == (64,)


class TestSummabilitySeries:
    def test_uniform_measure_square_summable_terms(self, doubling_op):
        # r_n = 1/(2 n^2) makes each term 2 r_n = n^-2; the sum approaches pi^2/6
        seq = PowerLaw(Fraction(1, 2), Fraction(2))
        rep = theoremB_series(doubling_op, seq, 60)
        for n in [1, 2, 5, 10]:
            assert rep.terms[n - 1] == pytest.approx(1 / n**2, rel=1e-6)
        assert rep.verdict == "converging"
        assert rep.partial_sums[-1] == pytest.approx(math.pi**2 / 6, abs=0.02)

    def test_uniform_measure_slow_decay_diverges(self, doubling_op):
        # r_n = 1/(2 sqrt(n)): terms n^-1/2, clearly non-summable
        seq = PowerLaw(Fraction(1, 2), Fraction(1, 2))
        rep = theoremB_series(doubling_op, seq, 60)
        assert rep.verdict == "diverging"

    def test_uniform_measure_harmonic_borderline(self, doubling_op):
        # r_n = 1/(2n) sits on the summability boundary, on its divergent side
        seq = PowerLaw(Fraction(1, 2), Fraction(1))
        rep = theoremB_series(doubling_op, seq, 60)
        assert rep.verdict == "diverging"

    @pytest.mark.parametrize("spec, verdict", [
        ("powerlaw:1,1/2", "diverging"), ("powerlaw:1,1", "diverging"),
        ("powerlaw:1,3/2", "converging"), ("powerlaw:1,2", "converging"),
        ("powerlog:1,1", "diverging"), ("powerlog:1,2", "converging"),
        ("ear:1", "diverging"), ("table:1/2,1/4,1/8,1/16,1/32,1/64", "inconclusive"),
    ])
    def test_verdict_is_the_radius_family_summability(self, doubling_384, spec, verdict):
        seq = parse_sequence(spec)
        rep = theoremB_series(doubling_384, seq, 6)
        assert rep.verdict == verdict
        assert len(rep.terms) == 6

    def test_golden_terms_sandwiched_by_density_ratio(self, golden_op):
        seq = PowerLaw(Fraction(1, 4), Fraction(2))
        bounds = density_bounds(golden_op)
        rep = theoremB_series(golden_op, seq, 40)
        for n in range(5, 41):
            r = seq.approx(n)
            assert 2 * r / bounds.c - 1e-9 <= rep.terms[n - 1] <= 2 * r * bounds.c + 1e-9


def reference_series_terms(op, seq, n_terms, hits):
    """The summability terms by a scalar loop over bins; ``hits`` counts the
    branches taken: circle "whole" (2r >= 1) and "wrap" (ball < 0), line
    "clamp" (x - r < 0 or x + r > 1)."""
    N = op.N
    p = op.bin_prob
    cum = np.concatenate(([0.0], np.cumsum(p)))
    circle = uses_circle_metric(op.sys)

    def mu_cdf(x):
        if circle:
            x = x - math.floor(x)
        else:
            x = min(max(x, 0.0), 1.0)
        k = min(int(x * N), N - 1)
        frac = x * N - k
        return float(cum[k] + frac * p[k])

    centers = (np.arange(N) + 0.5) / N
    terms = []
    for n in range(1, n_terms + 1):
        r = seq.approx(n)
        total = 0.0
        for i in range(N):
            x = centers[i]
            if circle:
                if 2 * r >= 1:
                    ball = 1.0
                    hits["whole"] += 1
                else:
                    ball = mu_cdf(x + r) - mu_cdf(x - r)
                    if ball < 0:
                        ball += 1.0
                        hits["wrap"] += 1
            else:
                ball = mu_cdf(x + r) - mu_cdf(x - r)
                hits["clamp"] += x - r < 0 or x + r > 1
            total += p[i] * ball
        terms.append(total)
    return terms


class TestSeriesReference:
    @pytest.mark.parametrize("system,N,kappa", [
        ("doubling", 64, 1), ("circle:3", 100, Fraction(1, 2)), ("circle:5", 96, 2),
        ("beta:golden", 64, 1), ("beta:sqrt2", 100, Fraction(1, 2)), (BENCH_PIECEWISE, 96, 2),
    ])
    @pytest.mark.parametrize("reweight", [False, True])
    def test_terms_bit_identical_to_scalar_loop(self, system, N, kappa, reweight):
        op = build_ulam(parse_system(system), N)
        if reweight:
            # a density far from uniform, so circle maps test more than 2r
            w = 1.0 + 0.9 * np.sin(np.arange(N) * 0.7)
            op = dataclasses.replace(op, density=w * N / w.sum())
        seq = PowerLaw(Fraction(kappa), Fraction(1))
        hits = {"whole": 0, "wrap": 0, "clamp": 0}
        expected = reference_series_terms(op, seq, 30, hits)
        assert theoremB_series(op, seq, 30).terms == tuple(expected)
        if uses_circle_metric(op.sys):
            assert hits["wrap"] > 0
            assert hits["whole"] > 0 or kappa < 1
        else:
            assert hits["clamp"] > 0


GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "ulam_golden.json"
GOLDEN_CASES = json.loads(GOLDEN_PATH.read_text())


class TestGoldenValues:
    """Ulam values taken from the dense-matrix, Fraction-assembly version of
    this module. |lambda2| must be equal; sums that run in another order
    (sparse matvecs in place of BLAS) within 1e-12 relative."""

    @pytest.mark.parametrize("case", GOLDEN_CASES,
                             ids=[f"{c['system']}-{c['bins']}" for c in GOLDEN_CASES])
    def test_values_match(self, case):
        op = build_ulam(parse_system(case["system"]), case["bins"])
        assert op.second_eig == case["second_eigenvalue"]
        assert op.second_eig_converged is case["second_eigenvalue_converged"]
        np.testing.assert_allclose(op.density, case["density"], rtol=1e-12, atol=0)
        bounds = density_bounds(op)
        assert bounds.c_lower == pytest.approx(case["c_lower"], rel=1e-12, abs=0)
        assert bounds.c_upper == pytest.approx(case["c_upper"], rel=1e-12, abs=0)
        fit = correlation_decay_fit(op)
        assert fit.flagged is case["decay_flagged"]
        for key in ("C", "tau"):
            assert getattr(fit, key) == pytest.approx(case[f"decay_{key}"], rel=1e-12, abs=0)
        # the rate is the Galerkin one, and C the least constant for it
        assert fit.tau == -math.log(case["second_eigenvalue"])
        assert all(v * math.exp(fit.tau * n) <= fit.C for n, v in fit.table)
        assert any(v * math.exp(fit.tau * n) == fit.C for n, v in fit.table)
        assert all(v <= fit.C * math.exp(-fit.tau * n) * (1 + 1e-12) for n, v in fit.table)
        for kappa, want in case["series"].items():
            rep = theoremB_series(op, PowerLaw(Fraction(kappa), Fraction(1)), 50)
            assert rep.verdict == want["verdict"]
            np.testing.assert_allclose(rep.partial_sums, want["partial_sums"], rtol=1e-12, atol=0)


class TestCsvDumps:
    def test_density_csv(self, tmp_path):
        op = build_ulam(IntegerCircleMap(2), 16)
        out = tmp_path / "density.csv"
        with out.open("w") as fh:
            rows = write_density_csv(fh, op)
        lines = out.read_text().strip().splitlines()
        assert rows == 16
        assert lines[0] == "bin,left,right,density"
