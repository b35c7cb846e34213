"""Transfer-operator discretization: stochasticity, densities, spectra, decay."""

import math
from fractions import Fraction

import numpy as np
import pytest

from recurlab import ulam
from recurlab.circle import PowerLaw
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


@pytest.fixture(scope="module")
def doubling_op():
    return build_ulam(IntegerCircleMap(2), 1024)


@pytest.fixture(scope="module")
def golden_op():
    return build_ulam(BetaMap("golden"), 1024)


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
        IntegerCircleMap(2), IntegerCircleMap(3), BetaMap("golden"),
        BetaMap("sqrt2"), BetaMap(Fraction(5, 2)),
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

    @pytest.mark.parametrize("a,N", [(2, 96), (2, 384), (3, 100), (3, 128)])
    def test_integer_map_second_eigenvalue_is_one_over_a(self, a, N):
        # bins that are not a power of a: the Ulam matrix is not nilpotent
        op = build_ulam(IntegerCircleMap(a), N)
        assert op.second_eig_converged
        assert op.second_eig == pytest.approx(1 / a, abs=1e-9)

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
        # r_n = 1/(2n) sits exactly on the summability boundary
        seq = PowerLaw(Fraction(1, 2), Fraction(1))
        rep = theoremB_series(doubling_op, seq, 60)
        assert rep.verdict == "inconclusive"
        assert rep.tail_exponent == pytest.approx(-1.0, abs=0.02)

    def test_golden_terms_sandwiched_by_density_ratio(self, golden_op):
        seq = PowerLaw(Fraction(1, 4), Fraction(2))
        bounds = density_bounds(golden_op)
        rep = theoremB_series(golden_op, seq, 40)
        for n in range(5, 41):
            r = seq.approx(n)
            assert 2 * r / bounds.c - 1e-9 <= rep.terms[n - 1] <= 2 * r * bounds.c + 1e-9


class TestCsvDumps:
    def test_density_csv(self, tmp_path):
        op = build_ulam(IntegerCircleMap(2), 16)
        out = tmp_path / "density.csv"
        with out.open("w") as fh:
            rows = write_density_csv(fh, op)
        lines = out.read_text().strip().splitlines()
        assert rows == 16
        assert lines[0] == "bin,left,right,density"
