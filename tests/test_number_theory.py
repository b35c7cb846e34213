"""Number-theoretic kernels: gcd identity, solution lattices, Bezout descent."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab.errors import RootOfUnityError
from recurlab.number_theory import (
    bezout_polynomials,
    check_no_root_of_unity,
    gcd_mersenne,
    geometric_sum_poly,
    matrix_lattice,
    matrix_lattice_bruteforce,
    poly_add,
    poly_mul,
    scalar_lattice,
    scalar_lattice_bruteforce,
)
from oracles import lattice_pairs

FIBONACCI = ((1, 1), (1, 0))


class TestGcdIdentity:
    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_exhaustive_small(self, a):
        for m in range(1, 13):
            for n in range(1, 13):
                assert gcd_mersenne(a, m, n) == a ** math.gcd(m, n) - 1

    def test_spec_free_example(self):
        assert math.gcd(2**6 - 1, 2**4 - 1) == 2**2 - 1
        assert gcd_mersenne(2, 6, 4) == 3

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=120)
    def test_matches_math_gcd(self, a, m, n):
        assert gcd_mersenne(a, m, n) == math.gcd(a**m - 1, a**n - 1)


class TestScalarLattice:
    def test_known_generator(self):
        lat = scalar_lattice(2, 4, 2)
        assert (lat.k0, lat.l0) == (1, -5)
        assert lat.is_solution(*lat.pair(3))

    @pytest.mark.parametrize("a", [2, 3])
    def test_completeness_both_directions(self, a):
        for m in range(1, 7):
            for n in range(1, 7):
                if m == n:
                    continue
                lat = scalar_lattice(a, m, n)
                brute = scalar_lattice_bruteforce(a, m, n, 200)
                # every brute-force solution lies on the lattice
                for k, l in brute:
                    j = lat.solve_j(k, l)
                    assert j is not None
                    assert lat.pair(j) == (k, l)
                # every lattice point inside the box is found by brute force
                brute_set = set(brute)
                j = 1
                while abs(lat.k0 * j) <= 200 and abs(lat.l0 * j) <= 200:
                    assert lat.pair(j) in brute_set
                    assert lat.pair(-j) in brute_set
                    j += 1

    def test_off_lattice_rejected(self):
        lat = scalar_lattice(2, 4, 2)
        assert lat.solve_j(1, -4) is None
        assert not lat.is_solution(1, -4)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            scalar_lattice(2, 3, 3)


class TestBezoutPolynomials:
    def poly_eval(self, p, x):
        return sum(c * x**i for i, c in enumerate(p))

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 11)
                                     for n in range(1, 11) if math.gcd(m, n) == 1])
    def test_identity_expands_to_one(self, m, n):
        u, v = bezout_polynomials(m, n)
        total = poly_add(poly_mul(u, geometric_sum_poly(m)),
                        poly_mul(v, geometric_sum_poly(n)))
        assert total == (1,)

    def test_non_coprime_scales_to_gcd_sum(self):
        # for p = gcd(m, n) > 1 the combination yields 1 + x^p + ... instead
        with pytest.raises(ValueError):
            bezout_polynomials(4, 2)

    def test_identity_numerically(self):
        u, v = bezout_polynomials(3, 2)
        for x in [Fraction(1, 2), Fraction(-2), Fraction(7, 3)]:
            lhs = (self.poly_eval(u, x) * self.poly_eval(geometric_sum_poly(3), x)
                   + self.poly_eval(v, x) * self.poly_eval(geometric_sum_poly(2), x))
            assert lhs == 1


class TestMatrixLattice:
    def test_fibonacci_completeness(self):
        for m in range(1, 6):
            for n in range(1, 6):
                if m == n:
                    continue
                lat = matrix_lattice(FIBONACCI, m, n)
                brute = matrix_lattice_bruteforce(FIBONACCI, m, n, 5)
                assert brute, (m, n)  # zero solution at least
                for k, l in brute:
                    j = lat.solve_j(k)
                    assert j is not None, (m, n, k, l)
                    assert lat.pair(j) == (k, l)

    @pytest.mark.parametrize("B,box", [(((3,),), 20), (((-2,),), 20), (FIBONACCI, 4),
                                       (((0, 1, 0), (0, 0, 1), (1, 1, 0)), 2)])
    def test_bruteforce_solves_the_equation_itself(self, B, box):
        for m in range(1, 5):
            for n in range(1, 5):
                if m != n:
                    want = lattice_pairs(B, m, n, box)
                    assert matrix_lattice_bruteforce(B, m, n, box) == want, (m, n)

    def test_bruteforce_needs_an_invertible_b_n_less_identity(self):
        B = ((2, 0), (3, -1))  # eigenvalue -1: B^n - I is singular for even n only
        for m, n in [(2, 1), (2, 3), (4, 3)]:
            assert matrix_lattice_bruteforce(B, m, n, 3) == lattice_pairs(B, m, n, 3)
        # B^2 fixes (0, 1), so k = 0 pairs with every l = (0, t): no finite list is complete
        with pytest.raises(RootOfUnityError, match=r"\(order 2\)"):
            matrix_lattice_bruteforce(B, 3, 2, 3)

    def test_generated_pairs_solve_equation(self):
        lat = matrix_lattice(FIBONACCI, 4, 2)
        for j in [(1, 0), (0, 1), (2, -3), (-4, 5)]:
            k, l = lat.pair(j)
            assert lat.is_solution(k, l)

    def test_one_by_one_matches_scalar(self):
        for m, n in [(4, 2), (3, 5), (2, 6)]:
            mat = matrix_lattice(((3,),), m, n)
            sc = scalar_lattice(3, m, n)
            assert mat.K_gen[0][0] == abs(sc.k0)
            # same lattice up to sign: the scalar form is k(a^m-1)+l(a^n-1)=0,
            # the matrix form (B^m-I)k = (B^n-I)l, so l flips sign
            for k, l in scalar_lattice_bruteforce(3, m, n, 500):
                j = mat.solve_j((k,))
                assert j is not None
                assert mat.pair(j) == ((k,), (-l,))

    @pytest.mark.parametrize("B,box", [(((3,),), 40), (((-2,),), 40), (FIBONACCI, 5),
                                       (((0, 1, 0), (0, 0, 1), (1, 1, 0)), 3)])
    def test_contains_checks_every_pair_at_once(self, B, box):
        # B^m - I is invertible, so moving one k or one l of a solution takes
        # it off the lattice, and the whole stack fails, as solve_j says
        for m, n in [(4, 2), (3, 1), (1, 3)]:
            lat = matrix_lattice(B, m, n)
            k, l = map(list, zip(*matrix_lattice_bruteforce(B, m, n, box)))
            assert len(k) > 1 and lat.contains(k, l)
            e1 = (1,) + (0,) * (len(B) - 1)
            for i in range(len(k)):
                moved = tuple(map(sum, zip(k[i], e1)))
                assert lat.solve_j(moved, l[i]) is None
                assert not lat.contains(k[:i] + [moved] + k[i + 1:], l)
                assert not lat.contains(k, l[:i] + [tuple(map(sum, zip(l[i], e1)))] + l[i + 1:])

    def test_scalar_contains_negates_l(self):
        lat = scalar_lattice(2, 4, 2)
        k, l = map(list, zip(*scalar_lattice_bruteforce(2, 4, 2, 100)))
        assert lat.contains(k, l)
        assert not lat.contains(k, [-v for v in l])
        assert not lat.contains(k, l[:-1] + [l[-1] + 1])

    def test_root_of_unity_rejected(self):
        rotation90 = ((0, -1), (1, 0))
        with pytest.raises(RootOfUnityError):
            check_no_root_of_unity(rotation90)
        with pytest.raises(RootOfUnityError):
            matrix_lattice(rotation90, 4, 2)

    def test_hyperbolic_passes_screening(self):
        check_no_root_of_unity(FIBONACCI)
        check_no_root_of_unity(((2, 1), (1, 1)))
