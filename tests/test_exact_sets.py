"""Exact recurrence sets, pairwise correlations, eventually-always covers."""

import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from recurlab.circle import (EarRadius, ExplicitTable, IntervalSet, PowerLaw, as_arcs,
                             circle_dist)
from recurlab.cli import parse_system
from recurlab.errors import ArcBudgetExceeded
from recurlab.exact_sets import (
    _BLOCK,
    _ear_denominator,
    _ear_scaled_cover,
    build_ear_sets,
    build_recurrence_set,
    build_recurrence_set_piecewise,
    compose_branches,
    ear_truncated_A,
    pair_correlation,
    petrov_profile,
)
from recurlab.experiments import Radii
from recurlab.systems import Branch, IntegerCircleMap, PiecewiseLinear
from oracles import ExactOrbit, contains, is_subset_of


def exact_orbit_point(a: int, n: int, x: Fraction) -> Fraction:
    return (a ** n * x) % 1


@pytest.mark.parametrize("a", [1, 0, -1])
@pytest.mark.parametrize("build", [
    lambda a: build_recurrence_set(a, 3, Fraction(1, 12)),
    lambda a: pair_correlation(a, 2, 3, Fraction(1, 8), Fraction(1, 8)),
    lambda a: petrov_profile(a, PowerLaw(Fraction(1, 4), Fraction(1)), [4], 1),
    lambda a: build_ear_sets(a, 4, EarRadius(Fraction(1))),
    lambda a: ear_truncated_A(a, 2, 4, PowerLaw(Fraction(1), Fraction(1))),
], ids=["recurrence_set", "pair_correlation", "petrov_profile", "ear_sets", "ear_truncated_A"])
def test_every_entry_point_refuses_a_multiplier_below_two(build, a):
    with pytest.raises(ValueError) as exc:
        build(a)
    assert str(exc.value) == f"multiplier must satisfy |a| >= 2, got {a}"


class TestRecurrenceSet:
    def test_doubling_n2_explicit(self):
        res = build_recurrence_set(2, 2, Fraction(1, 10))
        assert res.measure == Fraction(1, 5)
        assert res.arc_count == 3
        expected = IntervalSet.from_arcs(
            [
                (Fraction(-1, 30), Fraction(1, 30)),
                (Fraction(1, 3) - Fraction(1, 30), Fraction(1, 3) + Fraction(1, 30)),
                (Fraction(2, 3) - Fraction(1, 30), Fraction(2, 3) + Fraction(1, 30)),
            ]
        )
        assert res.set == expected

    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_measure_is_twice_radius(self, a, n):
        r = Fraction(1, 4 * n)
        res = build_recurrence_set(a, n, r)
        assert res.measure == 2 * r
        assert res.set.measure == 2 * r
        assert res.arc_count == a ** n - 1

    def test_membership_against_orbit_oracle(self):
        rng = random.Random(7)
        for a, n in [(2, 3), (3, 2), (5, 2)]:
            r = Fraction(1, 12)
            res = build_recurrence_set(a, n, r)
            for _ in range(300):
                x = Fraction(rng.randrange(10**6), 10**6)
                inside = circle_dist(exact_orbit_point(a, n, x), x) < r
                assert contains(res.set, x) == inside

    def test_monotone_in_radius(self):
        small = build_recurrence_set(2, 4, Fraction(1, 40)).set
        large = build_recurrence_set(2, 4, Fraction(1, 20)).set
        assert is_subset_of(small, large)

    def test_skip_materialization_keeps_measure(self):
        res = build_recurrence_set(4, 12, Fraction(1, 48), materialize=False)
        assert res.set is None
        assert res.measure == Fraction(1, 24)
        assert res.arc_count == 4**12 - 1

    def test_budget_is_enforced(self):
        with pytest.raises(ArcBudgetExceeded):
            build_recurrence_set(4, 12, Fraction(1, 48), arc_budget=1000)

    def test_zero_radius_is_empty(self):
        res = build_recurrence_set(2, 3, Fraction(0))
        assert res.measure == 0
        assert res.set.arc_count == 0

    def test_radius_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_recurrence_set(2, 3, Fraction(2, 3))


class TestPiecewiseConstruction:
    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("n", list(range(1, 8)))
    def test_matches_direct_circle_construction(self, a, n):
        r = Fraction(1, 4 * n)
        direct = build_recurrence_set(a, n, r)
        via_branches = build_recurrence_set_piecewise(IntegerCircleMap(a), n, r)
        assert via_branches.set == direct.set
        assert via_branches.measure == direct.measure

    def test_explicit_three_branch_map(self):
        pw = PiecewiseLinear(
            (
                Branch(Fraction(0), Fraction(1, 3), Fraction(3), Fraction(0)),
                Branch(Fraction(1, 3), Fraction(2, 3), Fraction(3), Fraction(-1)),
                Branch(Fraction(2, 3), Fraction(1), Fraction(3), Fraction(-2)),
            )
        )
        r = Fraction(1, 9)
        res = build_recurrence_set_piecewise(pw, 1, r)
        assert res.set == build_recurrence_set(3, 1, r).set

    def test_branch_composition_counts(self):
        pw = IntegerCircleMap(2).as_piecewise()
        assert len(compose_branches(pw, 1)) == 2
        assert len(compose_branches(pw, 5)) == 32

    def test_line_metric_half_open_interval(self):
        # |2x - x| < r on [0, 1) gives [0, r) plus the right sliver (1-r, 1)
        r = Fraction(1, 8)
        res = build_recurrence_set_piecewise(parse_system("piecewise:0,1/2,2,0;1/2,1,2,-1"), 1, r)
        assert res.measure == 2 * r

    @staticmethod
    def assert_sets_agree_with_orbits(spec, r):
        sys = parse_system(spec)
        for n in (1, 2, 3):
            iset = build_recurrence_set_piecewise(sys, n, r).set
            ends = {e for arc in iset.arcs for e in arc}
            radii = Radii(ExplicitTable((r,) * n), n, n)
            for j in range(997):
                x = Fraction(j, 997)
                if x not in ends:
                    [hit] = ExactOrbit(sys, [x]).below(radii)
                    assert contains(iset, x) == hit, (n, x)

    def test_interval_map_sets_agree_with_its_orbits(self):
        # an interval map measures |T^n x - x|, as its Monte Carlo orbits do;
        # E_n in the circle metric would hold points where it is near 1
        self.assert_sets_agree_with_orbits("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", Fraction(1, 4))

    def test_negative_circle_map_sets_agree_with_its_orbits(self):
        # branch k of circle:-2 maps [k/2, (k+1)/2) by x -> -2x + k + 1
        self.assert_sets_agree_with_orbits("circle:-2", Fraction(1, 10))

    @pytest.mark.parametrize("a", [-2, -3, -5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_negative_circle_map_composes_to_the_closed_form(self, a, n):
        for r in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 50)):
            res = build_recurrence_set_piecewise(IntegerCircleMap(a), n, r)
            closed = build_recurrence_set(a, n, r)
            assert (res.set, res.measure, res.arc_count) == (closed.set, 2 * r, closed.arc_count)

    def test_rational_beta_sets_agree_with_its_orbits(self):
        # beta:5/2 composes the branches of BetaMap.as_piecewise, and its
        # orbits step by BetaMap.apply
        self.assert_sets_agree_with_orbits("beta:5/2", Fraction(1, 10))


# the piecewise map of the benchmark; it composes in int64 through n = 11
# and in Python ints from n = 12, where L_b (2q^n + m^n) m^n = 3 (2^13 + 6^12) 6^12
# passes 2^63. Its E_n pass, whose bound is 4 m^n L den(r), takes Python ints
# from n = 4 or 5 (by r), and beta:5/2's from n = 8 or 9.
BENCH_PIECEWISE = "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"
ORACLE_CASES = [
    *((spec, n) for spec in ("circle:-2", "circle:-3", "circle:5", "beta:5/2",
                             "piecewise:0,1/2,-2,1;1/2,1,2,-1", BENCH_PIECEWISE)
      for n in (1, 2, 3)),
    (BENCH_PIECEWISE, 5), ("beta:5/2", 7), ("beta:5/2", 9), (BENCH_PIECEWISE, 11),
    (BENCH_PIECEWISE, 12),
]


@pytest.mark.parametrize("spec, n", ORACLE_CASES)
def test_array_composition_equals_the_tuple_loops(spec, n):
    sys = parse_system(spec)
    branches = compose_branches(sys.as_piecewise(), n)
    assert [tuple(row) for row in branches.tolist()] == oracles.compose_branches(sys.as_piecewise(), n)
    for r in (Fraction(1, 50), Fraction(1, 3), Fraction(1, 2)):
        assert build_recurrence_set_piecewise(sys, n, r).set.arcs == oracles.recurrence_arcs(sys, n, r)


@pytest.mark.parametrize("n, dtype", [(11, np.int64), (12, object)])
def test_composition_switches_to_python_ints_past_its_bound(n, dtype):
    assert compose_branches(parse_system(BENCH_PIECEWISE).as_piecewise(), n).dtype == dtype


class TestPairCorrelation:
    def test_known_intersection(self):
        pc = pair_correlation(2, 1, 2, Fraction(1, 10), Fraction(1, 10))
        assert pc.intersection == Fraction(1, 15)
        assert pc.excess == Fraction(1, 15) - Fraction(1, 25)
        assert pc.bound_ok

    def test_intersection_against_interval_sets(self):
        for i, j in [(1, 2), (2, 3), (1, 4), (3, 5), (2, 6)]:
            r_i, r_j = Fraction(1, 4 * i), Fraction(1, 4 * j)
            pc = pair_correlation(2, i, j, r_i, r_j)
            e_i = build_recurrence_set(2, i, r_i).set
            e_j = build_recurrence_set(2, j, r_j).set
            assert pc.intersection == e_i.intersect(e_j).measure

    def test_symmetry(self):
        pc_a = pair_correlation(3, 2, 5, Fraction(1, 8), Fraction(1, 20))
        pc_b = pair_correlation(3, 5, 2, Fraction(1, 20), Fraction(1, 8))
        assert pc_a.intersection == pc_b.intersection

    @pytest.mark.parametrize("a", [2, 3])
    def test_bound_sweep(self, a):
        for j in range(2, 13):
            for i in range(1, j):
                pc = pair_correlation(a, i, j, Fraction(1, 4 * i), Fraction(1, 4 * j))
                assert pc.bound_ok, (a, i, j)

    def test_closed_form_against_arc_sweep(self):
        # the closed form never builds arcs; the materialized sets are the oracle
        rng = random.Random(2024)
        sets = {}

        def e_set(a, n, r):
            if (a, n, r) not in sets:
                sets[a, n, r] = build_recurrence_set(a, n, r).set
            return sets[a, n, r]

        def radius():
            pick = rng.random()
            if pick < 0.15:
                return Fraction(0)
            if pick < 0.3:
                return Fraction(1, 2)
            return Fraction(rng.randint(1, 60), rng.randint(2, 60)) % Fraction(1, 2)

        for _ in range(320):
            a = rng.choice([2, -2, 3, -3, 4, 5])
            top = {2: 7, 3: 7, 4: 5, 5: 5}[abs(a)]  # keeps the oracle sets small
            i, j = rng.sample(range(1, top + 1), 2)
            r_i, r_j = radius(), radius()
            oracle = e_set(a, i, r_i).intersect(e_set(a, j, r_j)).measure
            assert pair_correlation(a, i, j, r_i, r_j).intersection == oracle, (a, i, j, r_i, r_j)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            pair_correlation(2, 3, 3, Fraction(1, 10), Fraction(1, 10))

class TestPetrov:
    def test_profile_matches_manual_sum(self):
        seq = PowerLaw(Fraction(1, 4), Fraction(1))
        summary = petrov_profile(2, seq, [5], 1)[0]
        manual_S = Fraction(0)
        mus = []
        for n in range(1, 6):
            mus.append(2 * seq.exact(n))
        for j in range(1, 6):
            for i in range(1, j):
                pc = pair_correlation(2, i, j, seq.exact(i), seq.exact(j))
                manual_S += pc.intersection - mus[i - 1] * mus[j - 1]
        assert summary.S_N == manual_S
        assert summary.R_N == sum(mus) ** 2

    def test_ratio_profile_certifies_quasi_independence(self):
        # S_N/R_N staying <= 0 is the criterion giving the limsup full measure
        seq = PowerLaw(Fraction(1, 4), Fraction(1))
        profile = petrov_profile(2, seq, [8, 12, 16], 1)
        ratios = [s.ratio for s in profile]
        assert all(r <= 0 for r in ratios)
        magnitudes = [abs(r) for r in ratios]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_large_horizon_needs_no_arc_budget(self):
        # 2^40 arcs could never be built; the closed-form overlaps need none
        seq = PowerLaw(Fraction(1, 4), Fraction(1))
        (summary,) = petrov_profile(2, seq, [40], 1)
        assert summary.R_N == sum(2 * seq.exact(n) for n in range(1, 41)) ** 2
        assert summary.ratio <= 0
        assert abs(summary.ratio) < abs(petrov_profile(2, seq, [16], 1)[0].ratio)

    def test_single_horizon_consistency(self):
        seq = PowerLaw(Fraction(1, 8), Fraction(1))
        profile = petrov_profile(2, seq, [6, 10], Fraction(1))
        assert profile[0].S_N == petrov_profile(2, seq, [6], 1)[0].S_N
        assert profile[1].S_N == petrov_profile(2, seq, [10], 1)[0].S_N


class TestEventuallyAlwaysSets:
    @pytest.mark.parametrize("a", [2, 3, -2])
    # every E_k has an arc at 0, and at 1/7 and 2/5 arcs of E_k and E_{k'}
    # overlap around other centres too; 0 gives no arc, and from 1/2 on
    # every E_k is the whole circle
    @pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 50), Fraction(1, 7),
                                   Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)])
    def test_cover_equals_union_of_recurrence_sets(self, a, r):
        # the closed-form E_k joined by union_all is a construction of its own
        seq = ExplicitTable((r,) * 6)
        for m in range(1, 7):
            cover = build_ear_sets(a, m, seq)
            parts = [build_recurrence_set(a, k, min(r, Fraction(1, 2))).set
                     for k in range(1, m + 1)]
            assert cover.set == IntervalSet.union_all(parts)
            assert cover.measure == cover.set.measure <= 2 * m * r

    def test_cover_counts_only_the_arcs_it_builds(self):
        # r_22 >= 1/2 at sigma = 1: the whole circle, with no arc built,
        # although the sum of |2^k - 1| over k <= 22 is twice the budget
        seq = EarRadius(1)
        assert 2 * seq.exact(22) >= 1
        cover = build_ear_sets(2, 22, seq, materialize=False)
        assert (cover.n, cover.measure, cover.arc_count) == (22, 1, 1)
        assert build_ear_sets(2, 22, seq, arc_budget=0).set == IntervalSet.full()
        zero = build_ear_sets(2, 22, ExplicitTable((Fraction(0),) * 22), arc_budget=0)
        assert (zero.set, zero.measure, zero.arc_count) == (IntervalSet.empty(), 0, 0)

    def test_cover_in_blocks_of_k_equals_the_oracle(self):
        # 5,000 near arcs leave 3 rows of k to a block, so m = 8 takes three
        a, m, r = 2, 8, Fraction(1, 7)
        L = _ear_denominator(a, m, [r.denominator])
        near = [(i * (L // 5000), i * (L // 5000) + L // 15000) for i in range(5000)]
        assert _BLOCK // len(near) < m
        got = _ear_scaled_cover(a, m, r, L, as_arcs(near, L), 1 << 22)
        assert [tuple(arc) for arc in got.tolist()] == oracles.ear_cover(a, m, r, L, near)

    def test_cover_budget_is_enforced(self):
        seq = PowerLaw(Fraction(1), Fraction(2))
        with pytest.raises(ArcBudgetExceeded) as exc:
            build_ear_sets(2, 10, seq, arc_budget=100)
        assert exc.value.budget == 100 and exc.value.needed > 100
        assert build_ear_sets(2, 10, seq, arc_budget=exc.value.needed).measure > 0

    @pytest.mark.parametrize("m", list(range(1, 19)))
    def test_cover_and_complement_bounds(self, m):
        seq = EarRadius(1)
        cover = build_ear_sets(2, m, seq, materialize=False)
        r_m = seq.exact(m)
        assert cover.measure <= 2 * m * r_m
        assert 1 - cover.measure >= 1 - 2 * m * r_m

    def test_truncation_profile_non_increasing(self):
        seq = ExplicitTable(tuple(Fraction(1, 4 * m) for m in range(1, 11)))
        res = ear_truncated_A(2, 3, 10, seq)
        values = [v for _, v in res.profile]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert res.measure == values[-1]

    def test_truncation_matches_set_intersection(self):
        seq = ExplicitTable(tuple(Fraction(1, 4 * m) for m in range(1, 9)))
        res = ear_truncated_A(2, 2, 8, seq)
        acc = build_ear_sets(2, 2, seq).set
        for m in range(3, 9):
            acc = acc.intersect(build_ear_sets(2, m, seq).set)
        assert res.set == acc
        assert res.measure == acc.measure


    @pytest.mark.parametrize("a, n0, M", [(2, 1, 10), (2, 3, 10), (3, 1, 7), (3, 2, 6)])
    def test_truncation_matches_chained_covers(self, a, n0, M):
        # radii 1, 1/2 and 3/5 make the first covers the whole circle
        seq = ExplicitTable((Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(1, 7),
                             Fraction(1, 9), Fraction(1, 14), Fraction(1, 20),
                             Fraction(1, 24), Fraction(1, 30), Fraction(1, 40)))
        res = ear_truncated_A(a, n0, M, seq)
        acc = IntervalSet.full()
        for m in range(n0, M + 1):
            acc = acc.intersect(build_ear_sets(a, m, seq).set)
            assert dict(res.profile)[m] == acc.measure
        assert res.set == acc
        assert res.measure == acc.measure

    def test_zero_radius_empties_truncation(self):
        seq = ExplicitTable((Fraction(1, 4), Fraction(1, 8), Fraction(0), Fraction(1, 16)))
        res = ear_truncated_A(2, 1, 4, seq)
        assert res.profile[-1] == (3, Fraction(0))
        assert res.set == IntervalSet.empty()

    def test_truncation_budget_is_enforced(self):
        seq = PowerLaw(Fraction(1), Fraction(2))
        with pytest.raises(ArcBudgetExceeded) as exc:
            ear_truncated_A(2, 4, 16, seq, arc_budget=20)
        assert exc.value.budget == 20 and exc.value.needed > 20
        # the count is per m: the whole horizon fits a budget far below sum 2^k
        res = ear_truncated_A(2, 4, 16, seq, arc_budget=20000)
        assert res.measure == ear_truncated_A(2, 4, 16, seq).measure
