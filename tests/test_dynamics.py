"""Orbit computation: exact iteration, fixed-point precision, return statistics."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from recurlab.dynamics import (
    DyadicOrbitView,
    FixedPointOrbit,
    boshernitzan_statistic,
    derive_seed,
    iterate,
    min_return_distance,
    point_distance,
    required_bits,
    return_exponents,
    return_time,
    sample_bits,
    sample_fraction,
    write_orbit_csv,
)
from recurlab.circle import PowerLaw
from recurlab.errors import PrecisionBudgetError
from recurlab.experiments import Radii, boshernitzan_scan
from recurlab.systems import BetaMap, IntegerCircleMap, Rotation, ToralLinear

DOUBLING = IntegerCircleMap(2)
CAT_MAP = ToralLinear(((2, 1), (1, 1)))


class TestExactIteration:
    def test_doubling_period_two(self):
        x = Fraction(1, 3)
        assert iterate(DOUBLING, x, 1) == Fraction(2, 3)
        assert iterate(DOUBLING, x, 2) == Fraction(1, 3)

    def test_doubling_period_four(self):
        orbit = [iterate(DOUBLING, Fraction(1, 5), k) for k in range(5)]
        assert orbit == [Fraction(1, 5), Fraction(2, 5), Fraction(4, 5),
                         Fraction(3, 5), Fraction(1, 5)]

    def test_cat_map_orbit(self):
        x = (Fraction(1, 5), Fraction(2, 5))
        y = iterate(CAT_MAP, x, 1)
        assert y == (Fraction(4, 5), Fraction(3, 5))

    def test_toral_distance_is_sup_metric(self):
        d = point_distance(CAT_MAP, (Fraction(1, 10), Fraction(0)),
                          (Fraction(9, 10), Fraction(1, 3)))
        assert d == Fraction(1, 3)

    def test_rotation_is_isometry(self):
        rot = Rotation(Fraction(3, 7))
        x, y = Fraction(1, 11), Fraction(5, 11)
        fx, fy = iterate(rot, x, 9), iterate(rot, y, 9)
        assert point_distance(rot, fx, fy) == point_distance(rot, x, y)


class TestReturnStatistics:
    def test_min_return_distance_periodic_point(self):
        res = min_return_distance(DOUBLING, Fraction(1, 5), 10)
        assert res.rho == 0
        assert res.argmin == 4

    def test_return_time_known_values(self):
        assert return_time(DOUBLING, Fraction(1, 3), Fraction(1, 10), 50) == 2
        assert return_time(DOUBLING, Fraction(1, 5), Fraction(1, 100), 50) == 4

    def test_horizon_exhaustion_returns_none(self):
        # 1/3 has period 2; radius below any attained distance, horizon 1
        assert return_time(DOUBLING, Fraction(1, 3), Fraction(1, 100), 1) is None

    def test_return_exponents_median_near_one(self):
        rng = random.Random(5)
        slopes = []
        for _ in range(12):
            x = Fraction(rng.getrandbits(64), 1 << 64)
            grid = [Fraction(1, 2**k) for k in range(3, 11)]
            res = return_exponents(DOUBLING, x, grid, horizon=4000)
            if not math.isnan(res.slope):
                slopes.append(res.slope)
        assert slopes
        slopes.sort()
        median = slopes[len(slopes) // 2]
        assert 0.6 <= median <= 1.4

    def test_boshernitzan_statistic_shrinks_for_alpha_two(self):
        x = Fraction(987654321987654321, 2**64)
        early = boshernitzan_statistic(DOUBLING, x, 2.0, 100)
        late = boshernitzan_statistic(DOUBLING, x, 2.0, 10000)
        assert late <= early


class TestFixedPointOrbit:
    def test_precision_budget_enforced(self):
        with pytest.raises(PrecisionBudgetError):
            FixedPointOrbit(BetaMap("golden"), 12345, 32, horizon=1000)

    def test_horizon_enforced(self):
        orbit = FixedPointOrbit(BetaMap("golden"), 12345, 256, horizon=2)
        orbit.step()
        orbit.step()
        with pytest.raises(PrecisionBudgetError):
            orbit.step()

    def test_rotation_orbit_matches_exact(self):
        alpha = Fraction(5, 17)
        P = 128
        x0 = Fraction(3, 16)
        orbit = FixedPointOrbit(Rotation(alpha), (x0.numerator << P) // x0.denominator,
                                P, horizon=40)
        pt = x0
        for _ in range(40):
            orbit.step()
            pt = (pt + alpha) % 1
            approx = orbit.X / (1 << P)
            assert abs(approx - float(pt)) <= orbit.err_bound

    def test_beta_error_bound_honest_against_higher_precision(self):
        # the same start run at double the precision acts as ground truth
        x0_bits = random.Random(3).getrandbits(128)
        lo = FixedPointOrbit(BetaMap("golden"), x0_bits << (192 - 128), 192, horizon=60)
        hi = FixedPointOrbit(BetaMap("golden"), x0_bits << (384 - 128), 384, horizon=60)
        for _ in range(60):
            lo.step()
            hi.step()
            gap = abs(lo.X / (1 << lo.P) - hi.X / (1 << hi.P))
            assert gap <= lo.err_bound

    def test_error_bound_stays_finite_and_honest_past_float_range(self):
        # P = 1454 > 1024 bits and 2000 golden-mean steps: a float ulp count
        # would overflow near step 1472, and a float 2**-P underflows
        golden = BetaMap("golden")
        P = required_bits(golden, 2000)
        x0_bits = sample_bits(11, 0, P)
        lo = FixedPointOrbit(golden, x0_bits, P, horizon=2000)
        hi = FixedPointOrbit(golden, x0_bits << P, 2 * P, horizon=2000)
        for _ in range(2000):
            lo.step()
            hi.step()
            gap = Fraction(abs((lo.X << P) - hi.X), 1 << (2 * P))
            assert gap <= lo.err_bound
        assert isinstance(lo.err_ulp, int)
        assert math.isfinite(lo.err_bound) and 0 < lo.err_bound < 2.0 ** -60

    def test_distance_uses_interval_metric_for_beta(self):
        # beta-maps act on [0,1); points near the two ends are far apart
        orbit = FixedPointOrbit(BetaMap("golden"), 1, 128, horizon=1)
        orbit.X = (1 << 128) - 1
        assert orbit.dist_to_start() > 0.9


class TestDyadicOrbitView:
    def make_view(self, seed, horizon=200):
        P = horizon + 64
        return DyadicOrbitView(sample_bits(seed, 0, P), P, horizon)

    def test_window_matches_exact_point(self):
        view = self.make_view(1)
        for n in range(0, 200, 7):
            exact = view.exact_point(n)
            w = view.window(n)
            assert w == (exact.numerator << 64) // exact.denominator % (1 << 64)

    def test_batch_matches_scalar_windows(self):
        view = self.make_view(2)
        batch = view.windows_batch(0, 200)
        for n in range(201):
            assert int(batch[n]) == view.window(n)

    def test_circle_dist64_brackets_exact_distance(self):
        view = self.make_view(3)
        batch = view.circle_dist64_batch(1, 199)
        for n in range(1, 200):
            d64 = int(batch[n - 1])
            exact = view.exact_dist(n)
            scaled = exact * (1 << 64)
            assert abs(d64 - scaled) <= 2

    def test_dist_below_agrees_with_exact(self):
        view = self.make_view(4)
        thr = Fraction(1, 97)
        got = view.below(Radii(PowerLaw(thr, 0), 1, 199))
        for n in range(1, 200):
            assert got[n - 1] == (view.exact_dist(n) < thr)

    def test_insufficient_precision_rejected(self):
        with pytest.raises(PrecisionBudgetError):
            DyadicOrbitView(123, 100, horizon=100)

    def test_checkpoint_minima_match_direct_scan(self):
        # one sample of the scan at seed 5 is the orbit of this view
        view = self.make_view(5, horizon=500)
        rep = boshernitzan_scan(DOUBLING, [2.0], [50, 200, 500], 1, master_seed=5)
        got = rep.results["medians"]["2"]
        best = math.inf
        expect = []
        marks = {50, 200, 500}
        for n in range(1, 501):
            best = min(best, math.sqrt(n) * float(view.exact_dist(n)))
            if n in marks:
                expect.append(best)
        assert got == pytest.approx(expect, rel=1e-9)


class TestDeterministicSampling:
    def test_seed_derivation_is_stable(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(8, 3) != derive_seed(7, 3)

    def test_sample_fraction_in_unit_interval(self):
        for i in range(20):
            f = sample_fraction(0, i)
            assert 0 <= f < 1

    def test_sample_bits_width(self):
        assert 0 <= sample_bits(1, 2, 16) < (1 << 16)


class TestOrbitCsv:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "orbit.csv"
        with out.open("w") as fh:
            rows = write_orbit_csv(fh, DOUBLING, Fraction(1, 5), 6)
        lines = out.read_text().strip().splitlines()
        assert rows == 7
        assert lines[0] == "step,point,dist_to_start"
        assert len(lines) == 8

    def test_required_bits_grows_with_horizon(self):
        assert required_bits(DOUBLING, 200) > required_bits(DOUBLING, 100)
        assert required_bits(BetaMap("golden"), 100) < required_bits(DOUBLING, 100)
