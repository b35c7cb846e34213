"""Orbit computation: exact iteration, quadratic orbits, the dyadic view."""

import io
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from recurlab.dynamics import (
    DyadicOrbitView,
    FixedPointOrbit,
    derive_seed,
    point_distance,
    sample_bits,
    write_orbit_csv,
)
from recurlab.circle import ExplicitTable, PowerLaw
from recurlab.errors import PrecisionBudgetError
from recurlab.experiments import _BLOCK, Radii, boshernitzan_scan
from recurlab.systems import BetaMap, IntegerCircleMap, IrrationalConstant, Rotation, ToralLinear
from oracles import ExactOrbit

DOUBLING = IntegerCircleMap(2)
CAT_MAP = ToralLinear(((2, 1), (1, 1)))


def dyadic_point(view, n: int, row: int = 0) -> Fraction:
    """T^n of a dyadic view's start ``row`` under the doubling map, exactly."""
    return Fraction((view.starts[row] << n) % (1 << view.P), 1 << view.P)


class TestExactIteration:
    def test_doubling_period_two(self):
        # 1/3 -> 2/3 -> 1/3
        assert list(ExactOrbit(DOUBLING, [Fraction(1, 3)]).distances(2)) == [1 / 3, 0.0]

    def test_doubling_period_four(self):
        # 1/5 -> 2/5 -> 4/5 -> 3/5 -> 1/5
        assert list(ExactOrbit(DOUBLING, [Fraction(1, 5)]).distances(4)) == [0.2, 0.4, 0.4, 0.0]

    def test_cat_map_orbit(self):
        buf = io.StringIO()
        write_orbit_csv(buf, CAT_MAP, (Fraction(1, 5), Fraction(2, 5)), 2)
        assert buf.getvalue().splitlines()[1:] == ["0,0.2;0.4,0", "1,0.8;0.6,0.4",
                                                   "2,0.2;0.4,0"]

    def test_toral_distance_is_sup_metric(self):
        d = point_distance(CAT_MAP, (Fraction(1, 10), Fraction(0)),
                          (Fraction(9, 10), Fraction(1, 3)))
        assert d == Fraction(1, 3)

    def test_rotation_is_isometry(self):
        rot = Rotation(Fraction(3, 7))
        x, y = Fraction(1, 11), Fraction(5, 11)
        fx, fy = (x + 9 * rot.alpha.exact()) % 1, (y + 9 * rot.alpha.exact()) % 1
        assert point_distance(rot, fx, fy) == point_distance(rot, x, y)


class TestFixedPointOrbit:
    def test_golden_orbit_is_exact_past_float_range(self):
        # P = 1454 > 1024 bits and 2000 golden-mean steps: y stays within E
        # of x * S, E = S / 2**64 + 1, against mpmath at 4000 bits, and b
        # within a bit of 2**P (the conjugate orbit stays bounded)
        golden, P, N = BetaMap("golden"), 1454, 2000
        X0 = sample_bits(11, 0, P)
        orbit = FixedPointOrbit(golden, X0, P, horizon=N)
        assert orbit.E == (orbit.S >> 64) + 1
        with mpmath.workprec(4000):
            w, x = golden.beta.mp(), mpmath.ldexp(X0, -P)
            for _ in range(N):
                x = x * w
                x -= mpmath.floor(x)
                assert abs(orbit.step() - x * orbit.S) <= orbit.E
                assert abs(orbit.b) < 1 << (P + 1)

    @pytest.mark.parametrize("label", ("golden", "sqrt2", "sqrt3", "sqrt8"))
    def test_floor_of_is_exact(self, label):
        # floor((a + b w) / den) against mpmath, for both signs of a and b
        # and at points that land on an integer when b = 0
        w = IrrationalConstant.parse(label)
        rng = random.Random(label)
        cases = [(0, -1, 1), (0, 1, 1), (6, 0, 3), (-6, 0, 3), (7, 0, 3), (-7, 0, 3)]
        cases += [(rng.randrange(-1 << 300, 1 << 300), rng.randrange(-1 << 300, 1 << 300),
                   rng.randrange(1, 1 << 200)) for _ in range(200)]
        with mpmath.workprec(2000):
            for a, b, den in cases:
                assert w.floor_of(a, b, den) == int(mpmath.floor((a + b * w.mp()) / den))

    def test_rational_systems_have_no_quadratic_orbit(self):
        for sys in (Rotation(Fraction(5, 17)), BetaMap(Fraction(5, 2)), BetaMap("sqrt4")):
            with pytest.raises(ValueError):
                FixedPointOrbit(sys, 12345, 256, horizon=10)


class TestDyadicOrbitView:
    def make_view(self, seed, horizon=200):
        P = horizon + 64
        return DyadicOrbitView(sample_bits(seed, 0, P), P, horizon)

    def test_window_matches_exact_point(self):
        view = self.make_view(1)
        for n in range(0, 200, 7):
            exact = dyadic_point(view, n)
            w = int(view._windows(n, n)[0, 0])
            assert w == (exact.numerator << 64) // exact.denominator % (1 << 64)

    def test_batch_matches_scalar_windows(self):
        view = self.make_view(2)
        batch = view._windows(0, 200)[0]
        for n in range(201):
            assert int(batch[n]) == int(view._windows(n, n)[0, 0])

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


class TestDyadicBlockKernel:
    """The block kernel against per-row exact arithmetic (seeded sweep)."""

    @staticmethod
    def check_rows(block, n_lo, n_hi, step=1):
        windows = block._windows(n_lo, n_hi)
        dists = block.circle_dist64_batch(n_lo, n_hi)
        assert windows.shape == dists.shape == (len(block.starts), n_hi - n_lo + 1)
        for row in range(len(block.starts)):
            for n in range(n_lo, n_hi + 1, step):
                point = dyadic_point(block, n, row)
                assert int(windows[row, n - n_lo]) == (point.numerator << 64) // point.denominator
                exact = block.exact_dist(n, row) * (1 << 64)
                assert abs(int(dists[row, n - n_lo]) - exact) <= 2

    @pytest.mark.parametrize("horizon, extra", [(40, 0), (61, 0), (100, 5), (203, 1)])
    def test_block_sweep_matches_exact_rows(self, horizon, extra):
        # P = horizon + 64 + extra is a multiple of 8 only in the first case
        rng = random.Random(horizon)
        P = horizon + 64 + extra
        per_block = max(1, _BLOCK // horizon)
        for rows in (1, 2, 7, per_block + 1):
            block = DyadicOrbitView([rng.getrandbits(P) for _ in range(rows)], P, horizon)
            step = 1 if rows <= 7 else 13
            for n_lo in (0, 1, rng.randint(2, horizon)):
                self.check_rows(block, n_lo, horizon, step)

    def test_horizon_past_the_block_budget(self):
        horizon = _BLOCK + 37
        assert max(1, _BLOCK // horizon) == 1
        P = horizon + 64
        block = DyadicOrbitView([sample_bits(9, 0, P)], P, horizon)
        self.check_rows(block, 0, horizon, step=997)
        self.check_rows(block, horizon - 20, horizon)

    def test_block_of_views_stacks_their_starts(self):
        P, horizon = 150, 80
        views = [DyadicOrbitView(sample_bits(4, i, P), P, horizon) for i in range(5)]
        block = DyadicOrbitView.block(views)
        stacked = block.circle_dist64_batch(1, horizon)
        for row, view in enumerate(views):
            assert np.array_equal(stacked[row], view.circle_dist64_batch(1, horizon))
            assert int(view._windows(17, 17)[0, 0]) == int(block._windows(17, 17)[row, 0])

    def test_gray_band_decided_row_by_row(self):
        # x and 1 - x have the same return distances under doubling, so one
        # table within 2**-P of them puts every comparison of those rows in
        # the gray band: a tie is a miss, one ulp more a hit. Row 0 is
        # another start, so a row mix-up in the exact resolution shows.
        N = 150
        P = N + 64
        X0, X1 = sample_bits(31, 0, P), sample_bits(31, 1, P)
        starts = [X1] + [X0, (1 << P) - X0] * 3
        block = DyadicOrbitView(starts, P, N)
        ulp = Fraction(1, 1 << P)
        d = [block.exact_dist(n, 1) for n in range(1, N + 1)]
        rho = [min(d[:n]) for n in range(1, N + 1)]
        below = Radii(ExplicitTable(tuple(v + (n % 2) * ulp for n, v in enumerate(d, 1))), 1, N)
        min_below = Radii(ExplicitTable(tuple(v + (n % 2) * ulp for n, v in enumerate(rho, 1))),
                          1, N)
        got_below, got_min = block.below(below), block.min_below(min_below)
        for row, x in enumerate(starts):
            exact = ExactOrbit(DOUBLING, [Fraction(x, 1 << P)])
            assert got_below[row].tolist() == list(exact.below(below))
            assert got_min[row].tolist() == list(exact.min_below(min_below))
        odd = [n % 2 == 1 for n in range(1, N + 1)]
        assert all(got_below[row].tolist() == odd for row in range(1, 7))
        assert all(got_min[row].tolist() == odd for row in range(1, 7))


class TestDeterministicSampling:
    def test_seed_derivation_is_stable(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(8, 3) != derive_seed(7, 3)

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

    def test_rational_beta_trace_is_exact(self):
        # 1/3 -> 5/6 -> 1/12 -> 5/24 under x -> 5x/2 mod 1
        buf = io.StringIO()
        write_orbit_csv(buf, BetaMap(Fraction(5, 2)), Fraction(1, 3), 3)
        assert [row.split(",")[1] for row in buf.getvalue().splitlines()[1:]] == [
            f"{float(v):.15g}" for v in (Fraction(1, 3), Fraction(5, 6), Fraction(1, 12), Fraction(5, 24))]

    @pytest.mark.parametrize("sys", (BetaMap("golden"), Rotation("golden")))
    def test_irrational_trace_is_refused(self, sys):
        with pytest.raises(ValueError, match="a trace needs a rational system"):
            write_orbit_csv(io.StringIO(), sys, Fraction(1, 3), 3)
