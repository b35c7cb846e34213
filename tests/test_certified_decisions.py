"""Certified hit/miss decisions: the float band of ``Radii``, its exact
resolution, the exact quadratic orbits against mpmath, and the counters."""

import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest

from recurlab import experiments
from recurlab.circle import ExplicitTable, PowerLaw, RadiusSequence
from recurlab.cli import parse_sequence, parse_system
from recurlab.dynamics import (
    DyadicOrbitView,
    FixedPointOrbit,
    LatticeOrbit,
    ScreenedBlock,
    SteppedBlock,
    _lattice,
    orbit_backend,
    sample_bits,
)
from recurlab.experiments import (
    Radii,
    _sample_blocks,
    rio_dichotomy,
    rio_truncated_measure,
)
from recurlab.systems import BetaMap, IntegerCircleMap, Rotation
from oracles import ExactOrbit

DOUBLING = IntegerCircleMap(2)
QUARTER_ROOT = "powerlaw:1/4,1/2"  # r_2 = 2**-5/2, irrational


def below_by_mpmath(d: Fraction, seq, n: int) -> bool:
    """d < r_n at 400 bits: an oracle independent of ``Radii``."""
    with mpmath.workprec(400):
        return mpmath.mpf(d.numerator) / d.denominator < seq.mp(n)


class TestTiesAtTheFloor:
    """A distance equal to floor(r_n * S) / S is below an irrational r_n."""

    def test_shift_decides_the_tie_a_hit(self):
        seq, P = parse_sequence(QUARTER_ROOT), 74
        F = math.isqrt(1 << (2 * P - 5))  # floor(r_2 * 2**P) = floor(2**P / sqrt(32))
        X0 = F * pow(3, -1, 1 << P) % (1 << P)  # T^2 x - x = 3x = F / 2**P
        view = DyadicOrbitView(X0, P, 10)
        assert view.exact_dist(2) == Fraction(F, 1 << P)
        assert below_by_mpmath(view.exact_dist(2), seq, 2)
        radii = Radii(seq, 2, 2)
        assert view.below(radii).tolist() == [True]
        assert view.min_below(Radii(seq, 2, 2)).tolist() == [True]
        assert (radii.gray, radii.mp) == (1, 1)

    def test_lattice_decides_the_tie_a_hit(self):
        # circle:4 at n = 2 moves x to 16x, so d_2 = 15x = F / S
        seq, N = parse_sequence(QUARTER_ROOT), 2
        P, S, walk = _lattice(parse_system("circle:4"), N)
        F = math.isqrt(S * S // 32)  # floor(r_2 * S)
        orbit = LatticeOrbit(S, walk, N, F * pow(15, -1, S) % S)
        assert list(orbit._dists(N))[-1] == F
        assert below_by_mpmath(Fraction(F, S), seq, 2)
        assert list(orbit.below(Radii(seq, 2, 2))) == [True]
        assert list(ExactOrbit(parse_system("circle:4"), [Fraction(orbit.X0, S)])
                    .below(Radii(seq, 2, 2))) == [True]


class TestQuadraticOrbits:
    @staticmethod
    def exact_distances(beta: Fraction, x0: Fraction, N: int) -> list[Fraction]:
        """d(T^n x, x), n = 1..N, for x -> beta x mod 1 in Fractions."""
        out, x = [], x0
        for _ in range(N):
            x = x * beta
            x -= math.floor(x)
            out.append(abs(x - x0))
        return out

    def test_rational_beta_equals_the_exact_orbit(self):
        beta, N = parse_system("beta:5/2"), 2000
        assert beta.beta.exact() == Fraction(5, 2)
        start = orbit_backend(beta, N)
        for i in range(3):
            orbit = start(61, i)
            assert isinstance(orbit, LatticeOrbit)
            d = self.exact_distances(Fraction(5, 2), Fraction(orbit.X0, orbit.S), N)
            rho = list(accumulate(d, min))
            for spec in ("powerlaw:1,1", "powerlaw:1/2,1"):
                seq = parse_sequence(spec)
                radii = Radii(seq, 1, N)
                got = list(orbit.below(radii))
                assert got == [v < seq.exact(n) for n, v in enumerate(d, 1)]
                assert list(orbit.min_below(radii)) == [
                    v < seq.exact(n) for n, v in enumerate(rho, 1)]
                assert radii.gray == 0
            assert any(got) and not all(got)

    def test_irrational_rotation_equals_the_exact_orbit_where_decidable(self):
        # golden-mean rotation: the float decision and the exact one agree on
        # seeded samples
        rot, N = Rotation("golden"), 300
        start = orbit_backend(rot, N)
        seq = parse_sequence("powerlog:1,2")
        radii = Radii(seq, 1, N)
        for i in range(4):
            orbit = start(63, i)
            got = list(orbit.below(radii))
            assert got == [d < r for d, r in zip(orbit.distances(N), radii.approx)]

    def test_exact_distance_is_in_the_system_metric(self):
        unit = 1 << 128
        beta = FixedPointOrbit(BetaMap("golden"), 1, 128, horizon=1)
        beta.a = unit - 1  # x = 1 - 2**-128 and x0 = 2**-128
        assert beta._floor_at()(unit) == unit - 2  # interval: the far end
        rot = FixedPointOrbit(Rotation("golden"), 1, 128, horizon=1)
        rot.step()  # x - x0 = w - 1 = 0.618..., which is 2 - w = 0.381... around the circle
        T = 1 << 400
        assert rot._floor_at()(T) == 3 * T // 2 - math.isqrt(5 * T * T // 4) - 1  # T (3 - sqrt 5) / 2

    def test_walks_refuse_to_run_past_the_horizon(self):
        orbit = FixedPointOrbit(BetaMap("golden"), 12345, 256, horizon=2)
        seq = parse_sequence("powerlaw:1,1")
        for run in (lambda: orbit.below(Radii(seq, 1, 3)), lambda: orbit.distances(3),
                    lambda: orbit._decisions([Radii(seq, 1, 3)] * 2, False)):
            with pytest.raises(ValueError):
                run()
        assert list(orbit.below(Radii(seq, 1, 2))) == [True, True]  # x0 is tiny, and so d_n


def test_lattice_rotation_with_an_irrational_radius_equals_the_exact_orbit():
    sys, N = parse_system("rotation:5/17"), 120
    start = orbit_backend(sys, N)
    for spec in ("powerlog:1,2", QUARTER_ROOT):
        seq = parse_sequence(spec)
        for i in range(3):
            orbit = start(64, i)
            exact = ExactOrbit(sys, [Fraction(orbit.X0, orbit.S)])
            d = list(exact._dists(N))
            rho = list(accumulate(d, min))
            want = [below_by_mpmath(v, seq, n) for n, v in enumerate(d, 1)]
            want_min = [below_by_mpmath(v, seq, n) for n, v in enumerate(rho, 1)]
            assert list(orbit.below(Radii(seq, 1, N))) == want
            assert list(exact.below(Radii(seq, 1, N))) == want
            assert list(orbit.min_below(Radii(seq, 1, N))) == want_min
            assert list(exact.min_below(Radii(seq, 1, N))) == want_min
            assert any(want) and not all(want)


class TestCounters:
    def test_seeded_doubling_rio_has_no_gray_entries(self):
        N, M = 500, 300
        tables = [Radii(parse_sequence("powerlaw:1/2,1"), 10, N),
                  Radii(parse_sequence("powerlog:1,2"), 10, N)]
        hits = [0, 0]
        for block in _sample_blocks(DOUBLING, N, M, 7):
            for j, h in enumerate(block.any_below_each(tables)):
                hits[j] += int(h.sum())
        assert 0 < hits[1] < hits[0] < M
        assert all((r.gray, r.mp) == (0, 0) for r in tables)

    def test_all_gray_table_is_counted(self):
        # the table of test_gray_band_decided_row_by_row: every entry of the
        # rows x and 1 - x is gray
        N = 150
        P = N + 64
        X0, X1 = sample_bits(31, 0, P), sample_bits(31, 1, P)
        block = DyadicOrbitView([X1] + [X0, (1 << P) - X0] * 3, P, N)
        ulp = Fraction(1, 1 << P)
        d = [block.exact_dist(n, 1) for n in range(1, N + 1)]
        radii = Radii(ExplicitTable(tuple(v + (n % 2) * ulp for n, v in enumerate(d, 1))), 1, N)
        block.below(radii)
        assert radii.gray >= 6 * N
        assert radii.mp == 0

    def test_only_the_gray_row_is_looked_up(self):
        # r_n half an ulp of 2**-P above d_n of row 2 on odd n, equal on even
        # n: every entry of that row is gray, and no entry of the others
        N, rows = 60, 5
        P = N + 64
        block = DyadicOrbitView([sample_bits(41, i, P) for i in range(rows)], P, N)
        half_ulp = Fraction(1, 1 << (P + 1))
        d = [block.exact_dist(n, 2) for n in range(1, N + 1)]
        nudged = ExplicitTable(tuple(v + (n % 2) * half_ulp for n, v in enumerate(d, 1)))
        for seq, gray in ((nudged, N), (parse_sequence("powerlaw:1/2,1"), 0)):
            radii = Radii(seq, 1, N)
            assert block.below(radii).tolist() == [
                [below_by_mpmath(block.exact_dist(n, row), seq, n) for n in range(1, N + 1)]
                for row in range(rows)]
            assert (radii.gray, radii.mp) == (gray, 0)


def test_dichotomy_draws_each_sample_once(monkeypatch):
    drawn = []
    original = experiments._sample_start
    monkeypatch.setattr(experiments, "_sample_start",
                        lambda start, seed, i: drawn.append(i) or original(start, seed, i))
    for system in ("doubling", "beta:golden", "circle:3"):
        drawn.clear()
        rep = rio_dichotomy(parse_system(system), parse_sequence("powerlog:1,2"),
                            parse_sequence("powerlaw:1/2,1"), 5, 60, 120, 3)
        assert sorted(drawn) == list(range(120))
        conv = rio_truncated_measure(parse_system(system), parse_sequence("powerlog:1,2"),
                                     5, 60, 120, 3)
        assert rep.results["estimate_convergent"] == conv.results["estimate"]
        assert rep.results["tail_bound_convergent"] == conv.results["tail_bound"]


def windows_are_decided_safely(lo64: int, hi64: int, t: int) -> bool:
    """A window w is within 2 of 2**64 d: w < lo64 must give d * 2**64 <= t
    (t the largest integer below r * 2**64), and w > hi64 must give
    d * 2**64 >= t + 1. Windows are at most 2**63."""
    return lo64 + 1 <= max(t, 1) and (hi64 - 1 >= t + 1 or hi64 > 1 << 63)


def test_band_contains_the_radius():
    # lo < r_n * S < hi at the shift's and a lattice's scale, for irrational
    # radii and a rational one, from the float table alone
    for spec in ("powerlog:1,2", "powerlaw:1,1/2", "powerlaw:3,2", "ear:1"):
        seq = parse_sequence(spec)
        radii = Radii(seq, 1, 400)
        lo64, hi64 = radii.band64
        for S in (1 << 64, 17 << 300):
            lo, hi = radii.band(S)
            for i in range(0, 400, 7):
                t = experiments.scaled_radius(seq, i + 1, S)  # the largest integer below r * S
                assert lo[i] <= t < hi[i]
                if S == 1 << 64:
                    assert windows_are_decided_safely(int(lo64[i]), int(hi64[i]), t)
    # radii of a few ulps of 2**-64, where only _SLACK covers the windows' error
    few = Radii(ExplicitTable((Fraction(1, 1 << 62), Fraction(3, 1 << 63), Fraction(5, 10 ** 19))),
                1, 3)
    for i, (lo64, hi64) in enumerate(zip(*few.band64)):
        t = experiments.scaled_radius(few.seq, i + 1, 1 << 64)
        assert windows_are_decided_safely(int(lo64), int(hi64), t)
    tiny = Radii(PowerLaw(Fraction(1), Fraction(400)), 1, 10)  # r_10 = 1e-400 is 0.0 as a float
    lo, hi = tiny.band(1 << 2000)
    assert tiny.approx[-1] == 0.0 and lo[-1] == 0 and hi[-1] == math.inf
    assert int(tiny.band64[0][-1]) == 0 and int(tiny.band64[1][-1]) > 1 << 63


def test_dichotomy_rejects_an_empty_window():
    with pytest.raises(ValueError):
        rio_dichotomy(DOUBLING, parse_sequence("powerlog:1,2"), parse_sequence("powerlaw:1,1"),
                      10, 5, 100)


def branch_end(sys, P: int) -> int:
    """ceil(2**P / beta): beta x is just above 1, so the first digit of x is
    within any float's error of both 0 and 1."""
    with mpmath.workprec(4 * P):
        return int(mpmath.ceil(mpmath.mpf(2) ** P / sys.beta.mp()))


def golden_branch_end(P: int) -> int:
    return branch_end(BetaMap("golden"), P)


def test_beta_step_at_a_branch_end_takes_the_right_branch():
    # golden mean, P = 201, x = ceil(2**P / beta) / 2**P: beta x is 1 plus
    # about 2**-202, so T x is tiny and d_1 = x = 0.618...; the Q-bit
    # multiplier reads it within |b| of 1, and the exact floor picks branch 1
    golden, P = BetaMap("golden"), 201
    X0 = golden_branch_end(P)
    with mpmath.workprec(1000):
        beta = (1 + mpmath.sqrt(5)) / 2
        assert 0 < beta * X0 - mpmath.mpf(2) ** P < 1
    orbit = FixedPointOrbit(golden, X0, P, 5)
    orbit.step()
    assert (orbit.a, orbit.b) == (-(1 << P), X0)  # x_1 = (X0 beta - 2**P) / 2**P
    assert orbit.distances(3).tolist() == pytest.approx([(math.sqrt(5) - 1) / 2] * 3, abs=1e-15)
    radii = Radii(ExplicitTable((Fraction(1, 2),) * 5), 1, 5)
    assert list(orbit.below(radii)) == [False] * 5  # 0.618... is not below 1/2
    assert radii.gray == 0


def test_periodic_golden_start_returns_exactly():
    # x0 = 1/2 -> beta/2 -> (beta - 1)/2 -> 1/2 under the golden mean: the
    # third point is dyadic again (b = 0), so d_3 = d_6 = 0 exactly
    P = 256
    orbit = FixedPointOrbit(BetaMap("golden"), 1 << (P - 1), P, 6)
    d = orbit.distances(6)
    assert (orbit.a, orbit.b) == (1 << (P - 1), 0)
    with mpmath.workprec(200):  # correctly rounded
        assert d.tolist() == [float((mpmath.sqrt(5) - 1) / 4),
                              float((3 - mpmath.sqrt(5)) / 4), 0.0] * 2
    radii = Radii(ExplicitTable((Fraction(1, 10 ** 30),) * 6), 1, 6)
    assert list(orbit.below(radii)) == [False, False, True] * 2
    assert list(orbit.min_below(radii)) == [False, False, True, True, True, True]


# ---------------------------------------------------------------------------
# Quadratic orbits against an mpmath orbit
# ---------------------------------------------------------------------------

QUADRATIC = ("beta:golden", "beta:sqrt2", "beta:sqrt3", "rotation:golden", "rotation:sqrt2")


def mp_distances(sys, X0: int, P: int, N: int) -> list:
    """d(T^n x, x), n = 1..N, for x = X0 / 2**P, by mpmath at 3000 bits: a
    step loses at most log2(beta) < 1 bit."""
    beta = isinstance(sys, BetaMap)
    with mpmath.workprec(3000):
        w = (sys.beta if beta else sys.alpha).mp()
        x0 = mpmath.ldexp(X0, -P)
        x, out = x0, []
        for _ in range(N):
            x = x * w if beta else x + w
            x -= mpmath.floor(x)
            t = x - x0 if beta else (x - x0) % 1
            out.append(abs(t) if beta else min(t, 1 - t))
    return out


def mp_below(ds: list, seq, n_lo: int) -> list[bool]:
    """d_n < r_n at 3000 bits, n = n_lo, n_lo + 1, ..."""
    with mpmath.workprec(3000):
        return [d < seq.mp(n) for n, d in enumerate(ds[n_lo - 1:], n_lo)]


def running_min(ds: list) -> list:
    with mpmath.workprec(3000):
        return list(accumulate(ds, min))


def quadratic_cases():
    """(spec, X0, P): seeded samples, and on the golden mean a start at a
    branch end."""
    for spec in QUADRATIC:
        start = orbit_backend(parse_system(spec), 60)
        for i in range(3):
            orbit = start(65, i)
            yield spec, orbit.X0, orbit.P
    yield "beta:golden", golden_branch_end(201), 201


@pytest.mark.parametrize("spec, X0, P", list(quadratic_cases()))
def test_quadratic_orbit_equals_an_mpmath_orbit(spec, X0, P):
    # distances within E of the mpmath ones and correctly rounded, and every
    # decision as the mpmath distances decide it
    sys, N = parse_system(spec), 60
    ds = mp_distances(sys, X0, P, N)
    orbit = FixedPointOrbit(sys, X0, P, N)
    with mpmath.workprec(3000):
        assert all(abs(abs(orbit.step() - orbit._a0) - d * orbit.S) <= orbit.E for d in ds)
        assert orbit.distances(N).tolist() == [float(d) for d in ds]
    for spec_r, n_lo in (("powerlog:1,2", 1), ("powerlaw:1/2,1", 5), (QUARTER_ROOT, 1)):
        seq = parse_sequence(spec_r)
        assert list(orbit.below(Radii(seq, n_lo, N))) == mp_below(ds, seq, n_lo)
        assert list(orbit.min_below(Radii(seq, n_lo, N))) == mp_below(running_min(ds), seq, n_lo)


class NearRadius(RadiusSequence):
    """r_n = (F_n + sqrt(2) - 2 + 2 (n % 2)) / T: irrational, above
    (F_n + 1) / T on odd n and below F_n / T on even n."""

    def __init__(self, floors: list[int], T: int):
        self.floors, self.T = floors, T

    def exact(self, n: int):
        return None

    def mp(self, n: int):
        return (self.floors[n - 1] + 2 * (n % 2) - 2 + mpmath.sqrt(2)) / self.T

    def approx(self, n: int) -> float:
        return float(self.mp(n))


@pytest.mark.parametrize("spec", QUADRATIC)
def test_gray_entries_are_decided_exactly(spec):
    # radii within 2/T of d_n, T = 2**64 S, above it on odd n and below it on
    # even n, rational and irrational: every entry is gray, E leaves it
    # open, and the exact floors decide it
    sys, N = parse_system(spec), 30
    orbit = orbit_backend(sys, N)(72, 0)
    ds = mp_distances(sys, orbit.X0, orbit.P, N)
    T = orbit.S << 64
    with mpmath.workprec(3000):
        floors = [int(mpmath.floor(d * T)) for d in ds]
    rational = ExplicitTable(tuple(Fraction(F + n % 2, T) for n, F in enumerate(floors, 1)))
    for seq, mp in ((rational, 0), (NearRadius(floors, T), N)):
        radii = Radii(seq, 1, N)
        assert list(orbit.below(radii)) == [n % 2 == 1 for n in range(1, N + 1)]
        assert (radii.gray, radii.mp) == (N, mp)
        assert list(orbit.min_below(Radii(seq, 1, N))) == mp_below(running_min(ds), seq, 1)


@pytest.mark.parametrize("offset", (0, 1 << (256 - 42)))
def test_distances_near_the_bound_are_decided_exactly(offset):
    # x0 = (floor(2**P beta / 2) + offset) / 2**P shadows the 3-cycle
    # beta/2 -> (beta - 1)/2 -> 1/2, while b is near 2**P: d_3, d_6 and d_9
    # are below 2**-240 (offset 0), where D's error of up to E = 2**-64 S
    # hides them, or near 2**-40, where it exceeds the float band; radii
    # within 2**-320 of each d_n, above it on odd n and below it on even n
    golden, P, N = BetaMap("golden"), 256, 9
    X0 = golden.beta.floor_of(0, 1 << (P - 1), 1) + offset
    ds, T = mp_distances(golden, X0, P, N), 1 << 320
    with mpmath.workprec(3000):
        assert all(ds[n - 1] < mpmath.ldexp(1, -240 if offset == 0 else -30) for n in (3, 6, 9))
        seq = ExplicitTable(tuple(Fraction(int(mpmath.floor(d * T)) + n % 2, T)
                                  for n, d in enumerate(ds, 1)))
    orbit = FixedPointOrbit(golden, X0, P, N)
    assert list(orbit.below(Radii(seq, 1, N))) == [n % 2 == 1 for n in range(1, N + 1)]
    assert list(orbit.min_below(Radii(seq, 1, N))) == mp_below(running_min(ds), seq, 1)


@pytest.mark.parametrize("spec", QUADRATIC)
def test_coefficients_stay_within_the_bound(spec):
    # |b| < 2**(P + Q - 64) over the horizon, the conjugate bound that Q is
    # sized from; for the golden mean (a Pisot number) b stays within a bit
    # of 2**P at any horizon, and Q = 67
    sys, N = parse_system(spec), 300
    start = orbit_backend(sys, N)
    for i in range(3):
        orbit, top = start(73, i), 0
        for _ in range(N):
            orbit.step()
            top = max(top, abs(orbit.b))
        Q = orbit.walk.k[3]
        assert top < 1 << (orbit.P + Q - 64)
        if spec == "beta:golden":
            assert top < 1 << (orbit.P + 1) and Q == 67


@pytest.mark.parametrize("spec", ("beta:golden", "rotation:golden", "circle:3",
                                  "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2",
                                  "toral:2,1;1,1", "beta:sqrt2"))
def test_tables_share_one_walk(spec, monkeypatch):
    # each table's hits and counters as if it were decided alone, from as
    # many steps as the table that walks furthest alone takes: the steps of
    # a quadratic block, or the entries of the scalar walk of lattice rows,
    # which their screened block decides alike without walking any row
    N, specs = 120, ("powerlog:1,2", "powerlaw:1/2,1", "powerlaw:1,2")
    start = orbit_backend(parse_system(spec), N)
    orbits = [start(66, i) for i in range(25)]
    lattice, steps = isinstance(orbits[0], LatticeOrbit), []
    if lattice:
        dists = LatticeOrbit._dists
        monkeypatch.setattr(LatticeOrbit, "_dists", lambda o, n: (
            steps.append(o) or D for D in dists(o, n)))
    else:
        step = FixedPointOrbit.step
        monkeypatch.setattr(FixedPointOrbit, "step", lambda o: steps.append(o) or step(o))
    block = SteppedBlock(orbits) if lattice else orbits[0].block(orbits)
    together = [Radii(parse_sequence(s), 4, N) for s in specs]
    hits = block.any_below_each(together)
    walked = [steps.count(o) for o in orbits]
    alone = []
    for radii, got, shared in zip([Radii(parse_sequence(s), 4, N) for s in specs], hits, together):
        steps.clear()
        assert np.array_equal(got, block.any_below_each([radii])[0])
        assert (shared.gray, shared.mp) == (radii.gray, radii.mp)
        alone.append([steps.count(o) for o in orbits])
    assert walked == [max(col) for col in zip(*alone)] and sum(walked) > 0
    assert len({int(h.sum()) for h in hits}) > 1  # the tables stop at different steps
    if lattice:
        steps.clear()
        screened = [Radii(parse_sequence(s), 4, N) for s in specs]
        assert [h.tolist() for h in orbits[0].block(orbits).any_below_each(screened)] == \
            [h.tolist() for h in hits]
        assert [(r.gray, r.mp) for r in screened] == [(r.gray, r.mp) for r in together]
        assert not steps


@pytest.mark.parametrize("spec", ("beta:golden", "rotation:golden", "circle:3",
                                  "toral:2,1;1,1", "beta:sqrt2"))
@pytest.mark.parametrize("running_min", (False, True))
def test_tables_decided_together_decide_as_alone(spec, running_min):
    # every decision and counter of every table, not only the first hit; on
    # the golden mean also from a branch end
    N, specs = 60, ("powerlog:1,2", "powerlaw:1/2,1", "powerlaw:1,2")
    start = orbit_backend(parse_system(spec), N)
    orbits = [start(67, i) for i in range(4)]
    if spec == "beta:golden":
        orbits.append(FixedPointOrbit(BetaMap("golden"), golden_branch_end(201), 201, N))
    for orbit in orbits:
        shared = [Radii(parse_sequence(s), 3, N) for s in specs]
        together = orbit._decisions(shared, running_min)
        alone = [Radii(parse_sequence(s), 3, N) for s in specs]
        assert [list(d) for d in together] == [
            list(orbit.min_below(r) if running_min else orbit.below(r)) for r in alone]
        assert [(r.gray, r.mp) for r in shared] == [(r.gray, r.mp) for r in alone]


@pytest.mark.parametrize("spec", ("beta:golden", "circle:3"))
def test_tables_of_one_call_share_their_range(spec):
    # one walk serves every table only over one range of n
    start = orbit_backend(parse_system(spec), 50)
    block = start(66, 0).block([start(66, i) for i in range(3)])
    seq = parse_sequence("powerlaw:1,2")
    for other in (Radii(seq, 4, 50), Radii(seq, 5, 40)):
        with pytest.raises(ValueError):
            block.any_below_each([Radii(seq, 4, 40), other])


def test_dichotomy_steps_each_orbit_once(monkeypatch):
    # as many exact quadratic steps as the convergent table alone needs: the
    # divergent one has its first hit no later on these samples. A beta-map
    # block takes one step per float segment that a row passes (the scalar
    # walk took 113,837 here, one per entry)
    steps = 0
    original = FixedPointOrbit.step

    def counted(self):
        nonlocal steps
        steps += 1
        return original(self)

    monkeypatch.setattr(FixedPointOrbit, "step", counted)
    golden, conv = BetaMap("golden"), parse_sequence("powerlog:1,2")
    rio_dichotomy(golden, conv, parse_sequence("powerlaw:1/2,1"), 10, 1000, 200, 1)
    assert steps == 3_824
    steps = 0
    rio_truncated_measure(golden, conv, 10, 1000, 200, 1)
    assert steps == 3_824


# ---------------------------------------------------------------------------
# Beta-map blocks: the screened float walk against the scalar walk
# ---------------------------------------------------------------------------

BETAS = ("beta:golden", "beta:sqrt2", "beta:sqrt3")


@pytest.mark.parametrize("spec", BETAS)
def test_segment_bound_holds_against_mpmath(spec):
    # the float walk of a segment, as the screen steps it, stays within eps
    # of the true orbit wherever its digits are certified; eps_K <= 2**-30
    sys = parse_system(spec)
    start = orbit_backend(sys, 60)
    family = start(74, 0).walk
    w, (K, eps, err) = family.w, family.segment
    assert 2 ** -32 < eps <= 2 ** -30 and err >= eps + 2 ** -51
    with mpmath.workprec(600):
        omega = sys.beta.mp()
        for i in range(20):
            orbit = start(74, i)
            x, xf = mpmath.ldexp(orbit.X0, -orbit.P), orbit.X0 / orbit.S
            for _ in range(K):
                t = xf * w
                xf = t - math.floor(t)
                x = x * omega
                x -= mpmath.floor(x)
                assert eps < xf < 1 - eps and abs(xf - x) <= eps


def screened_and_scalar(orbits, make_tables, call):
    """(decisions, counters, rows walked exactly) of a screened block's call,
    and (decisions, counters) of the scalar SteppedBlock call on fresh
    tables."""
    walked, kind = [], type(orbits[0])
    dists = kind._dists
    kind._dists = lambda o, n: walked.append(orbits.index(o)) or dists(o, n)
    try:
        tables = make_tables()
        got = call(orbits[0].block(orbits), tables)
    finally:
        kind._dists = dists
    scalar = make_tables()
    want = call(SteppedBlock(orbits), scalar)
    counters = lambda ts: [(r.gray, r.mp) for r in ts]  # noqa: E731
    return (got, counters(tables), sorted(set(walked))), (want, counters(scalar))


def near_table(d: list, n: int, base) -> ExplicitTable:
    """``base`` (r_j for j = 1..len(base)), with r_n within 2**-45 above d."""
    T = 1 << 60
    with mpmath.workprec(3000):
        r = Fraction(int(mpmath.floor(d * T)), T) + Fraction(1, 1 << 45)
    return ExplicitTable(tuple(r if j == n else v for j, v in enumerate(base, 1)))


@pytest.mark.parametrize("spec", BETAS)
def test_screened_block_decides_as_the_scalar_walk(spec):
    # every decision and counter of any_below_each (1 and 3 tables),
    # all_min_below and below as the scalar walk's, on seeded rows, a row
    # whose first digit no float certifies, and a row with an entry within
    # 2**-45 of its radius; those two rows, and only those, walk exactly
    sys, N, n_lo = parse_system(spec), 90, 3
    start = orbit_backend(sys, N)
    orbits = [start(75, i) for i in range(40)]
    assert isinstance(orbits[0].block(orbits), ScreenedBlock)
    P = orbits[0].P
    orbits.insert(7, FixedPointOrbit(sys, branch_end(sys, P), P, N))
    base = tuple(Fraction(1, n * n) for n in range(1, N + 1))
    misses = [g for g, o in enumerate(orbits) if g != 7 and
              not any(o.below(Radii(ExplicitTable(base), n_lo, N)))]
    g, n = misses[0], 50  # a row with no hit on base, and its gray entry
    ds = mp_distances(sys, orbits[g].X0, P, N)
    gray = near_table(ds[n - 1], n, base)
    low = near_table(running_min(ds)[n - 1], n, (Fraction(1),) * N)
    cases = [
        (lambda: [Radii(gray, n_lo, N)], lambda b, t: b.any_below_each(t)),
        (lambda: [Radii(parse_sequence(s), n_lo, N) for s in ("powerlaw:1/2,1", "powerlog:1,2")]
         + [Radii(gray, n_lo, N)], lambda b, t: b.any_below_each(t)),
        (lambda: [Radii(low, n_lo, N)], lambda b, t: [b.all_min_below(t[0])]),
        (lambda: [Radii(gray, n_lo, N)], lambda b, t: [b.below(t[0])]),
    ]
    for make_tables, call in cases:
        (got, counted, walked), (want, scalar) = screened_and_scalar(orbits, make_tables, call)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert counted == scalar
        assert walked == sorted([7, g])


@pytest.mark.parametrize("spec", BETAS)
def test_screened_block_with_no_open_row_walks_no_row_exactly(spec, monkeypatch):
    # seeded rows on the tables of mc-iterated: every row is decided in
    # floats, and the exact steps are the segment ends that rows pass
    sys, N = parse_system(spec), 200
    start = orbit_backend(sys, N)
    orbits = [start(76, i) for i in range(60)]
    K = orbits[0].row_entries
    walked, steps = [], []
    dists, step = FixedPointOrbit._dists, FixedPointOrbit.step
    monkeypatch.setattr(FixedPointOrbit, "_dists", lambda o, n: walked.append(o) or dists(o, n))
    monkeypatch.setattr(FixedPointOrbit, "step", lambda o: steps.append(o) or step(o))
    conv = Radii(parse_sequence("powerlaw:1,2"), 5, N)
    hit = orbits[0].block(orbits).any_below_each([conv])[0]
    assert not walked and (conv.gray, conv.mp) == (0, 0)
    # a row with no hit passes every segment end before N
    assert [steps.count(o) for o, h in zip(orbits, hit) if not h] == [(N - 1) // K] * (~hit).sum()
    assert hit.tolist() == [any(o.below(Radii(parse_sequence("powerlaw:1,2"), 5, N)))
                            for o in orbits]


def test_beta_blocks_are_sized_by_the_segment():
    # rio's call of mc-iterated (N = 200, M = 300) is one block; a call that
    # reads a matrix over n keeps blocks of at most _BLOCK // N rows, as few
    # as that allows, with sizes within one of each other
    golden = BetaMap("golden")
    assert [len(b.orbits) for b in _sample_blocks(golden, 200, 300, 1)] == [300]
    rows = experiments._BLOCK // 200
    sizes = [len(b.orbits) for b in _sample_blocks(golden, 200, 300, 1, dense=True)]
    assert sum(sizes) == 300 and len(sizes) == -(-300 // rows)
    assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Lattice blocks: the same screen, with matrix and affine-branch restarts
# ---------------------------------------------------------------------------

PIECEWISE = "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"  # the benchmark's map
TENT = "piecewise:0,1/2,-2,1;1/2,1,2,-1"  # its first branch maps 0 to 1, folded to 0
# a start where the map's branches (or its lift mod 1) break, and whether
# the screen leaves its first step open: only affine branches have digits
BREAKS = {"circle:3": (Fraction(1, 3), False), "circle:-2": (Fraction(1, 2), False),
          "toral:2,1;1,1": ((Fraction(1, 2), Fraction(1, 2)), False), PIECEWISE: (Fraction(1, 3), True),
          "beta:5/2": (Fraction(2, 5), True), TENT: (Fraction(1, 2), True)}


def lattice_start(orbit: LatticeOrbit, x) -> LatticeOrbit:
    """The lattice orbit of floor(x * S) / S (x a tuple on the torus)."""
    S = orbit.S
    X0 = tuple(math.floor(v * S) for v in x) if isinstance(x, tuple) else math.floor(x * S)
    return LatticeOrbit(S, orbit.walk, orbit.horizon, X0)


def exact_distances(orbit: LatticeOrbit, sys, n: int) -> list[Fraction]:
    coords = orbit.X0 if isinstance(orbit.X0, tuple) else (orbit.X0,)
    return ExactOrbit(sys, [Fraction(c, orbit.S) for c in coords])._dists(n)


@pytest.mark.parametrize("spec", list(BREAKS))
def test_lattice_block_decides_as_the_scalar_walk(spec):
    # every decision and counter of any_below_each (1 and 3 tables),
    # all_min_below and below as the scalar walk's, on seeded rows, a start
    # at a break of the map, a table whose r_10 is a row's exact d_10 (a tie)
    # and, on the tent map, the start 0, whose image 1 folds. The rows that
    # tie, the break on affine branches and the fold, and only they, walk
    # exactly
    sys, N, n_lo, n = parse_system(spec), 90, 3, 10
    start = orbit_backend(sys, N)
    orbits = [start(78, i) for i in range(40)]
    assert isinstance(orbits[0].block(orbits), ScreenedBlock)
    x, opens = BREAKS[spec]
    orbits.insert(7, lattice_start(orbits[0], x))
    want_walked = {7} if opens else set()
    if spec == TENT:
        orbits.append(lattice_start(orbits[0], Fraction(0)))
        want_walked.add(len(orbits) - 1)
    base = tuple(Fraction(1, j * j) for j in range(1, N + 1))
    g = next(h for h, o in enumerate(orbits) if h != 7 and h not in want_walked and
             not any(list(o.below(Radii(ExplicitTable(base), n_lo, N)))[:n - n_lo]))
    ds = exact_distances(orbits[g], sys, n)  # g has no hit on base before n
    ties = {h for h, o in enumerate(orbits) if exact_distances(o, sys, n)[-1] == ds[-1]}
    tie = ExplicitTable(tuple(ds[-1] if j == n else v for j, v in enumerate(base, 1)))
    low = ExplicitTable(tuple(min(ds) if j == n else Fraction(1) for j in range(1, N + 1)))
    cases = [
        (lambda: [Radii(tie, n_lo, N)], lambda b, t: b.any_below_each(t)),
        (lambda: [Radii(parse_sequence(s), n_lo, N) for s in ("powerlaw:1/2,1", "powerlog:1,2")]
         + [Radii(tie, n_lo, N)], lambda b, t: b.any_below_each(t)),
        (lambda: [Radii(low, n_lo, N)], lambda b, t: [b.all_min_below(t[0])]),
        (lambda: [Radii(tie, n_lo, N)], lambda b, t: [b.below(t[0])]),
    ]
    for make_tables, call in cases:
        (got, counted, walked), (want, scalar) = screened_and_scalar(orbits, make_tables, call)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert counted == scalar and counted[-1][0] > 0  # the tie is gray
        assert walked == sorted(want_walked | ties)
    with pytest.raises(ValueError):
        orbits[0].block(orbits).any_below_each([Radii(tie, n_lo, N + 1)])


@pytest.mark.parametrize("spec", ("beta:golden", "beta:sqrt2", "circle:3", "toral:2,1;1,1",
                                  PIECEWISE, "beta:5/2"))
def test_one_segment_jumps_to_the_exact_point(spec):
    # the family's start, one segment's float walk and its jump land every
    # row with no open step on the exact orbit's point K: a beta-map row's
    # (a, b) as a twin's after K steps, a lattice row's X as K steps of
    # sys.apply in Fractions; the new floats are those points rounded
    sys, N = parse_system(spec), 60
    orbits = [orbit_backend(sys, N)(82, i) for i in range(30)]
    family, S = orbits[0].walk, orbits[0].S
    K, eps, _ = family.segment
    states, x0 = family.start(orbits)
    _, first_open, digits = family.walk(x0, K, x0, eps)
    go = np.zeros(len(orbits), bool) | (first_open == K)  # a modular walk's is the int K
    assert go.sum() >= 25
    ok, moved, floats = family.jump(states[go], go, digits)
    assert ok.all() and len(moved) == go.sum()
    rows = [o for o, g in zip(orbits, go) if g]
    if isinstance(orbits[0], FixedPointOrbit):
        ys = []
        for o in rows:
            twin = FixedPointOrbit(sys, o.X0, o.P, N)
            ys.append([twin.step() for _ in range(K)][-1] / S)
            assert (o.a, o.b) == (twin.a, twin.b)
        assert floats.tolist() == ys
        return
    torus = isinstance(orbits[0].X0, tuple)
    for o, X, x in zip(rows, moved.tolist(), floats.T.tolist()):
        pt = tuple(Fraction(v, S) for v in o.X0) if torus else Fraction(o.X0, S)
        for _ in range(K):
            pt = sys.apply(pt)
        assert X == ([v * S for v in pt] if torus else pt * S)
        assert x == ([float(v) for v in pt] if torus else float(pt))


@pytest.mark.parametrize("spec", ("rotation:5/17", "rotation:-3/7", "toral:0,1;1,0",
                                  "toral:0,-1;1,0"))
def test_walks_that_do_not_expand_keep_the_scalar_block(spec):
    # growth <= 1: a segment would run to the horizon and every screened row
    # would walk all of it before it could stop, so the rows keep the scalar
    # walk and a horizon of entries each; no error bound is stepped, however
    # long the horizon
    sys = parse_system(spec)
    assert _lattice(sys, 10 ** 6)[2].segment is None
    orbits = [orbit_backend(sys, 90)(78, i) for i in range(3)]
    assert type(orbits[0].block(orbits)) is SteppedBlock and orbits[0].row_entries == 90


WIDE = "piecewise:0,512/1025,1025/512,0;512/1025,1,1025/513,-512/513"  # q = 512 * 513
HUGE = ("piecewise:0,2147483648/4294967297,4294967297/2147483648,0;"
        "2147483648/4294967297,1,4294967297/2147483649,-2147483648/2147483649")
HUGER = ("piecewise:0,4294967296/8589934593,8589934593/4294967296,0;"  # q above 2**63
         "4294967296/8589934593,1,8589934593/4294967297,-4294967296/4294967297")


def test_affine_segments_keep_their_composition_in_int64():
    # q = 512 * 513 caps K at 2, against 20 that the error bound allows, so
    # that the composed branches stay in int64: one segment's jump lands on
    # the exact orbit's point K, and the screen, with a jump every 2 steps,
    # decides as the scalar walk. Data too large for one step in int64 keep
    # the scalar walk, and decide as the exact orbit
    sys, N = parse_system(WIDE), 90
    orbits = [orbit_backend(sys, N)(80, i) for i in range(30)]
    walk, S = orbits[0].walk, orbits[0].S
    K, eps, _ = walk.segment
    assert K == 2
    X = np.array([o.X0 for o in orbits], object)
    x0 = (X / S).astype(float)
    _, first_open, digits = walk.walk(x0, K, x0, eps)
    go = first_open == K
    assert go.sum() > 20
    exact = [sys.apply(sys.apply(Fraction(X0, S))) * S for X0 in X.tolist()]
    assert walk.jump(X[go], go, digits)[1].tolist() == [v for v, g in zip(exact, go) if g]
    for make_tables, call in [
        (lambda: [Radii(parse_sequence(s), 3, N) for s in ("powerlaw:1/2,1", "powerlog:1,2",
                                                           "powerlaw:1,2")],
         lambda b, t: b.any_below_each(t)),
        (lambda: [Radii(parse_sequence("powerlaw:1,1"), 3, N)], lambda b, t: [b.all_min_below(t[0])]),
        (lambda: [Radii(parse_sequence("powerlaw:1/2,1"), 3, N)], lambda b, t: [b.below(t[0])]),
    ]:
        (got, counted, _), (want, scalar) = screened_and_scalar(orbits, make_tables, call)
        assert [a.tolist() for a in got] == [a.tolist() for a in want] and counted == scalar
    for spec in (HUGE, HUGER):
        huge = orbit_backend(parse_system(spec), N)(80, 0)
        assert huge.walk.segment is None and type(huge.block([huge])) is SteppedBlock
        oracle = ExactOrbit(parse_system(spec), [Fraction(huge.X0, huge.S)])
        radii = Radii(parse_sequence("powerlaw:1/2,1"), 3, N)
        assert list(huge.below(radii)) == list(oracle.below(radii))


@pytest.mark.parametrize("spec, K", [("circle:3", 12), ("toral:2,1;1,1", 12),
                                     (PIECEWISE, None), ("beta:5/2", None)])
def test_lattice_segment_bound_holds_against_the_fraction_orbit(spec, K):
    # one segment of the family's float walk from 20 seeded starts: no step
    # is open, and every distance is within eps_K + 2**-52 of the exact
    # Fraction orbit's; K is 12 for slope 3 and for the cat map
    sys = parse_system(spec)
    orbits = [orbit_backend(sys, 60)(79, i) for i in range(20)]
    walk, S = orbits[0].walk, orbits[0].S
    assert K in (None, walk.segment[0])
    K, eps, err = walk.segment
    assert eps <= 2 ** -30 and err >= eps + 2 ** -51
    x0 = (np.array([o.X0 for o in orbits], object) / S).astype(float).T
    d, first_open, _ = walk.walk(x0, K, x0, eps)
    assert np.all(first_open == K)
    bound = Fraction(eps) + Fraction(1, 1 << 52)
    for o, floats in zip(orbits, d.T.tolist()):
        assert all(abs(Fraction(f) - v) <= bound for f, v in zip(floats, exact_distances(o, sys, K)))

