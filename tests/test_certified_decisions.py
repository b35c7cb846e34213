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


def golden_branch_end(P: int) -> int:
    """ceil(2**P / beta) for the golden mean beta: beta x is just above 1."""
    with mpmath.workprec(4 * P):
        return int(mpmath.ceil(mpmath.mpf(2) ** P * 2 / (1 + mpmath.sqrt(5))))


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
        Q = orbit._k[3]
        assert top < 1 << (orbit.P + Q - 64)
        if spec == "beta:golden":
            assert top < 1 << (orbit.P + 1) and Q == 67


@pytest.mark.parametrize("spec", ("beta:golden", "rotation:golden", "circle:3",
                                  "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2",
                                  "toral:2,1;1,1", "beta:sqrt2"))
def test_tables_share_one_walk(spec, monkeypatch):
    # each table's hits and counters as if it were decided alone, from as
    # many steps as the table that walks furthest alone takes
    N, specs = 120, ("powerlog:1,2", "powerlaw:1/2,1", "powerlaw:1,2")
    start = orbit_backend(parse_system(spec), N)
    orbits = [start(66, i) for i in range(25)]
    steps = []
    if isinstance(orbits[0], FixedPointOrbit):
        step = FixedPointOrbit.step
        monkeypatch.setattr(FixedPointOrbit, "step", lambda o: steps.append(o) or step(o))
    else:
        dists = LatticeOrbit._dists
        monkeypatch.setattr(LatticeOrbit, "_dists", lambda o, n: (
            steps.append(o) or D for D in dists(o, n)))
    together = [Radii(parse_sequence(s), 4, N) for s in specs]
    hits = orbits[0].block(orbits).any_below_each(together)
    walked = [steps.count(o) for o in orbits]
    alone = []
    for radii, got, shared in zip([Radii(parse_sequence(s), 4, N) for s in specs], hits, together):
        steps.clear()
        assert np.array_equal(got, orbits[0].block(orbits).any_below_each([radii])[0])
        assert (shared.gray, shared.mp) == (radii.gray, radii.mp)
        alone.append([steps.count(o) for o in orbits])
    assert walked == [max(col) for col in zip(*alone)]
    assert len({int(h.sum()) for h in hits}) > 1  # the tables stop at different steps


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
    # as many quadratic steps as the convergent table alone needs: the
    # divergent one has its first hit no later on these samples
    steps = 0
    original = FixedPointOrbit.step

    def counted(self):
        nonlocal steps
        steps += 1
        return original(self)

    monkeypatch.setattr(FixedPointOrbit, "step", counted)
    golden, conv = BetaMap("golden"), parse_sequence("powerlog:1,2")
    rio_dichotomy(golden, conv, parse_sequence("powerlaw:1/2,1"), 10, 1000, 200, 1)
    assert steps == 113_837
    steps = 0
    rio_truncated_measure(golden, conv, 10, 1000, 200, 1)
    assert steps == 113_837
