"""The lattice backend: integer orbits of the exact systems against the
``Fraction`` oracle ``ExactOrbit`` (seeded sweep), and sample widths sized by
the slope."""

from fractions import Fraction

import numpy as np
import pytest

from recurlab.circle import ExplicitTable
from recurlab.cli import parse_sequence, parse_system
from recurlab.dynamics import LatticeOrbit, _lattice, orbit_backend
from recurlab.experiments import Radii
from oracles import ExactOrbit

SYSTEMS = (
    "circle:3", "circle:-3", "circle:5", "circle:4", "circle:-2",
    "toral:2,1;1,1", "toral:2,1,0;1,2,1;0,1,3", "toral:2,0;0,3",
    "rotation:5/17", "rotation:-3/7",
    "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2",
    "piecewise:0,1/2,-2,1;1/2,1,2,-1",        # a negative slope
    "piecewise:0,2/5,5/2,0;2/5,1,5/3,-2/3",   # slope, intercept and end denominators 2, 3, 5
    "beta:5/2", "beta:4/3",                   # rational beta-maps, as piecewise-affine maps
)
SEQS = ("powerlaw:1,1", "powerlaw:1/2,1", "powerlog:1,2", "powerlaw:1/4,1/2")


class RecordedExactOrbit(ExactOrbit):
    """``ExactOrbit`` with its Fraction distances computed once, up to N."""

    def __init__(self, sys, coords, N):
        super().__init__(sys, coords)
        self.recorded = list(super()._dists(N))

    def _dists(self, n_hi):
        return iter(self.recorded[:n_hi])


def oracle(orbit: LatticeOrbit, sys, N: int) -> ExactOrbit:
    """The Fraction orbit of the lattice orbit's start."""
    starts = orbit.X0 if isinstance(orbit.X0, tuple) else (orbit.X0,)
    return RecordedExactOrbit(sys, [Fraction(x, orbit.S) for x in starts], N)


@pytest.mark.parametrize("spec", SYSTEMS)
def test_lattice_equals_exact_orbit(spec):
    sys, N = parse_system(spec), 70
    start = orbit_backend(sys, N)
    lattice = [start(41, i) for i in range(11)]
    exact = [oracle(o, sys, N) for o in lattice]
    assert all(isinstance(o, LatticeOrbit) for o in lattice)
    for lat, ex in zip(lattice, exact):
        assert np.array_equal(lat.distances(N), ex.distances(N))
    for seq in SEQS:
        for n_lo in (1, 6, N):
            radii = Radii(parse_sequence(seq), n_lo, N)
            for lat, ex in zip(lattice, exact):
                assert list(lat.below(radii)) == list(ex.below(radii))
                assert list(lat.min_below(radii)) == list(ex.min_below(radii))
            # 4 rows a block: 11 samples give blocks of 4, 4 and 3
            for lo in range(0, len(lattice), 4):
                lb, eb = LatticeOrbit.block(lattice[lo:lo + 4]), ExactOrbit.block(exact[lo:lo + 4])
                assert np.array_equal(lb.below(radii), eb.below(radii))
                assert np.array_equal(lb.any_below_each([radii])[0], eb.any_below_each([radii])[0])
                assert np.array_equal(lb.all_min_below(radii), eb.all_min_below(radii))
                assert np.array_equal(lb.distances(N), eb.distances(N))


def test_images_that_touch_one_fold_back():
    # 1/4 -> 1/2 -> 0 -> 0 -> ...: the first branch maps 0 to 1, which is 0
    sys, N = parse_system("piecewise:0,1/2,-2,1;1/2,1,2,-1"), 8
    P, S, walk = _lattice(sys, N)
    orbit = LatticeOrbit(S, walk, N, S // 4)
    exact = oracle(orbit, sys, N)
    assert orbit.distances(N).tolist() == [0.25] * N
    assert np.array_equal(orbit.distances(N), exact.distances(N))
    radii = Radii(parse_sequence("powerlaw:1/2,1"), 1, N)
    assert list(orbit.below(radii)) == list(exact.below(radii))


def test_branch_ends_belong_to_the_branch_on_their_right():
    # 1/4 -> 1/2 -> 1/4 -> ...: the map jumps at 1/2, whose image is 1/4
    # (from the right) and not 1 = 0 (from the left)
    sys, N = parse_system("piecewise:0,1/2,2,0;1/2,1,3/2,-1/2"), 6
    P, S, walk = _lattice(sys, N)
    orbit = LatticeOrbit(S, walk, N, S // 4)
    assert orbit.distances(N).tolist() == [0.25, 0.0] * 3
    assert np.array_equal(orbit.distances(N), oracle(orbit, sys, N).distances(N))


@pytest.mark.parametrize("spec", ("circle:3", "toral:2,1;1,1", "rotation:5/17",
                                  "piecewise:0,2/5,5/2,0;2/5,1,5/3,-2/3"))
def test_rational_ties_are_decided_exactly(spec):
    # r_n equal to d_n is a miss, r_n a third of a lattice step above it a hit
    sys, N = parse_system(spec), 60
    orbit = orbit_backend(sys, N)(43, 0)
    d = oracle(orbit, sys, N).recorded
    nudge = Fraction(1, 3 * orbit.S)
    radii = Radii(ExplicitTable(tuple(v + (n % 2) * nudge for n, v in enumerate(d, 1))), 1, N)
    assert list(orbit.below(radii)) == [n % 2 == 1 for n in range(1, N + 1)]


@pytest.mark.parametrize("spec, frozen_from", [
    ("circle:4", 64), ("toral:2,0;0,3", 128),
    ("piecewise:0,1/2,2,0;1/2,1,2,-1", 128), ("piecewise:0,1/2,-2,1;1/2,1,2,-1", 128)])
def test_even_slopes_do_not_freeze(spec, frozen_from):
    # with 128-bit samples an even slope sheds every random bit of a
    # coordinate by these n; its distance then stays at d(0, x_c), and on the
    # torus the max over coordinates mostly repeats it
    sys, N = parse_system(spec), 200
    start = orbit_backend(sys, N)
    for i in range(3):
        orbit = start(1, i)
        tail = orbit.distances(N)[frozen_from:]
        assert len(set(tail.tolist())) > len(tail) // 2
        if isinstance(orbit.X0, int):  # the circle and piecewise maps, against the oracle
            assert np.array_equal(orbit.distances(N), oracle(orbit, sys, N).distances(N))


def test_lattice_orbit_refuses_to_run_past_its_horizon():
    orbit = orbit_backend(parse_system("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"), 20)(1, 0)
    with pytest.raises(ValueError):
        orbit.distances(21)
