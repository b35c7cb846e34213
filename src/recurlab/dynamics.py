"""Orbits and the three orbit backends of the Monte Carlo experiments.

``orbit_backend`` is the one place that picks, on the system type, how the
orbit of a sampled point is represented:

* shift (the doubling map), ``DyadicOrbitView``: T^n x is the dyadic start
  X0 / 2**P shifted by n bits, so d(T^n x, x) is read from a 64-bit window
  of X0 without iterating, to within +-2 ulps of 2**-64.
* fixed-point (beta-maps, irrational rotations), ``FixedPointOrbit``:
  integers X ~ x * 2**P stepped one at a time, with the forward error
  bounded in integer ulps (for a beta-map, read from a table built once
  per run).
* lattice (other integer circle maps, toral maps, rational rotations and
  piecewise-affine maps), ``LatticeOrbit``: the orbit of a dyadic start
  stays on a lattice S**-1 * Z**d, one integer scale S per call, so points
  and distances are exact integers over S.

Each gives float distances d(T^n x, x) and the decisions d_n < r_n and
min_{j <= n} d_j < r_n over an index range. Every decision is certified:
each backend hands an integer distance over its scale, with its error bound
(the windows' slack, the fixed-point error, 0 on the lattice), to the one
decision of ``experiments.Radii``. A float band settles almost every entry;
the rest are resolved exactly, and a fixed-point entry that its error bound
leaves open is computed again at twice the precision. The experiments reduce
over blocks of samples (the orbit class's ``block``): a shift block reads all
its windows in one kernel call, and a ``SteppedBlock`` iterates its orbits.
Each stepped orbit is walked once per call, for all its radius tables, and
stops at the first decisive step: a fixed-point orbit in one loop that
steps, measures and decides, a lattice orbit through lazy decisions on one
stream of distances. ``ExactOrbit`` steps the same orbits in ``Fraction``s;
it is the oracle the lattice backend is tested against. The orbit command's
CSV trace (``write_orbit_csv``) shares its generator of exact orbit points.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, tee
from operator import mul
from typing import Callable, Iterator, Sequence

import mpmath
import numpy as np

from .circle import circle_dist
from .errors import PrecisionBudgetError
from .number_theory import mat_det
from .systems import (
    BetaMap,
    IntegerCircleMap,
    PiecewiseLinear,
    Rotation,
    SystemSpec,
    ToralLinear,
)

GUARD_BITS = 64
_W = 64


# ---------------------------------------------------------------------------
# Metrics and exact iteration
# ---------------------------------------------------------------------------

def uses_circle_metric(sys: SystemSpec) -> bool:
    """Torus-type systems measure distance around the circle; interval maps
    (piecewise-affine, beta) use plain absolute value on [0, 1]."""
    return isinstance(sys, (IntegerCircleMap, Rotation, ToralLinear))


def point_distance(sys: SystemSpec, x, y):
    """d(x, y) in the system's metric, exact for rational inputs."""
    if isinstance(sys, ToralLinear):
        return max(circle_dist(a, b) for a, b in zip(x, y))
    if uses_circle_metric(sys):
        return circle_dist(x, y)
    return abs(Fraction(x) - Fraction(y))


def _exact_step(sys: SystemSpec, x):
    if isinstance(sys, (IntegerCircleMap, PiecewiseLinear, ToralLinear)):
        return sys.apply(x)
    if isinstance(sys, Rotation):
        alpha = sys.alpha.exact()
        if alpha is None:
            raise ValueError("exact iteration needs a rational rotation angle")
        y = Fraction(x) + alpha
        return y - math.floor(y)
    raise ValueError(f"{sys.describe()} has no exact orbit; use a fixed-point orbit")


def _exact_orbit(sys: SystemSpec, x) -> Iterator:
    """x, T x, T^2 x, ... exactly: the start as Fractions (a tuple of them on
    the torus), then one ``_exact_step`` per further point."""
    pt = tuple(Fraction(v) for v in x) if isinstance(sys, ToralLinear) else Fraction(x)
    while True:
        yield pt
        pt = _exact_step(sys, pt)


def _return_distances(sys: SystemSpec, x, n: int) -> Iterator:
    """d(T^k x, x) exactly, for k = 1, ..., n."""
    orbit = _exact_orbit(sys, x)
    start = next(orbit)
    for pt in islice(orbit, n):
        yield point_distance(sys, pt, start)


# ---------------------------------------------------------------------------
# Stepped orbits: the fixed-point and lattice backends, and the exact oracle
#
# Decisions read radius tables ``radii`` (``experiments.Radii``) for n in
# [radii.n_lo, radii.n_hi], all tables of one call over one range, which
# ``SteppedBlock.any_below_each`` checks. An orbit's ``_decisions(tables,
# running_min, stop)`` gives one sequence of decisions per table from one
# walk of the orbit; a table's sequence may end at its first decision
# ``stop``, so ``any`` and ``False not in`` stop the walk at the first
# decisive step of the last table read.
# ---------------------------------------------------------------------------

class SteppedBlock:
    """Stepped orbits, one row each: ``any_below_each`` stops a row once
    every table has had a hit and ``all_min_below`` at its first miss."""

    def __init__(self, orbits: Sequence[_Stepped]):
        self.orbits = orbits

    @staticmethod
    def powers(inv: float, n_hi: int) -> np.ndarray:
        """n**inv for n = 1..n_hi by libm's pow (see DyadicOrbitView.powers)."""
        return np.array([n ** inv for n in range(1, n_hi + 1)])

    def distances(self, n_hi: int) -> np.ndarray:
        return np.array([o.distances(n_hi) for o in self.orbits])

    def below(self, radii) -> np.ndarray:
        return np.array([list(o.below(radii)) for o in self.orbits], dtype=bool)

    def any_below_each(self, tables) -> list[np.ndarray]:
        if len({(radii.n_lo, radii.n_hi) for radii in tables}) != 1:
            raise ValueError("the tables of one call must share one range of n")
        hits = [list(map(any, o._decisions(tables, False, True))) for o in self.orbits]
        return list(np.array(hits, dtype=bool).reshape(len(self.orbits), len(tables)).T)

    def any_below(self, radii) -> np.ndarray:
        return self.any_below_each([radii])[0]

    def all_min_below(self, radii) -> np.ndarray:
        return np.array([False not in o._decisions([radii], True, False)[0] for o in self.orbits])


class _Stepped:
    """Decisions and distances from ``_dists(n_hi)``, the lazy integer
    distances S * d(T^n x, x), n = 1, 2, ..., over the orbit's scale ``S``.
    Decisions are ``Radii.decide``'s, lazy, for n from radii.n_lo on; the
    tables of one call share the walk through ``tee``."""

    block = SteppedBlock  # orbit.block(orbits) is the block of those orbits

    def distances(self, n_hi: int) -> np.ndarray:
        S = self.S
        return np.fromiter((D / S for D in self._dists(n_hi)), float, n_hi)

    def below(self, radii):
        """d_n < r_n for n in [radii.n_lo, radii.n_hi]."""
        return self._decisions([radii], False)[0]

    def min_below(self, radii):
        """min(d_1, ..., d_n) < r_n for n in [radii.n_lo, radii.n_hi]."""
        return self._decisions([radii], True)[0]

    def _decisions(self, tables, running_min: bool, stop: bool | None = None) -> list:
        ds = self._dists(tables[0].n_hi)
        if running_min:
            ds = accumulate(ds, min)
        return [self._decide(radii, islice(d, radii.n_lo - 1, None))
                for radii, d in zip(tables, tee(ds, len(tables)))]

    def _decide(self, radii, ds: Iterator) -> Iterator[bool]:
        return radii.decide(ds, self.S)


class ExactOrbit(_Stepped):
    """The exact orbit of a rational start (its coordinates, one on the
    circle), with ``Fraction`` distances decided exactly. The Monte Carlo
    experiments use ``LatticeOrbit``; this is its oracle."""

    def __init__(self, sys: SystemSpec, coords: Sequence[Fraction]):
        self.sys = sys
        self.x0 = tuple(coords) if isinstance(sys, ToralLinear) else coords[0]

    def _dists(self, n_hi: int) -> Iterator[Fraction]:
        return _return_distances(self.sys, self.x0, n_hi)

    def distances(self, n_hi: int) -> np.ndarray:
        return np.fromiter(self._dists(n_hi), float, n_hi)

    def _decide(self, radii, ds: Iterator) -> Iterator[bool]:
        # d < r_n in Fractions, or in mpmath well past d's denominator when
        # r_n is irrational: no float band, so that it checks the one of Radii
        for n, d in enumerate(ds, radii.n_lo):
            r = radii.seq.exact(n)
            if r is None:
                with mpmath.workprec(d.denominator.bit_length() + 64):
                    hit = mpmath.mpf(d.numerator) / d.denominator < radii.seq.mp(n)
                yield hit
            else:
                yield d < r


# ---------------------------------------------------------------------------
# Lattice orbits: exact systems in integers
# ---------------------------------------------------------------------------

def _v2(k: int) -> int:
    """The exponent of 2 in k != 0."""
    return (k & -k).bit_length() - 1


def _lattice(sys: SystemSpec, horizon: int) -> tuple[int, int, Callable]:
    """(P, S, walk) for an exact system over ``horizon`` steps. A dyadic start
    X0 / 2**P is X0 * (S >> P) / S, and each of its first ``horizon`` orbit
    points is X / S with integer X. ``walk(X, n_hi)`` yields the integer
    distances S * d(T^n x, x), n = 1..n_hi, of the start X / S (a tuple of
    coordinates on the torus).

    P keeps about 128 random bits to the horizon: an even slope a sheds
    v2(a) low bits a step (v2(det A) on the torus, since the gcd of each row
    of A^n divides det A^n; the largest v2 of a slope numerator for a
    piecewise map). Piecewise maps take S = 2**P * q**horizon * L, q the lcm
    of the slope and intercept denominators and L that of the branch ends,
    so every slope divides exactly and every branch end is an integer over
    S."""
    # on the circle, d = min(t, S - t) / S with t = (X - X0) mod S, and
    # min(t, S - t) = S/2 - |S/2 - t| (S is even)
    if isinstance(sys, ToralLinear):
        P = 128 + horizon * _v2(mat_det(sys.A))
        S, A = 1 << P, sys.A
        half = S >> 1

        def walk(X0, n_hi):
            X = X0
            for _ in range(n_hi):
                X = [sum(map(mul, row, X)) % S for row in A]
                yield max([half - abs(half - (x - x0) % S) for x, x0 in zip(X, X0)])
        return P, S, walk
    if isinstance(sys, PiecewiseLinear):
        P = 128 + horizon * max(_v2(b.slope.numerator) for b in sys.branches)
        q = math.lcm(*(f.denominator for b in sys.branches for f in (b.slope, b.intercept)))
        S = (q ** horizon * math.lcm(*(b.hi.denominator for b in sys.branches))) << P
        branches = [(b.hi.numerator * S // b.hi.denominator, b.slope.numerator,
                     b.slope.denominator, b.intercept.numerator * S // b.intercept.denominator)
                    for b in sys.branches]

        def walk(X0, n_hi):
            X = X0
            for _ in range(n_hi):
                for hi, p, d, c in branches:
                    if X < hi:
                        break
                X = p * X // d + c
                if X >= S:  # images may touch 1 at a branch end
                    X -= S
                yield abs(X - X0)
        return P, S, walk
    # circle maps and rotations: x -> a x + b mod 1 is X -> (a X + B) mod S
    if isinstance(sys, IntegerCircleMap):
        P = 128 + horizon * _v2(sys.a)
        S, a, B = 1 << P, sys.a, 0
    elif isinstance(sys, Rotation) and sys.alpha.exact() is not None:
        alpha, P = sys.alpha.exact(), 128
        S, a, B = alpha.denominator << P, 1, alpha.numerator << P
    else:
        raise ValueError(f"{sys.describe()} has no lattice orbit")

    half = S >> 1

    def walk(X0, n_hi):
        X = X0
        for _ in range(n_hi):
            X = (a * X + B) % S
            yield half - abs(half - (X - X0) % S)
    return P, S, walk


class LatticeOrbit(_Stepped):
    """The orbit of a start X0 / S (X0 a tuple on the torus) held as
    integers, from ``_lattice``'s ``walk``, up to ``horizon`` steps.
    Distances are exact integers D over S."""

    def __init__(self, S: int, walk: Callable, horizon: int, X0):
        self.S, self.walk, self.horizon, self.X0 = S, walk, horizon, X0

    def _dists(self, n_hi: int) -> Iterator[int]:
        if n_hi > self.horizon:
            raise ValueError(f"lattice orbit built for {self.horizon} steps, not {n_hi}")
        return self.walk(self.X0, n_hi)


# ---------------------------------------------------------------------------
# Fixed-point orbits
# ---------------------------------------------------------------------------

def required_bits(sys: SystemSpec, horizon: int) -> int:
    """Fractional bits needed so step-``horizon`` values are accurate to
    2**-64: the forward error grows by the slope modulus per step."""
    if isinstance(sys, BetaMap):
        growth = math.ceil(horizon * math.log2(float(sys.beta))) + 1
    elif isinstance(sys, Rotation):
        growth = math.ceil(math.log2(horizon + 1)) + 1  # additive ulp drift
    elif isinstance(sys, IntegerCircleMap):
        growth = horizon * math.ceil(math.log2(abs(sys.a)))
    else:
        raise ValueError(f"no fixed-point orbit for {sys.describe()}")
    return growth + GUARD_BITS


@lru_cache(maxsize=16)
def _fixed_point_constants(sys: SystemSpec, P: int, horizon: int
                           ) -> tuple[int, int | None, int | None, list[int] | None]:
    """(required bits, multiplier, shift, error table) of a fixed-point
    orbit, built once per (sys, P, horizon), not once per sample: the
    multiplier takes an mpmath float or an isqrt of a 2P-bit integer.

    A beta-map's table holds err_ulp after k = 0..horizon steps while no step
    has come near a branch end: beta < (multiplier + 1) / 2**P <= grow / 2**64
    scales the error, and the truncated multiplier and product add one ulp
    each, so e <- ceil(grow * e / 2**64) + 2. Entry k has about k * log2(beta)
    bits, so the table takes about 0.05 * horizon**2 bytes for the golden
    mean (2 KB at 200 steps, 1.2 MB at 5,000)."""
    need = required_bits(sys, horizon)
    if P < need:  # refused by the caller
        return need, None, None, None
    if isinstance(sys, BetaMap):
        mult = sys.beta.scaled(P)
        grow, err = -(-(mult + 1) >> (P - _W)), [1]  # X0 itself rounds the true point
        for _ in range(horizon):
            err.append(-((-grow * err[-1]) >> _W) + 2)
        return need, mult, None, err
    if isinstance(sys, Rotation):
        return need, None, sys.alpha.scaled(P), None
    return need, None, None, None


class FixedPointOrbit(_Stepped):
    """Orbit of x ~ X0 / 2**P under a beta-map or rotation, with explicit
    error accounting: ``err_ulp`` is an integer upper bound, in ulps of
    2**-P, on the distance of X / 2**P from the true point. A rotation adds
    one ulp a step; a beta-map reads its bound from the table of
    ``_fixed_point_constants``. A beta step whose image is within that bound
    of an integer may belong to the other branch, so from such a step on
    (past step ``sure``) the bound is all of [0, 1).

    Distances are integers over S = 2**P within 2 * err_ulp of the true
    ones. ``_walk`` steps, measures and decides one table in one loop, and
    ``_decisions`` several tables in one pass; an entry that the error
    bound leaves open is computed again at 2P bits from the same start."""

    def __init__(self, sys: SystemSpec, X0: int, P: int, horizon: int):
        need, self._mult, self._shift, self._err = _fixed_point_constants(sys, P, horizon)
        if P < need:
            raise PrecisionBudgetError(need, P)
        if self._mult is None and self._shift is None:
            raise ValueError(f"no fixed-point orbit for {sys.describe()}")
        self.sys = sys
        self.P = P
        self.horizon = horizon
        self.S = 1 << P
        self._mask = self.S - 1
        self._circle = uses_circle_metric(sys)
        self.X0 = X0 % self.S
        self.X = self.X0
        self.step_count = 0
        self.err_ulp = 1  # X0 itself rounds the true point
        self.sure = horizon

    def step(self) -> int:
        k = self.step_count
        if k >= self.horizon:
            raise PrecisionBudgetError(required_bits(self.sys, k + 1), self.P)
        self.step_count = k + 1
        if self._mult is None:
            self.X = X = (self.X + self._shift) & self._mask
            self.err_ulp += 1
        else:
            self.X = X = ((self.X * self._mult) >> self.P) & self._mask
            if self.err_ulp < self.S:
                e = self._err[k + 1]
                if X < e or X + e >= self.S:  # the true image may be across a branch end
                    e, self.sure = self.S, k
                self.err_ulp = e
        return X

    def dist_to_start(self) -> int:
        """S * d(T^k x, x) in the system's metric, as an integer, within
        2 * err_ulp. Kept as the reference of the decision tests, which
        rebuild each decision from it."""
        if self._circle:
            t = (self.X - self.X0) & self._mask
            return min(t, self.S - t)
        return abs(self.X - self.X0)

    def _restart(self) -> None:
        self.X, self.step_count, self.err_ulp, self.sure = self.X0, 0, 1, self.horizon

    def _walk(self, n_hi: int, running_min: bool = False, radii=None,
              stop: bool | None = None) -> tuple[list[int], list[bool]]:
        """The loop of one table. From X0 again, it takes steps 1..n_hi and
        the distances D = S * d_n, or their running minima, whose bound is
        the latest since the bounds never shrink. From n = radii.n_lo on, it
        decides D / S < r_n as ``Radii.decide`` does, for D within
        2 * err_ulp, up to the first decision ``stop``. Returns the D before
        n_lo (every D, without radii) and the decisions."""
        S, X0, mask, circle, step = self.S, self.X0, self._mask, self._circle, self.step
        self._restart()
        n_lo = radii.n_lo if radii else n_hi + 1
        lo, hi = radii.band(S) if radii else ((), ())
        ds, out, D = [], [], S
        for n in range(1, n_hi + 1):
            X = step()
            d = min((X - X0) & mask, (X0 - X) & mask) if circle else abs(X - X0)
            if running_min:
                d = D = d if d < D else D
            if n < n_lo:
                ds.append(d)
                continue
            i, e = n - n_lo, self.err_ulp << 1
            out.append(hit := d + e < lo[i] or (d - e <= hi[i] and radii.settle(
                i, d, S, e, lambda i: self._refine(radii, i, running_min))))
            if hit is stop:
                break
        return ds, out

    def _decisions(self, tables, running_min: bool, stop: bool | None = None) -> list:
        """Each table's decisions from one walk. Several tables are decided
        at each step, as ``_walk`` decides one, until each has had its
        decision ``stop``. One table takes ``_walk`` itself: the loop over
        the tables would cost it every step (6-10% on the beta ops of the
        mc-iterated benchmark)."""
        if len(tables) == 1:
            return [self._walk(tables[0].n_hi, running_min, tables[0], stop)[1]]
        S, X0, mask, circle, step = self.S, self.X0, self._mask, self._circle, self.step
        n_lo, n_hi = tables[0].n_lo, tables[0].n_hi
        ds, _ = self._walk(n_lo - 1, running_min)
        D = ds[-1] if ds else S
        open_ = [(*radii.band(S), [], radii) for radii in tables]
        decisions = [out for _, _, out, _ in open_]
        for i in range(n_hi - n_lo + 1):
            X = step()
            d = min((X - X0) & mask, (X0 - X) & mask) if circle else abs(X - X0)
            if running_min:
                d = D = d if d < D else D
            e = self.err_ulp << 1
            for lo, hi, out, radii in open_:
                out.append(hit := d + e < lo[i] or (d - e <= hi[i] and radii.settle(
                    i, d, S, e, lambda i: self._refine(radii, i, running_min))))
                if hit is stop:  # the loop goes on over the old list
                    open_ = [t for t in open_ if t[2] is not out]
            if not open_:
                break
        return decisions

    def _refine(self, radii, i: int, running_min: bool) -> bool | None:
        """Entry i of ``radii`` at 2P bits."""
        fine = self._fine()
        ds, _ = fine._walk(radii.n_lo + i, running_min)
        return radii.resolve(i, ds[-1], fine.S, 2 * fine.err_ulp)

    def _fine(self) -> FixedPointOrbit:
        """The orbit of the same start at 2P bits."""
        return FixedPointOrbit(self.sys, self.X0 << self.P, 2 * self.P, self.horizon)

    def distances(self, n_hi: int) -> np.ndarray:
        """d(T^n x, x) for n = 1..n_hi, each within 2 * err_ulp / S. If a step
        is near a branch end (``sure`` < n_hi), they are taken at 2P bits; a
        sample still unsure there raises PrecisionBudgetError."""
        orbit = self
        ds, _ = orbit._walk(n_hi)
        if orbit.sure < n_hi:
            orbit = self._fine()
            ds, _ = orbit._walk(n_hi)
            if orbit.sure < n_hi:
                raise PrecisionBudgetError(2 * orbit.P, orbit.P)
        S = orbit.S
        return np.fromiter((D / S for D in ds), float, n_hi)


# ---------------------------------------------------------------------------
# Dyadic doubling-map orbits: the whole orbit is a window of X0
# ---------------------------------------------------------------------------

class DyadicOrbitView:
    """Orbits of starts X0 / 2**P under x -> 2x mod 1, read from X0's bytes.

    T^n x = (X0 << n mod 2**P) / 2**P exactly, so the top 64 bits of the
    time-n point are the bits of X0 at positions P-1-n downward: a window of
    X0, read without iterating. Comparisons within the windows' +-2 ulp (of
    2**-64) are resolved one start at a time by ``exact_dist``.

    A view holds one start (``X0`` an int; arrays come back 1-D) or a block
    of them (a sequence of ints; arrays have one row per start). Both read
    their windows through the one block kernel ``_windows``.

    Requires P >= horizon + 64 so every window is fully inside X0.
    """

    def __init__(self, X0: int | Sequence[int], P: int, horizon: int):
        if P < horizon + _W:
            raise PrecisionBudgetError(horizon + _W, P)
        self.P = P
        self.horizon = horizon
        one = isinstance(X0, int)
        self.starts = [x % (1 << P) for x in ([X0] if one else X0)]
        self._rows = 0 if one else slice(None)  # one start: its row, 1-D

    @classmethod
    def block(cls, views: Sequence[DyadicOrbitView]) -> DyadicOrbitView:
        return cls([x for v in views for x in v.starts], views[0].P, views[0].horizon)

    def _windows(self, n_lo: int, n_hi: int) -> np.ndarray:
        """floor(T^n x * 2**64) up to -0/+1 as uint64: one row per start, one
        column per n in [n_lo, n_hi].

        Each start is laid out big-endian after 8 zero bytes and before one,
        L bytes a row, so bit P-1-n of X0 is u = e + n bits from its row's
        top. With W[t] the big-endian word of bytes t..t+7, t = u >> 3 and
        r = 8 - (u & 7), the window is (W[t+1] >> r) | (W[t-7] << 64-r). The
        words are one strided read of the bytes that [n_lo, n_hi] needs; one
        broadcast shift gives the windows of all 8 values of u & 7 in the
        order of u, so the result is a slice, with no gather.
        """
        if n_lo < 0 or self.P < n_hi + _W:
            raise PrecisionBudgetError(n_hi + _W, self.P)
        nbytes = (self.P + 7) // 8
        L, e = nbytes + 9, 64 + 8 * nbytes - self.P
        buf = b"".join(bytes(8) + x.to_bytes(nbytes, "big") + bytes(1) for x in self.starts)
        u_lo = e + n_lo
        t_lo, t_hi = u_lo >> 3, (e + n_hi) >> 3
        words = np.ndarray((len(self.starts), t_hi - t_lo + 9), ">u8", buf,
                           t_lo - 7, (L, 1)).astype(np.uint64)  # W[t_lo - 7 .. t_hi + 1]
        r = np.arange(8, 0, -1, dtype=np.uint64)
        win = (words[:, 8:, None] >> r) | (words[:, :-8, None] << (np.uint64(_W) - r))
        first = u_lo & 7  # column u - 8 * t_lo of the reshape has top bit u
        return win.reshape(len(self.starts), -1)[:, first:first + n_hi - n_lo + 1]

    def windows_batch(self, n_lo: int, n_hi: int) -> np.ndarray:
        """floor(T^n x * 2**64) up to -0/+1 for n in [n_lo, n_hi] (uint64)."""
        return self._windows(n_lo, n_hi)[self._rows]

    def window(self, n: int) -> int:
        """``windows_batch(n, n)`` of the first start, as an int."""
        return int(self._windows(n, n)[0, 0])

    def exact_dist(self, n: int, row: int = 0) -> Fraction:
        X0 = self.starts[row]
        t = ((X0 << n) - X0) % (1 << self.P)
        return Fraction(min(t, (1 << self.P) - t), 1 << self.P)

    def circle_dist64_batch(self, n_lo: int, n_hi: int) -> np.ndarray:
        """circle_dist(T^n x, x) * 2**64 for n in [n_lo, n_hi], each +-2."""
        w0 = np.array([x >> (self.P - _W) for x in self.starts], dtype=np.uint64)
        t = self._windows(n_lo, n_hi) - w0[:, None]  # wraps mod 2**64, as intended
        return np.minimum(t, -t)[self._rows]

    def distances(self, n_hi: int) -> np.ndarray:
        """d(T^n x, x) for n = 1..n_hi, rounded from the 64-bit windows."""
        return self.circle_dist64_batch(1, n_hi).astype(np.float64) / 2.0 ** 64

    @staticmethod
    def powers(inv: float, n_hi: int) -> np.ndarray:
        """n**inv for n = 1..n_hi by numpy's power. It differs from libm's pow
        in the last bit for some n; each backend keeps the one it reported with."""
        return np.arange(1, n_hi + 1, dtype=np.float64) ** inv

    def below(self, radii) -> np.ndarray:
        """d_n < r_n for n in [radii.n_lo, radii.n_hi], exactly."""
        return self._below_each([radii])[0]

    def min_below(self, radii) -> np.ndarray:
        """min(d_1, ..., d_n) < r_n for n in [radii.n_lo, radii.n_hi], exactly."""
        d = np.atleast_2d(self.circle_dist64_batch(1, radii.n_hi))
        hi = radii.band64[1]
        return self._decide(radii, np.minimum.accumulate(d, axis=1)[:, radii.n_lo - 1:],
                            lambda row, n, i: 1 + np.flatnonzero(d[row, :n] <= hi[i]))

    def _below_each(self, tables) -> list[np.ndarray]:
        """``below`` of each table (all over one range [n_lo, n_hi]), from
        one read of the windows."""
        d = np.atleast_2d(self.circle_dist64_batch(tables[0].n_lo, tables[0].n_hi))
        return [self._decide(radii, d, lambda row, n, i: (n,)) for radii in tables]

    def any_below_each(self, tables) -> list[np.ndarray]:
        return [hit.any(axis=-1) for hit in self._below_each(tables)]

    def any_below(self, radii) -> np.ndarray:
        return self.any_below_each([radii])[0]

    def all_min_below(self, radii) -> np.ndarray:
        return self.min_below(radii).all(axis=-1)

    def _decide(self, radii, v: np.ndarray, candidates) -> np.ndarray:
        """v[row, i] < r_n (n = n_lo + i) from the table's ``band64``. A gray
        entry is resolved exactly from the least exact d_j of its row, j in
        ``candidates(row, n, i)``."""
        lo, hi = radii.band64
        hit = v < lo
        mask = hit != (v <= hi)
        if not mask.any():  # the common case: no entry to look up
            return hit[self._rows]
        gray = np.argwhere(mask)
        radii.gray += len(gray)
        for row, i in gray:
            n = radii.n_lo + int(i)
            d = min(self.exact_dist(int(j), int(row)) for j in candidates(row, n, i))
            hit[row, i] = radii.resolve(int(i), d.numerator, d.denominator)
        return hit[self._rows]


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

def derive_seed(master_seed: int, index: int) -> int:
    """Per-sample seed from (master seed, sample index), scheduler-independent."""
    h = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(h[:16], "big")


def sample_bits(master_seed: int, index: int, bits: int) -> int:
    """Deterministic uniform integer in [0, 2**bits)."""
    return random.Random(derive_seed(master_seed, index)).getrandbits(bits)


def orbit_backend(sys: SystemSpec, horizon: int
                  ) -> Callable[[int, int], DyadicOrbitView | FixedPointOrbit | LatticeOrbit]:
    """The one dispatch on the system type for the Monte Carlo experiments:
    returns ``start``, where ``start(master_seed, index)`` is the orbit of
    that sample over ``horizon`` steps. The doubling map draws
    ``sample_bits(seed, i, horizon + 64)``, beta-maps
    P = max(256, ceil(horizon * log2 beta) + 128) bits, and exact systems
    ``sample_bits(seed, i * d + c, P)`` for coordinate c, P from ``_lattice``."""
    if isinstance(sys, IntegerCircleMap) and sys.a == 2:
        P = horizon + GUARD_BITS
        return lambda seed, i: DyadicOrbitView(sample_bits(seed, i, P), P, horizon)
    if isinstance(sys, BetaMap):
        P = max(256, math.ceil(horizon * math.log2(float(sys.beta))) + 2 * GUARD_BITS)
    elif isinstance(sys, Rotation) and sys.alpha.exact() is None:
        P = max(256, required_bits(sys, horizon))
    else:
        P, S, walk = _lattice(sys, horizon)
        unit, d = S >> P, sys.d

        def start(seed: int, i: int) -> LatticeOrbit:
            X = [sample_bits(seed, i * d + c, P) * unit for c in range(d)]
            return LatticeOrbit(S, walk, horizon, tuple(X) if isinstance(sys, ToralLinear) else X[0])
        return start
    return lambda seed, i: FixedPointOrbit(sys, sample_bits(seed, i, P), P, horizon)


# ---------------------------------------------------------------------------
# Orbit trace export
# ---------------------------------------------------------------------------

def write_orbit_csv(fileobj, sys: SystemSpec, x, n: int) -> int:
    """Rows (step, point, distance-to-start) for plotting; exact orbits only."""
    writer = csv.writer(fileobj)
    writer.writerow(["step", "point", "dist_to_start"])
    points = list(islice(_exact_orbit(sys, x), n + 1))
    for k, pt in enumerate(points):
        if isinstance(sys, ToralLinear):
            rendered = ";".join(f"{float(v):.15g}" for v in pt)
        else:
            rendered = f"{float(pt):.15g}"
        d = float(point_distance(sys, pt, points[0]))
        writer.writerow([k, rendered, f"{d:.15g}"])
    return n + 1
