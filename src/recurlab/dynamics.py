"""Orbits and the three orbit backends of the Monte Carlo experiments.

``orbit_backend`` is the one place that picks, on the system type, how the
orbit of a sampled point is represented:

* shift (the doubling map), ``DyadicOrbitView``: T^n x is the dyadic start
  X0 / 2**P shifted by n bits, so d(T^n x, x) is read from a 64-bit window
  of X0 without iterating, to within +-2 ulps of 2**-64.
* quadratic (beta-maps and rotations by an irrational quadratic integer w:
  the golden mean, sqrt(k)), ``FixedPointOrbit``: each point of a dyadic
  start is exactly (a + b w) / 2**P with integers a and b.
* lattice (other integer circle maps, toral maps, rational rotations and
  beta-maps, piecewise-affine maps), ``LatticeOrbit``: the orbit of a dyadic
  start stays on a lattice S**-1 * Z**d, one integer scale S per call, so
  points and distances are exact integers over S.

Each gives float distances d(T^n x, x) and the decisions d_n < r_n and
min_{j <= n} d_j < r_n over an index range, all exact: each backend hands an
integer distance over its scale and its error bound (the windows' slack, E,
0 on the lattice) to the one decision of ``experiments.Radii``. A shift
block reads all its windows in one kernel call; a ``SteppedBlock`` walks
each orbit once per call, for all its radius tables, up to the first
decisive step. ``ExactOrbit`` steps rational orbits in ``Fraction``s by the
system's own ``apply``, as the lattice backend's oracle and for the orbit
command's CSV trace.
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
    Rotation,
    SystemSpec,
    ToralLinear,
    uses_circle_metric,
)

_W = 64  # bits of a window, and the guard bits of a sample


# ---------------------------------------------------------------------------
# Metrics and exact iteration
# ---------------------------------------------------------------------------

def point_distance(sys: SystemSpec, x, y):
    """d(x, y) in the system's metric, exact for rational inputs."""
    if isinstance(sys, ToralLinear):
        return max(circle_dist(a, b) for a, b in zip(x, y))
    if uses_circle_metric(sys):
        return circle_dist(x, y)
    return abs(Fraction(x) - Fraction(y))


def _exact_step(sys: SystemSpec, x):
    """T x exactly; a system with an irrational constant refuses."""
    return sys.apply(x)


def _exact_orbit(sys: SystemSpec, x) -> Iterator:
    """x, T x, T^2 x, ... exactly: the start as Fractions (a tuple of them on
    the torus), then one ``_exact_step`` per further point."""
    pt = tuple(Fraction(v) for v in x) if isinstance(sys, ToralLinear) else Fraction(x)
    while True:
        yield pt
        pt = _exact_step(sys, pt)


# ---------------------------------------------------------------------------
# Stepped orbits: the quadratic and lattice backends, and the exact oracle
#
# An orbit's ``_decisions(tables, running_min, stop)`` gives one sequence of
# decisions per radius table (``experiments.Radii``, all over one range of n)
# from one walk; a sequence may end at the table's first decision ``stop``,
# so ``any`` and ``False not in`` stop the walk at the last table's.
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
    tables of one call share the walk through ``tee``, and one table reads
    the stream itself."""

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
        streams = tee(ds, len(tables)) if len(tables) > 1 else (ds,)
        return [self._decide(radii, islice(d, radii.n_lo - 1, None))
                for radii, d in zip(tables, streams)]

    def _decide(self, radii, ds: Iterator) -> Iterator[bool]:
        return radii.decide(ds, self.S)


class ExactOrbit(_Stepped):
    """The exact orbit of a rational start (its coordinates, one on the
    circle), with ``Fraction`` distances decided exactly. The Monte Carlo
    experiments use ``LatticeOrbit``; this is its oracle."""

    S = 1  # the distances are exact Fractions

    def __init__(self, sys: SystemSpec, coords: Sequence[Fraction]):
        self.sys = sys
        self.x0 = tuple(coords) if isinstance(sys, ToralLinear) else coords[0]

    def _dists(self, n_hi: int) -> Iterator[Fraction]:
        """d(T^n x, x) exactly, for n = 1..n_hi."""
        orbit = _exact_orbit(self.sys, self.x0)
        start = next(orbit)
        return (point_distance(self.sys, pt, start) for pt in islice(orbit, n_hi))

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
    map with affine branches). The branches of ``as_piecewise`` (piecewise
    maps, rational beta-maps) take S = 2**P * q**horizon * L, q the lcm
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
    if not isinstance(sys, (IntegerCircleMap, Rotation)):  # affine branches
        pw = sys.as_piecewise().branches
        P = 128 + horizon * max(_v2(b.slope.numerator) for b in pw)
        q = math.lcm(*(f.denominator for b in pw for f in (b.slope, b.intercept)))
        S = (q ** horizon * math.lcm(*(b.hi.denominator for b in pw))) << P
        branches = [(b.hi.numerator * S // b.hi.denominator, b.slope.numerator,
                     b.slope.denominator, b.intercept.numerator * S // b.intercept.denominator)
                    for b in pw]

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
# Quadratic orbits: beta-maps and irrational rotations, exactly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _quadratic_constants(sys: SystemSpec, P: int, horizon: int) -> tuple:
    """(c0, c1, W, Q, P, S - 1, E, S - E) of one call's orbits, built once:
    w**2 = c1 w + c0, W = floor(w * 2**Q), and y's scale S and bound E (see
    ``FixedPointOrbit``). Q is 64 bits past g, where 2**(P + g) > |b| over
    the horizon: |b| / 2**P = |x_n - x_n'| / (w - w'), x_n' the conjugate of
    x_n, and for a beta-map |x_n'| <= M max(1, |w'|)**n with M = 1 +
    floor(w) / |1 - |w'||, bounded for the golden mean (a Pisot number) and
    growing by sqrt(k) a step for sqrt(k). A rotation's b is n * 2**P."""
    if isinstance(sys, BetaMap):
        w, omega = float(sys.beta), sys.beta
        c0, c1 = omega.quadratic()
        lam = abs(c1 - w)
        g = 1 + math.ceil(horizon * math.log2(max(1.0, lam))
                          + math.log2((2 + math.floor(w) / abs(1 - lam)) / (2 * w - c1)))
    elif isinstance(sys, Rotation) and sys.alpha.exact() is None:
        c0, c1, g, omega = None, None, horizon.bit_length(), sys.alpha
    else:
        raise ValueError(f"{sys.describe()} has no quadratic orbit")
    Q = max(g, 0) + 64
    W = omega.floor_of(0, 1 << Q, 1)
    if c0 is None:  # c1 is W * 2**P; y = x * 2**(P + Q), within |b| < 2**(P + Q - 64)
        return None, W << P, W, Q, P, (1 << (P + Q)) - 1, 1 << (P + Q - 64), None
    e = (1 << (P - 64)) + 1  # y = x * 2**P, within |b| / 2**Q + 1
    return c0, c1, W, Q, P, (1 << P) - 1, e, (1 << P) - e


class FixedPointOrbit(_Stepped):
    """The exact orbit of x = X0 / 2**P under a beta-map x -> w x mod 1 or a
    rotation x -> x + w mod 1, w an irrational quadratic integer: each point
    is (a + b w) / 2**P with integers a and b. (The name is that of the
    fixed-point orbit it replaced.) ``step`` maps (a, b) to (c0 b, a + c1 b),
    takes floor(x) * 2**P from a, and returns y = a + floor(b W / 2**Q),
    within E = S / 2**64 + 1 of x * S for S = 2**P; floor(x) is y's unless y
    is within E of a multiple of S, where ``IrrationalConstant.floor_of``
    takes it. A rotation adds 2**P to b and keeps only y in a, at
    S = 2**(P + Q), y = S / 2 at x0. Distances S * d(T^n x, x), within
    E, meet the band of ``Radii`` widened by E; an entry inside it is
    decided from exact floors of the distances (``_floors``)."""

    def __init__(self, sys: SystemSpec, X0: int, P: int, horizon: int):
        self._k = _quadratic_constants(sys, P, horizon)
        self.sys, self.P, self.horizon = sys, P, horizon
        self._omega = sys.beta if isinstance(sys, BetaMap) else sys.alpha
        self._circle = uses_circle_metric(sys)
        self.S, self.E = self._k[5] + 1, self._k[6]
        self.X0 = X0 % (1 << P)
        self._a0 = self.S >> 1 if self._circle else self.X0  # a, and y, at x = x0
        self.a, self.b = self._a0, 0

    def step(self) -> int:
        c0, c1, W, Q, P, mask, e, top = self._k
        if c0 is None:
            self.b += 1 << P
            self.a = y = (self.a + c1) & mask
            return y
        a, b = c0 * self.b, self.a + c1 * self.b
        y = a + ((b * W) >> Q)
        m, r = y >> P, y & mask
        if r < e or r > top:  # y is within e of an integer times 2**P
            m = self._omega.floor_of(a, b, mask + 1)
            r = y - (m << P)
        if m:
            a -= m << P
        self.a, self.b = a, b
        return r

    def _decisions(self, tables, running_min: bool, stop: bool | None = None) -> list:
        """Each table's decisions from one walk that steps, measures and
        decides up to each table's decision ``stop``. One table has its own
        branch: the loop over tables costs 6-10% on mc-iterated's beta ops."""
        radii = tables[0]
        n_lo, n_hi = radii.n_lo, radii.n_hi
        if n_hi > self.horizon:
            raise ValueError(f"quadratic orbit built for {self.horizon} steps, not {n_hi}")
        S, E, Y0, step = self.S, self.E, self._a0, self.step
        self.a, self.b = self._a0, 0
        (lo, hi), out, D, open_ = radii.band(S, E), [], S, None
        if len(tables) > 1:
            open_ = [(*radii.band(S, E), [], radii) for radii in tables]
            decisions = [t[2] for t in open_]
        for n in range(1, n_hi + 1):
            d = abs(step() - Y0)
            if running_min:
                d = D = d if d < D else D
            if n < n_lo:
                continue
            i = n - n_lo
            if open_ is None:
                out.append(hit := d < lo[i] or (d <= hi[i] and radii.settle(
                    i, d, S, E, self._floors(n, d, running_min))))
                if hit is stop:
                    break
                continue
            for lo, hi, out, radii in open_:
                out.append(hit := d < lo[i] or (d <= hi[i] and radii.settle(
                    i, d, S, E, self._floors(n, d, running_min))))
                if hit is stop:  # the loop goes on over the old list
                    open_ = [t for t in open_ if t[2] is not out]
            if not open_:
                break
        return [out] if open_ is None else decisions

    def _floor_at(self) -> Callable[[int], int]:
        """T -> floor(d(x, x_0) * T) exactly, x the point: d = (A + B w) / 2**P."""
        unit, floor_of = 1 << self.P, self._omega.floor_of
        A, B = 0 if self._circle else self.a - self.X0, self.b
        if self._circle:  # (x - x_0) mod 1 = (b w / 2**P) mod 1, folded at 1/2
            A -= floor_of(A, B, unit) * unit
            if floor_of(2 * A, 2 * B, unit):
                A, B = unit - A, -B
        elif floor_of(A, B, unit) < 0:
            A, B = -A, -B
        return lambda T: floor_of(A * T, B * T, unit)

    def _floors(self, n: int, D: int, running_min: bool) -> Iterator[Callable[[int], int]]:
        """``_floor_at`` of the points j whose d_j may decide entry n: j = n,
        or for a running minimum D each j <= n with floor(d_j * S) <= D + E,
        as the j of the minimum has. A twin of the orbit walks them again."""
        twin = FixedPointOrbit(self.sys, self.X0, self.P, self.horizon)
        for j in range(1, n + 1):
            twin.step()
            if (running_min or j == n) and (floor_at := twin._floor_at())(self.S) <= D + self.E:
                yield floor_at

    def distances(self, n_hi: int) -> np.ndarray:
        """d(T^n x, x) for n = 1..n_hi, correctly rounded: (D - E) / S where
        (D + E) / S rounds alike, else floor(d * T) / T at a T that grows
        until (floor(d * T) + 1) / T rounds alike too, as it does for an
        irrational d (b != 0; a beta-map's d is |a - X0| / 2**P if b = 0)."""
        if n_hi > self.horizon:
            raise ValueError(f"quadratic orbit built for {self.horizon} steps, not {n_hi}")
        S, E, self.a, self.b, out = self.S, self.E, self._a0, 0, []
        for _ in range(n_hi):
            D = abs(self.step() - self._a0)
            if (x := (D - E) / S) != (D + E) / S:
                floor_at, T = self._floor_at(), 1 << 64
                while self.b and (F := floor_at(T)) / T != (F + 1) / T:
                    T *= T
                x = F / T if self.b else abs(self.a - self.X0) / (1 << self.P)
            out.append(x)
        return np.array(out)


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
        for row, i in np.argwhere(mask):
            n = radii.n_lo + int(i)
            d = min(self.exact_dist(int(j), int(row)) for j in candidates(row, n, i))
            hit[row, i] = radii.settle(int(i), d.numerator, d.denominator)
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
    ``sample_bits(seed, i, horizon + 64)``, irrational beta-maps
    P = max(256, ceil(horizon * log2 beta) + 128) bits, irrational rotations
    256, and exact systems ``sample_bits(seed, i * d + c, P)`` for coordinate
    c, P from ``_lattice``."""
    if isinstance(sys, IntegerCircleMap) and sys.a == 2:
        P = horizon + _W
        return lambda seed, i: DyadicOrbitView(sample_bits(seed, i, P), P, horizon)
    if isinstance(sys, BetaMap) and sys.beta.exact() is None:
        P = max(256, math.ceil(horizon * math.log2(float(sys.beta))) + 2 * _W)
    elif isinstance(sys, Rotation) and sys.alpha.exact() is None:
        P = 256
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
        coords = pt if isinstance(sys, ToralLinear) else (pt,)
        d = float(point_distance(sys, pt, points[0]))
        writer.writerow([k, ";".join(f"{float(v):.15g}" for v in coords), f"{d:.15g}"])
    return n + 1
