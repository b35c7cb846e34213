"""Orbits, the three orbit backends of the Monte Carlo experiments, and
orbit-level return statistics.

``orbit_backend`` is the one place that picks, on the system type, how the
orbit of a sampled point is represented:

* shift (the doubling map), ``DyadicOrbitView``: T^n x is the dyadic start
  X0 / 2**P shifted by n bits, so d(T^n x, x) is read from a 64-bit window
  of X0 without iterating; comparisons inside the windows' +-2 ulp band are
  resolved exactly, one row at a time.
* fixed-point (beta-maps, irrational rotations), ``FixedPointOrbit``:
  integers X ~ x * 2**P stepped one at a time, with the forward error
  tracked in integer ulps.
* exact (other circle maps, piecewise-affine and toral maps, rational
  rotations), ``ExactOrbit``: Fraction points, exact distances.

Each gives float distances d(T^n x, x) and the decisions d_n < r_n and
min_{j <= n} d_j < r_n over an index range: exact for the shift backend, in
floats for the fixed-point one, and exact wherever r_n is rational for the
exact one. The experiments reduce over blocks of samples (the orbit class's
``block``): a shift block reads all its windows in one kernel call, and a
``SteppedBlock`` iterates its orbits, each with its lazy decisions and early
exit. The exact-orbit helpers (``iterate``, the return statistics and the
CSV export) share one generator of exact orbit points.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .circle import circle_dist
from .errors import PrecisionBudgetError
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


def iterate(sys: SystemSpec, x, n: int):
    """T^n x exactly, for systems with exact rational dynamics."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(_exact_orbit(sys, x), n, None))


# ---------------------------------------------------------------------------
# Stepped orbits: the fixed-point and exact backends
#
# Decisions read a radius table ``radii`` (``experiments.Radii``) for n in
# [radii.n_lo, radii.n_hi]. Stepped orbits yield them one step at a time, so
# ``True in`` and ``False not in`` stop the orbit at the first decisive step.
# ---------------------------------------------------------------------------

class SteppedBlock:
    """Stepped orbits, one row each: ``any_below`` stops a row at its first
    hit and ``all_min_below`` at its first miss."""

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

    def any_below(self, radii) -> np.ndarray:
        return np.array([True in o.below(radii) for o in self.orbits])

    def all_min_below(self, radii) -> np.ndarray:
        return np.array([False not in o.min_below(radii) for o in self.orbits])


class _Stepped:
    """Decisions and distances from ``_dists(n_hi)``, the lazy d_1, d_2, ...,
    and ``_lt(d, radii, n)``, the comparison d < r_n."""

    block = SteppedBlock  # orbit.block(orbits) is the block of those orbits

    def distances(self, n_hi: int) -> np.ndarray:
        return np.fromiter(self._dists(n_hi), float, n_hi)

    def below(self, radii) -> Iterator[bool]:
        """d_n < r_n for n in [radii.n_lo, radii.n_hi]."""
        for n, d in enumerate(self._dists(radii.n_hi), 1):
            if n >= radii.n_lo:
                yield self._lt(d, radii, n)

    def min_below(self, radii) -> Iterator[bool]:
        """min(d_1, ..., d_n) < r_n for n in [radii.n_lo, radii.n_hi]."""
        for n, rho in enumerate(accumulate(self._dists(radii.n_hi), min), 1):
            if n >= radii.n_lo:
                yield self._lt(rho, radii, n)


class ExactOrbit(_Stepped):
    """The exact orbit of a rational start (its coordinates, one on the
    circle); compared exactly with a rational radius, as a float otherwise."""

    def __init__(self, sys: SystemSpec, coords: Sequence[Fraction]):
        self.sys = sys
        self.x0 = tuple(coords) if isinstance(sys, ToralLinear) else coords[0]

    def _dists(self, n_hi: int) -> Iterator:
        return _return_distances(self.sys, self.x0, n_hi)

    @staticmethod
    def _lt(d, radii, n: int) -> bool:
        r = radii.exact[n - radii.n_lo]
        return d < r if r is not None else float(d) < radii.approx[n - radii.n_lo]


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


class FixedPointOrbit(_Stepped):
    """Orbit of x ~ X0 / 2**P under a beta-map or rotation, with explicit
    error accounting: ``err_ulp`` is an integer upper bound, in ulps of
    2**-P, on the distance of X / 2**P from the true point."""

    def __init__(self, sys: SystemSpec, X0: int, P: int, horizon: int):
        need = required_bits(sys, horizon)
        if P < need:
            raise PrecisionBudgetError(need, P)
        self.sys = sys
        self.P = P
        self.horizon = horizon
        self.X0 = X0 % (1 << P)
        self.X = self.X0
        self.step_count = 0
        self.err_ulp = 1  # X0 itself rounds the true point
        if isinstance(sys, BetaMap):
            self._mult = sys.beta.scaled(P)
            self._shift = None
        elif isinstance(sys, Rotation):
            self._shift = sys.alpha.scaled(P)
            self._mult = None
        else:
            raise ValueError(f"no fixed-point orbit for {sys.describe()}")

    def step(self) -> int:
        if self.step_count >= self.horizon:
            raise PrecisionBudgetError(
                required_bits(self.sys, self.step_count + 1), self.P
            )
        mask = (1 << self.P) - 1
        if self._mult is not None:
            self.X = ((self.X * self._mult) >> self.P) & mask
            # beta <= (_mult + 1) / 2**P scales the error; the truncated
            # multiplier and the truncated product add one ulp each
            self.err_ulp = -((-(self._mult + 1) * self.err_ulp) >> self.P) + 2
        else:
            self.X = (self.X + self._shift) & mask
            self.err_ulp += 1
        self.step_count += 1
        return self.X

    def dist_to_start(self) -> float:
        """d(T^k x, x) in the system's metric; error bounded by err_bound."""
        if uses_circle_metric(self.sys):
            t = (self.X - self.X0) % (1 << self.P)
            t = min(t, (1 << self.P) - t)
        else:
            t = abs(self.X - self.X0)
        return t / (1 << self.P)

    @property
    def err_bound(self) -> Fraction:
        """Bound on the distance error, exactly: as a float, 2**-P would
        underflow to 0 once P passes about 1075 bits."""
        return Fraction(2 * self.err_ulp, 1 << self.P)

    def _dists(self, n_hi: int) -> Iterator[float]:
        # from X0 again, so decisions are a function of the sample, as for
        # the other two backends
        self.X, self.step_count, self.err_ulp = self.X0, 0, 1
        for _ in range(n_hi):
            self.step()
            yield self.dist_to_start()

    @staticmethod
    def _lt(d: float, radii, n: int) -> bool:
        return d < radii.approx[n - radii.n_lo]


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

    def exact_point(self, n: int, row: int = 0) -> Fraction:
        return Fraction((self.starts[row] << n) % (1 << self.P), 1 << self.P)

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
        d = np.atleast_2d(self.circle_dist64_batch(radii.n_lo, radii.n_hi))
        return self._decide(radii, d, lambda row, n, i: (n,))

    def min_below(self, radii) -> np.ndarray:
        """min(d_1, ..., d_n) < r_n for n in [radii.n_lo, radii.n_hi], exactly."""
        d = np.atleast_2d(self.circle_dist64_batch(1, radii.n_hi))
        hi = radii.band64[1]
        return self._decide(radii, np.minimum.accumulate(d, axis=1)[:, radii.n_lo - 1:],
                            lambda row, n, i: 1 + np.flatnonzero(d[row, :n] <= hi[i]))

    def any_below(self, radii) -> np.ndarray:
        return self.below(radii).any(axis=-1)

    def all_min_below(self, radii) -> np.ndarray:
        return self.min_below(radii).all(axis=-1)

    def _decide(self, radii, v: np.ndarray, candidates) -> np.ndarray:
        """v[row, i] < r_n (n = n_lo + i) from the band; a gray entry holds
        when some exact d_j of its row, j in ``candidates(row, n, i)``, is
        below r_n."""
        lo, hi = radii.band64
        hit = v < lo
        for row, i in np.argwhere(hit != (v <= hi)):
            n = radii.n_lo + int(i)
            r = radii.at(n, self.P)
            hit[row, i] = any(self.exact_dist(int(j), int(row)) < r
                              for j in candidates(row, n, i))
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


def sample_fraction(master_seed: int, index: int, bits: int = 128) -> Fraction:
    return Fraction(sample_bits(master_seed, index, bits), 1 << bits)


def orbit_backend(sys: SystemSpec, horizon: int
                  ) -> Callable[[int, int], DyadicOrbitView | FixedPointOrbit | ExactOrbit]:
    """The one dispatch on the system type for the Monte Carlo experiments:
    returns ``start``, where ``start(master_seed, index)`` is the orbit of
    that sample over ``horizon`` steps. The doubling map draws
    ``sample_bits(seed, i, horizon + 64)``, beta-maps
    P = max(256, ceil(horizon * log2 beta) + 128) bits, and exact systems a
    128-bit ``sample_fraction`` per coordinate."""
    if isinstance(sys, IntegerCircleMap) and sys.a == 2:
        P = horizon + GUARD_BITS
        return lambda seed, i: DyadicOrbitView(sample_bits(seed, i, P), P, horizon)
    if isinstance(sys, BetaMap):
        P = max(256, math.ceil(horizon * math.log2(float(sys.beta))) + 2 * GUARD_BITS)
    elif isinstance(sys, Rotation) and sys.alpha.exact() is None:
        P = max(256, required_bits(sys, horizon))
    else:
        return lambda seed, i: ExactOrbit(
            sys, [sample_fraction(seed, i * sys.d + c) for c in range(sys.d)])
    return lambda seed, i: FixedPointOrbit(sys, sample_bits(seed, i, P), P, horizon)


# ---------------------------------------------------------------------------
# Return statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnDistance:
    """rho_m(x) = min over 1 <= k <= m of d(T^k x, x), with the argmin."""

    m: int
    rho: Fraction | float
    argmin: int


def min_return_distance(sys: SystemSpec, x, m: int) -> ReturnDistance:
    """Exact rho_m(x) for systems with exact orbits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    best = None
    arg = 0
    for k, d in enumerate(_return_distances(sys, x, m), 1):
        if best is None or d < best:
            best, arg = d, k
            if best == 0:
                break
    return ReturnDistance(m, best, arg)


def return_time(sys: SystemSpec, x, r, horizon: int) -> int | None:
    """tau_r(x) = first n <= horizon with d(T^n x, x) < r; None past horizon
    (an explicit marker, never a fake value)."""
    r = Fraction(r)
    if r <= 0:
        return None
    return next((n for n, d in enumerate(_return_distances(sys, x, horizon), 1) if d < r),
                None)


@dataclass(frozen=True)
class ReturnExponents:
    """Regression of log tau_r against -log r over a geometric radius grid.

    ``lower``/``upper`` are the min/max per-point exponents over the finer
    half of the grid (the liminf/limsup proxies); ``excluded`` lists radii
    whose return time exceeded the horizon.
    """

    slope: float
    residual: float
    lower: float
    upper: float
    points: tuple[tuple[float, int], ...]  # (r, tau)
    excluded: tuple[float, ...]


def return_exponents(sys: SystemSpec, x, r_grid: Sequence, horizon: int) -> ReturnExponents:
    if len(r_grid) < 8:
        raise ValueError("need a geometric grid of at least 8 radii")
    points = []
    excluded = []
    for r in r_grid:
        tau = return_time(sys, x, Fraction(r), horizon)
        if tau is None:
            excluded.append(float(r))
        else:
            points.append((float(r), tau))
    if len(points) < 2:
        return ReturnExponents(math.nan, math.nan, math.nan, math.nan,
                               tuple(points), tuple(excluded))
    xs = np.array([-math.log(r) for r, _ in points])
    ys = np.array([math.log(t) for _, t in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    # per-point exponents on the finer (smaller-radius) half of the grid
    fine = sorted(points)[: max(2, len(points) // 2)]
    exps = [math.log(t) / -math.log(r) if r < 1 and t > 1 else 0.0 for r, t in fine]
    return ReturnExponents(float(slope), residual, min(exps), max(exps),
                           tuple(points), tuple(excluded))


def boshernitzan_statistic(sys: SystemSpec, x, alpha: float, N: int) -> float:
    """min over 1 <= n <= N of n**(1/alpha) * d(T^n x, x) (exact orbits)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    best = math.inf
    inv = 1.0 / alpha
    for n, d in enumerate(_return_distances(sys, x, N), 1):
        val = n ** inv * float(d)
        if val < best:
            best = val
            if best == 0:
                break
    return best


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
