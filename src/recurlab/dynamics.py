"""Orbits and the three orbit backends of the Monte Carlo experiments.

``orbit_backend`` is the one place that picks, on the system type, how the
orbit of a sampled point is represented:

* shift (the doubling map), ``DyadicOrbitView``: a sample is just its X0,
  T^n x is X0 / 2**P shifted by n bits, and d(T^n x, x) is read from a
  64-bit window of X0, +-2 ulps of 2**-64, for a block of samples at once.
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
block reads all its windows in one kernel call. The two stepped backends
stream their distances into ``Radii.decide``, each orbit walked once per
call for all its radius tables, and only as far as the last table reads.
A block of beta-map or expanding lattice orbits is one ``ScreenedBlock``:
through four members of their family, ``segment``, ``start``, ``walk`` and
``jump``, it walks all its rows at once in float64 segments under a proven
error bound and jumps the exact points at each segment's end (Z[w] for
beta-maps, A**K X mod S for circle and toral maps, composed affine branches
for piecewise maps); only a row that the bound leaves open takes the exact
walk. ``write_orbit_csv`` steps rational orbits in ``Fraction``s by the
system's own ``apply``, for the orbit command's CSV trace.
"""

from __future__ import annotations

import csv
import hashlib
import math
from _random import Random as _MT19937
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, tee
from operator import mul
from typing import Callable, Iterator, Sequence

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


# ---------------------------------------------------------------------------
# Stepped orbits: the quadratic and lattice backends
#
# An orbit's ``_decisions(tables, running_min)`` gives one lazy sequence of
# decisions per radius table (``experiments.Radii``, all over one range of n)
# from one walk, so ``any`` and ``False not in`` stop the walk at the step
# that the last table reads.
# ---------------------------------------------------------------------------

def _one_range(tables) -> tuple[int, int]:
    """(n_lo, n_hi), the one range of n of the radius tables of a call."""
    if len(ranges := {(radii.n_lo, radii.n_hi) for radii in tables}) != 1:
        raise ValueError("the tables of one call must share one range of n")
    return ranges.pop()


class SteppedBlock:
    """Stepped orbits, one row each, walked one orbit at a time:
    ``any_below_each`` stops a row once every table has had a hit and
    ``all_min_below`` at its first miss. These scalar walks are the exact
    path of every stepped orbit and the whole path of rotations and of maps
    that do not expand (``_segment``); ``ScreenedBlock`` screens beta-map
    and lattice rows in floats first and leaves to them only the rows that
    it cannot decide."""

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
        _one_range(tables)
        hits = [list(map(any, o._decisions(tables, False))) for o in self.orbits]
        return list(np.array(hits, dtype=bool).reshape(len(self.orbits), len(tables)).T)

    def all_min_below(self, radii) -> np.ndarray:
        return np.array([False not in o._decisions([radii], True)[0] for o in self.orbits])


class _Stepped:
    """An orbit X0 / S (X0 a tuple on the torus) of the family ``walk``, up
    to ``horizon`` steps. Decisions and distances come from ``_dists(n_hi)``,
    the walk's lazy integer distances D, n = 1, 2, ..., within ``E`` of
    S * d(T^n x, x). Decisions are ``Radii.decide``'s, lazy, for n from
    radii.n_lo on; the tables of one call share the walk through ``tee``,
    and one table reads the stream itself. An entry that E leaves open is
    settled from the orbit's ``_floors``. A walk with float segments screens
    a ``block``, which holds K d entries a row (``row_entries``)."""

    E = 0  # exact distances: no entry is left open

    def __init__(self, S: int, walk, horizon: int, X0):
        self.S, self.walk, self.horizon, self.X0 = S, walk, horizon, X0

    @staticmethod
    def block(orbits: Sequence[_Stepped]) -> SteppedBlock:
        return (ScreenedBlock if orbits[0].walk.segment else SteppedBlock)(orbits)

    @property
    def row_entries(self) -> int:
        segment = self.walk.segment  # K steps of each of X0's coordinates, or the horizon
        return segment[0] * np.size(self.X0) if segment else self.horizon

    def _reach(self, n_hi: int) -> int:
        if n_hi > self.horizon:  # the walk is sized for the horizon
            raise ValueError(f"orbit built for {self.horizon} steps, not {n_hi}")
        return n_hi

    def _dists(self, n_hi: int) -> Iterator[int]:
        return self.walk(self, self._reach(n_hi))

    def distances(self, n_hi: int) -> np.ndarray:
        S = self.S
        return np.fromiter((D / S for D in self._dists(n_hi)), float, n_hi)

    def below(self, radii):
        """d_n < r_n for n in [radii.n_lo, radii.n_hi]."""
        return self._decisions([radii], False)[0]

    def min_below(self, radii):
        """min(d_1, ..., d_n) < r_n for n in [radii.n_lo, radii.n_hi]."""
        return self._decisions([radii], True)[0]

    def _decisions(self, tables, running_min: bool) -> list:
        ds = self._dists(tables[0].n_hi)
        if running_min:
            ds = accumulate(ds, min)
        streams = tee(ds, len(tables)) if len(tables) > 1 else (ds,)
        S, E = self.S, self.E
        floors = (lambda n, D: self._floors(n, D, running_min)) if E else None
        return [radii.decide(islice(d, radii.n_lo - 1, None), S, E, floors)
                for radii, d in zip(tables, streams)]


# ---------------------------------------------------------------------------
# Screened blocks: stepped orbits in certified float segments
# ---------------------------------------------------------------------------

def _segment(growth, delta, cap: int | None = None) -> tuple[int, float, float] | None:
    """(K, eps, err) of float segments whose error starts at eps_0 = 2**-52
    and grows as eps_k = growth * eps_{k-1} + delta (Fractions): K the
    largest length up to ``cap`` with eps_K <= 2**-30 (at least 1), and
    floats eps >= eps_K and err >= eps_K + 2**-51. None for cap 0, or for
    growth <= 1: the error then grows at most linearly, K would be the
    horizon, and a screened row would walk all of it before it could stop,
    so such orbits (rotations, toral maps with ||A|| = 1) keep the scalar
    walk."""
    if growth <= 1 or cap == 0:
        return None
    eps, K = growth / (1 << 52) + delta, 1
    while K != cap and (after := growth * eps + delta) <= Fraction(1, 1 << 30):
        eps, K = after, K + 1
    up = lambda v: math.nextafter(float(v), math.inf)  # noqa: E731
    return K, up(eps), up(eps + Fraction(1, 1 << 51))


def _first(mask: np.ndarray, k: int) -> np.ndarray:
    """Per column, the row of the first True of ``mask``; k where none is."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), k)


class ScreenedBlock(SteppedBlock):
    """Stepped orbits decided in certified float segments of K steps by the
    family that they share (``orbit.walk``): its ``segment`` (K, eps, err),
    ``start(orbits)`` (the rows' exact states and start floats x0),
    ``walk(x, k, x0, eps)`` (k float steps of the running rows: distances,
    each row's first open step, digits) and ``jump(states, go, digits)``
    (the exact move of the rows running at a segment's end: (ok, states,
    floats), ok where a row lands where its digits say). From an exact
    point rounded (eps_0 = 2**-52), each family proves that before a row's
    first open step its floats stay within eps_k = G eps_{k-1} + delta
    (``_segment``) and its distances within eps_k + 2**-52. So
    fl(d + err) < lo, or fl(d - err) > hi, for Radii.bounds lo < r_n < hi,
    is a hit, or a miss, that the scalar walk would count neither ``gray``
    nor ``mp`` (2**-52 is above (2 E + 2) / S at every scale S >= 2**128).
    A row reads up to its stop, as the scalar walk does (every table's
    first hit for ``any_below_each``, the first miss for ``all_min_below``,
    none for ``below``); a row meeting an open step or an entry inside
    [lo - err, hi + err] first, or not landing, is decided by
    ``_decisions``."""

    def below(self, radii) -> np.ndarray:
        return self._screen([radii], False, None)[0]

    def any_below_each(self, tables) -> list[np.ndarray]:
        return self._screen(tables, False, True)

    def all_min_below(self, radii) -> np.ndarray:
        return ~self._screen([radii], True, False)[0]

    def _screen(self, tables, running_min: bool, stop: bool | None) -> list[np.ndarray]:
        """Per table, whether each row's decisions (of the running minimum if
        ``running_min``) reach the value ``stop``, read up to the first that
        does; for stop None, the one table's decisions, a row per orbit."""
        n_lo, n_hi = _one_range(tables)
        orbits, rows, family = self.orbits, len(self.orbits), self.orbits[0].walk
        orbits[0]._reach(n_hi)
        (K, eps, err), (states, x0) = family.segment, family.start(orbits)
        pad = (np.full(n_lo - 1, -np.inf), np.full(n_lo - 1, np.inf))  # n < n_lo: not read
        bounds = [[np.concatenate([v, b]) for v, b in zip(pad, radii.bounds)] for radii in tables]
        ended = np.zeros((len(tables), rows), bool)
        hits = np.zeros((rows, n_hi), bool) if stop is None else None
        live, x, low = np.arange(rows), x0, np.full(rows, np.inf)
        exact = []  # rows left to the scalar walk
        for n0 in range(0, n_hi, K):
            k = min(K, n_hi - n0)
            d, j, digits = family.walk(x, k, x0[..., live], eps)
            if running_min:
                d = np.minimum(np.minimum.accumulate(d), low[live])
                low[live] = d[-1]
            read = (np.arange(n0 + 1, n0 + k + 1) >= n_lo)[:, None]
            bad = np.zeros(len(live), bool)
            for i, (lo, hi) in enumerate(bounds):
                hit, miss = d + err < lo[n0:n0 + k, None], d - err > hi[n0:n0 + k, None]
                first_bad = np.minimum(_first(read & ~hit & ~miss, k), j)
                if stop is None:  # every entry is read
                    hits[live, n0:n0 + k] = hit.T
                    bad |= first_bad < k
                    continue
                running = ~ended[i, live]
                ends = running & (_first(hit if stop else miss, k) < first_bad)
                ended[i, live[ends]] = True
                bad |= running & ~ends & (first_bad < k)
            exact += live[bad].tolist()
            go = ~bad & ~ended[:, live].all(axis=0)
            if n0 + k == n_hi or not go.any():
                break
            moved = live[go]  # a running row has no open step
            ok, states[moved], x = family.jump(states[moved], go, digits)
            exact += moved[~ok].tolist()
            live = moved[ok]
        for r in exact:
            decisions = orbits[r]._decisions(tables, running_min)
            if stop is None:
                hits[r, n_lo - 1:] = list(decisions[0])
            else:
                ended[:, r] = [stop in dec for dec in decisions]
        return [hits[:, n_lo - 1:]] if stop is None else list(ended)


# ---------------------------------------------------------------------------
# Lattice orbits: exact systems in integers
# ---------------------------------------------------------------------------

def _v2(k: int) -> int:
    """The exponent of 2 in k != 0."""
    return (k & -k).bit_length() - 1


class _Lattice:
    """Exact states X over S in an object array; every lattice jump lands."""

    def start(self, orbits) -> tuple:
        return self._landed(np.array([o.X0 for o in orbits], object))[1:]

    def _landed(self, X: np.ndarray) -> tuple:
        return np.ones(len(X), bool), X, (X / self.S).astype(float).T


class _Modular(_Lattice):
    """X -> A X + B mod S: the lattice walk of integer circle maps (A = (a)),
    rational rotations (A = (1), B = alpha S) and toral maps, X an int or a
    tuple; called, it yields S * d(T^n x, x), n = 1..n_hi. Only maps with
    G = ||A||_inf > 1 have segments, and B = 0: a float step is
    x -> A x mod 1, its values below 2**e = 2**bit_length(G), so its d
    products and d - 1 sums (2**(e-54) each; t - floor(t) is exact) are
    within delta = (d + 1) 2**(e-53). The map is continuous mod 1 and
    G-Lipschitz in the max of the circle metrics: no step is open, and
    min(t, 1 - t), t = fl(|x - x0|) (max over coordinates), is within
    eps_k + 3 2**-54. A segment's end jumps X to A**K X mod S (A**K built
    once)."""

    def __init__(self, A, B, S: int, horizon: int):
        self.A, self.B, self.S, self.torus = A, B, S, len(A) > 1
        G = max(sum(map(abs, row)) for row in A)
        self.segment = _segment(G, (len(A) + 1) * Fraction(2) ** (G.bit_length() - 53), horizon)
        self.Af = np.array(A, float)
        if self.segment:
            self.AKT = np.linalg.matrix_power(np.array(A, object), self.segment[0]).T

    def __call__(self, orbit: LatticeOrbit, n_hi: int) -> Iterator[int]:
        # min(t, S - t) = S/2 - |S/2 - t| for t = (X - X0) mod S (S is even)
        S, A, half, X0 = self.S, self.A, self.S >> 1, orbit.X0
        X = X0
        if self.torus:
            for _ in range(n_hi):
                X = [sum(map(mul, row, X)) % S for row in A]
                yield max([half - abs(half - (x - x0) % S) for x, x0 in zip(X, X0)])
            return
        (a,), B = A[0], self.B[0]
        for _ in range(n_hi):
            X = (a * X + B) % S
            yield half - abs(half - (X - X0) % S)

    def walk(self, x: np.ndarray, k: int, x0: np.ndarray, eps: float) -> tuple:
        pts, a = np.empty((k, *x.shape)), self.A[0][0]
        for s in range(k):
            t = np.matmul(self.Af, x, out=pts[s]) if self.torus else np.multiply(x, a, out=pts[s])
            x = np.subtract(t, np.floor(t), out=t)
        t = np.abs(pts - x0)
        d = np.minimum(t, 1 - t)
        return d.max(axis=1) if self.torus else d, k, None

    def jump(self, X: np.ndarray, go: np.ndarray, digits) -> tuple:
        return self._landed((X.reshape(len(X), -1) @ self.AKT % self.S).reshape(X.shape))


class _Affine(_Lattice):
    """X -> (u X + g S) // q on the branch of X, an image S folded to 0: the
    lattice walk of piecewise maps and rational beta-maps, from their
    ``integer_branches``. A float step takes the digit i (the interior
    branch ends at or below x) and t = s_i x + c_i, s_i = u_i / q and
    c_i = g_i / q rounded. With G = max |s_i| and 2**e > G (1 + 2**-29),
    delta = 2**(e-53) + 2 max |fl(s_i) - s_i| + max |fl(c_i) - c_i| covers
    the product, the sum and the rounded data while i is right: it is,
    unless x is in [fl(h - eps), fl(h + eps)] for an end h (fl(h) errs by
    2**-54 < eps - eps_{k-1}) or t >= fl(1 - eps) (an image 1 folds), where
    the step is open. A segment's K digits compose to q**K X_K = U X + V S,
    U = prod_j u_{i_j}, V = sum_j g_{i_j} q**j prod_{l > j} u_{i_l}, in
    int64: K max(1, |g|) max(q, |u|)**K < 2**63 caps K (at 0, no segment),
    and q**j, j below the cap, is built once."""

    def __init__(self, pw, S: int, horizon: int):
        (q, Lb, _, ints), br = pw.integer_branches, pw.branches
        self.S, self.q, self.u, self.g = S, q, [v[2] for v in ints], [v[3] for v in ints]
        self.branches = [(hi * (S // Lb), u, g * S) for _, hi, u, g in ints]
        s, c = [b.slope for b in br], [b.intercept for b in br]
        self.ends, self.s, self.c = (np.array([float(v) for v in vs])
                                     for vs in ([b.hi for b in br[:-1]], s, c))
        off = lambda vs, fs: max(abs(Fraction(f) - v) for f, v in zip(fs.tolist(), vs))  # noqa: E731
        G = max(map(abs, s))
        delta = (Fraction(2) ** (math.floor(G * (1 + Fraction(1, 1 << 29))).bit_length() - 53)
                 + 2 * off(s, self.s) + off(c, self.c))
        top, big, cap = max(q, *map(abs, self.u)), max(1, *map(abs, self.g)), 0
        while cap < horizon and (cap + 1) * big * top ** (cap + 1) < 1 << 63:
            cap += 1
        self.segment = _segment(G, delta, cap)
        self.qj = np.array([q ** j for j in range(cap)], np.int64)[:, None]

    def __call__(self, orbit: LatticeOrbit, n_hi: int) -> Iterator[int]:
        S, q, X0 = self.S, self.q, orbit.X0
        X = X0
        for _ in range(n_hi):
            for hi, u, gS in self.branches:
                if X < hi:
                    break
            X = (u * X + gS) // q
            if X >= S:  # images may touch 1 at a branch end
                X -= S
            yield abs(X - X0)

    def walk(self, x: np.ndarray, k: int, x0: np.ndarray, eps: float) -> tuple:
        xs, digits = np.empty((k + 1, len(x))), np.empty((k, len(x)), np.intp)
        xs[0] = x
        for s in range(k):
            i = digits[s] = np.searchsorted(self.ends, xs[s], "right")
            np.add(np.multiply(self.s[i], xs[s], out=xs[s + 1]), self.c[i], out=xs[s + 1])
        open_ = xs[1:] >= 1 - eps
        for h in self.ends.tolist():
            open_ |= (xs[:-1] >= h - eps) & (xs[:-1] <= h + eps)
        return np.abs(xs[1:] - x0), _first(open_, k), digits

    def jump(self, X: np.ndarray, go: np.ndarray, digits: np.ndarray) -> tuple:
        i, K = digits[:, go], len(digits)
        R = np.cumprod(np.array(self.u, np.int64)[i][::-1], axis=0)[::-1]  # prod_{l >= j} u_{i_l}
        gq = np.array(self.g, np.int64)[i] * self.qj[:K]
        V = (gq[:-1] * R[1:]).sum(axis=0) + gq[-1]
        return self._landed((R[0].astype(object) * X + V.astype(object) * self.S) // self.q ** K)


def _lattice(sys: SystemSpec, horizon: int) -> tuple[int, int, _Modular | _Affine]:
    """(P, S, walk) for an exact system over ``horizon`` steps. A dyadic start
    X0 / 2**P is X0 * (S >> P) / S, and each of its first ``horizon`` orbit
    points is X / S with integer X. ``walk(orbit, n_hi)`` yields the integer
    distances S * d(T^n x, x), n = 1..n_hi, of the orbit's start X0 / S (a
    tuple of coordinates on the torus); ``walk`` is the orbits' family.

    P keeps about 128 random bits to the horizon: an integer matrix A (a
    circle map is A = (a)) sheds v2(det A) low bits a step, since the gcd of
    each row of A^n divides det A^n; a map with affine branches, the largest
    v2 of a slope numerator. The branches of ``as_piecewise`` (piecewise
    maps, rational beta-maps) take S = 2**P * q**horizon * L_b, q and L_b
    of their ``integer_branches``, so every slope divides exactly and every
    branch end is an integer over S."""
    if isinstance(sys, (ToralLinear, IntegerCircleMap)):  # a circle map is A = (a)
        A = sys.A if isinstance(sys, ToralLinear) else ((sys.a,),)
        P = 128 + horizon * _v2(mat_det(A))
        return P, 1 << P, _Modular(A, (0,) * len(A), 1 << P, horizon)
    if not isinstance(sys, Rotation):  # affine branches
        pw = sys.as_piecewise()
        P = 128 + horizon * max(_v2(b.slope.numerator) for b in pw.branches)
        q, Lb, *_ = pw.integer_branches
        S = (q ** horizon * Lb) << P
        return P, S, _Affine(pw, S, horizon)
    if (alpha := sys.alpha.exact()) is None:
        raise ValueError(f"{sys.describe()} has no lattice orbit")
    S = alpha.denominator << 128  # x -> x + alpha mod 1 is X -> X + alpha S mod S
    return 128, S, _Modular(((1,),), (alpha.numerator << 128,), S, horizon)


class LatticeOrbit(_Stepped):
    """An orbit in integers X over S, walked by ``_Modular`` or ``_Affine``."""


# ---------------------------------------------------------------------------
# Quadratic orbits: beta-maps and irrational rotations, exactly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)  # one family per (sys, P, horizon): per call
class _Quadratic:
    """The family of one call's ``FixedPointOrbit``s. ``k`` = (c0, c1, W, Q,
    P, S - 1, E, S - E) for ``step``: w**2 = c1 w + c0, W = floor(w * 2**Q),
    and y's scale S and bound E (see ``FixedPointOrbit``). Q is 64 bits past
    g, where 2**(P + g) > |b| over the horizon: |b| / 2**P = |x_n - x_n'| /
    (w - w'), x_n' the conjugate of x_n, and for a beta-map |x_n'| <= M
    max(1, |w'|)**n with M = 1 + floor(w) / |1 - |w'||, bounded for the
    golden mean (a Pisot number) and growing by sqrt(k) a step for sqrt(k).
    A rotation's b is n * 2**P, and a rotation has no segments.

    A beta-map's float step is t = w x, m = floor(t), x = t - m,
    d = |x - x0|, with w = F / 2**100, F = floor(omega 2**100)
    (2**(e-1) < w < 2**e), and omega the slope; K, eps and err come from
    ``_segment`` at growth (F + 1) / 2**100 (G) and |w - omega| <=
    |w - F / 2**100| + 2**-100. A restart's exact y is within
    E / S <= 2**-64 + 2**-P of its point. fl(w x) is within
    delta + omega eps of omega times the point, delta = 2**(e-53) +
    |w - omega| (w x < 2**e rounds by 2**(e-54)), and m is the true digit
    where eps_K < t - m < 1 - eps_K (t - m is exact, and a float below
    fl(c) is below c); a step is open elsewhere. At a segment's end a
    running row moves its exact (a, b) by omega**(K-1) = p + q omega, less
    2**P times the int64 dot products of its digits m_1..m_{K-1} with
    ``PQ``, PQ[:, j - 1] = (p_i, q_i) of omega**i = p_i + q_i omega,
    i = K - 1 - j, j = 1..K-1; one ``step`` then gives point K and the y
    that restarts the floats. A row whose step's digit is not the screened
    one (which the bound excludes) does not land, and is walked exactly."""

    def __init__(self, sys: SystemSpec, P: int, horizon: int):
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
        self.omega, self.P, self.segment, self.circle = omega, P, None, uses_circle_metric(sys)
        if c0 is None:  # c1 is W * 2**P; y = x * 2**(P + Q), within |b| < 2**(P + Q - 64)
            self.k = (None, W << P, W, Q, P, (1 << (P + Q)) - 1, 1 << (P + Q - 64), None)
            return
        e = (1 << (P - 64)) + 1  # y = x * 2**P, within |b| / 2**Q + 1
        self.k = (c0, c1, W, Q, P, (1 << P) - 1, e, (1 << P) - e)
        F = omega.floor_of(0, 1 << 100, 1)
        self.w = F / (1 << 100)
        e = math.frexp(self.w)[1]  # w < 2**e
        delta = Fraction(2) ** (e - 53) + abs(Fraction(self.w) - Fraction(F, 1 << 100))
        self.segment = _segment(Fraction(F + 1, 1 << 100), delta + Fraction(1, 1 << 100))
        pq = [(1, 0)]
        for _ in range(self.segment[0] - 1):
            p, q = pq[-1]
            pq.append((c0 * q, p + c1 * q))
        self.PQ = np.array(pq[-2::-1], np.int64).reshape(-1, 2).T
        p, q = pq[-1]
        self.pq = p, c0 * q, q, p + c1 * q  # (a, b) -> omega**(K-1) (a + b omega)

    def __call__(self, orbit: FixedPointOrbit, n_hi: int) -> Iterator[int]:
        Y0, step = orbit._a0, orbit.step
        orbit.a, orbit.b = Y0, 0
        for _ in range(n_hi):
            yield abs(step() - Y0)

    def start(self, orbits) -> tuple:
        for o in orbits:
            o.a, o.b = o._a0, 0
        return np.fromiter(orbits, object, len(orbits)), np.array([o.X0 / o.S for o in orbits])

    def walk(self, x: np.ndarray, k: int, x0: np.ndarray, eps: float) -> tuple:
        frac, digit = np.empty((k, len(x))), np.empty((k, len(x)))
        for s in range(k):
            t = np.multiply(x, self.w, out=frac[s])
            np.floor(t, out=digit[s])
            x = np.subtract(t, digit[s], out=t)
        return np.abs(frac - x0), _first((frac <= eps) | (frac >= 1 - eps), k), digit

    def jump(self, orbits: np.ndarray, go: np.ndarray, digit: np.ndarray) -> tuple:
        c0, P, (p, cq, q, pcq) = self.k[0], self.P, self.pq
        sp, sq = (self.PQ @ digit[:-1, go].astype(np.int64)).tolist()
        ok, xs = [], []
        for o, s_p, s_q, m in zip(orbits.tolist(), sp, sq, digit[-1, go].tolist()):
            a, b = o.a, o.b
            o.a, o.b = p * a + cq * b - (s_p << P), q * a + pcq * b - (s_q << P)
            b, y = o.b, o.step()
            ok.append((c0 * b - o.a) >> P == m)
            xs.append(y / o.S)
        ok = np.array(ok, bool)
        return ok, orbits, np.array(xs)[ok]


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
    decided from exact floors of the distances (``_floors``).

    That walk is exact, and it is the whole story for a single orbit and for
    rotations. A screened block of beta-map orbits (``_Quadratic``) moves
    each row's (a, b) only at a segment's end: a jump of K - 1 steps and one
    ``step``."""

    def __init__(self, sys: SystemSpec, X0: int, P: int, horizon: int, *, walk=None):
        walk = walk or _Quadratic(sys, P, horizon)  # orbit_backend passes the call's family
        super().__init__(walk.k[5] + 1, walk, horizon, X0 % (1 << P))
        self.sys, self.P, self.E = sys, P, walk.k[6]
        self._a0 = self.S >> 1 if walk.circle else self.X0  # a, and y, at x = x0
        self.a, self.b = self._a0, 0

    def step(self) -> int:
        c0, c1, W, Q, P, mask, e, top = self.walk.k
        if c0 is None:
            self.b += 1 << P
            self.a = y = (self.a + c1) & mask
            return y
        a, b = c0 * self.b, self.a + c1 * self.b
        y = a + ((b * W) >> Q)
        m, r = y >> P, y & mask
        if r < e or r > top:  # y is within e of an integer times 2**P
            m = self.walk.omega.floor_of(a, b, mask + 1)
            r = y - (m << P)
        if m:
            a -= m << P
        self.a, self.b = a, b
        return r

    def _floor_at(self) -> Callable[[int], int]:
        """T -> floor(d(x, x_0) * T) exactly, x the point: d = (A + B w) / 2**P."""
        unit, floor_of = 1 << self.P, self.walk.omega.floor_of
        A, B = 0 if self.walk.circle else self.a - self.X0, self.b
        if self.walk.circle:  # (x - x_0) mod 1 = (b w / 2**P) mod 1, folded at 1/2
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
        twin = FixedPointOrbit(self.sys, self.X0, self.P, self.horizon, walk=self.walk)
        for j in range(1, n + 1):
            twin.step()
            if (running_min or j == n) and (floor_at := twin._floor_at())(self.S) <= D + self.E:
                yield floor_at

    def distances(self, n_hi: int) -> np.ndarray:
        """d(T^n x, x) for n = 1..n_hi, correctly rounded: (D - E) / S where
        (D + E) / S rounds alike, else floor(d * T) / T at a T that grows
        until (floor(d * T) + 1) / T rounds alike too, as it does for an
        irrational d (b != 0; a beta-map's d is |a - X0| / 2**P if b = 0)."""
        S, E, out = self.S, self.E, []
        for D in self._dists(n_hi):
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
    of them (a sequence of ints, as one block of Monte Carlo samples is;
    arrays have one row per start), read by the one kernel ``_windows``.

    Requires P >= horizon + 64 so every window is fully inside X0.
    """

    def __init__(self, X0: int | Sequence[int], P: int, horizon: int):
        if P < horizon + _W:
            raise PrecisionBudgetError(horizon + _W, P)
        self.P = P
        one = isinstance(X0, int)
        self.starts = [x % (1 << P) for x in ([X0] if one else X0)]
        self._rows = 0 if one else slice(None)  # one start: its row, 1-D

    def _windows(self, n_lo: int, n_hi: int, fold: bool = False) -> np.ndarray:
        """floor(T^n x * 2**64) up to -0/+1 as uint64: one row per start, one
        column per n in [n_lo, n_hi]; with ``fold``, min(t, 2**64 - t) for t =
        the window less the start's (n = 0) mod 2**64, which is |t| as an
        int64 (t = 2**63 is its own negative, and the right answer).

        Each start is laid out big-endian after 8 zero bytes and before one,
        L bytes a row, so bit P-1-n of X0 is u = e + n bits from its row's
        top. With W[t] the big-endian word of bytes t..t+7, t = u >> 3 and
        r = 8 - (u & 7), the window is (W[t+1] >> r) | (W[t-7] << 64-r). The
        words are one strided read of the bytes that [n_lo, n_hi] needs; each
        r shifts them all, flat, into one plane, in place, and one gather
        puts the 8 (folded) planes in the order of u: the result is a slice.
        """
        if n_lo < 0 or self.P < n_hi + _W:
            raise PrecisionBudgetError(n_hi + _W, self.P)
        nbytes, rows = (self.P + 7) // 8, len(self.starts)
        L, e = nbytes + 9, 64 + 8 * nbytes - self.P
        buf = bytes(8) + bytes(9).join(x.to_bytes(nbytes, "big") for x in self.starts) + bytes(1)
        u_lo = e + n_lo
        t_lo, t_hi = u_lo >> 3, (e + n_hi) >> 3
        words = np.ndarray((rows, t_hi - t_lo + 9), ">u8", buf,
                           t_lo - 7, (L, 1)).astype(np.uint64).ravel()  # W[t_lo - 7 .. t_hi + 1]
        r = np.arange(8, 0, -1, dtype=np.uint64)[:, None]
        planes = np.empty((8, rows, t_hi - t_lo + 9), np.uint64)
        flat = planes.reshape(8, -1)[:, :-8]  # entry j of a row is t = t_lo + j
        np.right_shift(words[8:], r, out=flat)
        flat |= words[:-8] << (np.uint64(_W) - r)
        if fold:
            planes -= np.array([x >> (self.P - _W) for x in self.starts], np.uint64)[:, None]
            signed = planes.view(np.int64)
            np.abs(signed, out=signed)
        first = u_lo & 7  # column u - 8 * t_lo of the gather has top bit u
        return planes[..., :-8].transpose(1, 2, 0).reshape(rows, -1)[:, first:first + n_hi - n_lo + 1]

    def exact_dist(self, n: int, row: int = 0) -> Fraction:
        X0 = self.starts[row]
        t = ((X0 << n) - X0) % (1 << self.P)
        return Fraction(min(t, (1 << self.P) - t), 1 << self.P)

    def circle_dist64_batch(self, n_lo: int, n_hi: int) -> np.ndarray:
        """circle_dist(T^n x, x) * 2**64 for n in [n_lo, n_hi], each +-2."""
        return self._windows(n_lo, n_hi, fold=True)[self._rows]

    def distances(self, n_hi: int) -> np.ndarray:
        """d(T^n x, x) for n = 1..n_hi, rounded from the 64-bit windows."""
        return np.multiply(self.circle_dist64_batch(1, n_hi), 2.0 ** -64)

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
    """Deterministic uniform integer in [0, 2**bits): the bits of
    ``random.Random(derive_seed(...)).getrandbits(bits)``, from a fresh C
    generator (``random.Random`` hands an int seed to it unchanged)."""
    return _MT19937(derive_seed(master_seed, index)).getrandbits(bits)


def orbit_backend(sys: SystemSpec, horizon: int
                  ) -> Callable[[int, int], int | FixedPointOrbit | LatticeOrbit]:
    """The one dispatch on the system type for the Monte Carlo experiments:
    returns ``start``, where ``start(master_seed, index)`` is the orbit of
    that sample over ``horizon`` steps, or on the doubling map just its start
    X0 = ``sample_bits(seed, i, horizon + 64)``, a block of which is one
    ``DyadicOrbitView(X0s, horizon + 64, horizon)``. Irrational beta-maps
    draw P = max(256, ceil(horizon * log2 beta) + 128) bits, irrational
    rotations 256, and exact systems ``sample_bits(seed, i * d + c, P)`` for
    coordinate c, P from ``_lattice``; their family is built once, here."""
    if isinstance(sys, IntegerCircleMap) and sys.a == 2:
        return lambda seed, i: sample_bits(seed, i, horizon + _W)
    if isinstance(sys, BetaMap) and sys.beta.exact() is None:
        P = max(256, math.ceil(horizon * math.log2(float(sys.beta))) + 2 * _W)
    elif isinstance(sys, Rotation) and sys.alpha.exact() is None:
        P = 256
    else:
        P, S, walk = _lattice(sys, horizon)
        unit, d = S >> P, sys.d

        def start(seed: int, i: int) -> LatticeOrbit:
            X = [sample_bits(seed, i * d + c, P) * unit for c in range(d)]
            return LatticeOrbit(S, walk, horizon, tuple(X) if d > 1 else X[0])
        return start
    walk = _Quadratic(sys, P, horizon)
    return lambda seed, i: FixedPointOrbit(sys, sample_bits(seed, i, P), P, horizon, walk=walk)


# ---------------------------------------------------------------------------
# Orbit trace export
# ---------------------------------------------------------------------------

def write_orbit_csv(fileobj, sys: SystemSpec, x, n: int) -> int:
    """Rows (step, point, distance-to-start) for plotting; exact orbits only:
    x (a tuple on the torus) in Fractions, then ``_exact_step``s."""
    writer = csv.writer(fileobj)
    writer.writerow(["step", "point", "dist_to_start"])
    points = [tuple(map(Fraction, x)) if isinstance(sys, ToralLinear) else Fraction(x)]
    for _ in range(n):
        points.append(_exact_step(sys, points[-1]))
    for k, pt in enumerate(points):
        coords = pt if isinstance(sys, ToralLinear) else (pt,)
        d = float(point_distance(sys, pt, points[0]))
        writer.writerow([k, ";".join(f"{float(v):.15g}" for v in coords), f"{d:.15g}"])
    return n + 1
