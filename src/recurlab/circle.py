"""Exact arithmetic on the circle R/Z and finite unions of rational arcs.

Everything in this module is exact. Points are `Fraction`s in [0, 1). A set
of arcs is stored, and operated on, as one (n, 2) integer array of (lo, hi)
rows over one scale L, the least common denominator of its endpoints. The
array is int64 while L < 2^62, which leaves room for wrapped arcs
(-L < lo, hi < 2L), and holds Python ints (dtype ``object``) from 2^62 on.
Merge, intersection and the text form are array passes; endpoints become
`Fraction`s only on request (``arcs``), and the text form writes them in
lowest terms from the integers, reducing by gcds read from residue tables
over the prime factors of L (``gcd_with``). All set operations return
canonical normal forms, so equality of sets is equality of representations.

Arcs are half-open [lo, hi). A set that differs from another on finitely
many points has the same canonical measure, which is all the downstream
computations care about; constructors therefore normalise open solution
intervals (a, b) to [a, b).

Canonical form: arcs are maximal half-open subintervals of [0, 1), sorted
by left endpoint, merged whenever they touch on the line. An arc crossing
0 is stored split as [0, x) and [y, 1); the two halves are not fused, so a
set like {[0, 1/10), [9/10, 1)} prints with two arcs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import mpmath
import numpy as np


def circle_point(x) -> Fraction:
    """Reduce a rational number mod 1 into [0, 1)."""
    f = Fraction(x)
    return f - math.floor(f)


def circle_dist(x, y) -> Fraction:
    """Shortest-arc distance on R/Z; always in [0, 1/2]."""
    t = circle_point(Fraction(x) - Fraction(y))
    return min(t, 1 - t)


# ---------------------------------------------------------------------------
# Integer-scaled arc kernels.
#
# Heavy sweeps (recurrence-set intersections, EAR unions) run on arcs whose
# endpoints are integers over a common denominator L, i.e. on the circle of
# circumference L. An arc list is an (n, 2) integer array of (lo, hi) rows,
# in the dtype that ``arc_dtype(L)`` names. These kernels are shared by
# IntervalSet and by the bulk routines in exact_sets, which generate scaled
# arcs directly.
# ---------------------------------------------------------------------------

def arc_dtype(L: int):
    """int64 while arcs on the circle of circumference L, wrapped ones
    (-L < lo, hi < 2L) included, fit in it with headroom; Python ints
    (``object``) for scales of 2^62 and above, where numpy would wrap."""
    return np.int64 if L < 2**62 else object


def as_arcs(arcs, L: int) -> np.ndarray:
    """``arcs`` as an (n, 2) array of the dtype for scale L."""
    return np.asarray(arcs, arc_dtype(L)).reshape(-1, 2)


def merge_scaled_arcs(arcs: np.ndarray, L: int) -> np.ndarray:
    """Canonicalise integer arcs on a circle of circumference L.

    ``arcs`` is an (n, 2) integer array: rows may be unsorted, may wrap
    (lo < 0 or hi > L), and rows with hi <= lo are empty. The output, in
    the input's dtype, is sorted, disjoint, non-adjacent, confined to
    [0, L), with wrap arcs split at 0. In array passes: shift the rows
    that leave [0, L] by a multiple of L, split the wraps, sort by left
    end, and keep the start of each run of arcs that reach the running
    maximum of the right ends. Rows inside [0, L] are never rewritten, so
    object arrays make new integers only for the rows that wrap.
    """
    lo, hi = arcs[:, 0], arcs[:, 1]
    keep = hi > lo
    if not keep.all():
        lo, hi = lo[keep], hi[keep]
    if len(lo) == 0:
        return arcs[:0]
    out = (lo < 0) | (hi > L)
    if out.any():
        lo_o, hi_o = lo[out], hi[out]
        if (hi_o - lo_o >= L).any():
            return np.asarray([(0, L)], arcs.dtype)
        shift = lo_o // L * L
        lo_o, hi_o = lo_o - shift, hi_o - shift  # lo_o in [0, L)
        wrap = hi_o > L
        lo = np.concatenate((lo[~out], lo_o, np.zeros_like(lo_o[wrap])))
        hi = np.concatenate((hi[~out], np.minimum(hi_o, L), hi_o[wrap] - L))
    order = lo.argsort(kind="stable")
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    last = np.flatnonzero(np.append(lo[1:] > reach[:-1], True))  # each run's last arc
    return np.stack((lo[np.concatenate(([0], last[:-1] + 1))], reach[last]), axis=1)


def scaled_measure(arcs: np.ndarray) -> int:
    return int((arcs[:, 1] - arcs[:, 0]).sum())


def intersect_scaled_arcs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two canonical scaled arc arrays of one dtype.

    Arc i of ``a`` meets the arcs j0 <= j < j1 of ``b``, found by two
    ``searchsorted`` calls; each meeting pair gives one output arc, in
    order, so the output is canonical too.
    """
    j0 = np.searchsorted(b[:, 1], a[:, 0], side="right")
    j1 = np.searchsorted(b[:, 0], a[:, 1], side="left")
    n = np.maximum(j1 - j0, 0)
    ia = np.repeat(np.arange(len(a)), n)
    ib = np.arange(n.sum()) + np.repeat(j0 - (np.cumsum(n) - n), n)
    return np.stack((np.maximum(a[ia, 0], b[ib, 0]), np.minimum(a[ia, 1], b[ib, 1])), axis=1)


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Finite disjoint union of half-open arcs with exact rational endpoints,
    stored as integers: row (lo, hi) of the (n, 2) array ``scaled`` is
    [lo/L, hi/L), with L the least such scale, so equal sets have equal
    fields. ``scaled`` is int64 below the scale 2^62 and holds Python ints
    above (``arc_dtype``). Instances are immutable (the array is read-only)
    and canonical; construct through ``from_arcs``, ``from_scaled`` or the
    set operations, never directly. An empty set has ``arc_count`` 0.
    """

    L: int
    scaled: np.ndarray

    def __post_init__(self):
        view = self.scaled.view()
        view.flags.writeable = False
        object.__setattr__(self, "scaled", view)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalSet) and self.L == other.L
                and np.array_equal(self.scaled, other.scaled))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(1, as_arcs((), 1))

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet(1, as_arcs((0, 1), 1))

    @staticmethod
    def from_scaled(L: int, arcs) -> "IntervalSet":
        """The set of canonical arcs on the circle of circumference L (as
        ``merge_scaled_arcs`` returns them), with L reduced to its least."""
        arcs = as_arcs(arcs, L)
        # a gcd of 1 over the first two arcs is the gcd over all of them
        g = math.gcd(L, *arcs[:2].ravel().tolist())
        if g > 1:
            g = math.gcd(g, int(np.gcd.reduce(arcs, axis=None)))
        if g > 1:
            L //= g
            arcs = as_arcs(arcs // g, L)
        return IntervalSet(L, arcs)

    @staticmethod
    def from_arcs(arcs: Iterable[tuple[Fraction, Fraction]]) -> "IntervalSet":
        """Build a canonical set from arbitrary (lo, hi) rational arcs.

        Arcs may wrap (lo < 0 or hi > 1) and may overlap; hi <= lo arcs are
        dropped as empty. An arc of length >= 1 is the full circle.
        """
        pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in arcs]
        L = math.lcm(*[f.denominator for p in pairs for f in p])
        return IntervalSet.from_scaled(L, merge_scaled_arcs(np.array([
            (lo.numerator * (L // lo.denominator), hi.numerator * (L // hi.denominator))
            for lo, hi in pairs], object).reshape(-1, 2), L))

    @staticmethod
    def arc(lo, hi) -> "IntervalSet":
        return IntervalSet.from_arcs([(Fraction(lo), Fraction(hi))])

    # -- queries ----------------------------------------------------------

    @property
    def arcs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The arcs as ``Fraction`` pairs."""
        return tuple((Fraction(lo, self.L), Fraction(hi, self.L))
                     for lo, hi in self.scaled.tolist())

    @property
    def measure(self) -> Fraction:
        return Fraction(scaled_measure(self.scaled), self.L)

    @property
    def arc_count(self) -> int:
        return len(self.scaled)

    # -- algebra -----------------------------------------------------------

    @staticmethod
    def _on_one_scale(sets: Sequence["IntervalSet"]) -> tuple[int, list[np.ndarray]]:
        # converted to the common scale's dtype before the multiply, which
        # would wrap in int64 past 2^63
        L = math.lcm(*(s.L for s in sets))
        return L, [as_arcs(s.scaled, L) * (L // s.L) for s in sets]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.union_all([self, other])

    @staticmethod
    def union_all(sets: Sequence["IntervalSet"]) -> "IntervalSet":
        L, parts = IntervalSet._on_one_scale(sets)
        return IntervalSet.from_scaled(L, merge_scaled_arcs(np.concatenate(parts), L))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        L, (a, b) = IntervalSet._on_one_scale([self, other])
        return IntervalSet.from_scaled(L, intersect_scaled_arcs(a, b))

    def complement(self) -> "IntervalSet":
        n = 2 * self.arc_count
        gaps = np.insert(self.scaled.ravel(), [0, n], [0, self.L]).reshape(-1, 2)
        return IntervalSet.from_scaled(self.L, gaps[gaps[:, 0] < gaps[:, 1]])

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: one 'num/den,num/den' line per arc, each
        endpoint in lowest terms.

        Written TEXT_BLOCK arcs at a time, each block a slice of ``scaled``:
        ``gcd_with(L)`` reduces a block's endpoints against L from residue
        tables over L's prime factors, and the reduced integers become ASCII
        digits on arrays (``_ascii_lines``). Scales of 2^64 and above take
        object arrays of Python ints, which ``str`` formats.
        """
        L = self.L
        dtype = np.uint32 if L < 2**32 else np.uint64 if L < 2**64 else object
        Ld = np.dtype(dtype).type(L)

        def blocks():  # a generator: its arrays and tables go before the join
            gcd = gcd_with(L, dtype)
            for start in range(0, self.arc_count, TEXT_BLOCK):
                e = self.scaled[start:start + TEXT_BLOCK].ravel().astype(dtype)
                g = gcd(e)
                # per arc: lo's numerator and denominator, then hi's
                vals = np.stack([e // g, Ld // g], axis=1).reshape(-1, 4)
                if dtype is object:
                    yield "".join(map("{}/{},{}/{}\n".format, *vals.T))
                else:
                    yield _ascii_lines(vals, len(str(L))).decode("ascii")

        return "".join(blocks())


TEXT_BLOCK = 8192  # arcs per block of IntervalSet.to_text

TABLE_MAX = 2**16  # the largest modulus of a gcd_with residue table


@functools.cache
def _small_primes() -> np.ndarray:
    """The primes below TABLE_MAX (read-only uint64), sieved on first use."""
    sieve = np.ones(TABLE_MAX, bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(TABLE_MAX)):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve).astype(np.uint64)
    primes.flags.writeable = False
    return primes


def gcd_with(L: int, dtype) -> Callable[[np.ndarray], np.ndarray]:
    """e -> gcd(e, L) on arrays of ``dtype``, by residue tables when L < 2^64.

    The prime powers of L up to TABLE_MAX (by trial division) are grouped
    greedily into coprime parts q <= TABLE_MAX with tables t_q[x] = gcd(x, q),
    built by strided products; the rest R of L (primes and prime powers above
    TABLE_MAX) takes ``np.gcd``: gcd(e, L) = gcd(e, R) prod_q t_q[e mod q].
    A rest R < 2^32 with no prime factor below TABLE_MAX = 2^16 is a prime
    (a composite has one below its square root), so gcd(e, R) is R where R
    divides e and 1 elsewhere. Object arrays (L >= 2^64) take ``np.gcd``
    alone.
    """
    if dtype is object:
        return lambda e: np.gcd(e, L)
    primes = _small_primes()
    tables, R, prime = [], L, True
    for p in primes[np.uint64(L) % primes == 0].tolist():
        pk = math.gcd(L, p**64)  # the power of p in L, as L < 2^64
        if pk > TABLE_MAX:  # stays in R, which is then no prime
            prime = False
            continue
        R //= pk
        joins = tables and len(tables[-1]) * pk <= TABLE_MAX
        t = np.tile(tables.pop() if joins else np.ones(1, dtype), pk)  # t_q[x mod q]
        pj = p
        while pk % pj == 0:  # gcd(x, q pk) gains a factor p for each p^j | x
            t[::pj] *= p
            pj *= p
        tables.append(t)
    tables = [(dtype(len(t)), t) for t in tables]
    prime = prime and R < 2**32
    R, one = dtype(R), dtype(1)

    def gcd(e: np.ndarray) -> np.ndarray:
        if R == 1:
            g = np.ones_like(e)
        elif prime:
            g = np.where(e % R == 0, R, one)
        else:
            g = np.gcd(e, R)
        for q, t in tables:
            g *= t.take(e % q)
        return g

    return gcd


_SEPARATORS = np.frombuffer(b"/,/\n", np.uint8)


def _ascii_lines(vals: np.ndarray, width: int) -> bytes:
    """'a/b,c/d\\n' for each row (a, b, c, d) of unsigned integers below
    10**width: a (values x width+1) byte matrix of digits, filled by
    repeated division by 10, with each value's separator in the last
    column. A leading zero is masked to a NUL byte, which the end drops."""
    v = vals.reshape(-1).copy()
    q, digit = np.empty_like(v), np.empty_like(v)
    digits = np.empty((v.size, width + 1), np.uint8)
    digits[:, width] = np.tile(_SEPARATORS, len(vals))
    for col in range(width - 1, -1, -1):
        np.floor_divide(v, 10, out=q)  # by a constant: far cheaper than divmod
        np.multiply(q, 10, out=digit)
        np.subtract(v, digit, out=digit)
        digit += ord("0")
        if col < width - 1:
            digit *= v > 0
        digits[:, col] = digit
        v, q = q, v
    return digits.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Radius sequences
# ---------------------------------------------------------------------------

class RadiusSequence:
    """Symbolic family r_n, evaluated exactly when possible.

    ``exact(n)`` returns a Fraction or None when the value is irrational;
    ``approx(n)`` always returns a float; ``mp(n)`` an mpmath value at the
    current working precision, from the family's closed form ``_mp`` where
    ``exact`` has none.
    """

    def exact(self, n: int) -> Fraction | None:
        raise NotImplementedError

    def approx(self, n: int) -> float:
        raise NotImplementedError

    def mp(self, n: int):
        e = self.exact(n)
        if e is None:
            return self._mp(n)
        return mpmath.mpf(e.numerator) / e.denominator

    def describe(self) -> str:
        raise NotImplementedError

    def summable(self) -> bool | None:
        """Whether sum r_n converges, read from the family's parameters; None
        when they do not say, as for a finite table, which has no tail."""
        return None


def _check_positive_kappa(kappa: Fraction) -> Fraction:
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return kappa


@dataclass(frozen=True)
class PowerLaw(RadiusSequence):
    """r_n = kappa * n**(-gamma)."""

    kappa: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "kappa", _check_positive_kappa(Fraction(self.kappa)))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "_floats", (float(self.kappa), -float(self.gamma)))

    def exact(self, n: int) -> Fraction | None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.gamma.denominator == 1:
            return self.kappa * Fraction(1, n) ** int(self.gamma)
        root = round(n ** (1 / self.gamma.denominator))
        if root ** self.gamma.denominator == n:
            return self.kappa * Fraction(1, root) ** self.gamma.numerator
        return None

    def approx(self, n: int) -> float:
        k, g = self._floats  # libm's pow: tail_bound is reported
        return k * n ** g

    def _mp(self, n: int):
        k = mpmath.mpf(self.kappa.numerator) / self.kappa.denominator
        g = mpmath.mpf(self.gamma.numerator) / self.gamma.denominator
        return k * mpmath.power(n, -g)

    def describe(self) -> str:
        return f"powerlaw:{self.kappa},{self.gamma}"

    def summable(self) -> bool:
        """The p-series test: sum n^-gamma converges iff gamma > 1."""
        return self.gamma > 1


@dataclass(frozen=True)
class PowerLog(RadiusSequence):
    """r_n = kappa / (n * (log n)**theta), with (log n)**theta := 1 for n <= 2.

    The log-factor floor only matters for n in {1, 2} where log n <= 1; the
    asymptotics, which are all the theory constrains, are untouched.
    """

    kappa: Fraction
    theta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "kappa", _check_positive_kappa(Fraction(self.kappa)))
        object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "_floats", (float(self.kappa), float(self.theta)))

    def exact(self, n: int) -> Fraction | None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n <= 2 or self.theta == 0:
            return self.kappa / n
        return None

    def approx(self, n: int) -> float:
        k, t = self._floats
        return k / n if n <= 2 else k / (n * math.log(n) ** t)

    def _mp(self, n: int):
        k = mpmath.mpf(self.kappa.numerator) / self.kappa.denominator
        t = mpmath.mpf(self.theta.numerator) / self.theta.denominator
        return k / (n * mpmath.log(n) ** t)

    def describe(self) -> str:
        return f"powerlog:{self.kappa},{self.theta}"

    def summable(self) -> bool:
        """Bertrand's series: sum 1/(n (log n)^theta) converges iff theta > 1."""
        return self.theta > 1


@dataclass(frozen=True)
class EarRadius(RadiusSequence):
    """r_m = Delta_m / m with Delta_m = max(1, ceil((2 + sigma) log2 m)), the
    radius family of the eventually-always experiments. It is rational at
    every m, as the exact EAR set builders require."""

    sigma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))

    def delta(self, m: int) -> Fraction:
        """Delta_m, with (2 + sigma) log2 m in floats; 1 at m = 1."""
        return Fraction(max(1, math.ceil(float(2 + self.sigma) * math.log2(m))))

    def exact(self, m: int) -> Fraction:
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.delta(m) / m

    def approx(self, m: int) -> float:
        return float(self.delta(m)) / m

    def describe(self) -> str:
        return f"ear:{self.sigma}"

    def summable(self) -> bool:
        """Delta_m >= 1, so r_m >= 1/m: sum r_m diverges for every sigma."""
        return False


@dataclass(frozen=True)
class ExplicitTable(RadiusSequence):
    """r_n read from a finite table (1-based)."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValueError("radii must be non-negative")
        object.__setattr__(self, "values", vals)

    def exact(self, n: int) -> Fraction | None:
        if not 1 <= n <= len(self.values):
            raise ValueError(f"n={n} outside table of length {len(self.values)}")
        return self.values[n - 1]

    def approx(self, n: int) -> float:
        return float(self.exact(n))

    def describe(self) -> str:
        return "table:" + ",".join(str(v) for v in self.values)
