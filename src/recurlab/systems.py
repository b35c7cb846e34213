"""Dynamical system definitions shared by the exact, spectral and orbit modules.

A system is a small immutable description that answers what every exact
consumer asks of it: its affine branches (``as_piecewise``), its exact step
(``apply``) and its metric (``uses_circle_metric``). Exact set construction,
Ulam matrices and the Monte Carlo orbit backends live elsewhere and ask the
system for these.

Irrational constants (the golden ratio, square roots) are stored
symbolically and rendered on demand either as mpmath values at the current
working precision or as exact integer floors of (a + b * value) / den, which
the exact orbits of beta-maps and rotations step with, so no precision is
baked in at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath

from .errors import ConfigError, NonExpandingSystemError
from .number_theory import mat_det


@dataclass(frozen=True, slots=True)
class IrrationalConstant:
    """A positive real constant with exact integer floors, equal to another
    of the same ``kind`` and ``params`` whatever its ``label``.

    ``kind`` is one of:
      - "rational": value = frac (decimal literals parse to this, exactly)
      - "quadratic": value = (p + q*sqrt(s)) / t with integer p, q >= 0, s, t
    """

    kind: str
    params: tuple
    label: str = field(compare=False)

    @staticmethod
    def parse(text) -> "IrrationalConstant":
        if isinstance(text, IrrationalConstant):
            return text
        if isinstance(text, (int, Fraction)):
            f = Fraction(text)
            return IrrationalConstant("rational", (f,), str(f))
        s = str(text).strip()
        if s in ("golden", "phi"):
            # (1 + sqrt(5)) / 2
            return IrrationalConstant("quadratic", (1, 1, 5, 2), "golden")
        if s.startswith("sqrt"):
            k = int(s[4:])
            if k <= 0:
                raise ValueError(f"sqrt argument must be positive, got {k}")
            return IrrationalConstant("quadratic", (0, 1, k, 1), s)
        f = Fraction(s)  # handles "3/2", "1.618", "2"
        return IrrationalConstant("rational", (f,), s)

    def exact(self) -> Fraction | None:
        if self.kind == "rational":
            return self.params[0]
        p, q, s, t = self.params
        r = math.isqrt(s)
        if r * r == s:
            return Fraction(p + q * r, t)
        return None

    def quadratic(self) -> tuple[int, int]:
        """(c0, c1) with value**2 = c1 * value + c0 in integers, for an
        irrational value that is an algebraic integer, as the golden mean
        and every sqrt(k) are; ValueError for any other value."""
        if self.exact() is None:
            p, q, s, t = self.params
            c1, c0 = Fraction(2 * p, t), Fraction(q * q * s - p * p, t * t)
            if c1.denominator == c0.denominator == 1:
                return int(c0), int(c1)
        raise ValueError(f"{self.label} is not an irrational quadratic integer")

    def floor_of(self, a: int, b: int, den: int) -> int:
        """floor((a + b * value) / den) exactly, for integers a, b, den > 0
        and an irrational value: (u + v sqrt(s)) / (t den) has the floor of
        (u + floor(v sqrt(s))) / (t den), and floor(v sqrt(s)) is an isqrt."""
        p, q, s, t = self.params
        u, v = t * a + p * b, q * b
        r = math.isqrt(v * v * s)
        return (u + (r if v >= 0 else -r - 1)) // (t * den)

    def mp(self):
        e = self.exact()
        if e is not None:
            return mpmath.mpf(e.numerator) / e.denominator
        p, q, s, t = self.params
        return (p + q * mpmath.sqrt(s)) / t

    def __float__(self) -> float:
        return float(self.mp())


def _rational(sys, c: IrrationalConstant) -> Fraction:
    """c exactly, for the exact step of ``sys``. An irrational c has none:
    such orbits are stepped in Z[c] by the Monte Carlo backend."""
    if (v := c.exact()) is None:
        raise ValueError(f"{sys.describe()}: a trace needs a rational system (orbit --scan-alphas)")
    return v


class _System:
    d = 1  # the dimension of the phase space; ToralLinear overrides it

    def as_piecewise(self) -> PiecewiseLinear:
        """The map as expanding affine branches with rational data on [0, 1),
        for exact branch composition. A map without them refuses here."""
        raise ConfigError([f"{self.describe()} has no expanding affine branches "
                           f"with rational data on [0, 1)"])


@dataclass(frozen=True)
class Branch:
    """One affine branch x -> slope*x + intercept on the domain [lo, hi)."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        for name in ("lo", "hi", "slope", "intercept"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not self.lo < self.hi:
            raise ValueError(f"empty branch domain [{self.lo}, {self.hi})")

    def apply(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    @property
    def image(self) -> tuple[Fraction, Fraction]:
        a, b = self.apply(self.lo), self.apply(self.hi)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PiecewiseLinear(_System):
    """Piecewise-affine expanding map of [0, 1) with rational data.

    Branch domains must partition [0, 1); every slope modulus must exceed 1
    and every branch image must stay inside [0, 1]. Flat branches alone raise
    NonExpandingSystemError; otherwise ConfigError lists every problem.
    """

    branches: tuple[Branch, ...]

    def __post_init__(self):
        br = tuple(sorted(self.branches, key=lambda b: b.lo))
        object.__setattr__(self, "branches", br)
        problems, flat = [], []
        if not br:
            problems.append("no branches")
        else:
            if br[0].lo != 0:
                problems.append("branch domains must start at 0")
            if br[-1].hi != 1:
                problems.append("branch domains must end at 1")
            for left, right in zip(br, br[1:]):
                if left.hi != right.lo:
                    problems.append(
                        f"gap or overlap between branch ending at {left.hi} "
                        f"and branch starting at {right.lo}"
                    )
            for b in br:
                if abs(b.slope) <= 1:
                    flat.append(f"branch on [{b.lo}, {b.hi}) has slope {b.slope}; "
                                f"|slope| > 1 required")
                    problems.append(flat[-1])
                lo_im, hi_im = b.image
                if lo_im < 0 or hi_im > 1:
                    problems.append(
                        f"branch on [{b.lo}, {b.hi}) maps outside [0, 1]: "
                        f"image [{lo_im}, {hi_im}]"
                    )
        if flat and problems == flat:  # a valid spec but for its flat branches
            raise NonExpandingSystemError(flat[0])
        if problems:
            raise ConfigError(problems)

    @property
    def integer_branches(self) -> tuple[int, int, int, list[tuple[int, int, int, int]]]:
        """(q, L_b, m, branches): q the lcm of the slope and intercept
        denominators, L_b that of the branch ends, each branch (B_lo, B_hi,
        u, g) maps [B_lo/L_b, B_hi/L_b) by x -> (u*x + g)/q; m = lcm |u|."""
        br = self.branches
        q = math.lcm(*(f.denominator for b in br for f in (b.slope, b.intercept)))
        Lb = math.lcm(*(f.denominator for b in br for f in (b.lo, b.hi)))
        ints = [(int(b.lo * Lb), int(b.hi * Lb), int(b.slope * q), int(b.intercept * q))
                for b in br]
        return q, Lb, math.lcm(*(abs(u) for _, _, u, _ in ints)), ints

    def as_piecewise(self) -> PiecewiseLinear:
        return self

    def branch_at(self, x: Fraction) -> Branch:
        for b in self.branches:
            if b.lo <= x < b.hi:
                return b
        raise ValueError(f"{x} outside [0, 1)")

    def apply(self, x: Fraction) -> Fraction:
        y = self.branch_at(x).apply(x)
        # Images may touch 1 at a branch endpoint; fold back onto [0, 1).
        return y if y < 1 else y - 1

    def describe(self) -> str:
        parts = [f"[{b.lo},{b.hi}):{b.slope}x+{b.intercept}" for b in self.branches]
        return "piecewise:" + ";".join(parts)


@dataclass(frozen=True)
class IntegerCircleMap(_System):
    """T x = a x mod 1 on the circle, |a| >= 2."""

    a: int

    def __post_init__(self):
        if abs(self.a) < 2:
            raise ValueError(f"multiplier must satisfy |a| >= 2, got {self.a}")

    def apply(self, x: Fraction) -> Fraction:
        y = self.a * Fraction(x)
        return y - math.floor(y)

    def as_piecewise(self) -> PiecewiseLinear:
        """The same map as its |a| affine branches on [k/|a|, (k+1)/|a|):
        x -> a x - k for a >= 2, and x -> a x + k + 1 for a <= -2, whose
        image touches 1 at the branch's left end (``apply`` folds it to 0)."""
        a, n = self.a, abs(self.a)
        return PiecewiseLinear(tuple(
            Branch(Fraction(k, n), Fraction(k + 1, n), a, -k if a > 0 else k + 1)
            for k in range(n)))

    def describe(self) -> str:
        return f"circle:{self.a}"


@dataclass(frozen=True)
class BetaMap(_System):
    """T x = beta * x mod 1 on [0, 1), beta > 1 (possibly irrational)."""

    beta: IrrationalConstant

    def __post_init__(self):
        object.__setattr__(self, "beta", IrrationalConstant.parse(self.beta))
        if float(self.beta) <= 1:
            raise NonExpandingSystemError(f"beta must exceed 1, got {self.beta.label}")

    def apply(self, x: Fraction) -> Fraction:
        """beta x mod 1 exactly, for a rational beta and x in [0, 1)."""
        beta, x = _rational(self, self.beta), Fraction(x)
        if not 0 <= x < 1:
            raise ValueError(f"{x} outside [0, 1)")
        y = beta * x
        return y - math.floor(y)

    def as_piecewise(self) -> PiecewiseLinear:
        """The map for a rational beta: branches x -> beta x - k on
        [k / beta, (k + 1) / beta), the last one ending at 1."""
        beta = self.beta.exact()
        if beta is None:
            return super().as_piecewise()
        ends = [k / beta for k in range(math.ceil(beta))] + [Fraction(1)]
        return PiecewiseLinear(tuple(Branch(lo, hi, beta, Fraction(-k))
                                     for k, (lo, hi) in enumerate(zip(ends, ends[1:]))))

    def describe(self) -> str:
        return f"beta:{self.beta.label}"


@dataclass(frozen=True)
class ToralLinear(_System):
    """T x = A x mod 1 on the d-torus, A an integer matrix with det != 0."""

    A: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.A)
        object.__setattr__(self, "A", rows)
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise ConfigError(["matrix must be square and non-empty"])
        if mat_det(rows) == 0:
            raise ConfigError(["matrix must be invertible (det != 0)"])

    @property
    def d(self) -> int:
        return len(self.A)

    def apply(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for row in self.A:
            y = sum(Fraction(c) * Fraction(v) for c, v in zip(row, x))
            out.append(y - math.floor(y))
        return tuple(out)

    def describe(self) -> str:
        return "toral:" + ";".join(",".join(str(v) for v in row) for row in self.A)


@dataclass(frozen=True)
class Rotation(_System):
    """T x = x + alpha mod 1; the isometric contrast system."""

    alpha: IrrationalConstant

    def __post_init__(self):
        object.__setattr__(self, "alpha", IrrationalConstant.parse(self.alpha))

    def apply(self, x: Fraction) -> Fraction:
        """x + alpha mod 1 exactly, for a rational alpha."""
        y = Fraction(x) + _rational(self, self.alpha)
        return y - math.floor(y)

    def describe(self) -> str:
        return f"rotation:{self.alpha.label}"


SystemSpec = IntegerCircleMap | BetaMap | PiecewiseLinear | ToralLinear | Rotation


def uses_circle_metric(sys: SystemSpec) -> bool:
    """The metric d of E_n = {x : d(T^n x, x) < r_n}: torus-type systems
    measure distance around the circle; interval maps (piecewise-affine,
    beta) use plain absolute value on [0, 1]."""
    return isinstance(sys, (IntegerCircleMap, Rotation, ToralLinear))
