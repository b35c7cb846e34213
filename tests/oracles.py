"""Oracles of the arc and orbit tests, in plain ``Fraction`` and tuple code.

They share no code with the array kernels of ``recurlab.circle`` and
``recurlab.exact_sets``: point membership, inclusion and the text parser
read a set's ``Fraction`` arcs, and ``merge_arcs``, ``intersect_arcs`` and
``ear_cover`` are the per-arc loops that the array passes replaced, on
lists of ``(lo, hi)`` integer tuples. ``ExactOrbit`` steps a rational
orbit by the system's own ``apply`` and decides d_n < r_n in ``Fraction``s
or mpmath, with no float band and none of ``Radii``' decision code.
"""

from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np

from recurlab.circle import circle_point
from recurlab.dynamics import SteppedBlock, point_distance
from recurlab.systems import ToralLinear


def contains(s, x) -> bool:
    """Whether the point x (mod 1) lies in the IntervalSet s."""
    p = circle_point(x)
    return any(lo <= p < hi for lo, hi in s.arcs)


def is_subset_of(a, b) -> bool:
    """Whether every arc of a lies inside one arc of b. Canonical arcs are
    maximal, and both sets split an arc across 0 the same way, so this is
    inclusion of the sets."""
    return all(any(blo <= lo and hi <= bhi for blo, bhi in b.arcs) for lo, hi in a.arcs)


def from_text(text: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """The ``Fraction`` arcs of an ``IntervalSet.to_text`` text."""
    return tuple((Fraction(lo), Fraction(hi))
                 for lo, hi in (line.split(",") for line in text.splitlines() if line.strip()))


def merge_arcs(arcs, L: int) -> list[tuple[int, int]]:
    """Canonical integer arcs on the circle of circumference L: sorted,
    disjoint, non-adjacent, in [0, L), wrap arcs split at 0."""
    flat: list[tuple[int, int]] = []
    for lo, hi in arcs:
        if hi <= lo:
            continue
        if hi - lo >= L:
            return [(0, L)]
        lo_m = lo % L
        hi_m = lo_m + (hi - lo)
        if hi_m <= L:
            flat.append((lo_m, hi_m))
        else:
            flat.append((lo_m, L))
            flat.append((0, hi_m - L))
    if not flat:
        return []
    flat.sort()
    merged = [flat[0]]
    for lo, hi in flat[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            if hi > mhi:
                merged[-1] = (mlo, hi)
        else:
            merged.append((lo, hi))
    return merged


def intersect_arcs(a, b) -> list[tuple[int, int]]:
    """Intersection of two canonical integer arc lists (two-pointer sweep)."""
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def ear_cover(a: int, m: int, r: Fraction, L: int, near) -> list[tuple[int, int]]:
    """The arcs of C_m = union over k <= m of E_{k,m} (radius r) that meet an
    arc of the canonical list ``near``, merged: for each k and each near
    arc [lo, hi), the centres c of E_{k,m} with (lo - w)/sp < c < (hi + w)/sp,
    by exact floor division (sp = L/|a^k - 1|, w = r*sp)."""
    if r == 0:
        return []
    if 2 * r >= 1:
        return list(near)
    arcs = []
    for k in range(1, m + 1):
        sp = L // abs(a ** k - 1)
        w = r.numerator * (sp // r.denominator)
        done = 0
        for lo, hi in near:
            c0 = max((lo - w) // sp + 1, done)
            done = -(-(hi + w) // sp)
            arcs.extend((c * sp - w, c * sp + w) for c in range(c0, done))
    return merge_arcs(arcs, L)


class ExactOrbit:
    """The exact orbit of a rational start (its coordinates, one on the
    circle), with ``Fraction`` distances decided exactly: the oracle of the
    stepped backends, with ``below``, ``min_below``, ``distances`` and a
    ``block`` as theirs."""

    block = SteppedBlock

    def __init__(self, sys, coords):
        self.sys = sys
        toral = isinstance(sys, ToralLinear)
        self.x0 = tuple(map(Fraction, coords)) if toral else Fraction(coords[0])

    def _dists(self, n_hi: int):
        """d(T^n x, x) exactly, for n = 1..n_hi."""
        x, out = self.x0, []
        for _ in range(n_hi):
            x = self.sys.apply(x)
            out.append(point_distance(self.sys, x, self.x0))
        return out

    def distances(self, n_hi: int) -> np.ndarray:
        return np.array([float(d) for d in self._dists(n_hi)])

    def below(self, radii) -> list[bool]:
        return self._decisions([radii], False)[0]

    def min_below(self, radii) -> list[bool]:
        return self._decisions([radii], True)[0]

    def _decisions(self, tables, running_min: bool) -> list[list[bool]]:
        ds = list(self._dists(tables[0].n_hi))
        if running_min:
            ds = list(accumulate(ds, min))
        return [[_below(ds[n - 1], radii.seq, n) for n in range(radii.n_lo, radii.n_hi + 1)]
                for radii in tables]


def _below(d: Fraction, seq, n: int) -> bool:
    """d < r_n in Fractions, or in mpmath well past d's denominator when r_n
    is irrational."""
    r = seq.exact(n)
    if r is not None:
        return d < r
    with mpmath.workprec(d.denominator.bit_length() + 64):
        return mpmath.mpf(d.numerator) / d.denominator < seq.mp(n)
