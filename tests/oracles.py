"""Oracles of the arc and orbit tests, in plain ``Fraction`` and tuple code.

They share no code with the array kernels of ``recurlab.circle`` and
``recurlab.exact_sets``: point membership, inclusion and the text parser
read a set's ``Fraction`` arcs, and ``merge_arcs``, ``intersect_arcs``,
``ear_cover``, ``compose_branches`` and ``recurrence_arcs`` are the
per-arc and per-branch loops that the array passes replaced, on lists of
integer tuples; ``assert_same_text`` compares long texts without pytest's
line-by-line diff. ``ExactOrbit`` steps a rational
orbit by the system's own ``apply`` and decides d_n < r_n in ``Fraction``s
or mpmath, with no float band and none of ``Radii``' decision code.
``lattice_pairs`` finds the solutions of (B^m - I)k = (B^n - I)l by
testing the equation on every pair (k, l) of a box, with no solve.
"""

import hashlib
import math
from fractions import Fraction
from itertools import accumulate, product

import mpmath
import numpy as np

from recurlab.circle import circle_point
from recurlab.dynamics import SteppedBlock, point_distance
from recurlab.systems import ToralLinear, uses_circle_metric


def contains(s, x) -> bool:
    """Whether the point x (mod 1) lies in the IntervalSet s."""
    p = circle_point(x)
    return any(lo <= p < hi for lo, hi in s.arcs)


def is_subset_of(a, b) -> bool:
    """Whether every arc of a lies inside one arc of b. Canonical arcs are
    maximal, and both sets split an arc across 0 the same way, so this is
    inclusion of the sets."""
    return all(any(blo <= lo and hi <= bhi for blo, bhi in b.arcs) for lo, hi in a.arcs)


def assert_same_text(got: str, want: str) -> None:
    """got == want, by sha256 digests first. On a mismatch the assertion is
    on the first line that differs, with its index, so a failing test
    reports at once instead of diffing thousands of lines."""
    if hashlib.sha256(got.encode()).digest() == hashlib.sha256(want.encode()).digest():
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x, y = (lines[i] if i < len(lines) else "<end of text>" for lines in (a, b))
    assert x == y, f"the texts differ first at line {i}: {x!r} != {y!r}"


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


def compose_branches(pw, n: int) -> list[tuple[int, int, int, int]]:
    """The affine branches (X_lo, X_hi, P, U) of T^n over S = L_b*m^n,
    sorted: for each branch of T^k and each base branch, the part of its
    domain that T^k maps into the base branch's."""
    q, Lb, m, branches = pw.integer_branches
    mn, qk = m ** n, 1
    cur = [(0, Lb * mn, 1, 0)]  # T^0, one branch
    for _ in range(n):
        nxt = []
        for lo, hi, P, U in cur:
            k = mn // P
            for blo, bhi, p, u in branches:
                # T^k x = B/L_b at x*S = (B*q^k - U*L_b)*m^n/P
                xlo = (blo * qk - U * Lb) * k
                xhi = (bhi * qk - U * Lb) * k
                if P < 0:
                    xlo, xhi = xhi, xlo
                xlo, xhi = max(xlo, lo), min(xhi, hi)
                if xlo < xhi:
                    nxt.append((xlo, xhi, p * P, p * U + u * qk))
        cur = nxt
        qk *= q
    return sorted(cur)


def recurrence_arcs(sys, n: int, r: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """E_n of a map with affine branches as ``Fraction`` arcs: on each
    branch of T^n, for each integer offset j within r of T^n x - x on the
    branch (j = 0 alone for an interval map), the interval where
    |T^n x - x - j| < r, clipped to the branch and merged."""
    pw = sys.as_piecewise()
    q, Lb, m, _ = pw.integer_branches
    branches = compose_branches(pw, n)
    Q, S = q ** n, Lb * m ** n
    rn, rd = r.numerator, r.denominator
    L = math.lcm(S, rd * math.lcm(*{abs(P - Q) for _, _, P, _ in branches}))
    arcs = []
    for lo, hi, P, U in branches:
        C = P - Q
        k = L // (C * rd)
        js = [0]
        if uses_circle_metric(sys):
            # the integers within r of (C*x + U)/Q = V/(Q*S) on the domain
            D = Q * S * rd
            vmin, vmax = sorted((C * lo + U * S, C * hi + U * S))
            js = range(-((rn * Q * S - vmin * rd) // D), (vmax * rd + rn * Q * S) // D + 1)
        lo, hi = lo * (L // S), hi * (L // S)
        for j in js:
            xlo = ((j * Q - U) * rd - rn * Q) * k
            xhi = ((j * Q - U) * rd + rn * Q) * k
            if C < 0:
                xlo, xhi = xhi, xlo
            arcs.append((max(xlo, lo), min(xhi, hi)))
    return tuple((Fraction(lo, L), Fraction(hi, L)) for lo, hi in merge_arcs(arcs, L))


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


def lattice_pairs(B, m: int, n: int, box: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (k, l) with entries in [-box, box] and (B^m - I)k = (B^n - I)l,
    in the order of k then l: both sides are evaluated on every vector of
    the box and compared for every pair, (2box+1)^(2d) comparisons."""
    d = len(B)

    def power_less_identity(e: int) -> list[list[int]]:
        P = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(e):
            P = [[sum(P[i][t] * B[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
        return [[P[i][j] - (i == j) for j in range(d)] for i in range(d)]

    def image(A, v) -> tuple[int, ...]:
        return tuple(sum(a * x for a, x in zip(row, v)) for row in A)

    Am, An = power_less_identity(m), power_less_identity(n)
    box_vectors = list(product(range(-box, box + 1), repeat=d))
    lhs = [image(Am, k) for k in box_vectors]
    rhs = [image(An, l) for l in box_vectors]
    return [(k, l) for k, left in zip(box_vectors, lhs)
            for l, right in zip(box_vectors, rhs) if left == right]
