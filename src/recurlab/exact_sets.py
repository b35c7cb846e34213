"""Exact recurrence sets E_n = {x : d(T^n x, x) < r} and their statistics.

For the circle map T x = a x mod 1 the set E_n is a union of |a^n - 1| arcs
of radius r/(a^n - 1) centered at the fixed points j/(a^n - 1) of T^n, so
mu(E_n) = 2r exactly whenever r <= 1/2. Everything here is exact. Arc
endpoints, and the branches of T^n of a piecewise-affine map, are integers
over one scale known in advance; arcs are (n, 2) integer arrays in the
dtype of ``circle.arc_dtype`` (int64 below the scale 2^62, Python ints
above), and `Fraction`s appear only in measures and the text form. E_n's
arcs come from one ``np.arange`` of its centres. Overlaps mu(E_i ∩ E_j)
come in closed form from the gcd identity gcd(a^i - 1, a^j - 1) =
|a^gcd(i,j) - 1|, without building any arc. One builder makes the
eventually-always covers C_m: it builds only those arcs of C_m that meet a
given set (the whole circle for C_m alone, the running intersection for
A_{n0,M}) and counts only the arcs it builds, so a radius of 0 or at least
1/2 builds none. It finds the centre indices of those arcs in float64,
within a proven error bound, and takes exact integer division wherever the
bound leaves the floor in doubt.

Hard budgets replace silent truncation: a computation that would need more
arcs or composed branches than allowed raises, naming the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .circle import (
    IntervalSet,
    RadiusSequence,
    arc_dtype,
    as_arcs,
    intersect_scaled_arcs,
    merge_scaled_arcs,
    scaled_measure,
)
from .errors import ArcBudgetExceeded, BranchBudgetExceeded
from .systems import IntegerCircleMap, PiecewiseLinear, SystemSpec, uses_circle_metric

DEFAULT_ARC_BUDGET = 1 << 22
_BLOCK = 1 << 14  # entries per block of an array pass on object integers


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceSetResult:
    """E_n for one system, radius and index, or the cover C_m with ``n`` = m.

    ``arc_count`` counts arcs on the circle (an arc crossing 0 counts once,
    even though the stored IntervalSet keeps it split); for T x = a x mod 1
    with 0 < r <= 1/2 it equals |a^n - 1|. ``set`` is None when the caller
    skipped materialization and only the exact measure was computed.
    """

    n: int
    r: Fraction
    set: IntervalSet | None
    measure: Fraction
    arc_count: int


@dataclass(frozen=True)
class PairCorrelation:
    """Exact overlap statistics of E_i and E_j for one circle map."""

    a: int
    i: int
    j: int
    mu_i: Fraction
    mu_j: Fraction
    intersection: Fraction
    excess: Fraction
    bound: Fraction
    bound_ok: bool


@dataclass(frozen=True)
class PetrovSummary:
    """Correlation sum S_N against R_N = (sum of mu(E_i))^2 at one horizon."""

    N: int
    S_N: Fraction
    R_N: Fraction
    ratio: float


@dataclass(frozen=True)
class EarTruncationResult:
    """A_{n0,M} = intersection of C_m over m in [n0, M], with the measure
    profile after each successive intersection (non-increasing in m)."""

    n0: int
    M: int
    set: IntervalSet | None
    measure: Fraction
    profile: tuple[tuple[int, Fraction], ...]


# ---------------------------------------------------------------------------
# Scaled-arc generation for circle maps
# ---------------------------------------------------------------------------

def _check_radius(r, upper=Fraction(1, 2)) -> Fraction:
    """r as a Fraction in [0, upper]; EAR radii take upper = inf."""
    r = Fraction(r)
    if not 0 <= r <= upper:
        raise ValueError(f"radius must lie in [0, {upper}], got {r}")
    return r


def _fixed_point_count(a: int, n: int) -> int:
    """Number of fixed points of T^n on the circle, |a^n - 1|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return abs(a ** n - 1)


def _en_scaled_arcs(M: int, w: int, L: int) -> np.ndarray:
    """Canonical scaled arcs of E_n: radius w around the M points k*(L/M),
    from one ``np.arange`` of the centres.

    Requires L % M == 0 and 2*w <= L//M (disjoint arcs); the arc around 0
    comes out split as [0, w) and [L-w, L).
    """
    if w <= 0:
        return as_arcs((), L)
    sp = L // M
    if 2 * w >= sp:
        return as_arcs((0, L), L)
    centres = np.arange(M + 1, dtype=arc_dtype(L)) * sp
    arcs = np.stack((centres - w, centres + w), axis=1)
    arcs[0, 0], arcs[-1, 1] = 0, L
    return arcs


def _circle_arc_count(arcs: np.ndarray, L: int) -> int:
    """Arc count on the circle: the canonical form splits an arc crossing 0
    into [0, .) and [., L) pieces; count those as one arc."""
    c = len(arcs)
    if c >= 2 and arcs[0][0] == 0 and arcs[-1][1] == L:
        c -= 1
    return c


# ---------------------------------------------------------------------------
# build_recurrence_set (integer circle maps)
# ---------------------------------------------------------------------------

def build_recurrence_set(
    a: int,
    n: int,
    r,
    *,
    materialize: bool = True,
    arc_budget: int = DEFAULT_ARC_BUDGET,
) -> RecurrenceSetResult:
    """E_n = {x : circle_dist(a^n x, x) < r} for T x = a x mod 1, exactly.

    The measure is always the closed form 2r (r <= 1/2 keeps the arcs
    disjoint); the IntervalSet is materialized only when requested and the
    arcs it builds fit the budget: M + 1 (the arc at 0 in two halves), or
    one when 2r = 1 makes E_n the whole circle.
    """
    IntegerCircleMap(a)  # refuses |a| < 2
    r = _check_radius(r)
    M = _fixed_point_count(a, n)
    measure = 2 * r
    if r == 0:
        return RecurrenceSetResult(n, r, IntervalSet.empty() if materialize else None, Fraction(0), 0)
    arc_count = 1 if measure == 1 else M
    if not materialize:
        return RecurrenceSetResult(n, r, None, measure, arc_count)
    built = 1 if measure == 1 else M + 1
    if built > arc_budget:
        raise ArcBudgetExceeded(built, arc_budget)
    L = M * r.denominator
    w = r.numerator
    scaled = _en_scaled_arcs(M, w, L)
    return RecurrenceSetResult(n, r, IntervalSet.from_scaled(L, scaled), measure, arc_count)


# ---------------------------------------------------------------------------
# Piecewise-affine branch machinery
# ---------------------------------------------------------------------------

def _int_dtype(bound: int):
    """int64 for values at most ``bound`` in magnitude, else Python ints."""
    return np.int64 if bound < 2**63 else object


def compose_branches(
    pw: PiecewiseLinear, n: int, branch_budget: int = DEFAULT_ARC_BUDGET
) -> np.ndarray:
    """Maximal affine branches of T^n as rows (X_lo, X_hi, P, U), sorted by
    X_lo: with q, L_b, m from ``pw.integer_branches`` and S = L_b*m^n, T^n x =
    (P*x + U)/q^n on [X_lo/S, X_hi/S), and every end is an integer over S
    (|P| divides m^k after k steps). A level is one broadcast against the
    base branches. Every value is at most L_b*(2q^n + m^n)*m^n, the bound of
    int64: a base branch maps into [0, 1], so P*x + U lies in [0, q^k] on a
    branch of T^k and |U| <= |P| + q^k; the ends before the clip are at
    most L_b*(2q^k + |P|)*m^n/|P|, the new P and U at most m^n and 4m^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q, Lb, m, branches = pw.integer_branches
    mn, qk = m ** n, 1
    dt = _int_dtype(Lb * (2 * q ** n + mn) * mn)
    blo, bhi, p, u = np.array(branches, dt).T
    lo, hi, P, U = np.array([[0], [Lb * mn], [1], [0]], dt)  # T^0, one branch
    for _ in range(n):
        # T^k x = B/L_b at x*S = (B*q^k - U*L_b)*m^n/P
        k, ULb = (mn // P)[:, None], (U * Lb)[:, None]
        xlo, xhi = (blo * qk - ULb) * k, (bhi * qk - ULb) * k
        neg = (P < 0)[:, None]
        xlo, xhi = np.where(neg, xhi, xlo), np.where(neg, xlo, xhi)
        xlo, xhi = np.maximum(xlo, lo[:, None]), np.minimum(xhi, hi[:, None])
        i, j = np.nonzero(xlo < xhi)
        if len(i) > branch_budget:
            raise BranchBudgetExceeded(len(i), branch_budget)
        lo, hi, P, U = xlo[i, j], xhi[i, j], p[j] * P[i], p[j] * U[i] + u[j] * qk
        qk *= q
    return np.stack((lo, hi, P, U), axis=1)[lo.argsort(kind="stable")]


def build_recurrence_set_piecewise(
    sys: SystemSpec,
    n: int,
    r,
    *,
    branch_budget: int = DEFAULT_ARC_BUDGET,
) -> RecurrenceSetResult:
    """E_n for a map with affine branches (``sys.as_piecewise()``: integer
    circle maps, rational beta-maps, piecewise maps) via exact branch
    composition; any other system refuses with a ConfigError.

    On each affine branch of T^n the condition d(T^n x, x) < r is a linear
    inequality, so E_n restricted to a branch is an interval. d is the
    system's metric, as in the Monte Carlo experiments
    (``systems.uses_circle_metric``): circle distance on an integer circle
    map, whose integer offsets j are enumerated, and plain absolute value on
    [0, 1] for an interval map.

    On a branch, T^n x - x - j = (C*x + U - j*Q)/Q with Q = q^n and C = P - Q
    (never 0, as |P| > Q), so the interval's ends ((j*Q - U)*den(r) ∓
    num(r)*Q)/(C*den(r)) are integers over L = lcm(S, den(r)*lcm |C|),
    built by ``_branch_intervals`` in blocks of branches for one merge.
    """
    pw = sys.as_piecewise()
    r = _check_radius(r)
    branches = compose_branches(pw, n, branch_budget)
    q, Lb, m, _ = pw.integer_branches
    Q, mn = q ** n, m ** n
    L = math.lcm(Lb * mn, r.denominator * math.lcm(*set(np.abs(branches[:, 2] - Q).tolist())))
    dt, circle = _int_dtype(4 * mn * L * r.denominator), uses_circle_metric(sys)
    parts = [_branch_intervals(branches[b:b + _BLOCK].astype(dt), Q, Lb * mn, L, r, circle)
             for b in range(0, len(branches), _BLOCK)]
    iset = IntervalSet.from_scaled(L, merge_scaled_arcs(np.concatenate(parts), L))
    return RecurrenceSetResult(n, r, iset, iset.measure, _circle_arc_count(iset.scaled, iset.L))


def _branch_intervals(br: np.ndarray, Q: int, S: int, L: int, r: Fraction, circle: bool):
    """The intervals of E_n over L on the branch rows of ``br``, clipped to
    their domains (empty ones too), with the offsets j of all rows expanded
    by one ``repeat``. Every value is at most 4*m^n*L*den(r), the bound of
    int64: |C| and |U| are below 2m^n (``compose_branches``); C*x + U =
    Q*(T^n x - x) lies in [-Q, Q], so j is -1, 0 or 1; the ends before the
    clip are at most 3.5*m^n*L/|C|, and the j bounds 1.5*Q*S*den(r)."""
    lo, hi, P, U = br.T
    C, rn, rd, s = P - Q, r.numerator, r.denominator, L // S
    j0, nj = np.zeros_like(C), np.ones(len(C), np.int64)
    if circle:  # the integers within r of (C*x + U)/Q = V/(Q*S) on the domain
        D, V = Q * S * rd, np.sort(np.stack((C * lo, C * hi), axis=1) + U[:, None] * S, axis=1)
        j0 = -((rn * Q * S - V[:, 0] * rd) // D)
        nj = ((V[:, 1] * rd + rn * Q * S) // D + 1 - j0).astype(np.int64)
    i = np.repeat(np.arange(len(C)), nj)
    j = np.arange(len(i)) + np.repeat(j0 - (np.cumsum(nj) - nj), nj)
    k, w, neg, U = (L // (C * rd))[i], rn * Q, (C < 0)[i], (j * Q - U[i]) * rd
    xlo, xhi = (U - w) * k, (U + w) * k
    xlo, xhi = np.where(neg, xhi, xlo), np.where(neg, xlo, xhi)
    return np.stack((np.maximum(xlo, (lo * s)[i]), np.minimum(xhi, (hi * s)[i])), axis=1)


# ---------------------------------------------------------------------------
# Pairwise intersections and the Petrov ratio
# ---------------------------------------------------------------------------

def _en_intersection_measure(a: int, i: int, j: int, r_i: Fraction, r_j: Fraction) -> Fraction:
    """mu(E_i ∩ E_j) for T x = a x mod 1, exactly, in O(1) big-int operations.

    The centre differences c/M_i - c'/M_j hit every multiple of 1/l,
    l = lcm(M_i, M_j), exactly g = gcd(M_i, M_j) = |a^gcd(i,j) - 1| times.
    Arcs of half-widths alpha = r_i/M_i, beta = r_j/M_j with centres t apart
    overlap in f(t) = clip(alpha + beta - t, 0, 2 min(alpha, beta)), so
    mu = g * sum over k in Z of f(|k|/l): a plateau plus an arithmetic series.
    """
    if r_i == 0 or r_j == 0:
        return Fraction(0)
    Mi = _fixed_point_count(a, i)
    Mj = _fixed_point_count(a, j)
    g = _fixed_point_count(a, math.gcd(i, j))
    # l*alpha and l*beta in units of 1/Q
    Q = r_i.denominator * r_j.denominator
    A = r_i.numerator * r_j.denominator * (Mj // g)
    B = r_j.numerator * r_i.denominator * (Mi // g)
    s, d, top = A + B, abs(A - B), 2 * min(A, B)
    # |k| <= d/Q gives `top` each; on each side k1 <= k <= k2 gives s - k*Q
    k1, k2 = d // Q + 1, s // Q
    n = k2 - k1 + 1
    total = top * (1 + 2 * (d // Q)) + 2 * n * s - Q * (k1 + k2) * n
    return Fraction(g * total, Mi * (Mj // g) * Q)


def pair_correlation(a: int, i: int, j: int, r_i, r_j) -> PairCorrelation:
    """Exact mu(E_i ∩ E_j), its excess over mu(E_i)mu(E_j), and the
    2*a^(2p-(i+j)) bound with p = gcd(i, j)."""
    IntegerCircleMap(a)  # refuses |a| < 2
    if i == j:
        raise ValueError("pair correlation needs distinct indices i != j")
    if min(i, j) < 1:
        raise ValueError("indices must be >= 1")
    r_i = _check_radius(r_i)
    r_j = _check_radius(r_j)
    mu_i = 2 * r_i
    mu_j = 2 * r_j
    inter = _en_intersection_measure(a, i, j, r_i, r_j)
    excess = inter - mu_i * mu_j
    p = math.gcd(i, j)
    bound = 2 * Fraction(abs(a)) ** (2 * p - (i + j))
    return PairCorrelation(a, i, j, mu_i, mu_j, inter, excess, bound, excess <= bound)


def _radii(seq: RadiusSequence, ns: Iterable[int], upper) -> list[Fraction]:
    """The exact r_n of ``seq`` for each n of ``ns``, each in [0, upper]."""
    radii = []
    for n in ns:
        e = seq.exact(n)
        if e is None:
            raise ValueError(
                f"exact computation needs an exact radius sequence; "
                f"{seq.describe()} has no exact value at n={n}"
            )
        radii.append(_check_radius(e, upper))
    return radii


def petrov_profile(
    a: int,
    seq: RadiusSequence,
    horizons: Sequence[int],
    H,
) -> list[PetrovSummary]:
    """S_N = sum over i<j<=N of (mu(E_i∩E_j) - H mu_i mu_j) and
    R_N = (sum mu_i)^2, exactly, at each requested horizon in one sweep.

    liminf S_N/R_N <= 0 is the quasi-independence criterion forcing
    mu(limsup E_n) >= 1/H.
    """
    IntegerCircleMap(a)  # refuses |a| < 2
    H = Fraction(H)
    horizons = sorted(set(horizons))
    if not horizons or horizons[0] < 1:
        raise ValueError("horizons must be positive")
    N = horizons[-1]
    radii = _radii(seq, range(1, N + 1), Fraction(1, 2))
    mus = [2 * r for r in radii]
    out = []
    S = Fraction(0)
    mu_sum = Fraction(0)
    marks = set(horizons)
    for j in range(1, N + 1):
        for i in range(1, j):
            inter = _en_intersection_measure(a, i, j, radii[i - 1], radii[j - 1])
            S += inter - H * mus[i - 1] * mus[j - 1]
        mu_sum += mus[j - 1]
        if j in marks:
            R = mu_sum * mu_sum
            ratio = float(S / R) if R > 0 else math.nan
            out.append(PetrovSummary(j, S, R, ratio))
    return out


# ---------------------------------------------------------------------------
# Eventually-always sets (exact, doubling-style circle maps)
# ---------------------------------------------------------------------------

def _ear_denominator(a: int, m: int, dens: Iterable[int]) -> int:
    # arc endpoints of E_{k,m} have denominator den(r) * M_k, so the common
    # scale must be divisible by every such product
    return math.lcm(*(
        d * _fixed_point_count(a, k) for d in dens for k in range(1, m + 1)
    ))


# The float index t = fl(fl(x_f * M_k) -+ fl(r)) of _ear_scaled_cover, with
# u = 2^-53, x = lo/L in [0, 1] and M_k exact in float64. x_f = x (1 + d)
# with |d| <= 3.01 u: Python's int division rounds once, numpy's on int64
# rounds lo, L and the quotient. d moves x M_k by at most 3.01 u M_k, the
# product's rounding by u M_k (1 + 3.01 u), fl(r) by u r and the last
# rounding by u (M_k + r)(1 + 4.02 u), so |t - (x M_k -+ r)| <=
# 5.1 u M_k + 2.1 u r, which is below 2^-50 (M_k + 1). Twice that is the
# bound kept. Past 2^40 the bound nears the float spacing of t, and every
# index is exact.
_INDEX_ERR = 2.0 ** -49
_FLOAT_INDEX_MAX = 2 ** 40


def _certified(t: np.ndarray, bound: np.ndarray, rounded, exact, dtype) -> np.ndarray:
    """``rounded(t)`` (np.floor or np.ceil) of float values t, each within
    ``bound`` (broadcast) of the exact value it stands for, in ``dtype``;
    entries with an integer that near take ``exact(rows, cols)`` instead."""
    out = rounded(t).astype(np.int64).astype(dtype, copy=False)
    rows, cols = np.nonzero(np.abs(t - np.rint(t)) <= bound)
    if rows.size:
        out[rows, cols] = exact(rows, cols)
    return out


def _ear_scaled_cover(
    a: int, m: int, r: Fraction, L: int, near: np.ndarray, arc_budget: int
) -> np.ndarray:
    """The arcs of C_m = union over k <= m of E_{k,m} (radius r) that meet an
    arc of ``near`` (a canonical scaled arc array), merged, so that
    intersecting them with ``near`` gives near ∩ C_m; near = [(0, L)] gives
    C_m itself. r = 0 builds no arc, and for 2r >= 1 C_m is the whole
    circle, so ``near`` comes back as it is.

    The arc of E_{k,m} centred at c*sp (sp = L/M_k, w = r*sp) meets
    [lo, hi) iff x*M_k - r < c < y*M_k + r, with x = lo/L and y = hi/L.
    x and y go to float64 once per call; the index bounds are a few float
    operations on a (k, near arc) grid, taken max(1, 2^14/len(near)) rows
    of k at a time, within a proven bound of their exact values
    (``_INDEX_ERR``). A bound with an integer within that error, and every
    bound once M_k reaches 2^40, takes exact floor division instead. The
    indices are int64 when 4|a|^m < 2^63, as each lies in [0, M_k + 1] and
    a block counts at most the sum of M_k + 2. Only the endpoints c*sp -+ w
    of the centres found are built, in the array dtype, from one
    ``repeat``. Indices outside [0, M_k) name the same arcs mod L;
    merge_scaled_arcs folds them back. ``arc_budget`` caps the arcs built.
    """
    if r == 0:
        return as_arcs((), L)
    if 2 * r >= 1:
        return near
    dt, idx = arc_dtype(L), _int_dtype(4 * abs(a) ** m)
    Ms = [_fixed_point_count(a, k) for k in range(1, m + 1)]
    sp = np.array([L // M for M in Ms], dt)
    w = r.numerator * (sp // r.denominator)
    Mf = np.array([float(min(M, _FLOAT_INDEX_MAX)) for M in Ms])[:, None]
    err = np.where(Mf < _FLOAT_INDEX_MAX, _INDEX_ERR * (Mf + 1), np.inf)  # inf: all exact
    lo, hi = near[:, 0], near[:, 1]
    x, y, rf = np.asarray(lo / L, float), np.asarray(hi / L, float), float(r)
    step, picked, count = max(1, _BLOCK // max(1, len(near))), [], 0
    for k0 in range(0, m, step):
        ks = slice(k0, k0 + step)
        below = lambda i, j: (lo[j] - w[k0 + i]) // sp[k0 + i]  # floor(x M_k - r), exactly
        above = lambda i, j: -((-w[k0 + i] - hi[j]) // sp[k0 + i])  # ceil(y M_k + r), exactly
        c0 = _certified(x * Mf[ks] - rf, err[ks], np.floor, below, idx) + 1
        c1 = _certified(y * Mf[ks] + rf, err[ks], np.ceil, above, idx)
        # centres below the previous arc's end are taken
        c0[:, 1:] = np.maximum(c0[:, 1:], c1[:, :-1])
        i, j = np.nonzero(c1 > c0)
        picked.append((i + k0, c0[i, j], c1[i, j] - c0[i, j]))
        count += int(picked[-1][2].sum())
    if count > arc_budget:
        raise ArcBudgetExceeded(count, arc_budget)
    k, c0, n = (np.concatenate(p) for p in zip(*picked))
    n = n.astype(np.int64)
    k, arcs = np.repeat(k, n), np.empty((count, 2), dt)
    # in place, so that only the endpoints are ever held as new integers
    arcs[:, 0] = np.arange(count) + np.repeat(c0 - (np.cumsum(n) - n), n)
    arcs[:, 0] *= sp[k]
    arcs[:, 1] = arcs[:, 0] + w[k]
    arcs[:, 0] -= w[k]
    return merge_scaled_arcs(arcs, L)


def build_ear_sets(
    a: int,
    m: int,
    seq: RadiusSequence,
    *,
    materialize: bool = True,
    arc_budget: int = DEFAULT_ARC_BUDGET,
) -> RecurrenceSetResult:
    """C_m = {x : some iterate T^k x, k <= m, lies within r_m of x}, exactly,
    with ``n`` = m in the result.

    ``_ear_scaled_cover`` builds it near the whole circle, so ``arc_budget``
    caps the arcs that it builds: none when r_m = 0 or 2 r_m >= 1. Each
    E_{k,m} has measure 2 r_m, so mu(C_m) <= 2 m r_m; the complement bound
    mu(complement of C_m) >= 1 - 2 m r_m follows.
    """
    IntegerCircleMap(a)  # refuses |a| < 2
    if m < 1:
        raise ValueError("m must be >= 1")
    (r,) = _radii(seq, [m], math.inf)
    L = _ear_denominator(a, m, [r.denominator])
    scaled = _ear_scaled_cover(a, m, r, L, as_arcs((0, L), L), arc_budget)
    iset = IntervalSet.from_scaled(L, scaled) if materialize else None
    return RecurrenceSetResult(m, r, iset, Fraction(scaled_measure(scaled), L),
                               _circle_arc_count(scaled, L))


def ear_truncated_A(
    a: int,
    n0: int,
    M: int,
    seq: RadiusSequence,
    *,
    materialize: bool = True,
    arc_budget: int = DEFAULT_ARC_BUDGET,
) -> EarTruncationResult:
    """A_{n0,M} = intersection of C_m over n0 <= m <= M, exactly.

    The profile records the measure after each successive intersection; it
    is non-increasing and upper-bounds the eventually-always limit set's
    measure at every truncation. Each step builds only the arcs of C_m that
    meet the running intersection, so ``arc_budget`` caps that count per m.
    """
    IntegerCircleMap(a)  # refuses |a| < 2
    if not 1 <= n0 <= M:
        raise ValueError("need 1 <= n0 <= M")
    radii = _radii(seq, range(n0, M + 1), math.inf)
    L = _ear_denominator(a, M, {r.denominator for r in radii})
    cur = as_arcs((0, L), L)
    profile = []
    for m, r in enumerate(radii, n0):
        cur = intersect_scaled_arcs(cur, _ear_scaled_cover(a, m, r, L, cur, arc_budget))
        profile.append((m, Fraction(scaled_measure(cur), L)))
        if len(cur) == 0:
            break
    iset = IntervalSet.from_scaled(L, cur) if materialize else None
    return EarTruncationResult(n0, M, iset, profile[-1][1], tuple(profile))
