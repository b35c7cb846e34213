"""The array arc kernels against the tuple oracles of ``oracles.py``.

Merge, intersect and the eventually-always cover run as array passes on
(n, 2) integer arrays, int64 below the scale 2^62 and Python ints above.
Each is checked against the per-arc loop it replaced, on arcs that wrap,
touch and overlap, at a scale of each dtype; the cover also at the float
index boundary (near-arc ends that put x*M_k -+ r exactly on an integer)
and past the float range, where every index is exact.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recurlab.circle import (
    IntervalSet,
    arc_dtype,
    as_arcs,
    gcd_with,
    intersect_scaled_arcs,
    merge_scaled_arcs,
)
from recurlab.exact_sets import (
    _FLOAT_INDEX_MAX,
    _ear_denominator,
    _ear_scaled_cover,
    build_recurrence_set,
)

# one scale of each dtype: int64 below 2^62, Python ints above 2^64
SCALES = (2**61 + 1, 2**64 + 13)


def rows(arcs) -> list[tuple[int, int]]:
    return [tuple(arc) for arc in arcs.tolist()]


@st.composite
def raw_arcs(draw, L):
    """Up to ten arcs with -L < lo and hi < 2L whose ends sit on a grid of
    L/8 give or take 1, so that they often wrap, touch and overlap; some
    are empty (hi <= lo) and some cover the circle."""
    step = L // 8
    out = []
    for _ in range(draw(st.integers(0, 10))):
        lo = draw(st.integers(-7, 15)) * step + draw(st.sampled_from((-1, 0, 0, 1)))
        hi = lo + draw(st.integers(0, 9)) * step + draw(st.sampled_from((-1, 0, 0, 1)))
        out.append((lo, min(hi, 2 * L - 1)))
    return out


@pytest.mark.parametrize("L", SCALES)
@given(data=st.data())
@settings(max_examples=80)
def test_merge_equals_oracle(L, data):
    arcs = data.draw(raw_arcs(L))
    merged = merge_scaled_arcs(as_arcs(arcs, L), L)
    assert merged.dtype == arc_dtype(L)
    assert rows(merged) == oracles.merge_arcs(arcs, L)


@pytest.mark.parametrize("L", SCALES)
@given(data=st.data())
@settings(max_examples=80)
def test_intersect_equals_oracle(L, data):
    a = oracles.merge_arcs(data.draw(raw_arcs(L)), L)
    b = oracles.merge_arcs(data.draw(raw_arcs(L)), L)
    got = intersect_scaled_arcs(as_arcs(a, L), as_arcs(b, L))
    assert rows(got) == oracles.intersect_arcs(a, b)


@pytest.mark.parametrize("factor", (1, 2**66))  # the least scale, and one above 2^64
@given(a=st.sampled_from((2, 3, -2)), m=st.integers(1, 4),
       r=st.fractions(min_value=0, max_value=Fraction(3, 5), max_denominator=7),
       data=st.data())
@settings(max_examples=80)
def test_cover_equals_oracle(factor, a, m, r, data):
    # near-arc ends on multiples of 1/base, give or take one unit of the
    # scale: every end of an E_{k,m} arc is such a multiple
    base = _ear_denominator(a, m, [r.denominator])
    L = base * factor
    ends = data.draw(st.lists(st.integers(0, base), max_size=8))
    nudge = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=8, max_size=8))
    points = [min(max(e * factor + d, 0), L) for e, d in zip(ends, nudge)]
    near = oracles.merge_arcs(zip(points[::2], points[1::2]), L)
    got = _ear_scaled_cover(a, m, r, L, as_arcs(near, L), 1 << 22)
    assert got.dtype == arc_dtype(L)
    assert rows(got) == oracles.ear_cover(a, m, r, L, near)


# (a, r, m', m): near = C_{m'}, whose arc ends put x*M_k - r or y*M_k + r on
# an integer for some k <= m, and float64 rounds it to the wrong side
BOUNDARY = [(2, Fraction(1, 10), 3, 6), (2, Fraction(1, 5), 2, 3), (-2, Fraction(1, 3), 1, 4),
            (-2, Fraction(1, 14), 3, 5), (5, Fraction(1, 7), 1, 2)]


@pytest.mark.parametrize("a, r, m_prev, m", BOUNDARY)
def test_cover_at_the_float_index_boundary(a, r, m_prev, m):
    L = _ear_denominator(a, m, [r.denominator])
    near = oracles.ear_cover(a, m_prev, r, L, [(0, L)])
    wrong = 0
    for k in range(1, m + 1):
        M = abs(a ** k - 1)
        for lo, hi in near:
            t0, t1 = Fraction(lo * M, L) - r, Fraction(hi * M, L) + r
            wrong += t0.denominator == 1 and math.floor(lo / L * M - float(r)) != t0
            wrong += t1.denominator == 1 and math.ceil(hi / L * M + float(r)) != t1
    assert wrong  # the float index alone would be off by one here
    got = _ear_scaled_cover(a, m, r, L, as_arcs(near, L), 1 << 22)
    assert rows(got) == oracles.ear_cover(a, m, r, L, near)


def test_cover_past_the_float_range_is_exact():
    # M_41 = 2^41 - 1 is past the float index range, so every index of k = 41
    # comes from exact floor division; a narrow near arc keeps the cover small
    a, m, r = 2, 41, Fraction(1, 3)
    assert abs(a ** m - 1) >= _FLOAT_INDEX_MAX
    L = _ear_denominator(a, m, [r.denominator])
    near = [(L // 3, L // 3 + (L >> 44)), (L - (L >> 45), L)]
    got = _ear_scaled_cover(a, m, r, L, as_arcs(near, L), 1 << 22)
    assert got.dtype == object
    assert rows(got) == oracles.ear_cover(a, m, r, L, near)


@pytest.mark.parametrize("d", (2**62 // 3, 2**62 // 3 + 1, 2**63 // 3 + 1, 2**64 // 3 + 1))
def test_en_at_the_int64_switch(d):
    # E_2 of doubling at r = 1/d has the scale L = 3d: just below 2^62 (int64),
    # just above (Python ints), and past 2^63, where an int64 arange would wrap
    res = build_recurrence_set(2, 2, Fraction(1, d))
    L = 3 * d
    assert res.set.L == L and res.set.scaled.dtype == arc_dtype(L)
    assert res.set.scaled.dtype == (np.int64 if L < 2**62 else object)
    w = Fraction(1, L)
    assert res.set.arcs == ((0, w), (Fraction(1, 3) - w, Fraction(1, 3) + w),
                            (Fraction(2, 3) - w, Fraction(2, 3) + w), (1 - w, 1))


def test_set_algebra_across_the_int64_switch():
    # each scale is below 2^62, their lcm above 2^63: rescaling in int64 would wrap
    L1 = 2**61 - 1
    s1 = IntervalSet.from_scaled(L1, [(1, L1 - 1)])
    s2 = IntervalSet.arc(Fraction(1, 5), Fraction(3, 5))
    assert s1.scaled.dtype == s2.scaled.dtype == np.int64
    assert math.lcm(L1, 5) >= 2**63
    assert s1.intersect(s2) == s2
    assert s1.union(s2) == s1
    assert s1.union(s2.complement()) == IntervalSet.full()
    assert s1.intersect(s2.complement()).arcs == (
        (Fraction(1, L1), Fraction(1, 5)), (Fraction(3, 5), Fraction(L1 - 1, L1)))


# one scale for each branch of gcd_with: no prime factor; two table parts
# (2^2 3^2 5 17 = 3060 and 257); a prime power above the table bound; a prime
# above it, with table parts (12 * 131071) and alone; and a rest of two primes
# above it (65537 * 6700417) on uint64
GCD_SCALES = (1, 786_420, 2**32, 1_572_852, 100_003, 2**64 - 1)


@pytest.mark.parametrize("L", GCD_SCALES)
@given(data=st.data())
@settings(max_examples=20)
def test_gcd_with_equals_math_gcd(L, data):
    dtype = np.uint32 if L < 2**32 else np.uint64
    # the ends 0 and L, and multiples of L // d, whose gcds with L are large
    fixed = [0, 1, L - 1, L] + [L // d * k for d in range(1, 40) for k in (1, 2, 3)]
    e = np.array([x for x in fixed if x <= L] + data.draw(st.lists(st.integers(0, L))), dtype)
    g = gcd_with(L, dtype)(e)
    assert g.dtype == dtype
    assert g.tolist() == [math.gcd(x, L) for x in e.tolist()]


# a prime rest (12 * 131071, whose R = 131071 takes the np.where test); a
# small-prime power above the table bound in R (2^17 * 3 * 5); and a rest of
# two primes above 2^16 (65537 * 65539 > 2^32), which both take np.gcd
@pytest.mark.parametrize("L", (12 * 131_071, 2**17 * 15, 6 * 65_537 * 65_539))
@given(data=st.data())
@settings(max_examples=20)
def test_gcd_with_equals_np_gcd(L, data):
    dtype = np.uint32 if L < 2**32 else np.uint64
    R = L // math.gcd(L, 2**64 * 15)  # the part of L prime to 2, 3 and 5
    fixed = [0, 1, L - 1, L, R, 2 * R, L - R] + [L // d * k for d in range(1, 40) for k in (1, 2)]
    e = np.array(fixed + data.draw(st.lists(st.integers(0, L))), dtype)
    assert np.array_equal(gcd_with(L, dtype)(e), np.gcd(e, dtype(L)))
