"""Exact circle arithmetic: distances, interval sets, radius sequences."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab.circle import (
    EarRadius,
    ExplicitTable,
    IntervalSet,
    PowerLaw,
    PowerLog,
    TEXT_BLOCK,
    circle_dist,
    circle_point,
)
from recurlab.exact_sets import build_recurrence_set
from oracles import assert_same_text, contains, from_text, is_subset_of

fractions01 = st.fractions(min_value=0, max_value=1)
small_fracs = st.fractions(min_value=-3, max_value=3)


def random_interval_sets(draw_arcs):
    arcs = []
    for lo, w in draw_arcs:
        arcs.append((lo, lo + w))
    return IntervalSet.from_arcs(arcs)


arc_strategy = st.lists(
    st.tuples(
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=Fraction(1, 3)),
    ),
    max_size=6,
)
iset_strategy = arc_strategy.map(random_interval_sets)
# the widths of the text writer switch at 2^32 and 2^64
SCALES = (2**32 - 1, 2**32, 2**64 - 1, 2**64)


@st.composite
def sets_at_scale(draw, L):
    """Up to six arcs with distinct endpoints in [0, L), the last one ending
    at L - 1, so that L stays the set's scale (gcd(L - 1, L) = 1)."""
    k = draw(st.integers(0, 5))
    ends = sorted(draw(st.sets(st.integers(0, L - 2), min_size=2 * k + 1,
                               max_size=2 * k + 1)))
    return IntervalSet.from_scaled(L, list(zip(ends[::2], ends[1::2] + [L - 1])))


def fraction_text(s: IntervalSet) -> str:
    """The text form from one ``Fraction`` per endpoint, an oracle that
    shares no code with ``to_text``."""
    def frac(e: int) -> str:
        f = Fraction(e, s.L)
        return f"{f.numerator}/{f.denominator}"

    return "".join(f"{frac(lo)},{frac(hi)}\n" for lo, hi in s.scaled.tolist())


class TestCircleDistance:
    def test_known_values(self):
        assert circle_dist(Fraction(1, 10), Fraction(9, 10)) == Fraction(1, 5)
        assert circle_dist(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 2)
        assert circle_dist(0, 1) == 0

    @given(small_fracs, small_fracs)
    def test_symmetric_and_bounded(self, x, y):
        d = circle_dist(x, y)
        assert d == circle_dist(y, x)
        assert 0 <= d <= Fraction(1, 2)

    @given(small_fracs, small_fracs, small_fracs)
    def test_triangle_inequality(self, x, y, z):
        assert circle_dist(x, z) <= circle_dist(x, y) + circle_dist(y, z)

    @given(small_fracs, small_fracs, small_fracs)
    def test_rotation_invariance(self, x, y, t):
        assert circle_dist(x + t, y + t) == circle_dist(x, y)

    @given(small_fracs)
    def test_point_reduction(self, x):
        p = circle_point(x)
        assert 0 <= p < 1
        assert (x - p).denominator == 1


class TestIntervalSet:
    def test_empty_and_full(self):
        assert IntervalSet.empty().measure == 0
        assert IntervalSet.full().measure == 1
        assert IntervalSet.empty().arc_count == 0
        assert IntervalSet.full().complement().arc_count == 0

    def test_overlapping_arcs_merge(self):
        s = IntervalSet.from_arcs(
            [(Fraction(0), Fraction(1, 4)), (Fraction(1, 8), Fraction(1, 2))]
        )
        assert s.arc_count == 1
        assert s.measure == Fraction(1, 2)

    def test_wrapping_arc(self):
        s = IntervalSet.arc(Fraction(7, 8), Fraction(9, 8))
        assert s.measure == Fraction(1, 4)
        assert contains(s, Fraction(15, 16))
        assert contains(s, Fraction(1, 16))
        assert not contains(s, Fraction(1, 2))

    @given(iset_strategy, iset_strategy)
    @settings(max_examples=60)
    def test_inclusion_exclusion_exact(self, a, b):
        union = a.union(b)
        inter = a.intersect(b)
        assert union.measure + inter.measure == a.measure + b.measure

    @given(iset_strategy)
    @settings(max_examples=60)
    def test_complement_partition(self, a):
        c = a.complement()
        assert a.measure + c.measure == 1
        assert a.intersect(c).measure == 0

    @given(iset_strategy, iset_strategy)
    @settings(max_examples=60)
    def test_subset_relations(self, a, b):
        inter = a.intersect(b)
        assert is_subset_of(inter, a)
        assert is_subset_of(inter, b)
        assert is_subset_of(a, a.union(b))

    @given(iset_strategy)
    @settings(max_examples=60)
    def test_text_roundtrip(self, a):
        assert from_text(a.to_text()) == a.arcs

    def test_text_format(self):
        s = IntervalSet.from_arcs([(Fraction(1, 3), Fraction(1, 2))])
        assert s.to_text().strip() == "1/3,1/2"

    def test_union_all(self):
        parts = [IntervalSet.arc(Fraction(k, 4), Fraction(k + 1, 4)) for k in range(4)]
        assert IntervalSet.union_all(parts) == IntervalSet.full()

    @given(arc_strategy, st.fractions(min_value=-2, max_value=2))
    @settings(max_examples=60)
    def test_membership_consistent_with_rotation(self, arcs, x):
        # x lies in [lo, lo + w) mod 1 when x rotated by -lo lies in [0, w)
        inside = any(circle_point(x - lo) < w for lo, w in arcs)
        assert contains(random_interval_sets(arcs), x) == inside


class TestTextForm:
    """``to_text`` against per-endpoint ``Fraction`` text, and back."""

    @pytest.mark.parametrize("s, text", [
        (IntervalSet.empty(), ""),
        (IntervalSet.full(), "0/1,1/1\n"),
        (IntervalSet.arc(Fraction(-1, 10), Fraction(1, 10)), "0/1,1/10\n9/10,1/1\n"),
    ])
    def test_small_sets(self, s, text):
        assert_same_text(s.to_text(), text)
        assert_same_text(fraction_text(s), text)
        assert from_text(text) == s.arcs

    @given(iset_strategy)
    @settings(max_examples=60)
    def test_matches_fraction_text(self, s):
        assert_same_text(s.to_text(), fraction_text(s))

    @pytest.mark.parametrize("L", SCALES)
    @given(data=st.data())
    @settings(max_examples=40)
    def test_matches_fraction_text_at_width_edges(self, L, data):
        s = data.draw(sets_at_scale(L))
        assert s.L == L
        text = s.to_text()
        assert_same_text(text, fraction_text(s))
        assert from_text(text) == s.arcs

    @pytest.mark.parametrize("count", (8191, 8192, 8193))
    @pytest.mark.parametrize("L", (100_003, *SCALES))
    def test_block_edges(self, count, L):
        step = L // count
        s = IntervalSet.from_scaled(L, [(k * step + 1, k * step + 2) for k in range(count)])
        assert (s.L, s.arc_count) == (L, count)
        text = s.to_text()
        assert_same_text(text, fraction_text(s))
        assert from_text(text) == s.arcs

    def test_a_text_mismatch_names_its_first_line(self):
        want = "".join(f"{k}/10007,{k + 1}/10007\n" for k in range(10_000))
        got = want.replace("\n7000/10007,", "\n7000/10009,", 1)
        with pytest.raises(AssertionError, match=r"line 7000: '7000/10009,7001/10007\\n' "
                                                 r"!= '7000/10007,7001/10007\\n'"):
            assert_same_text(got, want)
        with pytest.raises(AssertionError, match="line 9999: '<end of text>'"):
            assert_same_text(want[:-len("9999/10007,10000/10007\n")], want)
        assert_same_text(want, want[:])

    def test_block_edge_at_a_smooth_scale(self):
        # the first TEXT_BLOCK + 1 arcs of E_16 of doubling at r = 1/12, on the
        # scale 786,420 = 2^2 3^2 5 17 257, which both residue tables reduce
        arcs = build_recurrence_set(2, 16, Fraction(1, 12)).set.scaled[:TEXT_BLOCK + 1]
        s = IntervalSet.from_scaled(786_420, arcs)
        assert (s.L, s.arc_count) == (786_420, TEXT_BLOCK + 1)
        text = s.to_text()
        assert_same_text(text, fraction_text(s))
        assert from_text(text) == s.arcs


class TestRadiusSequences:
    def test_power_law_exact(self):
        seq = PowerLaw(Fraction(1, 4), Fraction(1))
        assert seq.exact(8) == Fraction(1, 32)
        assert seq.approx(8) == pytest.approx(1 / 32)

    def test_power_law_non_integer_exponent_is_inexact(self):
        seq = PowerLaw(Fraction(1), Fraction(3, 2))
        assert seq.exact(2) is None
        assert seq.approx(4) == pytest.approx(1 / 8)

    def test_power_log_values(self):
        seq = PowerLog(Fraction(1), Fraction(2))
        # 1/(n (log n)^2), via mpmath for the reference value
        assert seq.approx(10) == pytest.approx(1 / (10 * math.log(10) ** 2))

    def test_explicit_table(self):
        seq = ExplicitTable((Fraction(1, 2), Fraction(1, 3)))
        assert seq.exact(1) == Fraction(1, 2)
        assert seq.exact(2) == Fraction(1, 3)

    def test_ear_radius_is_exact(self):
        seq = EarRadius(1)
        m = 32
        delta = seq.delta(m)
        assert delta == math.ceil(3 * math.log2(m))
        assert seq.exact(m) == delta / Fraction(m)
        assert seq.delta(1) == 1 and seq.describe() == "ear:1"

    @pytest.mark.parametrize("sigma", [Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)])
    def test_ear_radius_diverges_for_every_sigma(self, sigma):
        # Delta_m >= 1, so r_m >= 1/m: the harmonic series bounds sum r_m below
        seq = EarRadius(sigma)
        assert seq.summable() is False
        assert all(seq.exact(m) >= Fraction(1, m) for m in range(1, 200))
        assert all(seq.mp(m) == seq.exact(m) for m in (1, 7, 64))
