"""The radius tables of ``Radii`` bit for bit against the per-entry formulas
they are built from: one float conversion of each parameter per sequence
and bands built on arrays must give the floats and integers that one entry
at a time gives."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from recurlab.circle import EarRadius, ExplicitTable, PowerLaw, PowerLog
from recurlab.cli import parse_sequence
from recurlab.experiments import _REL, _SLACK, _TINY, Radii

SUBNORMAL = Fraction(5, 1 << 1070)  # 5 * 2**-1070 is a subnormal float
TABLE = (Fraction(1, 3), Fraction(0), SUBNORMAL, Fraction(1, 1 << 1000),
         Fraction(3, 1 << 1001), Fraction(1, 1 << 1080), Fraction(7, 10))

CASES = [
    (PowerLaw(Fraction(1), Fraction(1)), 1, 1500),
    (PowerLaw(Fraction(1, 2), Fraction(2)), 1, 1500),
    (PowerLaw(Fraction(3), Fraction(1, 2)), 1, 1500),
    (PowerLaw(Fraction(1, 7), Fraction(3, 2)), 5, 1500),
    (PowerLog(Fraction(1), Fraction(0)), 1, 1500),
    (PowerLog(Fraction(1, 3), Fraction(2)), 1, 1500),
    (ExplicitTable(TABLE), 1, len(TABLE)),
    (parse_sequence("ear:1"), 1, 1500),
]


def entry(seq, n: int) -> float:
    """r_n as a float, one entry at a time, each parameter converted anew."""
    if isinstance(seq, PowerLaw):
        return float(seq.kappa) * n ** (-float(seq.gamma))
    if isinstance(seq, PowerLog):
        if n <= 2:
            return float(seq.kappa) / n
        return float(seq.kappa) / (n * math.log(n) ** float(seq.theta))
    if isinstance(seq, ExplicitTable):
        return float(seq.values[n - 1])
    assert isinstance(seq, EarRadius)
    d = 1 if n == 1 else max(math.ceil(float(2 + seq.sigma) * math.log2(n)), 1)
    return float(d) / n


def entry_bounds(a: float) -> tuple[float, float]:
    if a < _TINY:
        return 0.0, math.inf
    return a * (1 - 2 * _REL), a * (1 + 2 * _REL)


def floor_scaled(x: float, S: int) -> int | float:
    if x == math.inf:
        return x
    num, den = x.as_integer_ratio()
    return num * S // den


def hexes(xs) -> list[str]:
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("seq, n_lo, n_hi", CASES, ids=[
    "powerlaw:1,1", "powerlaw:1/2,2", "powerlaw:3,1/2", "powerlaw:1/7,3/2",
    "powerlog:1,0", "powerlog:1/3,2", "table", "ear:1"])
def test_tables_equal_the_per_entry_formulas(seq, n_lo, n_hi):
    radii = Radii(seq, n_lo, n_hi)
    approx = [entry(seq, n) for n in range(n_lo, n_hi + 1)]
    assert all(type(a) is float for a in radii.approx)
    assert hexes(radii.approx) == hexes(approx)
    left_fold = reduce(float.__add__, (min(1.0, 2.0 * r) for r in approx), 0.0)
    assert radii.tail_bound.hex() == left_fold.hex()
    lo, hi = zip(*map(entry_bounds, approx))
    assert hexes(radii.bounds[0]) == hexes(lo)
    assert hexes(radii.bounds[1]) == hexes(hi)
    top = np.nextafter(2.0 ** 64, 0)
    for got, want, pad in zip(radii.band64, (lo, hi), (-_SLACK, _SLACK)):
        want64 = np.clip(np.floor(np.array(want) * 2.0 ** 64) + pad, 0, top).astype(np.uint64)
        assert got.dtype == np.uint64 and got.tobytes() == want64.tobytes()
    for S in (1 << 64, 1 << 300):
        for got, want in zip(radii.band(S), (lo, hi)):
            assert got == [floor_scaled(x, S) for x in want]
            assert all(type(x) is int or x == math.inf for x in got)


def test_the_table_reaches_the_tiny_rule():
    # 0, the subnormal and 2**-1080 (0.0 as a float) take the whole line;
    # 2**-1000 and above do not
    radii = Radii(ExplicitTable(TABLE), 1, len(TABLE))
    assert radii.approx[2] == float(SUBNORMAL) and 0 < radii.approx[2] < 2.0 ** -1022
    lo, hi = radii.bounds
    assert [x == math.inf for x in hi] == [False, True, True, False, False, True, False]
    assert list(lo[1:3]) == [0.0, 0.0]
