"""Monte Carlo and exact experiments realizing the zero-one laws as
desk-scale truncations.

Every experiment returns an ExperimentReport whose canonical JSON bytes are
a pure function of the configuration (master seed included, wall time
excluded), so reruns are byte-identical regardless of scheduling. Sample
points are derived from (master seed, sample index) alone.

Each Monte Carlo experiment is a reduction over blocks of samples from the
orbit backend that ``dynamics.orbit_backend`` picks, so every one runs on
every system: any hit (``rio``; stepped orbits stop at the first hit), hits
per n (the ``mu(E_n)`` scan), running minimum always below r_m
(eventually-always; stepped orbits stop at the first miss) and the running
minimum of n**(1/alpha) * d(T^n x, x) (Boshernitzan). A block holds about
``_BLOCK`` orbit entries, counted by what a row holds: the horizon for the
scan and Boshernitzan, which read matrices over n, and for the doubling
map's windows (read by one kernel) and irrational rotations; K d floats for
the float segments of beta-map and lattice orbits (``dynamics.ScreenedBlock``,
d coordinates), so a ``rio`` or eventually-always call of up to
_BLOCK // (K d) samples is one block. Blocks partition independent rows, so
their size moves no report byte. 2**15 keeps the window kernel's shift planes
above ~2,750 words, below which numpy's uint64 shifts cost 3x more a word, and
temporaries under ``_keep_freed_heap``'s 4 MB mmap threshold (glibc's 128 KB
default, which once sized it at 2**14, no longer applies). A call computes its
radius table once, and ``Radii`` decides every hit/miss against it; the
dichotomy decides both tables on each block, so its samples are drawn once.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import mpmath
import numpy as np

from .circle import EarRadius, RadiusSequence
from .dynamics import _W, DyadicOrbitView, orbit_backend
from .exact_sets import DEFAULT_ARC_BUDGET, build_ear_sets, ear_truncated_A
from .systems import SystemSpec

# bound here only for perfbench/tracing.py's probes, which raise on a missing name
from .circle import merge_scaled_arcs  # noqa: F401
from .dynamics import _exact_step, point_distance, sample_bits  # noqa: F401

SCHEMA_VERSION = 1
_Z95 = 1.959963984540054
_SLACK = 4  # uncertainty band (in 2**-64 ulps) of windowed distances
_REL = 2.0 ** -40  # stated bound on |RadiusSequence.approx(n) - r_n| / r_n
_TINY = 2.0 ** -1000  # below this, approx may be subnormal: no relative bound
_BLOCK = 1 << 15  # orbit entries (samples x horizon) per block: see the module docstring
_EAR_ONSET = 8  # the least m whose row counts toward prop_ear_bound_check's verdict


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _canonical(obj):
    """Make config/result values JSON-stable: Fractions and mpfs to strings,
    numpy scalars to Python numbers."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, mpmath.mpf):
        return mpmath.nstr(obj, 20)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@dataclass
class ExperimentReport:
    """Self-describing experiment output with deterministic serialization.

    ``runtime_seconds`` is informational only and deliberately excluded
    from the canonical bytes, which must be reproducible.
    """

    experiment: str
    config: dict
    results: dict
    verdict: str
    notes: tuple[str, ...] = ()
    runtime_seconds: float = 0.0

    @property
    def config_hash(self) -> str:
        blob = json.dumps(_canonical(self.config), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_json_bytes(self) -> bytes:
        return canonical_json({
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "config_hash": self.config_hash,
            "results": self.results,
            "verdict": self.verdict,
            "notes": self.notes,
        })


def canonical_json(obj) -> bytes:
    """The canonical bytes of every JSON file written: ``_canonical`` values,
    sorted keys, an indent of 2, no NaN, and a final newline."""
    return json.dumps(_canonical(obj), sort_keys=True, indent=2,
                      allow_nan=False).encode() + b"\n"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clipped to [0, 1].

    The end at an extreme count is the estimate itself, exactly: 0.0 at zero
    successes and 1.0 at all successes, where the float formula leaves ~1e-18.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z = _Z95
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def write_tsv(fileobj, columns: Sequence[str], rows: Sequence[Sequence]) -> int:
    """Plot-ready TSV: header then one row per line."""
    fileobj.write("\t".join(columns) + "\n")
    for row in rows:
        fileobj.write("\t".join(str(_canonical(v)) for v in row) + "\n")
    return len(rows)


# ---------------------------------------------------------------------------
# Radius thresholds and the one hit/miss decision
# ---------------------------------------------------------------------------

def scaled_radius(seq: RadiusSequence, n: int, S: int) -> int:
    """The largest integer below r_n * S, so that an integer D is below r_n * S
    exactly when D <= it: floor(r_n * S) for an irrational r_n. Integer
    arithmetic for a rational r_n, mpmath otherwise."""
    e = seq.exact(n)
    if e is not None:
        return (e.numerator * S - 1) // e.denominator
    with mpmath.workprec(S.bit_length() + 48):
        return int(mpmath.ceil(seq.mp(n) * S)) - 1


def _floor_scaled(x: float, S: int) -> int | float:
    """floor(x * S) exactly; inf stays inf."""
    if x == math.inf:
        return x
    num, den = x.as_integer_ratio()
    return num * S // den


class Radii:
    """r_n for n in [n_lo, n_hi] and the one decision d_n < r_n that every
    orbit backend makes against them. Entry i, of the list ``approx`` and of
    the arrays of ``bounds`` and ``band64``, is r_{n_lo + i}.

    A backend hands in an integer distance D over an integer scale S, within
    E / S of the true distance. Step one is a float band: ``approx`` is
    within a relative _REL of r_n (libm's error is below 1e-14), so D + E
    under the band's low end is a hit and D - E over its high end a miss.
    Step two, ``settle``, decides the few entries inside the band exactly:
    against ``scaled_radius`` when E leaves no doubt, else from exact floors
    of the distance at growing scales; mpmath runs only for those. Both
    stepped backends stream their distances into ``decide``; the shift
    windows read ``band64``. Each table counts its ``gray`` entries and the
    ``mp`` resolutions among them."""

    def __init__(self, seq: RadiusSequence, n_lo: int, n_hi: int):
        self.seq, self.n_lo, self.n_hi = seq, n_lo, n_hi
        self.gray = self.mp = 0
        self._bands: dict[tuple[int, int], tuple[list, list]] = {}

    @cached_property
    def approx(self) -> list[float]:
        return [self.seq.approx(n) for n in range(self.n_lo, self.n_hi + 1)]

    @cached_property
    def tail_bound(self) -> float:
        """The easy Borel-Cantelli bound: the sum of min(1, 2 r_n), added left
        to right (``sum`` compensates its floats from Python 3.12 on)."""
        return float(np.add.accumulate(np.minimum(2.0 * np.array(self.approx), 1.0))[-1])

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Floats lo_i < r_n < hi_i: approx widened by 2 _REL, which covers
        _REL and the rounding of the band itself (IEEE products, the same
        floats in an array as one by one). Radii too small for a relative
        bound (subnormal or 0) get the whole line as their band."""
        a = np.array(self.approx)
        tiny = a < _TINY
        return (np.where(tiny, 0.0, a * (1 - 2 * _REL)),
                np.where(tiny, math.inf, a * (1 + 2 * _REL)))

    @cached_property
    def band64(self) -> tuple[np.ndarray, np.ndarray]:
        """The band at S = 2**64, widened by the windows' _SLACK, as uint64:
        a 64-bit distance below lo is surely < r_n, one above hi surely not."""
        lo, hi = (np.floor(b * 2.0 ** _W) for b in self.bounds)
        top = np.nextafter(2.0 ** _W, 0)  # the largest float below 2**64
        return (np.clip(lo - _SLACK, 0, top).astype(np.uint64),
                np.clip(hi + _SLACK, 0, top).astype(np.uint64))

    def band(self, S: int, E: int = 0) -> tuple[list, list]:
        """floor(lo_i * S) - E and floor(hi_i * S) + E, built once per
        (S, E): an integer within E of d * S that is below the first has
        d < r_n, one above the second has not."""
        if (band := self._bands.get((S, E))) is None:
            lo, hi = ([_floor_scaled(x, S) for x in b.tolist()] for b in self.bounds)
            band = self._bands[S, E] = ([v - E for v in lo], [v + E for v in hi]) if E else (lo, hi)
        return band

    def decide(self, ds: Iterable[int], S: int, E: int = 0,
               floors: Callable[[int, int], Iterable] | None = None) -> Iterator[bool]:
        """Lazily, d_n < r_n for n = n_lo, n_lo + 1, ... and the integer
        distances D of ``ds``, each within E of S * d_n. When E > 0, an entry
        inside the band is settled from ``floors(n, D)``."""
        lo, hi = self.band(S, E)
        for i, D in enumerate(ds):  # lo <= hi: a miss takes one comparison
            yield D <= hi[i] and (D < lo[i] or self.settle(
                i, D, S, E, floors(self.n_lo + i, D) if E else ()))

    def settle(self, i: int, D: int, S: int, E: int = 0,
               floors: Iterable[Callable[[int], int]] = ()) -> bool:
        """One entry inside the band, counted and decided: by ``resolve`` if
        E leaves no doubt (always when D is exact, E = 0), else exactly from
        ``floors``, functions S' -> floor(d * S') of distances d one of
        which is below r_n exactly when the entry is a hit."""
        self.gray += 1
        hit = self.resolve(i, D, S, E)
        return hit if hit is not None else any(self._floor_below(i, f) for f in floors)

    def resolve(self, i: int, D: int, S: int, E: int = 0) -> bool | None:
        """d < r_n exactly (n = n_lo + i) for a distance d within E / S of
        D / S: None when the error bound straddles r_n."""
        n = self.n_lo + i
        if self.seq.exact(n) is None:
            self.mp += 1
        t = scaled_radius(self.seq, n, S)
        return True if D + E <= t else False if D - E > t else None

    def _floor_below(self, i: int, floor_at: Callable[[int], int]) -> bool:
        """d < r_n from floor_at(S) = floor(d * S): at S = r_n's denominator
        if r_n is rational, else at S = 2**64, 2**128, 2**256, ... until
        floor(d * S) and floor(r_n * S) differ, which ends unless d = r_n."""
        n = self.n_lo + i
        r = self.seq.exact(n)
        if r is not None:
            return floor_at(r.denominator) < r.numerator
        S = 1 << 64
        while (F := floor_at(S)) == (t := scaled_radius(self.seq, n, S)):
            S *= S
        return F < t


def _sample_start(start, master_seed: int, index: int):
    """Sample ``index``'s orbit, ``start`` being ``dynamics.orbit_backend``'s.
    Every Monte Carlo sample is drawn here, from (master seed, index) alone,
    so this is where perfbench counts ``experiments.samples``."""
    return start(master_seed, index)


@cache
def _keep_freed_heap() -> None:
    """Keep freed heap memory for the next block. glibc hands the top of the
    heap back once 128-270 KB of it is free, so the ~120 KB numpy temporaries
    of each block could fault their pages in afresh (5,000 minor faults an
    orbit scan), as the layout of earlier allocations fell: on the length of
    the paths involved, for one. Arrays below 4 MB now come from the heap,
    which keeps up to 8 MB free."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _sample_blocks(sys: SystemSpec, horizon: int, M: int, master_seed: int,
                   dense: bool = False):
    """Samples 0..M-1 of the orbit backend of ``sys`` over ``horizon`` steps,
    in the fewest blocks of at most max(1, _BLOCK // width) orbits, sized
    within one of each other (no short remainder): width is the horizon for
    a call that reads a matrix over n (``dense``) and for doubling samples
    (ints, one view a block), else the backend's memory per row,
    ``row_entries``. 2**15 keeps the kernel's planes above numpy's
    short-loop length and temporaries under the 4 MB mmap threshold."""
    _keep_freed_heap()
    start = orbit_backend(sys, horizon)
    samples = (_sample_start(start, master_seed, i) for i in range(M))
    for first in islice(samples, 1):  # M = 0 draws no block
        bits = isinstance(first, int)
        count = -(-M // max(1, _BLOCK // (horizon if dense or bits else first.row_entries)))
        rest = chain([first], samples)
        for b in range(count):
            block = list(islice(rest, M // count + (b < M % count)))
            yield DyadicOrbitView(block, horizon + _W, horizon) if bits else first.block(block)


# ---------------------------------------------------------------------------
# Truncated R_io (infinitely-often returns)
# ---------------------------------------------------------------------------

def _rio_estimates(sys: SystemSpec, tables: Sequence[Radii], M: int, master_seed: int
                   ) -> list[tuple[int, float, tuple[float, float]]]:
    """(hits, estimate, Wilson interval) of each radius table (all over one
    index range [k, N]), from one pass over the samples."""
    if M < 100:
        raise ValueError("need at least 100 samples")
    hits = [0] * len(tables)
    for block in _sample_blocks(sys, tables[0].n_hi, M, master_seed):
        for j, hit in enumerate(block.any_below_each(tables)):
            hits[j] += int(hit.sum())
    return [(h, h / M, wilson_interval(h, M)) for h in hits]


def recurrence_measure_scan(sys: SystemSpec, seq: RadiusSequence, n_max: int,
                            M: int, master_seed: int = 0) -> ExperimentReport:
    """Per-index Monte Carlo estimates of mu(E_n) = mu({x : d(T^n x, x) < r_n})
    for every n <= n_max, from one orbit pass per sampled point."""
    if M < 100:
        raise ValueError("need at least 100 samples")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t0 = time.monotonic()
    radii = Radii(seq, 1, n_max)
    hits = np.zeros(n_max, dtype=np.int64)
    for block in _sample_blocks(sys, n_max, M, master_seed, dense=True):
        hits += block.below(radii).sum(axis=0)
    rows = []
    for n in range(1, n_max + 1):
        lo, hi = wilson_interval(int(hits[n - 1]), M)
        rows.append({"n": n, "r": radii.approx[n - 1], "hits": int(hits[n - 1]),
                     "estimate": int(hits[n - 1]) / M, "ci_low": lo, "ci_high": hi})
    return ExperimentReport(
        experiment="recurrence_measure_scan",
        config={"system": sys.describe(), "radius": seq.describe(),
                "n_max": n_max, "samples": M, "seed": master_seed},
        results={"table": rows},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )


def rio_truncated_measure(sys: SystemSpec, seq: RadiusSequence, k: int, N: int,
                          M: int, master_seed: int = 0) -> ExperimentReport:
    """Monte Carlo estimate of mu({x : some n in [k, N] has
    d(T^n x, x) < r_n}), the window truncation of the infinitely-often set."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    t0 = time.monotonic()
    radii = Radii(seq, k, N)
    [(hits, est, ci)] = _rio_estimates(sys, [radii], M, master_seed)
    return ExperimentReport(
        experiment="rio_truncated_measure",
        config={"system": sys.describe(), "radius": seq.describe(),
                "k": k, "N": N, "samples": M, "master_seed": master_seed},
        results={"hits": hits, "estimate": est,
                 "ci_low": ci[0], "ci_high": ci[1],
                 "tail_bound": radii.tail_bound},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )


def rio_dichotomy(sys: SystemSpec, seq_conv: RadiusSequence, seq_div: RadiusSequence,
                  k: int, N: int, M: int, master_seed: int = 0) -> ExperimentReport:
    """Paired comparison of a summable and a non-summable radius sequence on
    the same sample points, drawn once; reports both estimates and their
    separation."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    t0 = time.monotonic()
    conv = Radii(seq_conv, k, N)
    (hits_c, est_c, ci_c), (hits_d, est_d, ci_d) = _rio_estimates(
        sys, [conv, Radii(seq_div, k, N)], M, master_seed)
    sep = est_d - est_c
    tb = conv.tail_bound
    ci_width = ci_c[1] - ci_c[0]
    conv_bounded = est_c <= tb + 3 * ci_width
    return ExperimentReport(
        experiment="rio_dichotomy",
        config={"system": sys.describe(), "radius_convergent": seq_conv.describe(),
                "radius_divergent": seq_div.describe(),
                "k": k, "N": N, "samples": M, "master_seed": master_seed},
        results={"estimate_convergent": est_c, "ci_convergent": list(ci_c),
                 "estimate_divergent": est_d, "ci_divergent": list(ci_d),
                 "separation": sep, "tail_bound_convergent": tb,
                 "convergent_within_tail": conv_bounded},
        verdict="pass" if conv_bounded else "fail",
        runtime_seconds=time.monotonic() - t0,
    )


# ---------------------------------------------------------------------------
# Truncated eventually-always sets
# ---------------------------------------------------------------------------

def ear_truncated_measure(sys: SystemSpec, seq: RadiusSequence, n0: int,
                          M_horizon: int, samples: int,
                          master_seed: int = 0) -> ExperimentReport:
    """Monte Carlo estimate of mu(intersection of C_m over m in [n0, M]):
    the fraction of points whose orbit segment of every length m in the
    window comes within r_m of the start."""
    if not 1 <= n0 <= M_horizon:
        raise ValueError("need 1 <= n0 <= M_horizon")
    if samples < 1:
        raise ValueError("need at least 1 sample")
    t0 = time.monotonic()
    radii = Radii(seq, n0, M_horizon)
    hits = sum(int(block.all_min_below(radii).sum())
               for block in _sample_blocks(sys, M_horizon, samples, master_seed))
    est = hits / samples
    ci = wilson_interval(hits, samples)
    return ExperimentReport(
        experiment="ear_truncated_measure",
        config={"system": sys.describe(), "radius": seq.describe(),
                "n0": n0, "M_horizon": M_horizon, "samples": samples,
                "master_seed": master_seed},
        results={"hits": hits, "estimate": est, "ci_low": ci[0], "ci_high": ci[1]},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )


def ear_exact(a: int, seq: RadiusSequence, n0: int, M_horizon: int,
              arc_budget: int = DEFAULT_ARC_BUDGET) -> ExperimentReport:
    """Exact mu(intersection of C_m, m in [n0, M]) for T x = a x mod 1."""
    t0 = time.monotonic()
    res = ear_truncated_A(a, n0, M_horizon, seq, materialize=False,
                          arc_budget=arc_budget)
    return ExperimentReport(
        experiment="ear_exact",
        config={"system": f"circle:{a}", "radius": seq.describe(),
                "n0": n0, "M_horizon": M_horizon},
        results={"measure": res.measure, "measure_float": float(res.measure),
                 "profile": [[m, v] for m, v in res.profile]},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )


def prop_ear_bound_check(sigma, m_grid: Sequence[int], a: int = 2,
                         arc_budget: int = DEFAULT_ARC_BUDGET) -> ExperimentReport:
    """Exact mu(complement of C_m) against eps_m = m^-(1+sigma) for the
    radius family r_m = Delta_m / m with Delta_m ~ (2+sigma) log2 m.

    The comparison is asymptotic; failures below _EAR_ONSET are recorded
    but only m >= _EAR_ONSET counts toward the verdict. It is exact for
    every sigma: with 1 + sigma = u/q, mu <= m^-(u/q) iff mu^q <= m^-u.
    """
    t0 = time.monotonic()
    sigma = Fraction(sigma)
    u, q = (1 + sigma).numerator, (1 + sigma).denominator
    seq = EarRadius(sigma)
    rows = []
    all_ok_past_onset = True
    for m in m_grid:
        delta = seq.delta(m)
        hyp_ok = Fraction(m) ** (sigma + 2) / delta * Fraction(1, 2) ** int(delta) <= 1
        cover = build_ear_sets(a, m, seq, materialize=False, arc_budget=arc_budget)
        comp = 1 - cover.measure
        bound_ok = comp ** q <= Fraction(m) ** -u
        eps_f = float(Fraction(m) ** -u) if q == 1 else float(m) ** (-(1.0 + float(sigma)))
        if m >= _EAR_ONSET and not bound_ok:
            all_ok_past_onset = False
        rows.append({"m": m, "delta": delta, "hypothesis_ok": bool(hyp_ok),
                     "complement_measure": comp, "epsilon": eps_f,
                     "bound_ok": bool(bound_ok)})
    return ExperimentReport(
        experiment="prop_ear_bound_check",
        config={"system": f"circle:{a}", "sigma": sigma,
                "m_grid": list(m_grid), "onset": _EAR_ONSET},
        results={"table": rows},
        verdict="pass" if all_ok_past_onset else "fail",
        runtime_seconds=time.monotonic() - t0,
    )


# ---------------------------------------------------------------------------
# Boshernitzan statistic scan
# ---------------------------------------------------------------------------

def boshernitzan_scan(sys: SystemSpec, alphas: Sequence[float],
                      checkpoints: Sequence[int], M: int,
                      master_seed: int = 0) -> ExperimentReport:
    """Distribution of min over n <= N of n**(1/alpha) * d(T^n x, x) at each
    checkpoint N, for M Lebesgue-sampled points; the reported medians are
    the lower medians."""
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha must be positive")
    labels = [f"{a:g}" for a in alphas]  # the report's keys
    if len(set(labels)) < len(labels):
        raise ValueError(f"alphas share the label {max(labels, key=labels.count)}")
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("need checkpoints, each >= 1")
    if M < 1:
        raise ValueError("need at least 1 sample")
    Nmax = checkpoints[-1]
    t0 = time.monotonic()
    stats = np.empty((len(alphas), len(checkpoints), M))
    segments = [0] + checkpoints[:-1]  # n in (previous checkpoint, checkpoint]
    lo = 0
    for block in _sample_blocks(sys, Nmax, M, master_seed, dense=True):
        if lo == 0:  # the orbit class's own power convention
            powers = [block.powers(1.0 / a, Nmax) for a in alphas]
        d = block.distances(Nmax)
        for ai, w in enumerate(powers):
            seg = np.minimum.reduceat(w * d, segments, axis=1)
            stats[ai, :, lo:lo + len(d)] = np.minimum.accumulate(seg, axis=1).T
        lo += len(d)
    lower_medians = np.sort(stats, axis=2)[:, :, (M - 1) // 2]
    return ExperimentReport(
        experiment="boshernitzan_scan",
        config={"system": sys.describe(), "alphas": [float(a) for a in alphas],
                "checkpoints": checkpoints, "samples": M,
                "master_seed": master_seed, "weighted": False},
        results={"checkpoints": checkpoints,
                 "medians": {a: [float(v) for v in m] for a, m in zip(labels, lower_medians)}},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )
