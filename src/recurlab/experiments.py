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
``_BLOCK`` orbit entries; on the doubling map it is read by one window
kernel. A call computes its radius table once.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import mpmath
import numpy as np

from .circle import RadiusSequence, merge_scaled_arcs, scaled_measure
from .dynamics import orbit_backend
# bound here only for perfbench/tracing.py's probes, which raise on a missing name
from .dynamics import _exact_step, point_distance, sample_bits  # noqa: F401
from .errors import ArcBudgetExceeded
from .exact_sets import DEFAULT_ARC_BUDGET, _fixed_point_count, ear_truncated_A
from .systems import SystemSpec

SCHEMA_VERSION = 1
_Z95 = 1.959963984540054
_W64 = 64
_MAX64 = (1 << _W64) - 1
_SLACK = 4  # uncertainty band (in 2**-64 ulps) of windowed distances
_BLOCK = 1 << 14  # orbit entries (samples x horizon) per block of samples


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

    def payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": _canonical(self.config),
            "config_hash": self.config_hash,
            "results": _canonical(self.results),
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.payload(), sort_keys=True, indent=2,
                          allow_nan=False).encode() + b"\n"


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clipped to [0, 1].

    The end at an extreme count is the estimate itself, exactly: 0.0 at zero
    successes and 1.0 at all successes, where the float formula leaves ~1e-18.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
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
# Radius thresholds
# ---------------------------------------------------------------------------

def scaled_radius(seq: RadiusSequence, n: int, bits: int) -> int:
    """floor(r_n * 2**bits): exact for rational radii, high-precision otherwise."""
    e = seq.exact(n)
    if e is not None:
        return (e.numerator << bits) // e.denominator
    with mpmath.workprec(bits + 48):
        return int(mpmath.floor(seq.mp(n) * mpmath.mpf(2) ** bits))


class Radii:
    """r_n for n in [n_lo, n_hi] in the forms the orbit backends compare
    against; each form is computed once per call, when a backend first
    reads it. List entry i is r_{n_lo + i}."""

    def __init__(self, seq: RadiusSequence, n_lo: int, n_hi: int):
        self.seq, self.n_lo, self.n_hi = seq, n_lo, n_hi
        self._ceil: dict[int, list[int | None]] = {}

    @cached_property
    def approx(self) -> list[float]:
        return [self.seq.approx(n) for n in range(self.n_lo, self.n_hi + 1)]

    @cached_property
    def exact(self) -> list[Fraction | None]:
        return [self.seq.exact(n) for n in range(self.n_lo, self.n_hi + 1)]

    @cached_property
    def band64(self) -> tuple[np.ndarray, np.ndarray]:
        """uint64 (lo, hi) around floor(r_n * 2**64): a 64-bit distance
        (accurate to +-2) below lo is surely < r_n, one above hi surely not."""
        thr = [min(scaled_radius(self.seq, n, _W64), _MAX64)
               for n in range(self.n_lo, self.n_hi + 1)]
        return (np.array([max(t - _SLACK, 0) for t in thr], dtype=np.uint64),
                np.array([min(t + _SLACK, _MAX64) for t in thr], dtype=np.uint64))

    def ceil_scaled(self, S: int) -> list[int | None]:
        """ceil(r_n * S) for a rational r_n, None for an irrational one: an
        integer D is below r_n * S exactly when it is below ceil(r_n * S)."""
        if S not in self._ceil:
            self._ceil[S] = [None if r is None else -(-r.numerator * S // r.denominator)
                             for r in self.exact]
        return self._ceil[S]

    def at(self, n: int, bits: int) -> Fraction:
        """r_n exactly, or floor(r_n * 2**bits) / 2**bits when irrational."""
        r = self.seq.exact(n)
        return r if r is not None else Fraction(scaled_radius(self.seq, n, bits), 1 << bits)


def _sample_start(start, master_seed: int, index: int):
    """Sample ``index``'s orbit, ``start`` being ``dynamics.orbit_backend``'s.
    Every Monte Carlo sample is drawn here, from (master seed, index) alone,
    so this is where perfbench counts ``experiments.samples``."""
    return start(master_seed, index)


def _sample_blocks(sys: SystemSpec, horizon: int, M: int, master_seed: int):
    """Samples 0..M-1 of the orbit backend of ``sys`` over ``horizon`` steps,
    in blocks of max(1, _BLOCK // horizon) orbits."""
    start = orbit_backend(sys, horizon)
    rows = max(1, _BLOCK // horizon)
    for lo in range(0, M, rows):
        orbits = [_sample_start(start, master_seed, i) for i in range(lo, min(M, lo + rows))]
        yield orbits[0].block(orbits)


# ---------------------------------------------------------------------------
# Truncated R_io (infinitely-often returns)
# ---------------------------------------------------------------------------

def _rio_estimate(sys: SystemSpec, seq: RadiusSequence, k: int, N: int, M: int,
                  master_seed: int) -> tuple[int, float, tuple[float, float]]:
    radii = Radii(seq, k, N)
    hits = sum(int(block.any_below(radii).sum())
               for block in _sample_blocks(sys, N, M, master_seed))
    return hits, hits / M, wilson_interval(hits, M)


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
    for block in _sample_blocks(sys, n_max, M, master_seed):
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


def tail_bound(seq: RadiusSequence, k: int, N: int) -> float:
    """The easy Borel-Cantelli upper bound sum over n in [k, N] of min(1, 2 r_n)."""
    return float(sum(min(1.0, 2.0 * seq.approx(n)) for n in range(k, N + 1)))


def rio_truncated_measure(sys: SystemSpec, seq: RadiusSequence, k: int, N: int,
                          M: int, master_seed: int = 0) -> ExperimentReport:
    """Monte Carlo estimate of mu({x : some n in [k, N] has
    d(T^n x, x) < r_n}), the window truncation of the infinitely-often set."""
    if M < 100:
        raise ValueError("need at least 100 samples")
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    t0 = time.monotonic()
    hits, est, ci = _rio_estimate(sys, seq, k, N, M, master_seed)
    return ExperimentReport(
        experiment="rio_truncated_measure",
        config={"system": sys.describe(), "radius": seq.describe(),
                "k": k, "N": N, "samples": M, "master_seed": master_seed},
        results={"hits": hits, "estimate": est,
                 "ci_low": ci[0], "ci_high": ci[1],
                 "tail_bound": tail_bound(seq, k, N)},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )


def rio_truncated_exact(a: int, seq: RadiusSequence, k: int, N: int,
                        arc_budget: int = DEFAULT_ARC_BUDGET) -> Fraction:
    """Exact mu(union of E_n over n in [k, N]) for T x = a x mod 1, as the
    small-horizon cross-check of the Monte Carlo estimator."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    counts = [_fixed_point_count(a, n) for n in range(k, N + 1)]
    if sum(counts) > arc_budget:
        raise ArcBudgetExceeded(sum(counts), arc_budget)
    radii = []
    for n in range(k, N + 1):
        r = seq.exact(n)
        if r is None:
            raise ValueError(f"{seq.describe()} has no exact value at n={n}")
        radii.append(r)
    # arc endpoints of E_n have denominator den(r_n) * M_n, so the common
    # scale must be divisible by every such product
    L = math.lcm(*(r.denominator * Mn for Mn, r in zip(counts, radii)))
    arcs: list[tuple[int, int]] = []
    for Mn, r in zip(counts, radii):
        if r == 0:
            continue
        w = r.numerator * (L // (r.denominator * Mn))
        sp = L // Mn
        arcs.extend((c * sp - w, c * sp + w) for c in range(Mn))
    merged = merge_scaled_arcs(arcs, L)
    return Fraction(scaled_measure(merged), L)


def rio_dichotomy(sys: SystemSpec, seq_conv: RadiusSequence, seq_div: RadiusSequence,
                  k: int, N: int, M: int, master_seed: int = 0) -> ExperimentReport:
    """Paired comparison of a summable and a non-summable radius sequence on
    the same sample points; reports both estimates and their separation."""
    t0 = time.monotonic()
    hits_c, est_c, ci_c = _rio_estimate(sys, seq_conv, k, N, M, master_seed)
    hits_d, est_d, ci_d = _rio_estimate(sys, seq_div, k, N, M, master_seed)
    sep = est_d - est_c
    tb = tail_bound(seq_conv, k, N)
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


def theoremA_rate_scan(sys: SystemSpec, thetas: Sequence[float], kappa, k: int,
                       N: int, M: int, master_seed: int = 0) -> ExperimentReport:
    """Truncated infinitely-often measure across a grid of log exponents.

    theta < 1/2 is the proven full-measure regime; theta > 1 is summable
    (tail-bounded); the band [1/2, 1] is left open by the theory and gets
    no verdict.
    """
    from .circle import PowerLog

    t0 = time.monotonic()
    rows = []
    for theta in thetas:
        seq = PowerLog(Fraction(kappa), Fraction(theta).limit_denominator(10 ** 6))
        hits, est, ci = _rio_estimate(sys, seq, k, N, M, master_seed)
        if theta < 0.5:
            regime = "predicted-full"
        elif theta <= 1.0:
            regime = "open"
        else:
            regime = "summable-tail"
        rows.append({"theta": float(theta), "estimate": est,
                     "ci_low": ci[0], "ci_high": ci[1],
                     "tail_bound": tail_bound(seq, k, N), "regime": regime})
    return ExperimentReport(
        experiment="theoremA_rate_scan",
        config={"system": sys.describe(), "thetas": [float(t) for t in thetas],
                "kappa": Fraction(kappa), "k": k, "N": N, "samples": M,
                "master_seed": master_seed},
        results={"table": rows},
        verdict="reported",
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
                         onset: int = 8,
                         arc_budget: int = DEFAULT_ARC_BUDGET) -> ExperimentReport:
    """Exact mu(complement of C_m) against eps_m = m^-(1+sigma) for the
    radius family r_m = Delta_m / m with Delta_m ~ (2+sigma) log2 m.

    The comparison is asymptotic; failures below ``onset`` are recorded but
    only m >= onset counts toward the verdict.
    """
    from .circle import EarRadius, ear_log2_delta
    from .exact_sets import build_ear_sets

    t0 = time.monotonic()
    sigma = Fraction(sigma)
    seq = EarRadius(ear_log2_delta(sigma), lambda d: Fraction(1),
                    label=f"ear:log2,sigma={sigma}")
    rows = []
    all_ok_past_onset = True
    for m in m_grid:
        delta = seq.delta(m)
        hyp_ok = Fraction(m) ** (sigma + 2) / delta * Fraction(1, 2) ** int(delta) <= 1
        cover = build_ear_sets(a, m, seq, materialize=False, arc_budget=arc_budget)
        comp = 1 - cover.measure
        if sigma.denominator == 1:
            eps = Fraction(1, m ** (1 + int(sigma)))
            bound_ok = comp <= eps  # exact comparison
            eps_f = float(eps)
        else:
            eps_f = float(m) ** (-(1.0 + float(sigma)))
            bound_ok = float(comp) <= eps_f
        if m >= onset and not bound_ok:
            all_ok_past_onset = False
        rows.append({"m": m, "delta": delta, "hypothesis_ok": bool(hyp_ok),
                     "complement_measure": comp, "epsilon": eps_f,
                     "bound_ok": bool(bound_ok)})
    return ExperimentReport(
        experiment="prop_ear_bound_check",
        config={"system": f"circle:{a}", "sigma": sigma,
                "m_grid": list(m_grid), "onset": onset},
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
    for block in _sample_blocks(sys, Nmax, M, master_seed):
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
                 "medians": {f"{alpha:g}": [float(v) for v in lower_medians[ai]]
                             for ai, alpha in enumerate(alphas)}},
        verdict="reported",
        runtime_seconds=time.monotonic() - t0,
    )
