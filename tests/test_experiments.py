"""Seeded Monte Carlo experiments: determinism, exact cross-checks, reports."""

import ctypes
import json
import math
import resource
import sys
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab.circle import ExplicitTable, IntervalSet, PowerLaw, PowerLog
from recurlab import experiments
from recurlab.cli import parse_system
from recurlab.dynamics import DyadicOrbitView, orbit_backend, sample_bits
from recurlab.exact_sets import build_recurrence_set
from recurlab.experiments import (
    ExperimentReport,
    Radii,
    boshernitzan_scan,
    ear_exact,
    ear_truncated_measure,
    prop_ear_bound_check,
    recurrence_measure_scan,
    rio_dichotomy,
    rio_truncated_measure,
    wilson_interval,
    write_tsv,
)
from recurlab.systems import BetaMap, IntegerCircleMap, Rotation, ToralLinear
from oracles import ExactOrbit

DOUBLING = IntegerCircleMap(2)
QUARTER = PowerLaw(Fraction(1, 4), Fraction(1))


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 100)
        assert lo < 0.37 < hi

    def test_clipped_to_unit_interval(self):
        assert wilson_interval(0, 50)[0] <= 1e-12
        assert wilson_interval(50, 50)[1] >= 1 - 1e-12

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
    @settings(max_examples=80)
    def test_interval_valid(self, k, n):
        if k > n:
            k = n
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n + 1e-12
        assert k / n - 1e-12 <= hi <= 1.0

    def test_extreme_counts_give_exact_ends(self):
        for n in range(1, 501):
            assert wilson_interval(0, n)[0] == 0.0
            assert wilson_interval(n, n)[1] == 1.0
            for k in (0, 1, n // 2, n - 1, n):
                lo, hi = wilson_interval(k, n)
                assert lo <= k / n <= hi

    def test_width_shrinks_with_samples(self):
        w_small = wilson_interval(10, 20)
        w_big = wilson_interval(1000, 2000)
        assert (w_big[1] - w_big[0]) < (w_small[1] - w_small[0])


class TestReportSerialization:
    def make_report(self):
        return rio_truncated_measure(DOUBLING, QUARTER, 1, 10, 200, master_seed=9)

    def test_byte_identical_rerun(self):
        assert self.make_report().to_json_bytes() == self.make_report().to_json_bytes()

    def test_runtime_excluded_from_bytes(self):
        a, b = self.make_report(), self.make_report()
        object.__setattr__ if False else setattr(b, "runtime_seconds", 99.0)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_config_hash_sensitive_to_config(self):
        a = rio_truncated_measure(DOUBLING, QUARTER, 1, 10, 200, master_seed=9)
        b = rio_truncated_measure(DOUBLING, QUARTER, 1, 10, 200, master_seed=10)
        assert a.config_hash != b.config_hash

    def test_payload_is_strict_json(self):
        payload = json.loads(self.make_report().to_json_bytes())
        assert payload["experiment"] == "rio_truncated_measure"
        assert payload["schema"] == 1

    def test_fractions_rendered_as_strings(self):
        rep = ExperimentReport(
            experiment="x", config={"r": Fraction(1, 3)},
            results={"v": Fraction(2, 7)}, verdict="reported", runtime_seconds=0.0,
        )
        payload = json.loads(rep.to_json_bytes())
        assert payload["config"]["r"] == "1/3"
        assert payload["results"]["v"] == "2/7"

    def test_non_finite_floats_become_null(self):
        rep = ExperimentReport(
            experiment="x", config={}, results={"v": math.nan, "w": math.inf},
            verdict="reported", runtime_seconds=0.0,
        )
        payload = json.loads(rep.to_json_bytes())
        assert payload["results"]["v"] is None
        assert payload["results"]["w"] is None

    def test_tsv_writer(self, tmp_path):
        out = tmp_path / "t.tsv"
        with out.open("w") as fh:
            rows = write_tsv(fh, ["n", "value"], [[1, Fraction(1, 2)], [2, 0.25]])
        lines = out.read_text().strip().splitlines()
        assert rows == 2
        assert lines[0] == "n\tvalue"
        assert lines[1] == "1\t1/2"


class TestTruncatedInfinitelyOften:
    def test_monte_carlo_matches_exact(self):
        sets = [build_recurrence_set(2, n, QUARTER.exact(n)).set for n in range(1, 13)]
        exact = float(IntervalSet.union_all(sets).measure)
        rep = rio_truncated_measure(DOUBLING, QUARTER, 1, 12, 3000, master_seed=11)
        assert rep.results["ci_low"] <= exact <= rep.results["ci_high"]

    def test_estimate_below_tail_bound_when_meaningful(self):
        seq = PowerLaw(Fraction(1, 8), Fraction(2))
        rep = rio_truncated_measure(DOUBLING, seq, 5, 60, 2000, master_seed=2)
        tb = Radii(seq, 5, 60).tail_bound
        width = rep.results["ci_high"] - rep.results["ci_low"]
        assert rep.results["estimate"] <= tb + 3 * width

    def test_generic_exact_orbit_path(self):
        # tripling map goes through the exact rational orbit branch
        rep = rio_truncated_measure(IntegerCircleMap(3), QUARTER, 1, 8, 300, master_seed=1)
        assert 0 <= rep.results["estimate"] <= 1

    def test_toral_path_runs(self):
        cat = ToralLinear(((2, 1), (1, 1)))
        rep = rio_truncated_measure(cat, QUARTER, 1, 6, 150, master_seed=1)
        assert 0 <= rep.results["estimate"] <= 1

    def test_dichotomy_separates_rates(self):
        conv = PowerLog(Fraction(1), Fraction(2))
        div = PowerLaw(Fraction(1, 2), Fraction(1))
        rep = rio_dichotomy(DOUBLING, conv, div, 20, 600, 400, master_seed=5)
        assert rep.results["estimate_divergent"] > rep.results["estimate_convergent"]
        assert rep.verdict in ("pass", "fail")

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            rio_truncated_measure(DOUBLING, QUARTER, 1, 10, 10, master_seed=0)


class TestPerIndexMeasureScan:
    def test_doubling_estimates_near_exact_measure(self):
        rep = recurrence_measure_scan(DOUBLING, QUARTER, 8, 4000, master_seed=3)
        for row in rep.results["table"]:
            true = 2 * 0.25 / row["n"]
            assert row["ci_low"] - 0.02 <= true <= row["ci_high"] + 0.02

    def test_beta_scan_runs_and_decreases(self):
        rep = recurrence_measure_scan(BetaMap("golden"), QUARTER, 10, 500, master_seed=3)
        ests = [row["estimate"] for row in rep.results["table"]]
        assert ests[0] > ests[-1]

    def test_deterministic(self):
        a = recurrence_measure_scan(DOUBLING, QUARTER, 6, 300, master_seed=1)
        b = recurrence_measure_scan(DOUBLING, QUARTER, 6, 300, master_seed=1)
        assert a.to_json_bytes() == b.to_json_bytes()


class TestEventuallyAlwaysExperiments:
    def test_exact_profile_non_increasing(self):
        seq = ExplicitTable(tuple(Fraction(1, 4 * m) for m in range(1, 11)))
        rep = ear_exact(2, seq, 2, 10)
        values = [v for _, v in rep.results["profile"]]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monte_carlo_brackets_exact(self):
        seq = ExplicitTable(tuple(Fraction(1, 2 * m) for m in range(1, 11)))
        exact = float(ear_exact(2, seq, 3, 10).results["measure_float"])
        rep = ear_truncated_measure(DOUBLING, seq, 3, 10, 5000, master_seed=4)
        assert rep.results["ci_low"] - 0.02 <= exact <= rep.results["ci_high"] + 0.02

    @pytest.mark.parametrize("sigma", [Fraction(1, 2), Fraction(3, 2)])
    def test_bound_check_is_exact_for_a_fractional_sigma(self, sigma):
        # mu <= m^-(1 + sigma) against mpmath at 256 bits, far past any tie
        rows = prop_ear_bound_check(sigma, range(4, 17)).results["table"]
        with mpmath.workprec(256):
            for row in rows:
                m, comp = row["m"], row["complement_measure"]
                eps = mpmath.mpf(m) ** -(1 + mpmath.mpf(sigma.numerator) / sigma.denominator)
                assert row["bound_ok"] == (mpmath.mpf(comp.numerator) / comp.denominator <= eps)
                assert row["epsilon"] == float(m) ** (-(1.0 + float(sigma)))

    @pytest.mark.parametrize("side, ok", [(-1, True), (1, False)])
    def test_bound_check_decides_a_near_tie(self, side, ok, monkeypatch):
        # a complement 1e-30 from 5^(-3/2), on a side that no float can tell
        with mpmath.workprec(256):
            eps = Fraction(mpmath.nstr(mpmath.mpf(5) ** -1.5, 60))
        comp = eps + side * Fraction(1, 10 ** 30)
        monkeypatch.setattr(experiments, "build_ear_sets",
                            lambda *args, **kw: types.SimpleNamespace(measure=1 - comp))
        [row] = prop_ear_bound_check(Fraction(1, 2), [5]).results["table"]
        assert row["bound_ok"] is ok

    def test_bound_check_passes_past_onset(self):
        rep = prop_ear_bound_check(1, range(2, 19))
        assert rep.verdict == "pass"
        for row in rep.results["table"]:
            assert row["bound_ok"] or row["m"] < 8


class TestBoshernitzanScan:
    def test_alpha_two_medians_decrease(self):
        rep = boshernitzan_scan(DOUBLING, [2.0], [100, 5000], 400, master_seed=6)
        m = rep.results["medians"]["2.0"] if "2.0" in rep.results["medians"] \
            else rep.results["medians"]["2"]
        assert m[1] < m[0]

    def test_alpha_one_median_bounded(self):
        rep = boshernitzan_scan(DOUBLING, [1.0], [100, 5000], 400, master_seed=6)
        key = next(iter(rep.results["medians"]))
        m = rep.results["medians"][key]
        assert m[1] <= 2 * m[0]

    def test_rotation_contrast_statistic_stays_large(self):
        # for a badly-approximable angle, n * dist(n*alpha, 0) is bounded
        # away from 0, so the isometry's statistic dominates the mixing map's
        # (the angle is a deep golden-ratio convergent, irrational-like here)
        rot = Rotation(Fraction(377, 610))
        d_rep = boshernitzan_scan(DOUBLING, [1.0], [200], 50, master_seed=8)
        r_rep = boshernitzan_scan(rot, [1.0], [200], 50, master_seed=8)
        d_med = next(iter(d_rep.results["medians"].values()))[0]
        r_med = next(iter(r_rep.results["medians"].values()))[0]
        assert r_med > d_med
        assert r_med > 0.1

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            boshernitzan_scan(DOUBLING, [0.0], [100], 200)


class TestOrbitBackendsAgree:
    """On the same start, the shift and lattice backends decide as the
    exact Fraction orbit does (seeded samples, N <= 500)."""

    @staticmethod
    def decisions(orbit, radii):
        return list(orbit.below(radii)), list(orbit.min_below(radii))

    def test_shift_equals_exact_for_doubling(self):
        N = 300
        start = orbit_backend(DOUBLING, N)
        for i in range(6):
            view = DyadicOrbitView(start(21, i), N + 64, N)
            exact = ExactOrbit(DOUBLING, [Fraction(view.starts[0], 1 << view.P)])
            for seq in (QUARTER, PowerLaw(Fraction(3), Fraction(1))):
                radii = Radii(seq, 4, N)
                assert self.decisions(view, radii) == self.decisions(exact, radii)

    def test_shift_resolves_the_gray_band_exactly(self):
        # radii within 2**-P of the distances put every comparison in the
        # 64-bit windows' uncertainty band: a tie is a miss, one ulp more a hit
        N = 200
        view = DyadicOrbitView(orbit_backend(DOUBLING, N)(22, 0), N + 64, N)
        ulp = Fraction(1, 1 << view.P)
        seq = ExplicitTable(tuple(view.exact_dist(n) + (n % 2) * ulp
                                  for n in range(1, N + 1)))
        radii = Radii(seq, 1, N)
        exact = ExactOrbit(DOUBLING, [Fraction(view.starts[0], 1 << view.P)])
        below, min_below = self.decisions(view, radii)
        assert below == [n % 2 == 1 for n in range(1, N + 1)]
        assert (below, min_below) == self.decisions(exact, radii)

    def test_lattice_equals_exact_for_rational_rotation_and_beta(self):
        N = 400
        for sys in (Rotation(Fraction(5, 17)), BetaMap(Fraction(5, 2))):
            start = orbit_backend(sys, N)
            for i in range(6):
                orbit = start(23, i)
                exact = ExactOrbit(sys, [Fraction(orbit.X0, orbit.S)])
                for seq in (QUARTER, ExplicitTable((Fraction(1, 17),) * N)):
                    radii = Radii(seq, 1, N)
                    assert self.decisions(orbit, radii) == self.decisions(exact, radii)


class TestBlockReductions:
    """On doubling, each reduction reports the same from the shift backend's
    blocks as from exact Fraction orbits of the same starts, for block sizes
    that do not divide the sample count."""

    @staticmethod
    def exact_backend(sys, horizon):
        P = horizon + 64

        def start(seed, i):  # blocked as the shift's windows are
            orbit = ExactOrbit(sys, [Fraction(sample_bits(seed, i, P), 1 << P)])
            orbit.row_entries = horizon
            return orbit
        return start

    @pytest.mark.parametrize("rows", [7, 33, None])  # None: the module's block size
    def test_shift_equals_exact_for_every_reduction(self, rows, monkeypatch):
        N, M = 60, 100
        runs = {
            "rio": lambda: rio_truncated_measure(
                DOUBLING, PowerLaw(Fraction(1, 2), Fraction(1)), 3, N, M, 5),
            "scan": lambda: recurrence_measure_scan(DOUBLING, QUARTER, N, M, 5),
            "ear": lambda: ear_truncated_measure(
                DOUBLING, PowerLaw(Fraction(1), Fraction(1)), 3, N, M, 5),
            "orbit": lambda: boshernitzan_scan(DOUBLING, [1.0, 2.0], [5, 30, N], M, 5),
        }
        if rows is not None:
            monkeypatch.setattr(experiments, "_BLOCK", rows * N)
        shift = {name: run() for name, run in runs.items()}
        monkeypatch.setattr(experiments, "orbit_backend", self.exact_backend)
        exact = {name: run() for name, run in runs.items()}
        for name in ("rio", "scan", "ear"):
            assert shift[name].to_json_bytes() == exact[name].to_json_bytes()
        assert 0 < shift["rio"].results["hits"] < M
        assert 0 < shift["ear"].results["hits"] < M
        # the shift backend's distances are rounded to 2**-64 and its powers
        # are numpy's, so the weighted minima agree to rounding
        for alpha, medians in shift["orbit"].results["medians"].items():
            assert medians == pytest.approx(exact["orbit"].results["medians"][alpha],
                                            rel=1e-9, abs=1e-15)

    def test_block_partition_moves_no_byte(self, monkeypatch):
        # one row a block, the old budget, the module's, all M rows in one
        # block; at 2**14 and 2**15 the doubling calls cut 150 rows differently
        conv, div = PowerLaw(Fraction(1, 2), Fraction(2)), PowerLaw(Fraction(1, 2), Fraction(1))
        runs = [
            lambda: rio_dichotomy(DOUBLING, conv, div, 3, 500, 150, 5),
            lambda: recurrence_measure_scan(DOUBLING, QUARTER, 300, 150, 5),
            lambda: ear_truncated_measure(DOUBLING, PowerLaw(1, 1), 3, 400, 150, 5),
            lambda: boshernitzan_scan(DOUBLING, [1.0, 2.0], [5, 30, 300], 150, 5),
            lambda: rio_truncated_measure(parse_system("beta:golden"), conv, 3, 100, 100, 5),
            lambda: rio_truncated_measure(parse_system("circle:3"), conv, 3, 100, 100, 5),
        ]
        reports = []
        for size in (1, 1 << 14, experiments._BLOCK, 1 << 40):
            monkeypatch.setattr(experiments, "_BLOCK", size)
            reports.append([run().to_json_bytes() for run in runs])
        assert reports[1:] == reports[:1] * 3


class TestInputChecks:
    @pytest.mark.parametrize("checkpoints, M", [([0, 10], 20), ([], 20), ([10], 0)])
    def test_boshernitzan_scan_rejects_bad_inputs(self, checkpoints, M):
        with pytest.raises(ValueError):
            boshernitzan_scan(DOUBLING, [1.0], checkpoints, M)

    def test_boshernitzan_scan_runs_on_one_sample(self):
        rep = boshernitzan_scan(DOUBLING, [1.0], [1, 10], 1, master_seed=2)
        assert len(rep.results["medians"]["1"]) == 2

    @pytest.mark.parametrize("n0, M_horizon, samples", [(3, 20, 0), (0, 20, 10), (21, 20, 10)])
    def test_ear_truncated_measure_rejects_bad_inputs(self, n0, M_horizon, samples):
        with pytest.raises(ValueError):
            ear_truncated_measure(DOUBLING, QUARTER, n0, M_horizon, samples)


# every system of the README's table (a concrete piecewise map for its template)
README_SYSTEMS = ("doubling", "circle:3", "beta:golden", "beta:5/2", "beta:sqrt2",
                  "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "toral:2,1;1,1",
                  "rotation:sqrt2")


@pytest.mark.parametrize("spec", README_SYSTEMS)
def test_every_monte_carlo_experiment_runs_on_every_system(spec):
    system = parse_system(spec)
    reports = [
        rio_truncated_measure(system, QUARTER, 2, 30, 100, master_seed=1),
        recurrence_measure_scan(system, QUARTER, 20, 100, master_seed=1),
        ear_truncated_measure(system, PowerLaw(Fraction(1), Fraction(1, 2)), 2, 20, 100,
                              master_seed=1),
        boshernitzan_scan(system, [1.0, 2.0], [10, 50], 50, master_seed=1),
    ]
    estimates = ([reports[0].results["estimate"], reports[2].results["estimate"]]
                 + [row["estimate"] for row in reports[1].results["table"]])
    assert all(0 <= e <= 1 for e in estimates)
    medians = [v for meds in reports[3].results["medians"].values() for v in meds]
    assert all(math.isfinite(v) and v >= 0 for v in medians)


@pytest.mark.skipif(sys.platform != "linux", reason="sets glibc's malloc thresholds")
def test_freed_heap_memory_is_reused():
    libc = ctypes.CDLL(None)
    libc.mallopt(-3, 128 << 10)  # glibc's default thresholds, fixed: the worst case
    libc.mallopt(-1, 128 << 10)
    experiments._keep_freed_heap.__wrapped__()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):  # the ~120 KB temporaries of a block of samples
        a = np.arange(15000.0)
        (a * 2.0) + a
    # about 11,000 minor faults at the default thresholds, about 60 at these
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
