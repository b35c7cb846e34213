"""The benchmark's workloads: op lists, op execution and output checks.

An op is one ``recurlab.cli.main(argv)`` call, so it covers argument
parsing, the experiment and report writing. A workload repeats a fixed
cycle of ops; every input that can vary is derived from the workload seed,
the cycle index and the op's position, so a seed always gives the same ops.

Why each workload (the layers it loads):

* ``mc-shift``: Monte Carlo on the doubling map. All work is in the 64-bit
  window backend (dynamics), gray-band resolution (experiments) and the
  mpmath radius thresholds (circle). The threshold-heavy and window-heavy
  ``rio`` shapes pull thresholds (one pass per call) and windows (one pass
  per sample) apart.
* ``mc-iterated``: ``rio`` on beta maps (fixed-point orbits) and on
  circle:3, a piecewise map and a toral map (exact Fraction steps), each
  with a convergent radius (full scans) and a divergent one (early exits).
  The same orbit layer as mc-shift, iterated one step at a time.
* ``exact-arcs``: exact arc arithmetic only (exact_sets and the circle arc
  kernels): Petrov sums, exact eventually-always covers, branch
  composition and a serialized 2^16-arc set. The only large footprint.
* ``ulam``: Ulam matrices built in floats (beta maps) and exactly in
  Fraction (circle:3, the piecewise map), eigen-solve and series.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("mc-shift", "mc-iterated", "exact-arcs", "ulam")
DEFAULT_SEED = 1
PIECEWISE = "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"
ULAM_BINS = 384
CI_TOL = 1e-12   # interval ends are float expressions (Wilson's lower end at
                 # zero hits evaluates to ~3e-18, not 0)
SHORT = {"beta:golden": "golden", "beta:sqrt2": "sqrt2", "circle:3": "circle3",
         PIECEWISE: "piecewise", "toral:2,1;1,1": "toral"}


def op_seed(workload: str, seed: int, cycle: int, position: int) -> int:
    """Per-op seed: a pure function of the workload seed and the op's place."""
    h = hashlib.sha256(f"{workload}:{seed}:{cycle}:{position}".encode()).digest()
    return int.from_bytes(h[:4], "big")


@dataclass(frozen=True)
class Op:
    kind: str                     # op family, for reports
    argv: tuple[str, ...]         # "{out}" stands for the op's output directory
    check: Callable[["Op", "Outcome"], list[str]]
    expect: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    files: dict[str, bytes]
    error: str | None
    t0: float
    t1: float
    operators: list = field(default_factory=list)   # UlamOperators built by the op

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


# ---------------------------------------------------------------------------
# Workload cycles
# ---------------------------------------------------------------------------

def _pick(s: int, choices):
    return choices[s % len(choices)]


def _mc_shift(seeds) -> list[Op]:
    dich = ("rio", "--system", "doubling", "--seq", "powerlaw:1/2,1",
            "--seq-conv", "powerlog:1,2", "--k", "50")
    threshold_heavy = dich + ("--N", "2000", "--M", "150")
    window_heavy = dich + ("--N", "500", "--M", "1200")
    orbit = ("orbit", "--system", "doubling", "--scan-alphas", "1,2",
             "--checkpoints", "100,5000", "--samples", "500")
    ear = ("ear", "--system", "doubling", "--seq", "ear:1", "--n0", "4",
           "--M-horizon", "200", "--samples", "1000")
    shapes = [
        ("rio-threshold", threshold_heavy, check_dichotomy, {"M": 150}),
        ("rio-window", window_heavy, check_dichotomy, {"M": 1200}),
        ("orbit-scan", orbit, check_orbit_scan, {}),
        ("ear-mc", ear, check_mc_estimate,
         {"M": 1000, "report": "ear_truncated_measure.json"}),
        ("rio-threshold", threshold_heavy, check_dichotomy, {"M": 150}),
        ("rio-window", window_heavy, check_dichotomy, {"M": 1200}),
        ("rio-threshold", threshold_heavy, check_dichotomy, {"M": 150}),
    ]
    return [Op(kind, argv + ("--seed", str(s)), chk, exp)
            for (kind, argv, chk, exp), s in zip(shapes, seeds)]


def _mc_iterated(seeds) -> list[Op]:
    systems = [
        ("beta:golden", "200", "300"),
        ("beta:sqrt2", "200", "300"),
        ("circle:3", "40", "150"),
        (PIECEWISE, "60", "200"),
        ("toral:2,1;1,1", "30", "100"),
    ]
    ops = []
    seeds = iter(seeds)
    for system, N, M in systems:
        for side, seq in (("conv", "powerlaw:1,2"), ("div", "powerlaw:1/2,1")):
            argv = ("rio", "--system", system, "--seq", seq, "--k", "5",
                    "--N", N, "--M", M, "--seed", str(next(seeds)))
            ops.append(Op(f"rio-{SHORT[system]}-{side}", argv, check_mc_estimate,
                          {"M": int(M), "report": "rio_truncated_measure.json"}))
    return ops


def _exact_arcs(seeds) -> list[Op]:
    s = list(seeds)
    kappa = _pick(s[0], ("1/4", "1/5", "1/6"))
    r = [_pick(v, ("1/10", "1/12", "1/14", "1/20")) for v in s]
    n0 = [_pick(v, (3, 4, 5)) for v in s]

    def petrov(a, horizons):
        argv = ("petrov", "--a", str(a), "--seq", f"powerlaw:{kappa},1", "--N", horizons)
        return Op(f"petrov-a{a}", argv, check_petrov, {"a": a, "kappa": kappa})

    def ear_exact(system, a, m, i):
        argv = ("ear", "--exact", "--system", system, "--seq", "powerlaw:1,2",
                "--n0", str(n0[i]), "--M-horizon", str(m))
        return Op(f"ear-exact-a{a}", argv, check_ear_exact, {})

    def exact(system, a, n, i, piecewise=False, set_out=False):
        argv = ("exact", "--system", system, "--n", str(n), "--r", r[i])
        if piecewise:
            argv += ("--piecewise",)
        if set_out:
            argv += ("--set-out", "{out}/set.txt")
        kind = "exact-compose" if piecewise else "exact-set-out"
        return Op(kind, argv, check_exact, {"a": a, "n": n, "r": r[i]})

    return [
        petrov(2, "8,12,17"),
        ear_exact("doubling", 2, 16, 1),
        exact("doubling", 2, 11, 2, piecewise=True),
        petrov(3, "11"),
        exact("doubling", 2, 16, 4, set_out=True),
        ear_exact("circle:3", 3, 9, 5),
        exact("circle:3", 3, 7, 6, piecewise=True),
        ear_exact("doubling", 2, 16, 7),
        petrov(2, "16"),
        exact("circle:3", 3, 9, 9, set_out=True),
    ]


def _ulam(seeds) -> list[Op]:
    s = list(seeds)
    ops = []
    plan = [("beta:golden", False), ("beta:golden", True), ("beta:sqrt2", False),
            ("circle:3", False), ("circle:3", True), (PIECEWISE, False),
            (PIECEWISE, True), ("beta:sqrt2", True), ("beta:golden", False)]
    for i, (system, series) in enumerate(plan):
        argv = ("ulam", "--system", system, "--bins", str(ULAM_BINS),
                "--density-csv", "{out}/density.csv")
        if series:
            kappa = _pick(s[i], ("1", "1/2", "2"))
            argv += ("--series-seq", f"powerlaw:{kappa},1")
        ops.append(Op(f"ulam-{SHORT[system]}" + ("-series" if series else ""),
                      argv, check_ulam, {}))
    return ops


# Cycle sizes. The op mix puts p50 and p90 inside a group of similar ops,
# not on the edge between a fast and a slow group, where they would jump.
_CYCLES = {"mc-shift": (_mc_shift, 7), "mc-iterated": (_mc_iterated, 10),
           "exact-arcs": (_exact_arcs, 10), "ulam": (_ulam, 9)}


def build_cycle(workload: str, seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle of ``workload``; cycle 0 is the warm-up."""
    make, size = _CYCLES[workload]
    return make(op_seed(workload, seed, cycle, i) for i in range(size))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class UlamCapture:
    """Keeps every operator that ``recurlab.ulam.build_ulam`` returns, so
    the row sums can be checked outside the timed region."""

    def __init__(self):
        self.operators: list = []

    def wrap(self, build_ulam):
        def capturing(*args, **kwargs):
            op = build_ulam(*args, **kwargs)
            self.operators.append(op)
            return op
        return capturing


def execute(op: Op, out_dir: str, capture: UlamCapture) -> Outcome:
    """Run one op in-process; only the ``cli.main`` call is timed."""
    from recurlab import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = [a.replace("{out}", out_dir) for a in op.argv] + ["--out", out_dir]
    capture.operators = []
    buf = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return Outcome(rc, buf.getvalue(), files, error, t0, t1, capture.operators)


def problems(op: Op, out: Outcome) -> list[str]:
    """Everything wrong with an op's outcome; empty when it passed."""
    if out.error is not None:
        return [f"raised {out.error}"]
    if out.rc != 0:
        return [f"exit status {out.rc}: {out.stdout.strip()[-200:]}"]
    try:
        return op.check(op, out)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def report_digest_update(h, out: Outcome) -> None:
    """Feed the op's report files (name and bytes, sorted by name) to ``h``."""
    for name, data in out.files.items():
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)


# ---------------------------------------------------------------------------
# Output checks: each against an invariant the op's inputs imply
# ---------------------------------------------------------------------------

def _report(out: Outcome, name: str) -> dict:
    return json.loads(out.files[name])


def _estimate_problems(label: str, est: float, lo: float, hi: float, M: int) -> list[str]:
    bad = []
    hits = est * M
    if abs(hits - round(hits)) > 1e-6 or not 0 <= round(hits) <= M:
        bad.append(f"{label}: hits {hits} not an integer in [0, {M}]")
    if not lo - CI_TOL <= est <= hi + CI_TOL:
        bad.append(f"{label}: estimate {est} outside its interval [{lo}, {hi}]")
    return bad


def check_mc_estimate(op: Op, out: Outcome) -> list[str]:
    res = _report(out, op.expect["report"])["results"]
    M = op.expect["M"]
    bad = _estimate_problems("estimate", res["estimate"], res["ci_low"], res["ci_high"], M)
    if res["hits"] != round(res["estimate"] * M):
        bad.append(f"hits {res['hits']} disagree with estimate {res['estimate']}")
    return bad


def check_dichotomy(op: Op, out: Outcome) -> list[str]:
    rep = _report(out, "rio_dichotomy.json")
    res, M = rep["results"], op.expect["M"]
    bad = []
    if rep["verdict"] != "pass":
        bad.append(f"verdict {rep['verdict']}")
    for side in ("convergent", "divergent"):
        lo, hi = res[f"ci_{side}"]
        bad += _estimate_problems(side, res[f"estimate_{side}"], lo, hi, M)
    # same samples, and 1/(n log^2 n) < 1/(2n) for n >= 5: exact containment
    if res["estimate_divergent"] < res["estimate_convergent"]:
        bad.append("divergent estimate below convergent estimate")
    return bad


def check_orbit_scan(op: Op, out: Outcome) -> list[str]:
    res = _report(out, "boshernitzan_scan.json")["results"]
    bad = []
    for alpha, medians in res["medians"].items():
        if len(medians) != len(res["checkpoints"]):
            bad.append(f"alpha {alpha}: {len(medians)} medians")
        # running minima never increase, so neither does their median
        if any(b > a for a, b in zip(medians, medians[1:])) or min(medians) < 0:
            bad.append(f"alpha {alpha}: medians not non-increasing and >= 0")
    return bad


def check_petrov(op: Op, out: Outcome) -> list[str]:
    profile = _report(out, "petrov.json")["profile"]
    kappa = Fraction(op.expect["kappa"])
    bad = []
    for row in profile:
        N = row["N"]
        R = sum(2 * kappa / i for i in range(1, N + 1)) ** 2   # (sum of 2 r_i)^2
        if Fraction(row["R_N"]) != R:
            bad.append(f"N={N}: R_N {row['R_N']} != {R}")
        if abs(float(Fraction(row["S_N"]) / R) - row["ratio"]) > 1e-12:
            bad.append(f"N={N}: ratio {row['ratio']} != S_N/R_N")
    return bad


def check_ear_exact(op: Op, out: Outcome) -> list[str]:
    res = _report(out, "ear_exact.json")["results"]
    values = [Fraction(v) for _, v in res["profile"]]
    bad = []
    if any(b > a for a, b in zip(values, values[1:])):
        bad.append("measure profile increases")
    if not values or not 0 <= values[-1] <= 1 or Fraction(res["measure"]) != values[-1]:
        bad.append("final measure is not the last profile value in [0, 1]")
    return bad


def check_exact(op: Op, out: Outcome) -> list[str]:
    a, n, r = op.expect["a"], op.expect["n"], Fraction(op.expect["r"])
    line = next(l for l in out.stdout.splitlines() if l.startswith(f"E_{n}:"))
    measure = Fraction(line.split("measure=")[1].split()[0])
    arcs = int(line.split("arcs=")[1])
    bad = []
    if measure != 2 * r:
        bad.append(f"measure {measure} != 2r = {2 * r}")
    if arcs != abs(a ** n - 1):
        bad.append(f"{arcs} arcs, expected {abs(a ** n - 1)}")
    if "set.txt" in out.files:
        lines = out.files["set.txt"].decode().splitlines()
        # the arc around 0 is stored split as [0, w) and [1 - w, 1)
        if len(lines) != arcs + 1 or not lines[0].startswith("0/1,") \
                or not lines[-1].endswith(",1/1"):
            bad.append(f"serialized set has {len(lines)} lines for {arcs} arcs")
    return bad


def check_ulam(op: Op, out: Outcome) -> list[str]:
    rep = _report(out, "ulam.json")
    bad = []
    if not 0 <= rep["second_eigenvalue"] <= 1:
        bad.append(f"|lambda2| = {rep['second_eigenvalue']} outside [0, 1]")
    rows = list(csv.DictReader(io.StringIO(out.files["density.csv"].decode())))
    mass = sum(float(r["density"]) for r in rows) / len(rows)
    if abs(mass - 1) > 1e-9:
        bad.append(f"density mass {mass} != 1")
    if len(out.operators) != 1:
        bad.append(f"{len(out.operators)} operators built")
    for uop in out.operators:
        dev = float(abs(uop.matrix.sum(axis=1) - 1).max())
        if dev > 1e-12:
            bad.append(f"row sums deviate from 1 by {dev}")
    if "ulam_series.json" in out.files:
        sums = json.loads(out.files["ulam_series.json"])["partial_sums"]
        if any(b < a for a, b in zip(sums, sums[1:])):
            bad.append("series partial sums decrease")
    return bad
