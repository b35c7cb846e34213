"""recurlab benchmark: closed-loop CLI workloads, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-shift --seed 1 --seconds 24 --trace 0

One client in one process issues ``recurlab.cli.main(argv)`` ops back to
back (a closed loop), checks each op's output, and prints human-readable
lines followed by one JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
cycle untraced and then traced, and reports the per-layer split (see
README.md for which metric should move where).

Times are reported at a fixed reference speed (``speed.py``). On a 2-core
virtual machine that shares its cores, speed changed by up to 1.8x for
seconds to minutes at a time, and raw op times spread by 30-40% from run
to run. So a fixed block of interpreter work is timed between consecutive
ops, and each op's time is scaled by the blocks just before and after it.
The wall times are printed as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import ops
import speed
from tracing import COUNT_METRICS, TIME_METRICS, Patches, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 9
MIN_OPS = 110          # at least 10 ops beyond p90
SETUP_SNIPPET = (      # argv[1] is this directory, for the builtins-only speed.py
    "import sys, time; sys.path.insert(0, sys.argv[1]); import speed\n"
    "b0 = speed.reference_seconds(); t0 = time.perf_counter()\n"
    "import recurlab.cli as cli; cli.build_parser()\n"
    "t1 = time.perf_counter(); b1 = speed.reference_seconds()\n"
    "print(t1 - t0, speed.scale(b0, b1), cli.__file__)\n"
)


def measure_setup(runs: int = SETUP_RUNS) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to the first op being ready
    (``import recurlab.cli`` plus ``build_parser()``), once per run, as
    (wall, at reference speed)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wall, scaled = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(HERE)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        seconds, factor, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported recurlab from {path}, not {SRC}")
        wall.append(float(seconds))
        scaled.append(float(seconds) * float(factor))
    return wall, scaled


def environment() -> dict:
    import mpmath
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "mpmath": mpmath.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count()}


@dataclass
class Timing:
    """Op times of one loop (at reference speed, and as measured), and what
    the first cycle, which a seed fixes, produced."""

    scaled: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    cycles: int = 0
    first_cycle: list = field(default_factory=list)     # its op outcomes, if traced
    first_counts: dict = field(default_factory=dict)    # tracer counts after it


class Runner:
    """Runs cycles of one workload's ops, checks them and counts failures."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload, self.seed = workload, seed
        self.out_dir = str(work_dir / "op")
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digest = ""
        self.capture = ops.UlamCapture()
        self._patches = Patches()

    def __enter__(self) -> "Runner":
        from recurlab import ulam

        self._patches.replace(ulam, "build_ulam", self.capture.wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def record(self, op, out) -> bool:
        """Count the op and whether it failed; returns True when it passed."""
        self.attempted += 1
        bad = ops.problems(op, out)
        if bad:
            self.failed += 1
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {'; '.join(bad)}")
        return not bad

    def warm_up(self) -> None:
        """Run cycle 0 untimed and keep the digest of its report bytes."""
        h = hashlib.sha256()
        for op in ops.build_cycle(self.workload, self.seed, 0):
            out = ops.execute(op, self.out_dir, self.capture)
            self.record(op, out)
            ops.report_digest_update(h, out)
        self.digest = h.hexdigest()

    def loop(self, seconds: float, min_ops: int) -> Timing:
        """Run whole cycles 1, 2, ... until ``seconds`` have passed and at
        least ``min_ops`` ops were timed (capped at three times ``seconds``)."""
        start = time.perf_counter()
        deadline, cap = start + seconds, start + 3 * seconds
        timing = Timing()
        while True:
            self.run_cycle(timing.cycles + 1, timing)
            now = time.perf_counter()
            if now >= cap or (now >= deadline and len(timing.scaled) >= min_ops):
                return timing

    def run_cycle(self, cycle: int, timing: Timing, tracer: Tracer | None = None) -> None:
        """Run, time and check one cycle's ops, adding them to ``timing``."""
        timing.cycles += 1
        before = speed.reference_seconds()
        for i, op in enumerate(ops.build_cycle(self.workload, self.seed, cycle)):
            if tracer is not None:
                tracer.begin_op(cycle * 1000 + i)
            out = ops.execute(op, self.out_dir, self.capture)
            after = speed.reference_seconds()
            scale = speed.scale(before, after)
            before = after
            if tracer is not None:
                tracer.end_op(op.kind, out.t0, out.t1, scale)
            self.record(op, out)
            timing.scaled.append(out.seconds * scale)
            timing.wall.append(out.seconds)
            timing.by_kind.setdefault(op.kind, []).append(out.seconds * scale)
            if cycle == 1 and tracer is not None:
                timing.first_cycle.append(out)
        if cycle == 1 and tracer is not None:
            timing.first_counts = dict(tracer.counts)


def p50_p90(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(runner: Runner, seconds: float, lines: list[str]) -> dict:
    setup_wall, setup = measure_setup()
    runner.warm_up()
    t = runner.loop(seconds, MIN_OPS)
    n = len(t.scaled)
    p50, p90 = p50_p90(t.scaled)
    wall50, wall90 = p50_p90(t.wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines += [
        f"setup_s {statistics.median(setup):.6f} s (median of {len(setup)} fresh "
        f"interpreters; wall {statistics.median(setup_wall):.6f} s)",
        f"op_s.p50 {p50:.6f} s (n={n} ops in {t.cycles} cycles after one warm-up "
        f"cycle; wall {wall50:.6f} s)",
        f"op_s.p90 {p90:.6f} s (n={n}, {sum(x > p90 for x in t.scaled)} ops beyond "
        f"p90; wall {wall90:.6f} s)",
        f"ops_per_s {n / sum(t.scaled):.4f} 1/s (n={n} ops over their summed times; "
        f"wall {n / sum(t.wall):.4f} 1/s; output checks run outside the loop clock)",
        f"peak_rss_mb {rss_mb:.2f} MB (ru_maxrss of this process)",
        "op kinds (median s, n): " + ", ".join(
            f"{k} {statistics.median(v):.4f} ({len(v)})" for k, v in t.by_kind.items()),
    ]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_s.p50": metric(p50, "s"),
        "op_s.p90": metric(p90, "s"),
        "ops_per_s": metric(n / sum(t.scaled), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def ulam_guard(outcomes) -> dict:
    """Largest matrix, total nonzeros and the largest |lambda2| error against
    dense ``eigvals`` (one solve per system and size), over the ulam
    operators the given ops built. Runs outside the timed region."""
    import numpy as np

    dense: dict = {}
    peak, nnz, err = 0, 0, 0.0
    for uop in (u for out in outcomes for u in out.operators):
        key = (uop.sys.describe(), uop.N)
        if key not in dense:
            dense[key] = float(np.sort(np.abs(np.linalg.eigvals(uop.matrix)))[-2])
        peak = max(peak, uop.matrix.nbytes)
        nnz += int(np.count_nonzero(uop.matrix))
        err = max(err, abs(uop.second_eig - dense[key]))
    return {"ulam.matrix_bytes": metric(peak, "bytes"), "ulam.nnz": metric(nnz, "count"),
            "ulam.lambda2_abs_err": metric(err, "1")}


def run_traced(runner: Runner, seconds: float, lines: list[str], spans_path: Path) -> dict:
    """Run each cycle untraced, then traced, until ``seconds`` have passed;
    alternating keeps drift in machine speed out of the tracing overhead."""
    runner.warm_up()
    plain, traced, tracer = Timing(), Timing(), Tracer()
    deadline = time.perf_counter() + seconds
    while not plain.cycles or time.perf_counter() < deadline:
        cycle = plain.cycles + 1
        runner.run_cycle(cycle, plain)
        with tracer:
            runner.run_cycle(cycle, traced, tracer)

    n = len(traced.scaled)
    p50_plain, p50_traced = statistics.median(plain.scaled), statistics.median(traced.scaled)
    out = {k: metric(tracer.times[k] / n, "s") for k in TIME_METRICS}
    out.update({k: metric(traced.first_counts.get(k, 0), "count") for k in COUNT_METRICS})
    out["cli.bytes_written"]["unit"] = "bytes"
    out.update(ulam_guard(traced.first_cycle))
    out["unattributed_s"] = metric(tracer.times["unattributed_s"] / n, "s")
    out["trace_overhead_s"] = metric(p50_traced - p50_plain, "s")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    attributed = sum(tracer.times[k] for k in TIME_METRICS) / n
    lines += [
        f"traced: {n} ops in {traced.cycles} cycles; untraced: {len(plain.scaled)} ops",
        f"op_s.p50 untraced {p50_plain:.6f} s, traced {p50_traced:.6f} s, "
        f"overhead {p50_traced - p50_plain:+.6f} s",
        f"times are self seconds per traced op (mean); layers {attributed:.6f} s + "
        f"unattributed {tracer.times['unattributed_s'] / n:.6f} s per op",
        "counts are totals over the first traced cycle (the same ops for a given seed)",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=ops.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "recurlab" / "cli.py").is_file():
        print(f"error: no recurlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:      # before numpy is imported, here or in set-up
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import recurlab.cli

    if not Path(recurlab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: recurlab imported from {recurlab.cli.__file__}", file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}; closed loop, 1 client, in-process; times at "
             f"reference speed (REF_SECONDS={speed.REF_SECONDS})",
             "env: " + json.dumps(environment(), sort_keys=True)]
    try:
        with Runner(args.workload, args.seed, work_dir) as runner:
            if args.trace:
                spans = WORK / f"spans-{args.workload}.json"
                metrics = run_traced(runner, args.seconds, lines, spans)
            else:
                metrics = run_end_to_end(runner, args.seconds, lines)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stored = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    if args.seed != ops.DEFAULT_SEED:
        verdict = f"not compared (stored digests are for seed {ops.DEFAULT_SEED})"
    else:
        verdict = "matches stored" if runner.digest == stored else f"MISMATCH, stored {stored}"
    lines.append(f"report digest (warm-up cycle) sha256 {runner.digest}: {verdict}")
    lines.append(f"fail_ratio {runner.failed / runner.attempted:.6f} fraction "
                 f"({runner.failed} failed of {runner.attempted} ops attempted)")
    lines += [f"FAILED {f}" for f in runner.failures[:20]]
    print("\n".join(lines))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
