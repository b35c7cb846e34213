"""Batch command-line entry point.

One subcommand per experiment family: ``rio`` (infinitely-often returns),
``ear`` (eventually-always returns), ``petrov`` (exact quasi-independence
sums), ``ulam`` (transfer-operator diagnostics), ``nt`` (number-theoretic
kernels), ``exact`` (recurrence-set construction), ``orbit`` (orbit traces
and orbit statistics), plus ``run`` for config files.

Reports are written atomically (temp file + rename, never partial), as JSON
plus plot-ready TSV. Exit status: 0 all verdicts pass, 2 verdict failures,
1 execution error.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from . import circle, dynamics, exact_sets, experiments, number_theory, ulam
from .circle import EarRadius, ExplicitTable, PowerLaw, PowerLog, ear_log2_delta
from .errors import ConfigError, RecurlabError
from .systems import (
    BetaMap,
    Branch,
    IntegerCircleMap,
    PiecewiseLinear,
    Rotation,
    SystemSpec,
    ToralLinear,
)


# ---------------------------------------------------------------------------
# Spec parsing (systems, radius sequences)
# ---------------------------------------------------------------------------

def parse_system(text: str) -> SystemSpec:
    text = text.strip()
    if text == "doubling":
        return IntegerCircleMap(2)
    kind, _, rest = text.partition(":")
    if kind == "circle":
        return IntegerCircleMap(int(rest))
    if kind == "beta":
        return BetaMap(rest)
    if kind == "rotation":
        return Rotation(rest)
    if kind == "toral":
        rows = tuple(tuple(int(v) for v in row.split(",")) for row in rest.split(";"))
        if len(rows) == 1 and len(rows[0]) == 1:
            # a 1x1 torus map is just a circle map
            return IntegerCircleMap(rows[0][0])
        return ToralLinear(rows)
    if kind == "piecewise":
        branches = []
        for part in rest.split(";"):
            lo, hi, slope, intercept = (Fraction(v) for v in part.split(","))
            branches.append(Branch(lo, hi, slope, intercept))
        return PiecewiseLinear(tuple(branches))
    raise ConfigError([f"unknown system spec {text!r}"])


def parse_sequence(text: str) -> circle.RadiusSequence:
    text = text.strip()
    kind, _, rest = text.partition(":")
    if kind == "powerlaw":
        kappa, gamma = rest.split(",")
        return PowerLaw(Fraction(kappa), Fraction(gamma))
    if kind == "powerlog":
        kappa, theta = rest.split(",")
        return PowerLog(Fraction(kappa), Fraction(theta))
    if kind == "table":
        return ExplicitTable(tuple(Fraction(v) for v in rest.split(",")))
    if kind == "ear":
        sigma = Fraction(rest) if rest else Fraction(1)
        return EarRadius(ear_log2_delta(sigma), lambda d: Fraction(1),
                         label=f"ear:{sigma}")
    raise ConfigError([f"unknown radius sequence spec {text!r}"])


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

# (required, optional) keys of each experiment, besides ``experiment`` and
# ``out``: a key the experiment would ignore is an error, as on the command
# line. ``m`` and ``samples`` both set the sample count.
_SAMPLING = {"m", "samples", "seed"}
_EXPERIMENT_KEYS = {
    "rio": ({"system", "seq"}, {"seq_conv", "k", "n"} | _SAMPLING),
    "rio_dichotomy": ({"system", "seq", "seq_conv"}, {"k", "n"} | _SAMPLING),
    "ear": ({"system", "seq"}, {"n0", "m_horizon"} | _SAMPLING),
    "ear_exact": ({"system", "seq"}, {"n0", "m_horizon", "budget_arcs"}),
    "petrov": ({"seq"}, {"a", "n", "h"}),
    "ulam": ({"system"}, {"bins"}),
    "exact": ({"system"}, {"n", "r", "budget_arcs"}),
    "boshernitzan": ({"system"}, {"alphas", "checkpoints"} | _SAMPLING),
}
_KNOWN_KEYS = {"experiment", "out"}.union(
    *(required | optional for required, optional in _EXPERIMENT_KEYS.values()))


@dataclass
class RunConfig:
    """Validated batch-run description (one experiment per run)."""

    experiment: str
    system: SystemSpec | None = None
    seq: circle.RadiusSequence | None = None
    seq_conv: circle.RadiusSequence | None = None
    k: int = 1
    N: int = 100
    samples: int = 2000
    seed: int = 0
    n0: int = 1
    m_horizon: int = 50
    H: Fraction = Fraction(1)
    a: int = 2
    r: Fraction = Fraction(1, 10)
    alphas: tuple[float, ...] = (1.0, 2.0)
    checkpoints: tuple[int, ...] = (100, 1000, 10000)
    bins: int = 1024
    out: str = "."
    budget_arcs: int = exact_sets.DEFAULT_ARC_BUDGET
    notes: tuple[str, ...] = field(default=())


def parse_config(text: str) -> RunConfig:
    """Parse a key = value config (single [run] section), collecting every
    validation problem before raising."""
    cp = configparser.ConfigParser()
    problems: list[str] = []
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"])
    if "run" not in cp:
        raise ConfigError(["missing [run] section"])
    section = cp["run"]
    cfg = RunConfig(experiment="")
    exp = section.get("experiment", "").strip()
    if exp not in _EXPERIMENT_KEYS:
        problems.append(f"experiment must be one of {sorted(_EXPERIMENT_KEYS)}, got {exp!r}")
    cfg.experiment = exp
    required, optional = _EXPERIMENT_KEYS.get(exp, (set(), _KNOWN_KEYS))
    for key in section:
        if key not in _KNOWN_KEYS:
            problems.append(f"unknown key {key!r}")
        elif key not in required | optional | {"experiment", "out"}:
            problems.append(f"experiment {exp!r} does not use key {key!r}")
    problems.extend(f"experiment {exp!r} needs a {key}"
                    for key in sorted(required) if key not in section)

    def grab(key, conv, attr, positive=False):
        if key in section:
            try:
                val = conv(section[key])
                if positive and val <= 0:
                    problems.append(f"{key} must be positive, got {val}")
                else:
                    setattr(cfg, attr, val)
            except (ValueError, ZeroDivisionError, ConfigError) as exc:
                problems.append(f"bad value for {key}: {exc}")

    if "system" in section:
        try:
            cfg.system = parse_system(section["system"])
        except (ConfigError, ValueError) as exc:
            problems.append(f"bad system: {exc}")
    for key, attr in (("seq", "seq"), ("seq_conv", "seq_conv")):
        if key in section:
            try:
                setattr(cfg, attr, parse_sequence(section[key]))
            except (ConfigError, ValueError) as exc:
                problems.append(f"bad value for {key}: {exc}")
    grab("k", int, "k", positive=True)
    grab("n", int, "N", positive=True)
    grab("m", int, "samples", positive=True)
    grab("samples", int, "samples", positive=True)
    grab("seed", int, "seed")
    grab("n0", int, "n0", positive=True)
    grab("m_horizon", int, "m_horizon", positive=True)
    grab("h", Fraction, "H", positive=True)
    grab("a", int, "a")
    grab("r", Fraction, "r")
    grab("bins", int, "bins", positive=True)
    grab("budget_arcs", int, "budget_arcs", positive=True)
    if "alphas" in section:
        try:
            cfg.alphas = tuple(float(v) for v in section["alphas"].split(","))
        except ValueError as exc:
            problems.append(f"bad value for alphas: {exc}")
    if "checkpoints" in section:
        try:
            cfg.checkpoints = tuple(int(v) for v in section["checkpoints"].split(","))
        except ValueError as exc:
            problems.append(f"bad value for checkpoints: {exc}")
    if "out" in section:
        cfg.out = section["out"]

    if problems:
        raise ConfigError(problems)
    return cfg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file and rename, so failures never leave partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_tsv(report: experiments.ExperimentReport) -> bytes | None:
    """Plot-ready TSV: x column, estimate, ci_low, ci_high when available."""
    res = report.results
    buf = io.StringIO()
    if "table" in res and res["table"] and isinstance(res["table"][0], dict):
        cols = list(res["table"][0].keys())
        experiments.write_tsv(buf, cols, [[row[c] for c in cols] for row in res["table"]])
    elif "medians" in res:
        cols = ["N"] + [f"median_alpha_{a}" for a in res["medians"]]
        rows = []
        for i, N in enumerate(res["checkpoints"]):
            rows.append([N] + [res["medians"][a][i] for a in res["medians"]])
        experiments.write_tsv(buf, cols, rows)
    elif "estimate" in res:
        experiments.write_tsv(
            buf, ["x", "estimate", "ci_low", "ci_high"],
            [[report.config.get("N", report.config.get("M_horizon", 0)),
              res["estimate"], res.get("ci_low", ""), res.get("ci_high", "")]],
        )
    else:
        return None
    return buf.getvalue().encode()


def emit_report(report: experiments.ExperimentReport, out_dir: str) -> None:
    base = os.path.join(out_dir, report.experiment)
    atomic_write(base + ".json", report.to_json_bytes())
    tsv = report_tsv(report)
    if tsv is not None:
        atomic_write(base + ".tsv", tsv)
    print(f"{report.experiment}: verdict={report.verdict} "
          f"config={report.config_hash} -> {base}.json")


def _verdict_status(reports) -> int:
    return 0 if all(r.verdict in ("pass", "reported") for r in reports) else 2


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def cmd_rio(args) -> int:
    sys_spec = parse_system(args.system)
    seq = parse_sequence(args.seq)
    if args.seq_conv:
        rep = experiments.rio_dichotomy(
            sys_spec, parse_sequence(args.seq_conv), seq,
            args.k, args.N, args.M, args.seed)
    else:
        rep = experiments.rio_truncated_measure(
            sys_spec, seq, args.k, args.N, args.M, args.seed)
    emit_report(rep, args.out)
    return _verdict_status([rep])


def _circle_map_a(system: str, use: str) -> int:
    """The slope a of ``system``, which must be an integer circle map,
    the only kind that ``use`` handles."""
    sys_spec = parse_system(system)
    if not isinstance(sys_spec, IntegerCircleMap):
        raise ConfigError([f"{use} needs an integer circle map, not {sys_spec.describe()}"])
    return sys_spec.a


def cmd_ear(args) -> int:
    seq = parse_sequence(args.seq)
    if args.exact:
        rep = experiments.ear_exact(_circle_map_a(args.system, "exact ear"), seq,
                                    args.n0, args.M_horizon,
                                    arc_budget=args.budget_arcs)
    elif args.sigma is not None:
        rep = experiments.prop_ear_bound_check(
            Fraction(args.sigma),
            list(range(args.n0, args.M_horizon + 1)),
            a=_circle_map_a(args.system, "ear --sigma"),
            arc_budget=args.budget_arcs)
    else:
        rep = experiments.ear_truncated_measure(
            parse_system(args.system), seq, args.n0, args.M_horizon,
            args.samples, args.seed)
    emit_report(rep, args.out)
    return _verdict_status([rep])


def cmd_petrov(args) -> int:
    seq = parse_sequence(args.seq)
    horizons = [int(v) for v in args.N.split(",")]
    profile = exact_sets.petrov_profile(args.a, seq, horizons, Fraction(args.H))
    payload = {
        "a": args.a, "seq": seq.describe(), "H": str(Fraction(args.H)),
        "profile": [
            {"N": s.N, "S_N": f"{s.S_N.numerator}/{s.S_N.denominator}",
             "R_N": f"{s.R_N.numerator}/{s.R_N.denominator}", "ratio": s.ratio}
            for s in profile
        ],
    }
    atomic_write(os.path.join(args.out, "petrov.json"),
                 json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n")
    for s in profile:
        print(f"petrov N={s.N}: ratio={s.ratio:.6g}")
    return 0


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def cmd_ulam(args) -> int:
    sys_spec = parse_system(args.system)
    op = ulam.build_ulam(sys_spec, args.bins)
    bounds = ulam.density_bounds(op)
    fit = ulam.correlation_decay_fit(op)
    payload = {
        "system": sys_spec.describe(), "bins": op.N,
        "residual": op.residual, "second_eigenvalue": op.second_eig,
        "second_eigenvalue_converged": op.second_eig_converged,
        "gap": op.gap, "c_lower": bounds.c_lower, "c_upper": bounds.c_upper,
        "c": bounds.c, "decay_C": _finite(fit.C), "decay_tau": _finite(fit.tau),
        "decay_residual": _finite(fit.residual), "decay_flagged": fit.flagged,
    }
    atomic_write(os.path.join(args.out, "ulam.json"),
                 json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n")
    if args.density_csv:
        buf = io.StringIO()
        ulam.write_density_csv(buf, op)
        atomic_write(args.density_csv, buf.getvalue().encode())
    if args.series_seq:
        seq = parse_sequence(args.series_seq)
        series = ulam.theoremB_series(op, seq, args.terms)
        atomic_write(os.path.join(args.out, "ulam_series.json"), json.dumps({
            "verdict": series.verdict, "tail_exponent": series.tail_exponent,
            "partial_sums": list(series.partial_sums),
        }, sort_keys=True, indent=2).encode() + b"\n")
        print(f"series verdict: {series.verdict}")
    print(f"ulam bins={op.N}: |lambda2|={op.second_eig:.6g} tau={fit.tau:.6g} c={bounds.c:.6g}")
    if not op.second_eig_converged:
        print(f"error: |lambda2| did not converge within KRYLOV_MAX = {ulam.KRYLOV_MAX} "
              f"matrix-vector products", file=sys.stderr)
        return 2
    return 0


def cmd_nt(args) -> int:
    if args.kind == "gcd":
        records = []
        for m in range(1, args.max + 1):
            for n in range(1, args.max + 1):
                g = number_theory.gcd_mersenne(args.a, m, n)
                records.append({"m": m, "n": n, "gcd": str(g), "ok": True})
        payload = {"a": args.a, "max": args.max, "identity_holds": True,
                   "cases": len(records)}
    elif args.kind == "lattice":
        lat = number_theory.scalar_lattice(args.a, args.m, args.n)
        brute = number_theory.scalar_lattice_bruteforce(args.a, args.m, args.n, args.bound)
        complete = all(lat.solve_j(k, l) is not None for k, l in brute)
        payload = {"a": args.a, "m": args.m, "n": args.n, "p": lat.p,
                   "generator": [lat.k0, lat.l0],
                   "bruteforce_solutions": len(brute),
                   "bruteforce_complete": complete}
    else:  # matrix-lattice
        rows = tuple(tuple(int(v) for v in row.split(",")) for row in args.matrix.split(";"))
        lat = number_theory.matrix_lattice(rows, args.m, args.n)
        brute = number_theory.matrix_lattice_bruteforce(rows, args.m, args.n, args.box)
        complete = all(
            lat.solve_j(k) is not None and lat.pair(lat.solve_j(k))[1] == l
            for k, l in brute
        )
        payload = {"B": [list(r) for r in rows], "m": args.m, "n": args.n,
                   "p": lat.p, "K_gen": [list(r) for r in lat.K_gen],
                   "L_gen": [list(r) for r in lat.L_gen],
                   "bruteforce_solutions": len(brute),
                   "bruteforce_complete": complete}
    atomic_write(os.path.join(args.out, f"nt_{args.kind}.json"),
                 json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n")
    print(json.dumps(payload, sort_keys=True))
    if payload.get("bruteforce_complete") is False:
        print(f"error: the {args.kind} generators miss a brute-force solution",
              file=sys.stderr)
        return 2
    return 0


def cmd_exact(args) -> int:
    r = Fraction(args.r)
    if args.piecewise:
        res = exact_sets.build_recurrence_set_piecewise(
            parse_system(args.system), args.n, r, branch_budget=args.budget_arcs)
    else:
        a = _circle_map_a(args.system, "closed-form construction (--piecewise takes others)")
        res = exact_sets.build_recurrence_set(a, args.n, r, arc_budget=args.budget_arcs)
    print(f"E_{args.n}: measure={res.measure} ({float(res.measure):.6g}), "
          f"arcs={res.arc_count}")
    if args.set_out and res.set is not None:
        atomic_write(args.set_out, res.set.to_text().encode())
    return 0


def cmd_orbit(args) -> int:
    sys_spec = parse_system(args.system)
    if args.scan_alphas:
        alphas = [float(v) for v in args.scan_alphas.split(",")]
        checkpoints = [int(v) for v in args.checkpoints.split(",")]
        rep = experiments.boshernitzan_scan(sys_spec, alphas, checkpoints,
                                            args.samples, args.seed)
        emit_report(rep, args.out)
        return _verdict_status([rep])
    buf = io.StringIO()
    dynamics.write_orbit_csv(buf, sys_spec, Fraction(args.x), args.steps)
    path = os.path.join(args.out, "orbit.csv")
    atomic_write(path, buf.getvalue().encode())
    print(f"orbit trace -> {path}")
    return 0


def cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    ns = argparse.Namespace(
        system=cfg.system.describe() if cfg.system else None,
        seq=cfg.seq.describe() if cfg.seq else None,
        seq_conv=cfg.seq_conv.describe() if cfg.seq_conv else None,
        k=cfg.k, N=cfg.N, M=cfg.samples, samples=cfg.samples, seed=cfg.seed,
        n0=cfg.n0, M_horizon=cfg.m_horizon, H=cfg.H, a=cfg.a, r=cfg.r,
        bins=cfg.bins, out=cfg.out, budget_arcs=cfg.budget_arcs,
        exact=False, sigma=None, density_csv=None, series_seq=None, terms=50,
        scan_alphas=None, checkpoints=",".join(str(c) for c in cfg.checkpoints),
        piecewise=False, set_out=None, x="1/3", steps=32,
    )
    if cfg.experiment in ("rio", "rio_dichotomy"):
        return cmd_rio(ns)
    if cfg.experiment == "ear":
        return cmd_ear(ns)
    if cfg.experiment == "ear_exact":
        ns.exact = True
        return cmd_ear(ns)
    if cfg.experiment == "petrov":
        ns.N = str(cfg.N)
        return cmd_petrov(ns)
    if cfg.experiment == "ulam":
        return cmd_ulam(ns)
    if cfg.experiment == "exact":
        ns.n = cfg.N
        return cmd_exact(ns)
    if cfg.experiment == "boshernitzan":
        ns.scan_alphas = ",".join(str(a) for a in cfg.alphas)
        return cmd_orbit(ns)
    raise ConfigError([f"unhandled experiment {cfg.experiment!r}"])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurlab",
        description="Quantitative-recurrence experiments for expanding maps. "
                    "TSV outputs carry columns: x, estimate, ci_low, ci_high.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it acts on
    def common(p, seed=False, budget=False):
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if budget:
            p.add_argument("--budget-arcs", dest="budget_arcs", type=int,
                           default=exact_sets.DEFAULT_ARC_BUDGET)

    p = sub.add_parser("rio", help="truncated infinitely-often return measure")
    p.add_argument("--system", required=True)
    p.add_argument("--seq", required=True, help="radius sequence (divergent side in dichotomy)")
    p.add_argument("--seq-conv", dest="seq_conv", default=None,
                   help="convergent-side sequence; switches to the paired dichotomy")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--N", type=int, default=5000)
    p.add_argument("--M", type=int, default=2000)
    common(p, seed=True)
    p.set_defaults(func=cmd_rio)

    p = sub.add_parser("ear", help="eventually-always return experiments")
    p.add_argument("--system", default="doubling")
    p.add_argument("--seq", default="powerlaw:1,2")
    p.add_argument("--n0", type=int, default=4)
    p.add_argument("--M-horizon", dest="M_horizon", type=int, default=18)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--exact", action="store_true", help="exact interval arithmetic path")
    p.add_argument("--sigma", default=None,
                   help="run the exact complement-measure bound check at this sigma")
    common(p, seed=True, budget=True)
    p.set_defaults(func=cmd_ear)

    p = sub.add_parser("petrov", help="exact quasi-independence ratio profile")
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--seq", default="powerlaw:1/4,1")
    p.add_argument("--N", default="8,12,16,20", help="comma-separated horizons")
    p.add_argument("--H", default="1")
    common(p)
    p.set_defaults(func=cmd_petrov)

    p = sub.add_parser("ulam", help="transfer-operator discretization diagnostics")
    p.add_argument("--system", required=True)
    p.add_argument("--bins", type=int, default=1024)
    p.add_argument("--density-csv", dest="density_csv", default=None)
    p.add_argument("--series-seq", dest="series_seq", default=None,
                   help="also evaluate the return-ball summability series")
    p.add_argument("--terms", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_ulam)

    p = sub.add_parser("nt", help="number-theoretic kernels")
    ntsub = p.add_subparsers(dest="kind", required=True)
    g = ntsub.add_parser("gcd")
    g.add_argument("--a", type=int, required=True)
    g.add_argument("--max", type=int, default=12)
    common(g)
    g.set_defaults(func=cmd_nt)
    g = ntsub.add_parser("lattice")
    g.add_argument("--a", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--bound", type=int, default=50)
    common(g)
    g.set_defaults(func=cmd_nt)
    g = ntsub.add_parser("matrix-lattice")
    g.add_argument("--matrix", required=True, help="rows 'a,b;c,d'")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--box", type=int, default=5)
    common(g)
    g.set_defaults(func=cmd_nt)

    p = sub.add_parser("exact", help="exact recurrence-set construction")
    p.add_argument("--system", default="doubling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--piecewise", action="store_true",
                   help="branch-composition construction")
    p.add_argument("--set-out", dest="set_out", default=None,
                   help="write the IntervalSet text serialization here")
    common(p, budget=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("orbit", help="orbit traces and orbit statistics")
    p.add_argument("--system", required=True)
    p.add_argument("--x", default="1/3")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--scan-alphas", dest="scan_alphas", default=None,
                   help="run the minimal-weighted-distance scan for these alphas")
    p.add_argument("--checkpoints", default="100,1000,10000")
    p.add_argument("--samples", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except RecurlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
