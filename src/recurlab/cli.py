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
import functools
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import circle, dynamics, exact_sets, experiments, number_theory, ulam
from .circle import EarRadius, ExplicitTable, PowerLaw, PowerLog
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
        return EarRadius(Fraction(rest) if rest else Fraction(1))
    raise ConfigError([f"unknown radius sequence spec {text!r}"])


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

# Each experiment's command line, then its (required, optional) keys besides
# ``experiment`` and ``out``: a key the experiment would ignore is an error,
# as on the command line. ``m`` and ``samples`` both set the sample count.
_SAMPLING = {"m", "samples", "seed"}
_EXPERIMENTS = {
    "rio": (["rio"], {"system", "seq"}, {"seq_conv", "k", "n"} | _SAMPLING),
    "rio_dichotomy": (["rio"], {"system", "seq", "seq_conv"}, {"k", "n"} | _SAMPLING),
    "ear": (["ear"], {"system", "seq"}, {"n0", "m_horizon"} | _SAMPLING),
    "ear_exact": (["ear", "--exact"], {"system", "seq"}, {"n0", "m_horizon", "budget_arcs"}),
    "petrov": (["petrov"], {"seq"}, {"a", "n", "h"}),
    "ulam": (["ulam"], {"system"}, {"bins"}),
    "exact": (["exact"], {"system", "n", "r"}, {"budget_arcs"}),
    "boshernitzan": (["orbit"], {"system", "alphas"}, {"checkpoints"} | _SAMPLING),
}
# key -> (option, check of its value). The values are checked here, so that
# every problem is collected before the command's own parser, which declares
# the defaults, reads the command line.
_KEYS = {
    "system": ("--system", parse_system), "seq": ("--seq", parse_sequence),
    "seq_conv": ("--seq-conv", parse_sequence), "k": ("--k", int), "n": ("--N", int),
    "m": ("--samples", int), "samples": ("--samples", int), "seed": ("--seed", int),
    "n0": ("--n0", int), "m_horizon": ("--M-horizon", int), "h": ("--H", Fraction),
    "a": ("--a", int), "r": ("--r", Fraction), "bins": ("--bins", int),
    "budget_arcs": ("--budget-arcs", int),
    "alphas": ("--scan-alphas", lambda v: [float(x) for x in v.split(",")]),
    "checkpoints": ("--checkpoints", lambda v: [int(x) for x in v.split(",")]),
    "out": ("--out", str),
}
_RENAMED = {"rio": {"m": "--M", "samples": "--M"}, "exact": {"n": "--n"}}
_POSITIVE = {"k", "n", "m", "samples", "n0", "m_horizon", "h", "bins", "budget_arcs"}


def parse_config(text: str) -> list[str]:
    """The command line that a key = value config (single [run] section)
    stands for, collecting every validation problem before raising."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"])
    if "run" not in cp:
        raise ConfigError(["missing [run] section"])
    section = cp["run"]
    problems: list[str] = []
    exp = section.get("experiment", "").strip()
    if exp not in _EXPERIMENTS:
        problems.append(f"experiment must be one of {sorted(_EXPERIMENTS)}, got {exp!r}")
    head, required, optional = _EXPERIMENTS.get(exp, ([""], set(), set(_KEYS)))
    renamed = _RENAMED.get(head[0], {})
    argv = list(head)
    for key in (k for k in section if k != "experiment"):
        if key not in _KEYS:
            problems.append(f"unknown key {key!r}")
            continue
        if key not in required | optional | {"out"}:
            problems.append(f"experiment {exp!r} does not use key {key!r}")
        option, check = _KEYS[key]
        try:
            val = check(section[key])
            if key in _POSITIVE and val <= 0:
                problems.append(f"{key} must be positive, got {val}")
        except (ValueError, ZeroDivisionError, ConfigError) as exc:
            problems.append(f"bad value for {key}: {exc}")
        argv.append(f"{renamed.get(key, option)}={section[key]}")
    problems.extend(f"experiment {exp!r} needs a {key}"
                    for key in sorted(required) if key not in section)
    if problems:
        raise ConfigError(problems)
    return argv


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


def emit_report(report: experiments.ExperimentReport, out_dir: str) -> int:
    """Write the report and its TSV; the exit status of its verdict."""
    base = os.path.join(out_dir, report.experiment)
    atomic_write(base + ".json", report.to_json_bytes())
    tsv = report_tsv(report)
    if tsv is not None:
        atomic_write(base + ".tsv", tsv)
    print(f"{report.experiment}: verdict={report.verdict} "
          f"config={report.config_hash} -> {base}.json")
    return 0 if report.verdict in ("pass", "reported") else 2


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
    return emit_report(rep, args.out)


def _circle_map_a(system: str, use: str) -> int:
    """The slope a of ``system``, which must be an integer circle map,
    the only kind that ``use`` handles."""
    sys_spec = parse_system(system)
    if not isinstance(sys_spec, IntegerCircleMap):
        raise ConfigError([f"{use} needs an integer circle map, not {sys_spec.describe()}"])
    return sys_spec.a


def cmd_ear(args) -> int:
    if args.exact:
        _reject_unused(args, "ear --exact", "--sigma", "--samples", "--seed")
    elif args.sigma is not None:
        _reject_unused(args, "ear --sigma", "--seq", "--samples", "--seed")
    else:
        _reject_unused(args, "ear (Monte Carlo)", "--budget-arcs")
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
    return emit_report(rep, args.out)


def cmd_petrov(args) -> int:
    seq = parse_sequence(args.seq)
    horizons = [int(v) for v in args.N.split(",")]
    if n := next((n for n in range(1, max(horizons) + 1) if (seq.exact(n) or 0) > 0.5), 0):
        args.parser.error(f"--seq {args.seq} has r_{n} = {seq.exact(n)}, above petrov's 1/2")
    profile = exact_sets.petrov_profile(args.a, seq, horizons, Fraction(args.H))
    payload = {
        "a": args.a, "seq": seq.describe(), "H": str(Fraction(args.H)),
        "profile": [
            {"N": s.N, "S_N": s.S_N, "R_N": s.R_N, "ratio": s.ratio} for s in profile
        ],
    }
    atomic_write(os.path.join(args.out, "petrov.json"), experiments.canonical_json(payload))
    for s in profile:
        print(f"petrov N={s.N}: ratio={s.ratio:.6g}")
    return 0


def cmd_ulam(args) -> int:
    seq = parse_sequence(args.series_seq) if args.series_seq else None
    if seq is None:
        _reject_unused(args, "ulam without --series-seq", "--terms")
    elif isinstance(seq, ExplicitTable):  # a table bounds the terms
        n = len(seq.values)
        if args.terms > n and "--terms" in getattr(args, "given", ()):
            args.parser.error(f"--terms {args.terms} runs past the {n} entries of the table")
        args.terms = min(args.terms, n)
    sys_spec = parse_system(args.system)
    op = ulam.build_ulam(sys_spec, args.bins)
    bounds = ulam.density_bounds(op)
    fit = ulam.correlation_decay_fit(op)
    payload = {
        "system": sys_spec.describe(), "bins": op.N,
        "residual": op.residual, "second_eigenvalue": op.second_eig,
        "second_eigenvalue_converged": op.second_eig_converged,
        "gap": op.gap, "c_lower": bounds.c_lower, "c_upper": bounds.c_upper,
        "c": bounds.c, "decay_C": fit.C, "decay_tau": fit.tau,
        "decay_flagged": fit.flagged,
    }
    atomic_write(os.path.join(args.out, "ulam.json"), experiments.canonical_json(payload))
    if args.density_csv:
        buf = io.StringIO()
        ulam.write_density_csv(buf, op)
        atomic_write(args.density_csv, buf.getvalue().encode())
    if seq is not None:
        series = ulam.theoremB_series(op, seq, args.terms)
        atomic_write(os.path.join(args.out, "ulam_series.json"), experiments.canonical_json({
            "verdict": series.verdict, "partial_sums": series.partial_sums,
        }))
        print(f"series verdict: {series.verdict}")
    print(f"ulam bins={op.N}: |lambda2|={op.second_eig:.6g} tau={fit.tau:.6g} c={bounds.c:.6g}")
    if not op.second_eig_converged:
        print(f"error: |lambda2| did not converge within KRYLOV_MAX = {ulam.KRYLOV_MAX} "
              f"matrix-vector products", file=sys.stderr)
        return 2
    return 0


def cmd_nt(args) -> int:
    failure = None
    if args.kind == "gcd":
        a = args.a
        cases = [(m, n) for m in range(1, args.max + 1) for n in range(1, args.max + 1)]
        wrong = [(m, n) for m, n in cases
                 if number_theory.gcd_mersenne(a, m, n) != a ** math.gcd(m, n) - 1]
        payload = {"a": a, "max": args.max, "identity_holds": not wrong,
                   "cases": len(cases)}
        if wrong:
            m, n = wrong[0]
            failure = f"gcd(a^m - 1, a^n - 1) != a^gcd(m, n) - 1 at a={a}, m={m}, n={n}"
    else:  # a solution lattice; the scalar one is the 1x1 matrix lattice
        if args.kind == "lattice":
            lat = number_theory.scalar_lattice(args.a, args.m, args.n)
            brute = number_theory.scalar_lattice_bruteforce(args.a, args.m, args.n, args.bound)
            payload = {"a": args.a, "m": args.m, "n": args.n, "p": lat.p,
                       "generator": [lat.k0, lat.l0]}
        else:
            rows = tuple(tuple(int(v) for v in row.split(",")) for row in args.matrix.split(";"))
            lat = number_theory.matrix_lattice(rows, args.m, args.n)
            brute = number_theory.matrix_lattice_bruteforce(rows, args.m, args.n, args.box)
            payload = {"B": [list(r) for r in rows], "m": args.m, "n": args.n,
                       "p": lat.p, "K_gen": [list(r) for r in lat.K_gen],
                       "L_gen": [list(r) for r in lat.L_gen]}
        complete = all(lat.solve_j(k, l) is not None for k, l in brute)
        payload.update(bruteforce_solutions=len(brute), bruteforce_complete=complete)
        if not complete:
            failure = f"the {args.kind} generators miss a brute-force solution"
    atomic_write(os.path.join(args.out, f"nt_{args.kind}.json"),
                 experiments.canonical_json(payload))
    print(json.dumps(payload, sort_keys=True))
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    return 0


def cmd_exact(args) -> int:
    sys_spec, r, budget = parse_system(args.system), Fraction(args.r), args.budget_arcs
    if isinstance(sys_spec, IntegerCircleMap) and not args.piecewise:  # the closed form
        res = exact_sets.build_recurrence_set(sys_spec.a, args.n, r, arc_budget=budget,
                                              materialize=bool(args.set_out))
    else:  # branch composition; a map without affine branches refuses
        res = exact_sets.build_recurrence_set_piecewise(sys_spec, args.n, r, branch_budget=budget)
    print(f"E_{args.n}: measure={res.measure} ({float(res.measure):.6g}), "
          f"arcs={res.arc_count}")
    if args.set_out and res.set is not None:
        atomic_write(args.set_out, res.set.to_text().encode())
    return 0


def cmd_orbit(args) -> int:
    if args.scan_alphas:
        _reject_unused(args, "orbit --scan-alphas", "--x", "--steps")
    else:
        _reject_unused(args, "an orbit trace", "--checkpoints", "--samples", "--seed")
    sys_spec = parse_system(args.system)
    if args.scan_alphas:
        alphas = [float(v) for v in args.scan_alphas.split(",")]
        checkpoints = [int(v) for v in args.checkpoints.split(",")]
        rep = experiments.boshernitzan_scan(sys_spec, alphas, checkpoints,
                                            args.samples, args.seed)
        return emit_report(rep, args.out)
    x = [Fraction(v) for v in args.x.split(",")]
    if len(x) != sys_spec.d:
        args.parser.error(f"--x takes {sys_spec.d} coordinate(s) for {args.system}")
    buf = io.StringIO()
    dynamics.write_orbit_csv(buf, sys_spec, x if len(x) > 1 else x[0], args.steps)
    path = os.path.join(args.out, "orbit.csv")
    atomic_write(path, buf.getvalue().encode())
    print(f"orbit trace -> {path}")
    return 0


def cmd_run(args) -> int:
    with open(args.config) as fh:
        run_args = build_parser().parse_args(parse_config(fh.read()))
    return run_args.func(run_args)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Noted(argparse.Action):
    """Store the option's value and note that it was given, so that a mode
    which would ignore it can refuse it (``_reject_unused``)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


def _reject_unused(args, mode: str, *options: str) -> None:
    """A usage error (exit 2) if ``mode`` was given any of ``options``,
    which it would ignore."""
    unused = [o for o in options if o in getattr(args, "given", ())]
    if unused:
        args.parser.error(f"{mode} does not use {', '.join(unused)}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="recurlab",
        description="Quantitative-recurrence experiments for expanding maps. "
                    "TSV outputs carry columns: x, estimate, ci_low, ci_high.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it acts on, and its usage errors
    # name it (``args.parser.error``)
    def common(p, seed=False, budget=False):
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(parser=p)
        if seed:
            p.add_argument("--seed", type=int, default=0, action=_Noted)
        if budget:
            p.add_argument("--budget-arcs", dest="budget_arcs", type=int, action=_Noted,
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
    p.add_argument("--seq", default="powerlaw:1,2", action=_Noted)
    p.add_argument("--n0", type=int, default=4)
    p.add_argument("--M-horizon", dest="M_horizon", type=int, default=18)
    p.add_argument("--samples", type=int, default=2000, action=_Noted)
    p.add_argument("--exact", action="store_true", help="exact interval arithmetic path")
    p.add_argument("--sigma", default=None, action=_Noted,
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
    p.add_argument("--terms", type=int, default=50, action=_Noted)
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
    p.add_argument("--x", default="1/3", action=_Noted,
                   help="start point: one coordinate, or d comma-separated on a d-torus")
    p.add_argument("--steps", type=int, default=64, action=_Noted)
    p.add_argument("--scan-alphas", dest="scan_alphas", default=None,
                   help="run the minimal-weighted-distance scan for these alphas")
    p.add_argument("--checkpoints", default="100,1000,10000", action=_Noted)
    p.add_argument("--samples", type=int, default=1000, action=_Noted)
    common(p, seed=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (RecurlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
