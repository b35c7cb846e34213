"""Tests of the benchmark itself: op seeds, failure counting, tracer hygiene.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import importlib
import json
import pytest

import ops
import run
import tracing

RECURLAB_MODULES = ("recurlab.cli", "recurlab.experiments", "recurlab.dynamics",
                    "recurlab.circle", "recurlab.exact_sets", "recurlab.ulam",
                    "recurlab.systems", "recurlab.number_theory", "recurlab.errors")


def _snapshot() -> dict:
    """The identity of every module global and class attribute of recurlab."""
    snap = {}
    for name in RECURLAB_MODULES:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = id(cvalue)
    return snap


def _small_ear_op() -> ops.Op:
    op = ops.build_cycle("mc-shift", 3, 1)[3]
    assert op.kind == "ear-mc"
    argv = list(op.argv)
    argv[argv.index("--samples") + 1] = "100"
    argv[argv.index("--M-horizon") + 1] = "40"
    return ops.Op(op.kind, tuple(argv), op.check, dict(op.expect, M=100))


def test_op_seeds_are_deterministic():
    for workload in ops.WORKLOADS:
        first = [op.argv for op in ops.build_cycle(workload, 7, 2)]
        again = [op.argv for op in ops.build_cycle(workload, 7, 2)]
        assert first == again
    assert ops.op_seed("mc-shift", 7, 2, 0) == ops.op_seed("mc-shift", 7, 2, 0)
    seeds = {ops.op_seed("mc-shift", s, c, i) for s in (1, 2) for c in (0, 1) for i in range(6)}
    assert len(seeds) == 24
    assert ([op.argv for op in ops.build_cycle("mc-shift", 1, 1)]
            != [op.argv for op in ops.build_cycle("mc-shift", 2, 1)])


def test_tampered_output_counts_as_failed(tmp_path):
    runner = run.Runner("mc-shift", 3, tmp_path)
    op = _small_ear_op()
    out = ops.execute(op, str(tmp_path / "op"), runner.capture)
    assert runner.record(op, out)
    report = json.loads(out.files["ear_truncated_measure.json"])
    report["results"]["estimate"] = report["results"]["ci_high"] + 0.01
    out.files["ear_truncated_measure.json"] = json.dumps(report).encode()
    assert not runner.record(op, out)
    out.files = {}
    assert not runner.record(op, out)
    assert (runner.attempted, runner.failed) == (3, 2)


@pytest.mark.parametrize("check, files", [
    (ops.check_dichotomy, {"rio_dichotomy.json": {
        "verdict": "pass", "results": {
            "estimate_convergent": 0.5, "ci_convergent": [0.4, 0.6],
            "estimate_divergent": 0.4, "ci_divergent": [0.3, 0.5]}}}),
    (ops.check_ear_exact, {"ear_exact.json": {"results": {
        "measure": "1/2", "profile": [[4, "1/4"], [5, "1/2"]]}}}),
])
def test_checks_reject_broken_invariants(check, files):
    op = ops.Op("x", (), check, {"M": 10})
    out = ops.Outcome(0, "", {k: json.dumps(v).encode() for k, v in files.items()},
                      None, 0.0, 0.0)
    assert ops.problems(op, out)


def test_tracer_restores_every_attribute(tmp_path):
    before = _snapshot()
    op = _small_ear_op()
    with run.Runner("mc-shift", 3, tmp_path) as runner, tracing.Tracer() as tracer:
        assert _snapshot() != before
        tracer.begin_op(1)
        out = ops.execute(op, str(tmp_path / "op"), runner.capture)
        tracer.end_op(op.kind, out.t0, out.t1)
        runner.record(op, out)
    assert _snapshot() == before
    assert runner.failed == 0
    assert tracer.counts["dynamics.samples"] == 100


def test_probes_cover_every_binding():
    """A probed function imported by name elsewhere must be probed there too."""
    probed = {(p.module, p.attr) for p in tracing.PROBES if "." not in p.attr}
    for module, attr in probed:
        fn = getattr(importlib.import_module(module), attr)
        for other in RECURLAB_MODULES:
            if getattr(importlib.import_module(other), attr, None) is fn:
                assert (other, attr) in probed, f"{other}.{attr} is not probed"


def test_traced_counts_repeat(tmp_path):
    def counts():
        with run.Runner("mc-iterated", 5, tmp_path) as runner, tracing.Tracer() as tracer:
            for i, op in enumerate(ops.build_cycle("mc-iterated", 5, 1)[:2]):
                tracer.begin_op(i)
                out = ops.execute(op, str(tmp_path / "op"), runner.capture)
                tracer.end_op(op.kind, out.t0, out.t1)
                assert runner.record(op, out)
        return dict(tracer.counts)

    first = counts()
    assert first["dynamics.fp_steps"] > 0
    assert counts() == first


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ulam", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
