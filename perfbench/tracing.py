"""Per-layer tracing of recurlab from outside the package.

Each probe replaces one function binding (``module.name`` or
``module.Class.method``) with a wrapper that records the call's self time
(duration minus the time of wrapped calls made inside it) and its counts.
Functions that another module imported by name are patched in that module,
because that is where the name is looked up.

Cold functions also record a span (id, name, start, end, parent id, op id);
hot per-step functions (``span=False``) only add to the per-op count and busy
time, so tracing them stays affordable.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _one(args, result) -> int:
    return 1


@dataclass(frozen=True)
class Probe:
    module: str                 # e.g. "recurlab.experiments"
    attr: str                   # "name" or "Class.method"
    time: str | None            # self-time metric; None counts without timing
    counts: tuple[tuple[str, Callable], ...] = ()
    span: bool = True


PROBES: tuple[Probe, ...] = (
    # cli (with systems spec parsing)
    Probe("recurlab.cli", "parse_system", "cli.parse_s"),
    Probe("recurlab.cli", "parse_sequence", "cli.parse_s"),
    Probe("recurlab.cli", "emit_report", "cli.emit_s"),
    Probe("recurlab.cli", "atomic_write", "cli.emit_s",
          (("cli.bytes_written", lambda a, r: len(a[1])),)),
    # experiments
    Probe("recurlab.experiments", "scaled_radius", "experiments.threshold_s",
          (("experiments.threshold_calls", _one),), span=False),
    Probe("recurlab.experiments", "_sample_start", None,
          (("experiments.samples", _one),), span=False),
    Probe("recurlab.dynamics", "DyadicOrbitView.exact_dist", "experiments.gray_s",
          (("experiments.gray_calls", _one),)),
    # the experiment functions' own work: per-sample loops and reductions
    *(Probe("recurlab.experiments", name, "experiments.rest_s")
      for name in ("rio_truncated_measure", "rio_dichotomy", "ear_truncated_measure",
                   "ear_exact", "boshernitzan_scan")),
    # dynamics
    Probe("recurlab.experiments", "sample_bits", "dynamics.sample_s",
          (("dynamics.samples", _one), ("experiments.samples", _one)), span=False),
    Probe("recurlab.dynamics", "sample_bits", "dynamics.sample_s",
          (("dynamics.samples", _one),), span=False),
    Probe("recurlab.dynamics", "DyadicOrbitView.circle_dist64_batch", "dynamics.window_s",
          (("dynamics.windows", lambda a, r: a[2] - a[1] + 1),), span=False),
    Probe("recurlab.dynamics", "FixedPointOrbit.step", "dynamics.fp_step_s",
          (("dynamics.fp_steps", _one),), span=False),
    Probe("recurlab.dynamics", "FixedPointOrbit.dist_to_start", "dynamics.fp_dist_s",
          span=False),
    Probe("recurlab.experiments", "_exact_step", "dynamics.exact_step_s",
          (("dynamics.exact_steps", _one),), span=False),
    Probe("recurlab.dynamics", "_exact_step", "dynamics.exact_step_s",
          (("dynamics.exact_steps", _one),), span=False),
    *(Probe(m, "point_distance", "dynamics.exact_dist_s", span=False)
      for m in ("recurlab.experiments", "recurlab.dynamics")),
    # circle
    Probe("recurlab.circle", "RadiusSequence.approx", "circle.radius_approx_s",
          (("circle.radius_approx_calls", _one),), span=False),
    Probe("recurlab.circle", "RadiusSequence.mp", "circle.radius_mp_s", span=False),
    *(Probe(m, "merge_scaled_arcs", "circle.merge_s",
            (("circle.merge_arcs_in", lambda a, r: len(a[0])),))
      for m in ("recurlab.circle", "recurlab.exact_sets", "recurlab.experiments")),
    *(Probe(m, "intersect_scaled_arcs", "circle.intersect_s",
            (("circle.intersect_arcs_in", lambda a, r: len(a[0]) + len(a[1])),))
      for m in ("recurlab.circle", "recurlab.exact_sets")),
    Probe("recurlab.circle", "IntervalSet.to_text", "circle.to_text_s"),
    # exact_sets: the named kernels, then the rest of each entry point
    Probe("recurlab.exact_sets", "_en_intersection_measure", "exact_sets.pair_s",
          (("exact_sets.pairs", _one),)),
    Probe("recurlab.exact_sets", "_ear_scaled_cover", "exact_sets.cover_s",
          (("exact_sets.cover_arcs", lambda a, r: len(r)),)),
    Probe("recurlab.exact_sets", "compose_branches", "exact_sets.compose_s",
          (("exact_sets.branches", lambda a, r: len(r)),)),
    *(Probe("recurlab.exact_sets", name, "exact_sets.rest_s")
      for name in ("petrov_profile", "build_recurrence_set", "build_recurrence_set_piecewise")),
    *(Probe(m, "ear_truncated_A", "exact_sets.rest_s")
      for m in ("recurlab.exact_sets", "recurlab.experiments")),
    # ulam
    Probe("recurlab.ulam", "_fill_matrix_from_branches", "ulam.assembly_s"),
    Probe("recurlab.ulam", "build_ulam", "ulam.density_s"),
    Probe("recurlab.ulam", "_second_eigenvalue", "ulam.eig_s"),
    Probe("recurlab.ulam", "theoremB_series", "ulam.series_s"),
    Probe("recurlab.ulam", "correlation_decay_fit", "ulam.decay_s"),
)

TIME_METRICS = tuple(dict.fromkeys(p.time for p in PROBES if p.time))
COUNT_METRICS = tuple(dict.fromkeys(k for p in PROBES for k, _ in p.counts))


def _owners(module: str, attr: str) -> list[tuple[object, str]]:
    """(owner, name) pairs to patch: the module global, or the method on its
    class and on every recurlab subclass that overrides it."""
    mod = importlib.import_module(module)
    if "." not in attr:
        return [(mod, attr)]
    cls_name, meth = attr.split(".")
    root = getattr(mod, cls_name)
    classes, todo = [], [root]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return [(cls, meth) for cls in classes
            if cls.__module__.startswith("recurlab") and meth in cls.__dict__]


class Patches:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Collects per-layer self times, counts and spans for traced ops.

    Use as a context manager around traced ops (it may be entered again),
    and bracket each op with ``begin_op``/``end_op``. Outside an op the
    wrappers only forward.
    """

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self._op_times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._root: list | None = None
        self._patches = Patches()

    def __enter__(self) -> "Tracer":
        for probe in PROBES:
            for owner, name in _owners(probe.module, probe.attr):
                self._patches.replace(owner, name, lambda fn, p=probe: self._wrap(fn, p))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._next_id += 1
        self._root = [0.0, self._next_id]
        self._stack = [self._root]

    def end_op(self, name: str, t0: float, t1: float, scale: float = 1.0) -> None:
        """Close the op's root span (its self time is the unattributed part)
        and add the op's self times, multiplied by ``scale``, to the totals."""
        root = self._root
        self._op_times["unattributed_s"] += (t1 - t0) - root[0]
        self.spans.append((root[1], name, t0, t1, 0, self.op_id))
        for key, seconds in self._op_times.items():
            self.times[key] += seconds * scale
        self._op_times.clear()
        self.op_id = None
        self._stack = []

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        tracer = self
        times, counts, spans = self._op_times, self.counts, self.spans
        key, amounts, is_span, name = probe.time, probe.counts, probe.span, probe.attr
        perf = time.perf_counter

        if key is None:
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.op_id is not None:
                    for k, amount in amounts:
                        counts[k] += amount(args, result)
                return result
            return count_only

        def timed(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            if is_span:
                tracer._next_id += 1
                sid = tracer._next_id
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            dur = t1 - t0
            parent[0] += dur
            times[key] += dur - frame[0]
            for k, amount in amounts:
                counts[k] += amount(args, result)
            if is_span:
                spans.append((sid, name, t0, t1, parent[1], tracer.op_id))
            return result
        return timed
