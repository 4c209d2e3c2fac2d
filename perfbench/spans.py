"""Timing spans around the public calls of each simulator layer.

The traced run wraps layer entry points from the outside: while a
:class:`LayerTracer` is installed, each target function or method is
replaced by a wrapper that records one span (name, start, end, parent,
count) per call, and uninstalling puts every original back.  Nothing
under ``src/`` knows about it.  Spans are kept in memory and turned
into per-layer numbers by :func:`layer_split`.

A span's *self time* is its duration minus the durations of its direct
children.  The calls are synchronous on one thread, so children never
overlap and their sum is exactly the part of the parent's interval they
cover.  The root span (``workload``) wraps one call of the workload's
entry point; its self time, plus that of the benchmark's own ``bench.*``
marker spans, is reported as unattributed.
"""

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

#: Span row fields, by index.
NAME, START, END, PARENT, COUNT = range(5)

ROOT = "workload"
RESUME = "bench.resume"


class SpanRecorder:
    """Spans kept as flat columns with a parent stack.

    Columns of names and ints, not one object per span, keep the
    recorder's own cost (allocation and garbage-collector scans) small
    next to the calls it times.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.counts: List[int] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0)
        self.counts.append(0)
        stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int, count: int = 0) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.counts[index] = count
        if self._stack.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a ``with`` block."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def rows(self) -> List[tuple]:
        """Spans as ``(name, start_ns, end_ns, parent, count)`` rows."""
        return list(zip(
            self.names, self.starts, self.ends, self.parents, self.counts
        ))


def self_times(spans: Sequence[tuple]) -> List[int]:
    """Each span's duration minus its direct children's durations (ns)."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def descendants(spans: Sequence[tuple], index: int) -> List[int]:
    """Indices of every span nested (at any depth) under ``index``."""
    inside = {index}
    found = []
    for position in range(index + 1, len(spans)):
        if spans[position][PARENT] in inside:
            inside.add(position)
            found.append(position)
    return found


# ---------------------------------------------------------------------------
# Wrapped layer entry points
# ---------------------------------------------------------------------------
def _count_none(args, result) -> int:
    return 0


def _count_one(args, result) -> int:
    return 1


def _count_result(args, result) -> int:
    return int(result)


def _count_first_len(args, result) -> int:
    return len(args[0])


def _count_lanes(args, result) -> int:
    return args[0].num_lanes


#: (module, attribute path, span name, materialize, count).  ``count``
#: maps the call's arguments and result to the span's work count; a
#: materialized target has a lazy result turned into a list inside its
#: span, so generation is billed to the generator, not to its consumer.
TARGETS = (
    ("repro.harness", "replicate", "harness.replicate", False, _count_none),
    ("repro.harness", "run_sweep", "harness.run_sweep", False, _count_none),
    ("repro.harness", "compare_schedulers", "harness.compare_schedulers",
     False, _count_none),
    ("repro.harness.parallel", "_execute_tasks", "harness.dispatch",
     False, _count_first_len),
    ("repro.harness.parallel", "_execute_tasks_resilient",
     "harness.dispatch", False, _count_first_len),
    ("repro.harness.parallel", "_run_measurement", "harness.measure",
     False, _count_one),
    ("repro.network.engine", "Simulation.run", "network.run",
     False, _count_none),
    ("repro.traffic.base", "SyntheticTraffic.packets_for_cycle",
     "traffic.packets_for_cycle", True, None),
    ("repro.traffic.hotspot", "HotspotTraffic.packets_for_cycle",
     "traffic.packets_for_cycle", True, None),
    ("repro.traffic.trace", "TraceTraffic.packets_for_cycle",
     "traffic.packets_for_cycle", True, None),
    ("repro.core.hirise", "HiRiseSwitch.inject_many", "network.inject",
     False, _count_result),
    ("repro.switches.voq", "VOQSwitch.inject", "network.inject",
     False, _count_one),
    ("repro.core.hirise", "HiRiseSwitch.step", "hirise.step",
     False, _count_one),
    ("repro.switches.voq", "VOQSwitch.step", "voq.step", False, _count_one),
    ("repro.core.fleet", "run_fleet_plans", "fleet.run_fleet_plans",
     False, _count_first_len),
    ("repro.core.fleet", "FleetKernel.step", "fleet.step",
     False, _count_lanes),
    ("repro.core.fleet", "FleetKernel.inject_packed", "fleet.inject",
     False, _count_none),
    ("repro.core.fleet", "FleetKernel.inject_cycle", "fleet.inject",
     False, _count_none),
    ("repro.arbitration.islip", "ISLIPArbiter.match",
     "arbitration.islip_match", False, _count_one),
    ("repro.arbitration.mwm", "MWMOracle.match", "arbitration.mwm_match",
     False, _count_one),
    ("repro.check.invariants", "InvariantChecker.after_step",
     "check.after_step", False, _count_one),
    ("repro.check.matching", "MatchingInvariantChecker.after_step",
     "check.after_step", False, _count_one),
)


def _wrap(function, name: str, recorder: SpanRecorder, materialize: bool,
          count, capture: Optional[list]):
    if materialize:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            items = 0
            try:
                result = list(function(*args, **kwargs))
                items = len(result)
                return result
            finally:
                recorder.close(index, items)
        return traced

    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        work = 0
        try:
            result = function(*args, **kwargs)
            try:
                work = count(args, result)
            except (IndexError, TypeError, AttributeError, ValueError):
                work = 0  # a changed call signature only loses the count
            if capture is not None:
                capture.append((name, args, result))
            return result
        finally:
            recorder.close(index, work)
    return traced


#: Span names whose (arguments, result) a capturing tracer keeps, for
#: the output checks.
CAPTURED = ("fleet.run_fleet_plans", "harness.measure")


class LayerTracer:
    """Installs span wrappers over :data:`TARGETS`; restores on exit.

    Targets that do not exist (a renamed or removed function) are
    skipped and listed in :attr:`missing`.  With ``capture=True`` the
    arguments and results of the :data:`CAPTURED` calls are kept in
    :attr:`captured`.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None,
                 capture: bool = False) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self.captured: Optional[list] = [] if capture else None
        self.missing: List[str] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "LayerTracer":
        self.missing = []
        for module_name, path, name, materialize, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            if owner is None or attribute not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attribute]
            capture = self.captured if name in CAPTURED else None
            setattr(owner, attribute, _wrap(
                original, name, self.recorder, materialize, count, capture,
            ))
            self._saved.append((owner, attribute, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Per-layer split
# ---------------------------------------------------------------------------
def _layer(name: str) -> str:
    if name == ROOT or name.startswith("bench."):
        return "unattributed"
    return name.split(".", 1)[0]


def layer_split(spans: Sequence[tuple], calls: int,
                scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of ``calls`` traced workload calls.

    Times are seconds per call, multiplied by ``scale``; shares are of
    the summed root span durations; per-operation costs divide a
    layer's (scaled) self time by its span work counts.
    """
    own = self_times(spans)
    # name -> [summed duration, summed self time, summed work count]
    by_name: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    by_layer: Dict[str, int] = defaultdict(int)
    root_ns = 0
    for span, self_ns in zip(spans, own):
        name = span[NAME]
        entry = by_name[name]
        entry[0] += span[END] - span[START]
        entry[1] += self_ns
        entry[2] += span[COUNT]
        by_layer[_layer(name)] += self_ns
        if span[PARENT] < 0:
            root_ns += span[END] - span[START]
    calls = max(calls, 1)

    def per_call(ns: int) -> float:
        return ns * scale / 1e9 / calls

    def share(ns: int) -> float:
        return ns / root_ns if root_ns else 0.0

    def self_ns(name: str) -> int:
        return by_name[name][1] if name in by_name else 0

    def work(name: str) -> int:
        return by_name[name][2] if name in by_name else 0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def cost(ns: int, operations: int, unit_ns: float) -> float:
        """Scaled time per operation, in units of ``unit_ns``."""
        return ratio(ns * scale / unit_ns, operations)

    traffic_ns = by_layer["traffic"]
    packets = work("traffic.packets_for_cycle")
    step_ns = self_ns("hirise.step")
    fleet_step_ns = self_ns("fleet.step")
    mwm_ns = self_ns("arbitration.mwm_match")
    islip_ns = self_ns("arbitration.islip_match")
    mwm_calls = work("arbitration.mwm_match")
    islip_calls = work("arbitration.islip_match")
    fleet_lanes = work("fleet.run_fleet_plans")
    scalar_tasks = work("harness.measure")
    resume_ns = by_name[RESUME][0] if RESUME in by_name else 0
    return {
        "traffic.self_s": per_call(traffic_ns),
        "traffic.share": share(traffic_ns),
        "traffic.packets": packets / calls,
        "traffic.ns_per_packet": cost(traffic_ns, packets, 1),
        "network.inject_s": per_call(self_ns("network.inject")),
        "network.account_s": per_call(self_ns("network.run")),
        "network.share": share(by_layer["network"]),
        "hirise.step_s": per_call(step_ns),
        "hirise.us_per_cycle": cost(step_ns, work("hirise.step"), 1e3),
        "hirise.share": share(by_layer["hirise"]),
        "fleet.step_s": per_call(fleet_step_ns),
        "fleet.inject_s": per_call(self_ns("fleet.inject")),
        "fleet.us_per_lane_cycle": cost(
            fleet_step_ns, work("fleet.step"), 1e3
        ),
        "fleet.share": share(by_layer["fleet"]),
        "harness.dispatch_s": per_call(by_layer["harness"]),
        "harness.resume_s": per_call(resume_ns),
        "harness.fleet_task_frac": ratio(
            fleet_lanes, fleet_lanes + scalar_tasks
        ),
        "harness.share": share(by_layer["harness"]),
        "voq.self_s": per_call(by_layer["voq"]),
        "voq.share": share(by_layer["voq"]),
        "arbitration.mwm_match_s": per_call(mwm_ns),
        "arbitration.mwm_ms_per_match": cost(mwm_ns, mwm_calls, 1e6),
        "arbitration.islip_match_s": per_call(islip_ns),
        "arbitration.islip_us_per_match": cost(islip_ns, islip_calls, 1e3),
        "arbitration.match_calls": (mwm_calls + islip_calls) / calls,
        "arbitration.share": share(by_layer["arbitration"]),
        "check.invariants_s": per_call(by_layer["check"]),
        "check.share": share(by_layer["check"]),
        "unattributed_s": per_call(by_layer["unattributed"]),
        "unattributed.share": share(by_layer["unattributed"]),
    }


def write_spans(path, spans: Sequence[tuple]) -> None:
    """Write spans as compact JSON: a name table plus index rows."""
    names: Dict[str, int] = {}
    rows = []
    for span in spans:
        code = names.setdefault(span[NAME], len(names))
        rows.append([code, span[START], span[END], span[PARENT], span[COUNT]])
    with open(path, "w") as handle:
        json.dump({
            "fields": ["name", "start_ns", "end_ns", "parent", "count"],
            "names": list(names),
            "spans": rows,
        }, handle, separators=(",", ":"))
