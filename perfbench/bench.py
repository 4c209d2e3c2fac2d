"""Run one workload: set-up probes, a traced warm-up, timed calls, checks.

``run_benchmark`` returns the result object that ``run.py`` prints as
its last line.  End-to-end metrics come from untraced calls only.  With
``trace=True`` the timed phase alternates untraced and traced calls;
the traced ones give the per-layer split and the difference between
the two medians gives ``trace_overhead_frac``.

Host speed on a shared machine drifts by a third or more over tens of
seconds, far more than the changes the benchmark must resolve.  So
every timed call and set-up probe is bracketed by a calibration (a fixed
pure-Python loop that touches no simulator code), and times are
reported *scaled* to the reference host: raw seconds times
``REFERENCE_CALIBRATION_S`` over the mean of the two calibrations.
Medians of scaled times spread far less from run to run than raw ones
(README.md gives the numbers); the raw medians are printed beside them.

Operations counted in ``attempted``: every set-up probe, every call
(warm-up included) and every named output check.  A probe or call that
raised, a call whose outputs differ from the warm-up call's or fail the
workload's per-call checks, and a failed named check each count as one
failure.
"""

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.spans import (
    ROOT,
    LayerTracer,
    SpanRecorder,
    layer_split,
    write_spans,
)

PROBE = Path(__file__).resolve().parent / "setup_probe.py"

#: Fresh-process set-up probes per run; their median is ``setup_s``.
SETUP_REPEATS = 3

#: Timed calls made even when one call outlasts ``seconds``.
MIN_CALLS = 3

#: Calibration loop time on the host the baseline was measured on
#: (2-vCPU KVM guest, Intel Xeon, Python 3.11); scaled times are in
#: seconds of that host.
REFERENCE_CALIBRATION_S = 0.010

#: Percentiles tried for the wall-time tail, highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.9, 0.5)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cycles_per_s": "cycles/s",
    "flits_per_s": "flits/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def tail(values: List[float]):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``(1.0, max)`` when there are
    too few samples for any percentile in :data:`TAIL_PERCENTILES`.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        if count * (1.0 - percentile) >= 10:
            rank = min(count - 1, int(percentile * count))
            return percentile, ordered[rank]
    return 1.0, ordered[-1]


def calibrate() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for number in range(60000):
            key = number & 1023
            table[key] = table.get(key, 0) + number
        best = min(best, time.perf_counter() - start)
    return best


def bracketed(function):
    """Run ``function`` between two calibrations.

    Returns ``(result, raw seconds, calibration seconds)``; the scaled
    time is ``raw * REFERENCE_CALIBRATION_S / calibration``.
    """
    before = calibrate()
    start = time.perf_counter()
    result = function()
    raw = time.perf_counter() - start
    return result, raw, (before + calibrate()) / 2


class Tally:
    """Attempted/failed operation counts with the reasons for failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def record(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)


def probe_setup(root: Path, workload: str, seed: int, tally: Tally,
                repeats: int = SETUP_REPEATS) -> Dict[str, float]:
    """Median scaled import and build time over ``repeats`` fresh
    processes."""
    command = [sys.executable, str(PROBE), "--workload", workload,
               "--seed", str(seed)]
    imports, builds, totals = [], [], []
    for _ in range(repeats):
        try:
            done, _raw, calibration = bracketed(lambda: subprocess.run(
                command, cwd=root, capture_output=True, text=True,
                timeout=120, check=True,
            ))
            timing = json.loads(done.stdout.strip().splitlines()[-1])
        except (subprocess.SubprocessError, OSError, ValueError,
                IndexError) as error:
            stderr = getattr(error, "stderr", "") or ""
            tally.record(f"set-up probe failed: {error} {stderr[-500:]}")
            continue
        tally.record(None)
        scale = REFERENCE_CALIBRATION_S / calibration
        imports.append(timing["import_s"] * scale)
        builds.append(timing["build_s"] * scale)
        totals.append((timing["import_s"] + timing["build_s"]) * scale)
    if not totals:
        return {}
    return {
        "setup_s": statistics.median(totals),
        "setup.import_s": statistics.median(imports),
        "setup.build_s": statistics.median(builds),
    }


def _call(workload, tally: Tally, expected, tracer=None):
    """One call of the entry point.

    Returns ``(outcome, raw seconds, calibration seconds)``, or ``None``
    when the call raised.
    """
    def once():
        if tracer is None:
            return workload.call()
        with tracer, tracer.recorder.span(ROOT):
            return workload.call(tracer.recorder.span)

    try:
        done = bracketed(once)
    except Exception:  # a failing call is a counted failure, not a crash
        tally.record(f"{workload.name} call raised:\n{traceback.format_exc()}")
        return None
    outcome = done[0]
    problems = workload.call_problems(outcome)
    if expected is not None and outcome.outputs != expected:
        problems.append("outputs differ from the warm-up call's")
    tally.record("; ".join(problems) or None)
    return done


def run_benchmark(workload, seconds: float, trace: bool, root: Path,
                  setup_repeats: int = SETUP_REPEATS,
                  spans_path: Optional[Path] = None) -> Dict[str, object]:
    """Measure ``workload`` and return the benchmark's result object.

    The extra ``report`` key holds the human-readable details; it is
    printed, not part of the final JSON line.
    """
    tally = Tally()
    setup = probe_setup(root, workload.name, workload.seed, tally,
                        setup_repeats) if setup_repeats else {}
    workload.build()

    # Warm-up: traced, capturing what the output checks need.  Its
    # outputs are the reference every later call must repeat exactly,
    # so traced and untraced results are compared on every call.
    warm_tracer = LayerTracer(capture=True)
    warm = _call(workload, tally, None, warm_tracer)
    expected = None
    checks: Dict[str, Optional[str]] = {}
    if warm is not None:
        expected = warm[0].outputs
        try:
            checks = workload.checks(warm[0], warm_tracer)
        except Exception:
            checks = {"checks": f"raised:\n{traceback.format_exc()}"}
        for name, problem in checks.items():
            tally.record(f"check {name}: {problem}" if problem else None)
    missing = warm_tracer.missing
    del warm_tracer

    plain: List[float] = []  # scaled seconds of untraced calls
    traced: List[float] = []  # scaled seconds of traced calls
    raw: List[float] = []
    calibrations: List[float] = []
    recorder = SpanRecorder()
    started = time.perf_counter()
    turn = 0
    while True:
        elapsed = time.perf_counter() - started
        if trace:
            if elapsed >= seconds and min(len(plain), len(traced)) >= 2:
                break
        elif elapsed >= seconds and len(plain) >= MIN_CALLS:
            break
        tracer = LayerTracer(recorder) if trace and turn % 2 else None
        turn += 1
        done = _call(workload, tally, expected, tracer)
        if done is None:
            if turn > 2 * MIN_CALLS and not plain and not traced:
                break  # every call fails: stop, the result says so
            continue
        _outcome, seconds_raw, calibration = done
        scaled = seconds_raw * REFERENCE_CALIBRATION_S / calibration
        (traced if tracer is not None else plain).append(scaled)
        if tracer is None:
            raw.append(seconds_raw)
        calibrations.append(calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "calls": len(plain),
        "traced_calls": len(traced),
        "checks": checks,
        "problems": tally.problems,
        "outputs": expected,
        "untraced_targets": missing,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "raw_wall_s": statistics.median(raw) if raw else None,
        "calibration_s": (
            statistics.median(calibrations) if calibrations else None
        ),
    }
    metrics: Dict[str, Dict[str, object]] = {}
    if trace:
        spans = recorder.rows()
        calibration = report["calibration_s"]
        scale = REFERENCE_CALIBRATION_S / calibration if calibration else 1.0
        split = layer_split(spans, len(traced), scale)
        split["setup.import_s"] = setup.get("setup.import_s", 0.0)
        split["setup.build_s"] = setup.get("setup.build_s", 0.0)
        split["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if plain and traced else 0.0
        )
        split["failed_frac"] = report["failed_frac"]
        split["calibration_s"] = report["calibration_s"]
        for name, value in split.items():
            metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            write_spans(spans_path, spans)
            report["spans_file"] = str(spans_path)
    elif plain and warm is not None:
        outcome = warm[0]  # every later call repeated its outputs
        wall = statistics.median(plain)
        values = {
            "wall_s": wall,
            "cycles_per_s": outcome.cycles / wall,
            "flits_per_s": outcome.flits / wall,
            "setup_s": setup.get("setup_s", 0.0),
            "peak_rss_mb": peak_rss_mb,
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        percentile, value = tail(plain)
        report["wall_tail"] = {
            "percentile": percentile, "value": value, "samples": len(plain),
        }
    return {
        "correct": tally.failed == 0 and bool(plain),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "report": report,
    }


PER_LAYER_UNITS = {
    "traffic.self_s": "s",
    "traffic.share": "ratio",
    "traffic.packets": "count",
    "traffic.ns_per_packet": "ns/packet",
    "network.inject_s": "s",
    "network.account_s": "s",
    "network.share": "ratio",
    "hirise.step_s": "s",
    "hirise.us_per_cycle": "us/cycle",
    "hirise.share": "ratio",
    "fleet.step_s": "s",
    "fleet.inject_s": "s",
    "fleet.us_per_lane_cycle": "us/lane-cycle",
    "fleet.share": "ratio",
    "harness.dispatch_s": "s",
    "harness.resume_s": "s",
    "harness.fleet_task_frac": "ratio",
    "harness.share": "ratio",
    "voq.self_s": "s",
    "voq.share": "ratio",
    "arbitration.mwm_match_s": "s",
    "arbitration.mwm_ms_per_match": "ms/match",
    "arbitration.islip_match_s": "s",
    "arbitration.islip_us_per_match": "us/match",
    "arbitration.match_calls": "count",
    "arbitration.share": "ratio",
    "check.invariants_s": "s",
    "check.share": "ratio",
    "unattributed_s": "s",
    "unattributed.share": "ratio",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
    "calibration_s": "s",
}
