"""End-to-end benchmark of the Hi-Rise simulator: one workload, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 15 \\
        --trace 0

Workloads: simulate, replicate, schedulers, sweep (see README.md).
With ``--trace 0`` it reports the end-to-end metrics from untraced
calls; with ``--trace 1`` the per-layer split from traced calls.  The
human-readable report goes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2, printing no result, when the simulator's sources
(``src/repro``) are not beside this directory.
"""

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _print_report(result) -> None:
    report = result["report"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['calls']} untraced and {report['traced_calls']} "
          f"traced timed calls")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    tail = report.get("wall_tail")
    if tail is not None:
        label = (
            "max" if tail["percentile"] == 1.0
            else f"p{tail['percentile'] * 100:g}"
        )
        print(f"  wall_s {label} = {tail['value']:.6g} s over "
              f"{tail['samples']} calls")
    if report["raw_wall_s"] is not None:
        print(f"  raw wall median = {report['raw_wall_s']:.6g} s; "
              f"calibration median = {report['calibration_s'] * 1e3:.4g} "
              f"ms (times above are scaled to the reference host)")
    if "failed_frac" not in result["metrics"]:
        print(f"  failed_frac = {report['failed_frac']:.6g} ratio")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for name, problem in report["checks"].items():
        print(f"  check {name}: {'FAILED ' + problem if problem else 'ok'}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    if report["untraced_targets"]:
        print(f"  span targets not found: "
              f"{', '.join(report['untraced_targets'])}")
    if "spans_file" in report:
        print(f"  spans written to {report['spans_file']}")
    outputs = json.dumps(report["outputs"], sort_keys=True)
    digest = hashlib.sha256(outputs.encode()).hexdigest()[:16]
    print(f"  simulated results (sha256 {digest}): {outputs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark
    from perfbench.workloads import make_workload

    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        workload = make_workload(args.workload, args.seed, workdir=workdir)
        spans_path = (
            ROOT / ".perfbench-spans" / f"{args.workload}-seed{args.seed}.json"
        )
        result = run_benchmark(
            workload, args.seconds, bool(args.trace), ROOT,
            spans_path=spans_path,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_report(result)
    del result["report"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
