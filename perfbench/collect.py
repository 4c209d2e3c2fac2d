"""Measure the benchmark's run-to-run spread and write its baseline.

Runs ``run.py`` once per (seed, workload) untraced, interleaving the
workloads, then once traced per workload, and writes for every
end-to-end metric the ten values, their median and quartiles and the
spread (interquartile distance over the median) next to the metric's
bound from BENCHMARK.json, plus the traced per-layer split.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --output perfbench/baseline.json

``--output -`` prints the summary without writing a file.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"simulated results \(sha256 ([0-9a-f]+)\)")
RAW_WALL = re.compile(r"raw wall median = ([0-9.e+-]+) s")

#: Never used while the benchmark was tuned; check later claims on it.
HELD_OUT_SEED = 9001


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run: (result object, outputs digest, raw wall)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = DIGEST.search(done.stdout)
    raw = RAW_WALL.search(done.stdout)
    return (
        json.loads(lines[-1]),
        digest.group(1) if digest else None,
        float(raw.group(1)) if raw else None,
    )


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=1,
                        help="seed of the traced run (0: no traced run)")
    parser.add_argument("--output", default="-")
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}

    runs = {name: [] for name in args.workloads}
    for seed in args.seeds:
        for name in args.workloads:
            result, digest, raw = run_once(name, seed, args.seconds, 0)
            runs[name].append((seed, result, digest, raw))
            values = {key: round(metric["value"], 6)
                      for key, metric in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} raw_wall={raw} {values}",
                  flush=True)

    summary = {
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for name, results in runs.items():
        end_to_end = {}
        for metric in bounds:
            values = [result["metrics"][metric]["value"]
                      for _seed, result, _digest, _raw in results]
            entry = summarize(values)
            entry["bound"] = bounds[metric]
            end_to_end[metric] = entry
            flag = "" if entry["spread"] < bounds[metric] / 3 else "  WIDE"
            print(f"{name:10s} {metric:13s} median {entry['median']:.6g} "
                  f"spread {entry['spread']:.4f} bound "
                  f"{bounds[metric]}{flag}")
        raw_walls = [raw for *_rest, raw in results]
        summary["workloads"][name] = {
            "end_to_end": end_to_end,
            "raw_wall_s": summarize(raw_walls) if None not in raw_walls
            else None,
            "correct": all(result["correct"] for _s, result, *_ in results),
            "failed": sum(result["failed"] for _s, result, *_ in results),
            "attempted": sum(
                result["attempted"] for _s, result, *_ in results
            ),
            "outputs_sha256": {
                str(seed): digest for seed, _result, digest, _raw in results
            },
        }
        if summary["workloads"][name]["raw_wall_s"] is not None:
            print(f"{name:10s} raw wall_s     spread "
                  f"{summary['workloads'][name]['raw_wall_s']['spread']:.4f}")
        if args.trace_seed:
            traced, digest, _raw = run_once(
                name, args.trace_seed, args.seconds, 1
            )
            summary["workloads"][name]["traced"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "outputs_sha256": digest,
                "same_outputs_as_untraced": digest == summary["workloads"][
                    name]["outputs_sha256"].get(str(args.trace_seed)),
                "per_layer": {key: metric["value"] for key, metric
                              in traced["metrics"].items()},
            }
    text = json.dumps(summary, indent=1)
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
