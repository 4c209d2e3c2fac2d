"""Time one workload's set-up in this fresh process.

Prints one JSON line: ``import_s`` is ``import repro``; ``build_s`` is
building the workload's switch or measurement up to its first simulated
cycle.  ``bench.py`` runs this several times per run and reports the
median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    workload.build()
    built = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start, "build_s": built - imported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
