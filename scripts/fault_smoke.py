#!/usr/bin/env python
"""CI fault smoke: seeded fault sweep, forced crash recovery, parity gate.

Exercises the PR 4 robustness machinery end to end, the way CI wants it
— fast, deterministic, and loud on failure:

1. **Fault parity gate** — a seeded random `FaultSchedule` (channel
   failures/repairs, stuck inputs, CLRG corruption) is driven through
   both kernels; `verify_parity` must report bit-identical results *and*
   identical trace streams.
2. **Degradation report** — `measure_degradation` runs the scripted
   partition schedule and writes `degradation.json` / `degradation.md`
   (the artifact CI uploads), sanity-checked for phase structure.
3. **Crash-resilient sweep** — a sweep whose measurement kills its own
   worker process (`os._exit`) on first execution per seed, run under
   the resilient scheduler with retries, a per-task timeout, and a
   JSONL checkpoint, must complete with values bit-identical to the
   plain serial sweep — and a resumed run must replay the checkpoint
   without recomputing.  Then a checkpointed sweep running in its own
   process group is SIGKILLed (parent and workers) mid-run; no process
   of the killed group may survive, and re-running it in-process on the
   same checkpoint must recompute exactly the tasks the journal lacks
   and return values bit-identical to the serial sweep.  The test
   suite runs this same phase (``tests/harness/test_checkpoint_kill.py``).

Usage:
    python scripts/fault_smoke.py                 # writes into ./fault-smoke
    python scripts/fault_smoke.py --out-dir DIR --seed 7
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import HiRiseConfig  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultSchedule,
    fail_channel,
    repair_channel,
    measure_degradation,
    verify_parity,
)
from repro.harness.report import render_degradation_markdown  # noqa: E402
from repro.harness.sweep import parameter_grid, run_sweep  # noqa: E402
from repro.util.jsonl import read_jsonl  # noqa: E402

LOADS = [0.4, 0.8]
REPLICATIONS = 3

#: Runs :func:`killable_sweep` in a child process.
CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fault_smoke\n"
    "fault_smoke.killable_sweep(sys.argv[2], sys.argv[3])\n"
)


def crashing_measurement(seed, load=0.6, token=None):
    """Throughput measurement that kills its worker once per seed.

    The token file marks "this seed already crashed"; the retried
    attempt computes normally, so the supervised result must equal the
    serial run of :func:`healthy_measurement`.
    """
    if token is not None:
        marker = f"{token}.{seed}"
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(1)
    return healthy_measurement(seed, load=load)


def healthy_measurement(seed, load=0.6, token=None):
    from repro.core.hirise import HiRiseSwitch
    from repro.network.engine import Simulation
    from repro.traffic import UniformRandomTraffic

    config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
    switch = HiRiseSwitch(config)
    traffic = UniformRandomTraffic(8, load=load, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=20).run(100)
    return result.throughput_packets_per_cycle


def slow_measurement(seed, load, log):
    """:func:`healthy_measurement`, logged and slowed to be killable."""
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{seed} {load}\n")
    time.sleep(0.3)
    return healthy_measurement(seed, load=load)


def killable_sweep(checkpoint, log, workers=2):
    """The checkpointed sweep the SIGKILL phase runs in a child."""
    return run_sweep(
        slow_measurement, parameter_grid(load=LOADS, log=[str(log)]),
        replications=REPLICATIONS, base_seed=0, workers=workers,
        checkpoint=checkpoint,
    )


def journaled_indices(checkpoint: Path) -> set:
    return {
        row["index"] for row in read_jsonl(checkpoint, missing_ok=True)
        if isinstance(row, dict) and isinstance(row.get("index"), int)
    }


def live_group_members(pgid: int) -> list:
    """Pids of non-zombie processes in process group ``pgid``."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            live.append(int(entry))
    return live


def check_parity(seed: int) -> None:
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
    schedule = FaultSchedule.random(
        config, seed=seed, horizon=340, faults=6,
        include_inputs=True, include_clrg=True,
    )
    mismatches = verify_parity(config, schedule, load=0.9, seed=11)
    if mismatches:
        for line in mismatches:
            print(f"  PARITY MISMATCH: {line}")
        raise SystemExit("fault parity gate failed")
    print(
        f"parity: fast == reference under {len(schedule)} random fault "
        f"events (results and trace streams)"
    )


def write_degradation(out_dir: Path) -> None:
    config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
    schedule = FaultSchedule([
        fail_channel(100, 0, 1, 0),
        fail_channel(150, 0, 1, 1),      # full 0->1 partition
        repair_channel(250, 0, 1, 0),
        repair_channel(250, 0, 1, 1),
    ])
    report = measure_degradation(
        config, schedule, load=0.7, seed=3,
        measure_cycles=400, warmup_cycles=50,
    )
    payload = report.to_dict()
    phases = payload["phases"]
    assert [p["failed_channels"] for p in phases] == [0, 1, 2, 0], phases
    assert min(p["reachable_fraction"] for p in phases) == 0.75, phases
    (out_dir / "degradation.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    (out_dir / "degradation.md").write_text(
        render_degradation_markdown(payload)
    )
    print(
        f"degradation: {len(phases)} phases, reachability dipped to "
        f"{min(p['reachable_fraction'] for p in phases):.2f}, reports in "
        f"{out_dir}/"
    )


def check_resilient_sweep(out_dir: Path) -> None:
    token = str(out_dir / "crash-token")
    grid = parameter_grid(load=[0.4, 0.8], token=[token])
    checkpoint = out_dir / "sweep-checkpoint.jsonl"
    # A pool break fails every in-flight future and charges one of them
    # (the culprit is unknowable), so size the budget for an innocent
    # charge per crash round on top of each task's own crash.
    supervised = run_sweep(
        crashing_measurement, grid, replications=3, base_seed=0,
        workers=2, task_timeout=60.0, max_retries=4, backoff_base=0.0,
        checkpoint=checkpoint,
    )
    serial = run_sweep(
        healthy_measurement,
        parameter_grid(load=[0.4, 0.8], token=[None]),
        replications=3, base_seed=0,
    )
    crashed = [p for p in Path(out_dir).glob("crash-token.*")]
    assert crashed, "no worker crash was actually forced"
    for got, want in zip(supervised, serial):
        assert got.value == want.value, (got, want)
        assert got.interval.half_width == want.interval.half_width
    # Resume: every task must come from the journal, none recomputed
    # (recomputation would crash again via a fresh token).
    for marker in crashed:
        marker.unlink()
    resumed = run_sweep(
        crashing_measurement, grid, replications=3, base_seed=0,
        workers=2, checkpoint=checkpoint,
    )
    assert [p.value for p in resumed] == [p.value for p in supervised]
    assert not list(Path(out_dir).glob("crash-token.*")), (
        "checkpoint resume recomputed a journaled task"
    )
    print(
        f"resilient sweep: {len(crashed)} forced worker crashes retried "
        f"to bit-identical results; checkpoint resume replayed "
        f"{len(supervised) * 3} tasks without recomputing"
    )


def check_killed_sweep(out_dir: Path) -> dict:
    """SIGKILL a checkpointed sweep's process group, then resume it.

    The sweep (two pool workers) runs in a child process leading its
    own session; once its journal holds some completed tasks, the whole
    group is SIGKILLed.  No group member may survive, and resuming in
    this process on the same checkpoint must recompute exactly the
    unjournaled tasks, with values and intervals bit-identical to a
    serial sweep.  Returns the ``journaled`` and ``recomputed`` task
    indices; raises ``AssertionError`` when a check fails.
    """
    # The journal's fingerprint names the measurement by module, so the
    # resume must use the module under the name the child imported it.
    import fault_smoke

    checkpoint = out_dir / "killed-checkpoint.jsonl"
    log = out_dir / "killed-runs.log"
    for path in (checkpoint, log):
        path.unlink(missing_ok=True)
    tasks = len(LOADS) * REPLICATIONS
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent),
         str(checkpoint), str(log)],
        start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120.0
    try:
        while not journaled_indices(checkpoint):
            if child.poll() is not None:
                raise AssertionError(
                    "killed sweep exited before the kill: "
                    + child.stderr.read().decode(errors="replace")
                )
            if time.monotonic() > deadline:
                raise AssertionError("killed sweep journaled nothing in 120 s")
            time.sleep(0.01)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        child.stderr.close()
    assert child.returncode == -signal.SIGKILL, child.returncode
    journaled = journaled_indices(checkpoint)
    assert 0 < len(journaled) < tasks, journaled
    deadline = time.monotonic() + 10.0
    while live_group_members(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = live_group_members(child.pid)
    assert not survivors, f"killed sweep left processes behind: {survivors}"

    log.unlink()
    resumed = fault_smoke.killable_sweep(checkpoint, log, workers=1)
    rerun = [line.split() for line in log.read_text().splitlines()]
    recomputed = {
        LOADS.index(float(load)) * REPLICATIONS + int(seed)
        for seed, load in rerun
    }
    assert len(rerun) == len(recomputed), rerun
    assert recomputed == set(range(tasks)) - journaled, (
        "resume recomputed a journaled task or skipped a missing one"
    )
    assert journaled_indices(checkpoint) == set(range(tasks))
    serial = run_sweep(
        healthy_measurement, parameter_grid(load=LOADS),
        replications=REPLICATIONS, base_seed=0,
    )
    assert [
        (point.value, point.interval.half_width) for point in resumed
    ] == [
        (point.value, point.interval.half_width) for point in serial
    ], (resumed, serial)
    print(
        f"killed sweep: SIGKILLed its process group with "
        f"{len(journaled)}/{tasks} tasks journaled; resume recomputed "
        f"only the other {len(recomputed)} to bit-identical results"
    )
    return {"journaled": journaled, "recomputed": recomputed}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the random parity schedule")
    parser.add_argument("--out-dir", type=Path, default=Path("fault-smoke"),
                        help="artifact directory (created if missing)")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    check_parity(args.seed)
    write_degradation(args.out_dir)
    check_resilient_sweep(args.out_dir)
    check_killed_sweep(args.out_dir)
    print("fault smoke: OK")


if __name__ == "__main__":
    main()
