"""Tests of the process-parallel sweep/replication executor.

The CI container may expose a single CPU, so these tests assert
*determinism* — ``workers=N`` must reproduce the serial results exactly —
rather than wall-clock speedup.
"""

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    CHECKPOINT_FORMAT,
    CheckpointMismatch,
    ResiliencePolicy,
    SweepCheckpoint,
    TaskFailure,
)
from repro.harness.sweep import parameter_grid, run_sweep
from repro.metrics.confidence import replicate
from repro.network.engine import Simulation
from repro.switches import SwizzleSwitch2D
from repro.traffic import UniformRandomTraffic


def throughput_measurement(seed, radix=8, load=0.6):
    """Module-level measurement (picklable) used by the parallel tests."""
    switch = SwizzleSwitch2D(radix)
    traffic = UniformRandomTraffic(radix, load=load, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=20).run(80)
    return result.throughput_packets_per_cycle


def seed_polynomial(seed):
    """Cheap deterministic stand-in experiment."""
    return seed * seed + 0.5 * seed + 1.0


def crash_once_measurement(seed, token=None):
    """Kill the whole worker process the first time a seed runs.

    A token file marks "this seed already crashed once", so the retry
    succeeds — modelling a transient worker crash (OOM kill, segfault).
    """
    marker = f"{token}.{seed}"
    if token is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return seed_polynomial(seed)


def hang_once_measurement(seed, token=None):
    """Hang far past any test timeout the first time a seed runs.

    The marker is written *before* sleeping so the retry (in a rebuilt
    pool) takes the fast path.
    """
    marker = f"{token}.{seed}"
    if token is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(60)
    return seed_polynomial(seed)


def raise_once_measurement(seed, token=None):
    """Raise (in-process) the first time a seed runs; succeed after."""
    marker = f"{token}.{seed}"
    if token is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("transient instrument fault")
    return seed_polynomial(seed)


def always_fail_measurement(seed):
    raise RuntimeError("instrument fault")


def logged_failure_measurement(seed, log, error):
    """Log the seed, then raise the named builtin exception type."""
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{seed}\n")
    raise {"ValueError": ValueError, "RuntimeError": RuntimeError}[error](
        "instrument fault"
    )


def crash_in_worker_measurement(seed, parent):
    """Kill any worker process; succeed only in the ``parent`` process."""
    if os.getpid() != parent:
        os._exit(1)
    return seed_polynomial(seed)


class BrokenFingerprint:
    """A measurement whose ``task_fingerprint`` hook is buggy."""

    def __call__(self, seed):
        return seed_polynomial(seed)

    def task_fingerprint(self, seed):
        raise RuntimeError("fingerprint bug")


class TestParallelSweep:
    def test_parallel_sweep_matches_serial(self):
        grid = parameter_grid(radix=[4, 8], load=[0.3, 0.9])
        serial = run_sweep(throughput_measurement, grid, base_seed=3)
        parallel_points = run_sweep(
            throughput_measurement, grid, base_seed=3, workers=4
        )
        assert [p.value for p in parallel_points] == [
            p.value for p in serial
        ]
        assert [p.parameters for p in parallel_points] == [
            p.parameters for p in serial
        ]

    def test_parallel_sweep_with_replications_matches_serial(self):
        grid = parameter_grid(radix=[4], load=[0.5, 0.8])
        serial = run_sweep(throughput_measurement, grid, replications=3)
        fanned = run_sweep(
            throughput_measurement, grid, replications=3, workers=2
        )
        for a, b in zip(serial, fanned):
            assert a.value == b.value
            assert a.interval.mean == b.interval.mean
            assert a.interval.half_width == b.interval.half_width

    def test_unpicklable_measurement_falls_back_to_serial(self):
        grid = parameter_grid(radix=[4, 8])
        # A lambda cannot be pickled into worker processes; the executor
        # must fall back to the serial path and still return results.
        points = run_sweep(
            lambda seed, radix: float(radix + seed), grid, workers=4
        )
        assert [p.value for p in points] == [4.0, 8.0]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_sweep(throughput_measurement, [{}], workers=0)

    def test_measurement_errors_propagate(self):
        def boom(seed):
            raise RuntimeError("measurement failed")

        with pytest.raises(RuntimeError, match="measurement failed"):
            run_sweep(boom, [{}, {}], workers=2)

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    @pytest.mark.parametrize("telemetered", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_path_propagates_without_retry(
        self, tmp_path, workers, telemetered, error
    ):
        # The default policy makes one attempt per task: the task's own
        # exception type surfaces (no TaskFailure wrapper) and nothing
        # is silently re-run.
        from repro.obs import SweepTelemetry

        log = str(tmp_path / "runs.log")
        telemetry = SweepTelemetry() if telemetered else None
        with pytest.raises(error, match="instrument fault"):
            run_sweep(
                logged_failure_measurement,
                [{"log": log, "error": error.__name__}],
                replications=2, workers=workers, telemetry=telemetry,
            )
        with open(log, encoding="utf-8") as handle:
            runs = handle.read().split()
        # No task ran twice.  Serially the failure stops the batch at
        # the first task; on the pool the sibling may or may not have
        # started before the failure propagated.
        assert len(runs) == len(set(runs)) >= 1
        if workers == 1:
            assert runs == ["0"]

    def test_worker_crash_on_default_path_raises(self):
        # A crashed worker is not quietly re-run in the parent: the
        # measurement only succeeds in-process, so a serial re-run
        # would return values instead of raising.
        with pytest.raises(BrokenProcessPool):
            run_sweep(
                crash_in_worker_measurement, [{"parent": os.getpid()}],
                replications=2, workers=2,
            )


class TestParallelReplicate:
    def test_workers_reproduce_serial_interval(self):
        serial = replicate(seed_polynomial, num_replications=6, base_seed=2)
        fanned = replicate(
            seed_polynomial, num_replications=6, base_seed=2, workers=3
        )
        assert fanned.mean == serial.mean
        assert fanned.half_width == serial.half_width
        assert fanned.observations == serial.observations

    def test_parallel_module_replicate(self):
        interval = parallel.replicate(
            throughput_measurement,
            parameters={"radix": 4, "load": 0.5},
            num_replications=3,
            workers=2,
        )
        serial = replicate(
            lambda seed: throughput_measurement(seed, radix=4, load=0.5),
            num_replications=3,
        )
        assert interval.mean == serial.mean
        assert interval.half_width == serial.half_width

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValueError):
            parallel.replicate(seed_polynomial, num_replications=1)

    def test_raising_task_fingerprint_propagates(self):
        # A broken fingerprint is a bug, not a cue to dedupe by identity.
        with pytest.raises(RuntimeError, match="fingerprint bug"):
            parallel.replicate(BrokenFingerprint(), num_replications=3)


class TestResiliencePolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ResiliencePolicy(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            ResiliencePolicy(backoff_base=-0.1)

    def test_resilient_sweep_matches_serial_when_nothing_fails(self):
        grid = parameter_grid(radix=[4, 8], load=[0.3, 0.9])
        serial = run_sweep(throughput_measurement, grid, base_seed=3)
        supervised = run_sweep(
            throughput_measurement, grid, base_seed=3, workers=2,
            max_retries=2,
        )
        assert [p.value for p in supervised] == [p.value for p in serial]
        assert [p.parameters for p in supervised] == [
            p.parameters for p in serial
        ]

    def test_resilient_serial_path_retries_too(self, tmp_path):
        # workers=1 exercises the in-process fallback: no preemptible
        # timeouts, but retries still apply.  (The measurement must
        # *raise*, not crash — serial runs share the parent process.)
        token = str(tmp_path / "flaky")
        grid = [{"token": token}]
        points = run_sweep(
            raise_once_measurement, grid, replications=3, base_seed=0,
            workers=1, max_retries=1, backoff_base=0.0,
        )
        expected = replicate(seed_polynomial, num_replications=3, base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert all(os.path.exists(f"{token}.{seed}") for seed in range(3))

    def test_worker_crash_is_retried_to_success(self, tmp_path):
        token = str(tmp_path / "crash")
        grid = parameter_grid(token=[token])
        # A pool break fails *every* in-flight future and the scheduler
        # charges one of them (it cannot tell which task killed the
        # worker), so an innocent sibling may be charged once per crash
        # round: with 4 real crashes the budget must cover innocent
        # charges on top of each task's own crash.
        points = run_sweep(
            crash_once_measurement, grid, replications=4, base_seed=0,
            workers=2, max_retries=4, backoff_base=0.0,
        )
        expected = replicate(seed_polynomial, num_replications=4, base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert points[0].interval.half_width == expected.half_width
        # Every seed crashed exactly once before succeeding.
        assert all(
            os.path.exists(f"{token}.{seed}") for seed in range(4)
        )

    def test_lone_crashing_task_is_isolated_and_retried(self, tmp_path):
        # A single pending task with a retry budget still runs on a
        # pool: in-process, its crash would take the caller down.
        token = str(tmp_path / "crash")
        points = run_sweep(
            crash_once_measurement, [{"token": token}], base_seed=5,
            workers=2, max_retries=1, backoff_base=0.0,
        )
        assert points[0].value == seed_polynomial(5)
        assert os.path.exists(f"{token}.5")

    def test_hung_task_times_out_and_retries(self, tmp_path):
        token = str(tmp_path / "hang")
        grid = parameter_grid(token=[token])
        start = time.monotonic()
        points = run_sweep(
            hang_once_measurement, grid, replications=2, base_seed=0,
            workers=2, task_timeout=1.0, max_retries=2, backoff_base=0.0,
        )
        elapsed = time.monotonic() - start
        expected = replicate(seed_polynomial, num_replications=2, base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert elapsed < 30.0  # far below the 60 s hang

    def test_timeout_without_retries_raises_and_stops_the_worker(
        self, tmp_path
    ):
        token = str(tmp_path / "hang")
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            run_sweep(
                hang_once_measurement, [{"token": token}], replications=2,
                workers=2, task_timeout=1.0,
            )
        # The hung worker is terminated, not left sleeping out its 60 s.
        while multiprocessing.active_children():
            assert time.monotonic() - start < 30.0
            time.sleep(0.05)

    def test_exhausted_retries_raise_task_failure(self):
        with pytest.raises(TaskFailure) as excinfo:
            run_sweep(
                always_fail_measurement, [{}], workers=2,
                max_retries=1, backoff_base=0.0,
            )
        failure = excinfo.value
        assert failure.attempts == 2
        assert "instrument fault" in str(failure)
        assert isinstance(failure.cause, RuntimeError)


class TestBackoffJitter:
    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            ResiliencePolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError, match="jitter"):
            ResiliencePolicy(backoff_jitter=-0.1)

    def test_deterministic_for_same_seed_key_attempt(self):
        policy = ResiliencePolicy(backoff_base=0.5, jitter_seed=7)
        assert policy.backoff_delay(2, key="fp") == \
            policy.backoff_delay(2, key="fp")
        clone = ResiliencePolicy(backoff_base=0.5, jitter_seed=7)
        assert clone.backoff_delay(2, key="fp") == \
            policy.backoff_delay(2, key="fp")

    def test_delay_stays_within_jitter_band(self):
        policy = ResiliencePolicy(
            backoff_base=0.2, backoff_cap=5.0, backoff_jitter=0.5
        )
        for attempt in range(1, 6):
            ceiling = min(0.2 * 2 ** (attempt - 1), 5.0)
            for key in ("a", "b", 3):
                delay = policy.backoff_delay(attempt, key=key)
                assert ceiling * 0.5 <= delay <= ceiling

    def test_distinct_keys_desynchronise(self):
        # The retry-storm fix: tasks failed by the same crash must not
        # retry in lockstep.
        policy = ResiliencePolicy(backoff_base=1.0)
        delays = {
            policy.backoff_delay(1, key=f"fp-{n}") for n in range(8)
        }
        assert len(delays) == 8

    def test_zero_jitter_is_pure_exponential(self):
        policy = ResiliencePolicy(backoff_base=0.1, backoff_jitter=0.0)
        assert [policy.backoff_delay(a) for a in (1, 2, 3)] == \
            [0.1, 0.2, 0.4]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ResiliencePolicy().backoff_delay(0)

    def test_jittered_retries_pin_serial_identical_results(self, tmp_path):
        # Jitter shifts the *sleep schedule* only; values stay
        # bit-identical to the serial, failure-free path.
        token = str(tmp_path / "flaky")
        grid = [{"token": token}]
        points = run_sweep(
            raise_once_measurement, grid, replications=3, base_seed=0,
            workers=2, max_retries=2, backoff_base=0.01,
        )
        expected = replicate(seed_polynomial, num_replications=3,
                             base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert points[0].interval.half_width == expected.half_width


class TestCheckpointResume:
    def test_checkpoint_written_and_resumed(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        grid = parameter_grid(radix=[4, 8])
        first = run_sweep(
            throughput_measurement, grid, base_seed=1, workers=2,
            checkpoint=path,
        )
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines() if line.strip()
        ]
        assert lines[0]["format"] == CHECKPOINT_FORMAT
        assert lines[0]["tasks"] == 2
        assert {row["index"] for row in lines[1:]} == {0, 1}
        # Resuming replays the journal without recomputing: poison the
        # measurement and the resumed run must still return the journaled
        # values untouched.
        resumed = run_sweep(
            throughput_measurement, grid, base_seed=1, workers=2,
            checkpoint=path,
        )
        assert [p.value for p in resumed] == [p.value for p in first]
        assert len(path.read_text().splitlines()) == len(lines)

    def test_partial_checkpoint_resumes_remaining_tasks(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        tasks = [(seed_polynomial, {}, seed) for seed in range(4)]
        journal = SweepCheckpoint(path, tasks)
        journal.append(0, seed_polynomial(0), 1, 0.0)
        journal.append(2, seed_polynomial(2), 1, 0.0)
        journal.close()
        values = parallel._execute_tasks_resilient(
            tasks, workers=2, policy=ResiliencePolicy(checkpoint=path),
        )
        assert values == [seed_polynomial(seed) for seed in range(4)]
        reloaded = SweepCheckpoint(path, tasks)
        assert set(reloaded.completed) == {0, 1, 2, 3}
        reloaded.close()

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "stale.jsonl"
        run_sweep(
            seed_polynomial, [{}], base_seed=0, checkpoint=path,
        )
        with pytest.raises(CheckpointMismatch, match="different"):
            run_sweep(
                seed_polynomial, [{}, {}], base_seed=0, checkpoint=path,
            )
        with pytest.raises(CheckpointMismatch, match="different"):
            run_sweep(
                seed_polynomial, [{}], base_seed=9, checkpoint=path,
            )

    def test_checkpoint_from_another_traffic_stream_rejected(self, tmp_path):
        # Written before the traffic stream was versioned (stream 1):
        # the task-list fingerprint hashed no stream line.
        tasks = [(throughput_measurement, {}, seed) for seed in range(2)]
        stream_1 = hashlib.sha256()
        for measurement, parameters, seed in tasks:
            name = f"{measurement.__module__}.{measurement.__qualname__}"
            stream_1.update(
                f"{name}|{sorted(parameters.items())!r}|{seed}\n".encode()
            )
        path = tmp_path / "stream1.jsonl"
        path.write_text(json.dumps({
            "format": CHECKPOINT_FORMAT,
            "fingerprint": stream_1.hexdigest(),
            "tasks": 2,
        }) + "\n" + json.dumps({
            "index": 0, "value": 0.125, "attempts": 1, "wall_s": 0.0,
        }) + "\n")
        with pytest.raises(CheckpointMismatch, match="different"):
            SweepCheckpoint(path, tasks)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text(json.dumps({"format": "other/v1"}) + "\n")
        with pytest.raises(CheckpointMismatch, match="not a"):
            run_sweep(seed_polynomial, [{}], checkpoint=path)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        tasks = [(seed_polynomial, {}, seed) for seed in range(3)]
        journal = SweepCheckpoint(path, tasks)
        journal.append(0, seed_polynomial(0), 1, 0.0)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "val')  # crashed mid-write
        values = parallel._execute_tasks_resilient(
            tasks, workers=1, policy=ResiliencePolicy(checkpoint=path),
        )
        assert values == [seed_polynomial(seed) for seed in range(3)]
        # The torn tail was sealed, so the resumed records read back.
        reloaded = SweepCheckpoint(path, tasks)
        reloaded.close()
        assert set(reloaded.completed) == {0, 1, 2}

    def test_torn_header_is_sealed(self, tmp_path):
        path = tmp_path / "torn-header.jsonl"
        path.write_text('{"format": "repro.checkpoint/v1", "finger')
        tasks = [(seed_polynomial, {}, seed) for seed in range(2)]
        values = parallel._execute_tasks_resilient(
            tasks, workers=1, policy=ResiliencePolicy(checkpoint=path),
        )
        assert values == [seed_polynomial(seed) for seed in range(2)]
        # The fresh header went on its own line, so the journal reopens.
        reloaded = SweepCheckpoint(path, tasks)
        reloaded.close()
        assert set(reloaded.completed) == {0, 1}

    def test_replicate_supports_resilience_keywords(self, tmp_path):
        path = tmp_path / "replicate.jsonl"
        supervised = parallel.replicate(
            seed_polynomial, num_replications=4, base_seed=2,
            workers=2, max_retries=1, checkpoint=path,
        )
        plain = replicate(seed_polynomial, num_replications=4, base_seed=2)
        assert supervised.mean == plain.mean
        assert supervised.half_width == plain.half_width
        assert path.exists()
