"""Process-parallel execution of sweeps and replications.

Parameter sweeps and independent replications are embarrassingly parallel:
every task is a pure function of ``(parameters, seed)``.  This module runs
such tasks through one executor, :func:`_execute_tasks_resilient`, which
fans them out over a :class:`~concurrent.futures.ProcessPoolExecutor`
under a :class:`ResiliencePolicy` while guaranteeing:

* **determinism** — each task derives its seed exactly as the serial code
  does (``base_seed`` for single-shot points, ``base_seed + i`` for the
  i-th replication), and results are reassembled in submission order, so
  ``workers=N`` returns bit-identical results to ``workers=1``;
* **fleet batching** — tasks whose measurement exposes ``fleet_plan``
  run as lanes of one vectorized fleet kernel (see
  :func:`_fleet_prepass`), bit-identical to their scalar runs;
* **serial when a pool cannot help or cannot work** — with
  ``workers=1``, a single unsupervised task (no timeout, no retries),
  an unpicklable measurement, or a pool that fails to spawn
  (restricted containers, daemonic parents), the tasks run in-process;
* **supervision on request** — the policy's defaults make a single
  attempt per task, enforce no timeout and journal nothing, so a task's
  own exception (or a worker crash, as ``BrokenProcessPool``)
  propagates unchanged.  ``task_timeout`` bounds each task's wall
  clock, ``max_retries`` retries failed tasks with jittered
  exponential backoff (a worker crash rebuilds the pool and resubmits
  innocent in-flight tasks uncharged), and ``checkpoint`` journals
  every completed task to an append-only JSONL file
  (:class:`SweepCheckpoint`) so an interrupted sweep resumes instead of
  recomputing.  Because every task is a pure function of
  ``(parameters, seed)``, retried/resumed results are bit-identical to
  an uninterrupted serial run.

Measurement callables must be picklable (module-level functions, not
lambdas or closures) to actually run in worker processes; anything else
runs serially.
"""

import hashlib
import heapq
import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.metrics.confidence import ConfidenceInterval, t_interval
from repro.traffic import TRAFFIC_STREAM
from repro.util.jsonl import append_jsonl, read_jsonl

_Task = Tuple[Callable[..., float], Dict[str, object], int]

#: Schema tag of the checkpoint JSONL header line.
CHECKPOINT_FORMAT = "repro.checkpoint/v1"


def _run_measurement(task: _Task) -> float:
    """Execute one ``(measurement, parameters, seed)`` task (pickled)."""
    measurement, parameters, seed = task
    return float(measurement(seed=seed, **parameters))


def _run_measurement_timed(task: _Task) -> Tuple[float, float]:
    """Like :func:`_run_measurement`, plus the task's wall-clock seconds."""
    start = time.perf_counter()
    value = _run_measurement(task)
    return value, time.perf_counter() - start


def _report(telemetry, task: _Task, index: int, total: int,
            value: float, wall_s: float, lanes: int = 1) -> None:
    """Deliver one heartbeat for a completed task."""
    from repro.obs.telemetry import Heartbeat

    _measurement, parameters, seed = task
    telemetry.record(Heartbeat(
        index=index, total=total, parameters=dict(parameters),
        seed=seed, value=value, wall_s=wall_s, lanes=lanes,
    ))


def _note_failure(telemetry, cause: BaseException) -> None:
    """Classify one executor failure onto the telemetry counters."""
    if telemetry is None:
        return
    record_failure = getattr(telemetry, "record_failure", None)
    if record_failure is None:
        return
    if isinstance(cause, BrokenProcessPool):
        record_failure("crash")
    elif isinstance(cause, TimeoutError):
        record_failure("timeout")
    else:
        record_failure("retry")


def _fleet_prepass(
    tasks: Sequence[_Task], skip=(),
) -> Tuple[List[Optional[float]], List[Optional[float]], List[int]]:
    """Batch compatible tasks through the fleet kernel before dispatch.

    A task participates when its measurement exposes ``fleet_plan`` (see
    :class:`repro.harness.measure.SimulationMeasurement`) and that call
    returns a :class:`~repro.core.fleet.LanePlan` — i.e. the config is
    fleet-supported, numpy is present, and any attachment is one the
    batched kernel can host (fleet-capable binary tracers ride along;
    invariant checkers and other tracers force scalar).  Plans are
    grouped by (config, windows, tracer factory, perf factory); every
    group of two or more lanes runs through one batched kernel, each
    lane result being bit-identical to the scalar run the task would
    otherwise do.

    Returns per-task ``(values, wall_seconds, lanes)`` lists — ``None``
    value entries mean the task was not batched (no plan or a singleton
    group) and must run on the scalar path.  An exception raised by the
    fleet kernel propagates.  Each batched task's wall time is its
    group's wall clock divided by the lane count; ``lanes`` records
    that count (1 for unbatched tasks), feeding the telemetry's
    fleet-occupancy view.
    """
    total = len(tasks)
    values: List[Optional[float]] = [None] * total
    walls: List[Optional[float]] = [None] * total
    lanes: List[int] = [1] * total
    groups: Dict[tuple, list] = {}
    for index, task in enumerate(tasks):
        if index in skip:
            continue
        measurement, parameters, seed = task
        plan_of = getattr(measurement, "fleet_plan", None)
        if plan_of is None:
            continue
        try:
            plan = plan_of(seed=seed, **parameters)
        except Exception:
            continue  # scalar path will surface any genuine error
        if plan is None:
            continue
        key = (
            plan.config, plan.warmup_cycles, plan.measure_cycles,
            plan.drain, plan.latency_sample_limit, plan.tracer_factory,
            getattr(plan, "perf_factory", None),
        )
        groups.setdefault(key, []).append((index, measurement, plan))
    if not groups:
        return values, walls, lanes
    from repro.core.fleet import run_fleet_plans

    for group in groups.values():
        if len(group) < 2:
            continue  # a lone lane gains nothing over the scalar kernel
        start = time.perf_counter()
        # A fleet failure is a bug and propagates: falling back to the
        # scalar path would hide it behind a slower run.
        results = run_fleet_plans([plan for _, _, plan in group])
        wall_each = (time.perf_counter() - start) / len(group)
        for (index, measurement, plan), result in zip(group, results):
            try:
                value = measurement.value_from_result(result, plan.config)
            except TypeError:
                value = measurement.value_from_result(result)
            values[index] = float(value)
            walls[index] = wall_each
            lanes[index] = len(group)
    return values, walls, lanes


def _task_fingerprint(task: _Task):
    """Hashable identity of one task's *resolved* simulation.

    Measurements exposing ``task_fingerprint`` (fleet-aware ones) resolve
    overrides and traffic seeding, so two tasks that would run the exact
    same simulation — the classic pinned-traffic-seed replication bug —
    compare equal.  Plain callables fall back to (identity, parameters,
    seed), under which distinct seeds never collide.  A
    ``task_fingerprint`` that raises is a bug and propagates.
    """
    measurement, parameters, seed = task
    resolve = getattr(measurement, "task_fingerprint", None)
    if resolve is not None:
        return ("resolved", resolve(seed=seed, **parameters))
    return ("raw", id(measurement), repr(sorted(parameters.items())), seed)


def _execute_tasks(
    tasks: Sequence[_Task],
    workers: int,
    telemetry=None,
) -> List[float]:
    """Run tasks, in order, under the default :class:`ResiliencePolicy`.

    The entry point of :func:`repro.metrics.confidence.replicate`.
    """
    return _execute_tasks_resilient(
        tasks, workers, ResiliencePolicy(), telemetry
    )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ResiliencePolicy:
    """How the executor supervises a batch of tasks.

    The defaults make one attempt per task with no timeout and no
    journal: a failing task's own exception propagates unchanged.

    Attributes:
        task_timeout: Per-task wall-clock budget in seconds; a task
            running longer is charged an attempt and the worker pool is
            torn down and rebuilt (a hung worker cannot be interrupted
            any other way).  ``None`` disables timeouts.  Only enforced
            on the pool path — the serial path cannot preempt a
            running task.
        max_retries: How many times one task may fail (crash, raise, or
            time out) and be retried.  0 means a single attempt whose
            failure propagates as is (a worker crash as
            ``BrokenProcessPool``); with 1 or more, exhausting the
            budget raises :class:`TaskFailure`.  A worker crash fails
            every future in flight on the broken pool and the executor
            charges exactly one of them (the culprit is not
            identifiable), so when crashes are *expected*, budget one
            extra retry per anticipated crash for innocent bystanders.
        backoff_base: First retry delay in seconds; attempt ``k``
            waits ``backoff_base * 2**(k-1)``, capped at
            ``backoff_cap`` and then jittered (see ``backoff_jitter``).
        backoff_cap: Upper bound on any single retry delay (before
            jitter, which only ever shortens it).
        backoff_jitter: Fraction of each retry delay to randomise away,
            in ``[0, 1]``.  Attempt ``k`` of task ``key`` (its index in
            the batch) sleeps ``delay * (1 - backoff_jitter * u)`` where
            ``u ∈ [0, 1)`` is drawn *deterministically* from
            ``(jitter_seed, key, k)`` — so N workers that failed
            together fan back out instead of re-colliding in lockstep
            (the classic retry storm), yet the same run replays with
            the same delays.  Jitter shapes only the sleep schedule,
            never task inputs: results stay bit-identical to an
            unjittered run.
        jitter_seed: Seed folded into the jitter draw.
        checkpoint: Optional path of an append-only JSONL journal of
            completed tasks.  If the file already exists it must match
            the task list's fingerprint, and its completed tasks are
            not re-run (checkpoint/resume).
    """

    task_timeout: Optional[float] = None
    max_retries: int = 0
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    backoff_jitter: float = 0.5
    jitter_seed: int = 0
    checkpoint: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")

    def backoff_delay(self, attempt: int, key: object = 0) -> float:
        """Jittered delay before retry ``attempt`` (1-based) of ``key``.

        Deterministic: the same ``(jitter_seed, key, attempt)`` always
        yields the same delay, so resilient runs stay replayable; and
        distinct keys de-synchronise, so a crowd of tasks failed by one
        crash does not retry as a crowd.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.backoff_base * (2 ** (attempt - 1)),
                    self.backoff_cap)
        if self.backoff_jitter > 0.0 and delay > 0.0:
            token = f"{self.jitter_seed}|{key!r}|{attempt}".encode()
            draw = int.from_bytes(
                hashlib.sha256(token).digest()[:8], "big"
            )
            unit = draw / float(1 << 64)  # [0, 1)
            delay *= 1.0 - self.backoff_jitter * unit
        return delay


class TaskFailure(RuntimeError):
    """A task exhausted its retry budget; the batch cannot complete."""

    def __init__(self, index: int, task: _Task, attempts: int, cause: BaseException) -> None:
        _measurement, parameters, seed = task
        super().__init__(
            f"task {index} (seed {seed}, parameters {parameters!r}) failed "
            f"after {attempts} attempt(s): {cause!r}"
        )
        self.index = index
        self.parameters = dict(parameters)
        self.seed = seed
        self.attempts = attempts
        self.cause = cause


class CheckpointMismatch(ValueError):
    """An existing checkpoint journals a different task list."""


def _fingerprint_tasks(tasks: Sequence[_Task]) -> str:
    """Deterministic identity of a task list (order, callables, seeds).

    The traffic stream version is part of it: a checkpoint journalled
    under another stream holds other simulations' results.
    """
    digest = hashlib.sha256()
    digest.update(f"traffic-stream {TRAFFIC_STREAM}\n".encode())
    for measurement, parameters, seed in tasks:
        name = (
            f"{getattr(measurement, '__module__', '?')}."
            f"{getattr(measurement, '__qualname__', '?')}"
        )
        digest.update(
            f"{name}|{sorted(parameters.items())!r}|{seed}\n".encode()
        )
    return digest.hexdigest()


class SweepCheckpoint:
    """Append-only JSONL journal of completed sweep tasks.

    Line 1 is a header (:data:`CHECKPOINT_FORMAT`, the task-list
    fingerprint, the task count); every further line is one completed
    task (``index``, ``value``, ``attempts``, ``wall_s``).  Each append
    is flushed, so a crashed parent loses at most the line it was
    writing — a torn trailing line is tolerated and dropped on resume.
    """

    def __init__(self, path: Union[str, Path], tasks: Sequence[_Task]) -> None:
        self.path = Path(path)
        self.fingerprint = _fingerprint_tasks(tasks)
        self.total = len(tasks)
        self.completed: Dict[int, Tuple[float, float]] = {}
        had_header = self.path.exists() and self._load()
        torn = (
            self.path.exists() and self.path.stat().st_size > 0
            and not self._ends_with_newline()
        )
        self._handle = open(self.path, "a", encoding="utf-8")
        if torn:
            # Seal a torn tail (a record, or the header itself) so the
            # next write starts on a fresh line.
            self._handle.write("\n")
        if not had_header:
            append_jsonl(self._handle, {
                "format": CHECKPOINT_FORMAT,
                "fingerprint": self.fingerprint,
                "tasks": self.total,
            })

    def _load(self) -> bool:
        rows = [row for row in read_jsonl(self.path) if isinstance(row, dict)]
        if not rows:
            return False
        header = rows[0]
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointMismatch(
                f"{self.path}: not a {CHECKPOINT_FORMAT} checkpoint"
            )
        if (
            header.get("fingerprint") != self.fingerprint
            or header.get("tasks") != self.total
        ):
            raise CheckpointMismatch(
                f"{self.path}: checkpoint was written for a different "
                f"task list (delete it or pick another path)"
            )
        for row in rows[1:]:
            index = row.get("index")
            if isinstance(index, int) and 0 <= index < self.total:
                self.completed[index] = (
                    float(row.get("value", 0.0)),
                    float(row.get("wall_s", 0.0)),
                )
        return True

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as raw:
            raw.seek(-1, os.SEEK_END)
            return raw.read(1) == b"\n"

    def append(self, index: int, value: float, attempts: int, wall_s: float) -> None:
        """Journal one completed task (flushed immediately)."""
        self.completed[index] = (value, wall_s)
        append_jsonl(self._handle, {
            "index": index, "value": value,
            "attempts": attempts, "wall_s": wall_s,
        })

    def close(self) -> None:
        """Release the journal file handle."""
        self._handle.close()


def _spawn_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (OSError, ValueError):
        return None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung mid-task.

    Terminating the workers first makes the subsequent ``shutdown``
    join return promptly (the pool breaks instead of waiting on the
    hung task), and joining keeps the interpreter's exit hooks clean.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


def _execute_tasks_resilient(
    tasks: Sequence[_Task],
    workers: int,
    policy: ResiliencePolicy,
    telemetry=None,
) -> List[float]:
    """Run tasks, in order, across ``workers`` processes (1 = serial).

    The one executor behind :func:`replicate` and :func:`run_sweep`.
    Journaled tasks (``policy.checkpoint``) are replayed, fleet-aware
    tasks are batched through the vectorized kernel (see
    :func:`_fleet_prepass`), and the rest run in-process or on a
    process pool under ``policy``: per-task timeouts, bounded retries,
    crash isolation.  Results are returned in submission order and —
    tasks being pure functions of ``(parameters, seed)`` — are
    bit-identical to a serial run no matter how many crashes, timeouts,
    retries, or checkpoint resumes happened along the way.

    When a :class:`repro.obs.SweepTelemetry` is given it receives one
    heartbeat per completed task — in completion order on the pool
    path — while the returned values stay in submission order.

    Raises:
        TaskFailure: When one task fails ``policy.max_retries + 1``
            times, for a budget of one retry or more.  With
            ``max_retries=0`` the task's own exception (or
            ``BrokenProcessPool`` for a worker crash) propagates.
        CheckpointMismatch: When ``policy.checkpoint`` exists but
            journals a different task list.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    total = len(tasks)
    values: List[Optional[float]] = [None] * total
    attempts = [0] * total
    checkpoint = (
        SweepCheckpoint(policy.checkpoint, tasks)
        if policy.checkpoint is not None else None
    )
    if telemetry is not None:
        telemetry.start(total)
    if checkpoint is not None:
        for index, (value, wall_s) in sorted(checkpoint.completed.items()):
            values[index] = value
            if telemetry is not None:
                _report(telemetry, tasks[index], index, total, value, wall_s)

    def record(
        index: int, value: float, wall_s: float, lanes: int = 1
    ) -> None:
        values[index] = value
        if checkpoint is not None:
            checkpoint.append(index, value, attempts[index] + 1, wall_s)
        if telemetry is not None:
            _report(
                telemetry, tasks[index], index, total, value, wall_s,
                lanes=lanes,
            )

    def charge(index: int, cause: BaseException) -> float:
        """Count one failed attempt; return the jittered backoff delay."""
        if policy.max_retries == 0:
            raise cause
        _note_failure(telemetry, cause)
        attempts[index] += 1
        if attempts[index] > policy.max_retries:
            raise TaskFailure(index, tasks[index], attempts[index], cause)
        return policy.backoff_delay(attempts[index], key=index)

    # Fleet-batch whatever the checkpoint didn't already cover; batched
    # lanes are journaled and reported exactly like scalar completions,
    # so resume and telemetry cannot tell the paths apart.
    done_already = frozenset(
        index for index in range(total) if values[index] is not None
    )
    fleet_values, fleet_walls, fleet_lanes = _fleet_prepass(
        tasks, skip=done_already
    )
    for index, value in enumerate(fleet_values):
        if value is not None:
            record(index, value, fleet_walls[index], fleet_lanes[index])

    def serial() -> List[float]:
        # In-process: retries and checkpointing still apply; timeouts
        # cannot (a running task is not preemptible here).
        for index in range(total):
            while values[index] is None:
                try:
                    value, wall_s = _run_measurement_timed(tasks[index])
                except Exception as exc:
                    delay = charge(index, exc)
                    if delay > 0:
                        time.sleep(delay)
                else:
                    record(index, value, wall_s)
        return [float(value) for value in values]

    try:
        backlog = deque(
            index for index in range(total) if values[index] is None
        )
        if not backlog:
            return [float(value) for value in values]
        # A lone task gains nothing from a pool, unless only a pool can
        # enforce its timeout or survive its crash for a retry.
        if workers == 1 or (
            len(backlog) == 1 and policy.task_timeout is None
            and policy.max_retries == 0
        ):
            return serial()
        try:
            pickle.dumps([tasks[index] for index in backlog])
        except (pickle.PicklingError, TypeError, AttributeError):
            return serial()
        pool = _spawn_pool(workers)
        if pool is None:
            return serial()
        try:
            inflight: Dict[object, int] = {}
            deadlines: Dict[object, float] = {}
            ready: List[Tuple[float, int]] = []  # (due time, index) heap

            def submit(index: int) -> None:
                future = pool.submit(_run_measurement_timed, tasks[index])
                inflight[future] = index
                if policy.task_timeout is not None:
                    deadlines[future] = (
                        time.monotonic() + policy.task_timeout
                    )

            def fill() -> None:
                # Cap in-flight futures at the worker count so a
                # submitted future is actually *running* — a per-future
                # deadline on a queued task would expire spuriously.
                while backlog and len(inflight) < workers:
                    submit(backlog.popleft())

            def reschedule_inflight() -> None:
                # Innocent in-flight casualties of a pool teardown go
                # back in line without being charged an attempt.
                for index in inflight.values():
                    backlog.append(index)
                inflight.clear()
                deadlines.clear()

            fill()
            while inflight or backlog or ready:
                now = time.monotonic()
                while ready and ready[0][0] <= now:
                    backlog.append(heapq.heappop(ready)[1])
                fill()
                if not inflight:
                    if ready:
                        time.sleep(max(0.0, ready[0][0] - time.monotonic()))
                    continue
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values()) - now)
                if ready:
                    due = max(0.0, ready[0][0] - now)
                    timeout = due if timeout is None else min(timeout, due)
                done, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    index = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        value, wall_s = future.result()
                    except BrokenProcessPool as exc:
                        # One worker died; every sibling future fails
                        # with the same error.  Charge only the first —
                        # the rest are collateral.
                        if broken:
                            backlog.append(index)
                        else:
                            broken = True
                            delay = charge(index, exc)
                            heapq.heappush(
                                ready, (time.monotonic() + delay, index)
                            )
                    except Exception as exc:
                        delay = charge(index, exc)
                        heapq.heappush(
                            ready, (time.monotonic() + delay, index)
                        )
                    else:
                        record(index, value, wall_s)
                if broken:
                    reschedule_inflight()
                    _kill_pool(pool)
                    pool = _spawn_pool(workers)
                    if pool is None:
                        return serial()
                    fill()
                    continue
                if deadlines:
                    now = time.monotonic()
                    expired = [
                        future for future, deadline in deadlines.items()
                        if deadline <= now and not future.done()
                    ]
                    if expired:
                        # A hung worker cannot be interrupted piecemeal:
                        # charge the overdue tasks, then rebuild the
                        # whole pool.
                        for future in expired:
                            index = inflight.pop(future)
                            deadlines.pop(future)
                            delay = charge(index, TimeoutError(
                                f"task exceeded {policy.task_timeout}s"
                            ))
                            heapq.heappush(
                                ready, (time.monotonic() + delay, index)
                            )
                        reschedule_inflight()
                        _kill_pool(pool)
                        pool = _spawn_pool(workers)
                        if pool is None:
                            return serial()
                fill()
            return [float(value) for value in values]
        except BaseException:
            # Failing out (a task's error, a timeout, an interrupt):
            # stop the workers still running instead of leaving them.
            if pool is not None:
                _kill_pool(pool)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
    finally:
        if checkpoint is not None:
            checkpoint.close()


def replicate(
    measurement: Callable[..., float],
    parameters: Optional[Dict[str, object]] = None,
    num_replications: int = 5,
    confidence: float = 0.95,
    base_seed: int = 0,
    workers: int = 1,
    telemetry=None,
    task_timeout: Optional[float] = None,
    max_retries: int = 0,
    backoff_base: float = 0.1,
    checkpoint: Optional[Union[str, Path]] = None,
) -> ConfidenceInterval:
    """Independent replications of one measurement, as an interval.

    Equivalent to :func:`repro.metrics.confidence.replicate` over
    ``measurement(seed=base_seed + i, **parameters)`` but with the
    replications spread over ``workers`` processes.  Results are
    identical to the serial path for any worker count.  An optional
    :class:`repro.obs.SweepTelemetry` receives one heartbeat per
    completed replication.  ``task_timeout`` / ``max_retries`` /
    ``backoff_base`` / ``checkpoint`` set the executor's
    :class:`ResiliencePolicy`; results stay bit-identical.

    Fleet-aware measurements (see
    :class:`repro.harness.measure.SimulationMeasurement`) are batched
    through the vectorized fleet kernel when replications share a
    config, and replications whose *resolved* ``(config, traffic,
    seed)`` fingerprints coincide — e.g. a measurement that pins its
    traffic seed, so every replication would run the identical
    simulation — are computed once and fanned back out, with a
    ``RuntimeWarning``.  Both are pure optimisations: values are
    bit-identical to the serial scalar path.
    """
    if num_replications < 2:
        raise ValueError("need at least two replications for an interval")
    tasks = [
        (measurement, dict(parameters or {}), base_seed + index)
        for index in range(num_replications)
    ]
    first_of: Dict[object, int] = {}
    source: List[int] = []
    unique_tasks: List[_Task] = []
    for task in tasks:
        fingerprint = _task_fingerprint(task)
        position = first_of.setdefault(fingerprint, len(unique_tasks))
        if position == len(unique_tasks):
            unique_tasks.append(task)
        source.append(position)
    if len(unique_tasks) < len(tasks):
        warnings.warn(
            f"replicate(): {len(tasks) - len(unique_tasks)} of "
            f"{len(tasks)} replications share a (config, traffic, seed) "
            "fingerprint and would produce identical results; running "
            "each unique task once",
            RuntimeWarning,
            stacklevel=2,
        )
    policy = ResiliencePolicy(
        task_timeout=task_timeout, max_retries=max_retries,
        backoff_base=backoff_base, checkpoint=checkpoint,
    )
    values = _execute_tasks_resilient(unique_tasks, workers, policy, telemetry)
    return t_interval([values[position] for position in source], confidence)


def run_sweep(
    measurement: Callable[..., float],
    grid: Sequence[Dict[str, object]],
    replications: int = 1,
    confidence: float = 0.95,
    base_seed: int = 0,
    workers: int = 1,
    telemetry=None,
    task_timeout: Optional[float] = None,
    max_retries: int = 0,
    backoff_base: float = 0.1,
    checkpoint: Optional[Union[str, Path]] = None,
) -> List["SweepPoint"]:
    """Measure every grid point, optionally replicated over seeds.

    The full (point, replication) task list is flattened and run by the
    executor; the returned points are identical (values, ordering,
    intervals) for any worker count.

    Args:
        measurement: Called as ``measurement(seed=..., **parameters)``;
            must return a scalar.  Must be picklable (a module-level
            function) for ``workers > 1`` to actually parallelise.
        grid: Parameter dictionaries (see
            :func:`repro.harness.sweep.parameter_grid`).
        replications: Independent seeds per point; with more than one, a
            t-confidence interval accompanies each point.
        workers: Processes to spread the (point, replication) tasks over.
        telemetry: Optional :class:`repro.obs.SweepTelemetry`; receives a
            heartbeat per completed (point, replication) task, for any
            worker count, without affecting the results.
        task_timeout / max_retries / backoff_base / checkpoint: The
            executor's :class:`ResiliencePolicy`: per-task timeouts,
            bounded retries with exponential backoff and worker-crash
            isolation, and JSONL checkpoint/resume — an interrupted
            sweep re-run with the same ``checkpoint`` path resumes
            where it stopped.  Results stay bit-identical.

    Raises:
        ValueError: If ``replications`` or ``workers`` is not positive.
    """
    from repro.harness.sweep import SweepPoint

    if replications < 1:
        raise ValueError("need at least one replication")
    tasks = [
        (measurement, dict(parameters), base_seed + index)
        for parameters in grid
        for index in range(replications)
    ]
    policy = ResiliencePolicy(
        task_timeout=task_timeout, max_retries=max_retries,
        backoff_base=backoff_base, checkpoint=checkpoint,
    )
    values = _execute_tasks_resilient(tasks, workers, policy, telemetry)
    points: List[SweepPoint] = []
    for number, parameters in enumerate(grid):
        chunk = values[number * replications:(number + 1) * replications]
        if replications == 1:
            points.append(
                SweepPoint(parameters=dict(parameters), value=chunk[0])
            )
        else:
            interval = t_interval(chunk, confidence)
            points.append(
                SweepPoint(
                    parameters=dict(parameters),
                    value=interval.mean,
                    interval=interval,
                )
            )
    return points
