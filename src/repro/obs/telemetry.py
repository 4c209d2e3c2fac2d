"""Sweep- and run-level telemetry: heartbeats from sweep workers.

Parameter sweeps and replications used to run silently until the whole
grid finished.  A :class:`SweepTelemetry` instance passed to
``run_sweep(..., telemetry=...)`` / ``replicate(..., telemetry=...)``
receives one :class:`Heartbeat` per completed (point, replication) task
— in completion order, from the worker pool or the serial loop alike —
and aggregates progress, wall-clock, and simulated-cycle throughput.

The heartbeat channel is deliberately one-way and in-process: workers
return ``(value, wall_seconds)`` and the executor in
:mod:`repro.harness.parallel` reports completions as futures resolve, so
telemetry never perturbs task results (sweeps stay bit-identical with
and without it, for any worker count).
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Schema version stamped into :meth:`SweepTelemetry.snapshot`.
TELEMETRY_FORMAT = "repro.telemetry/v1"


@dataclass(frozen=True)
class Heartbeat:
    """One completed sweep task, as reported over the heartbeat channel.

    Attributes:
        index: Task index in submission order (grid-major, then seed).
        total: Total tasks in the sweep.
        parameters: The grid point's parameter dictionary.
        seed: The seed the task ran with.
        value: The measurement's scalar result.
        wall_s: Wall-clock seconds the measurement took in its worker.
        lanes: Batched lanes the task shared a fleet dispatch with (1
            for scalar tasks) — the divisor behind its effective wall
            time, and the sweep's fleet-occupancy signal.
    """

    index: int
    total: int
    parameters: Dict[str, object]
    seed: int
    value: float
    wall_s: float
    lanes: int = 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "index": self.index,
            "total": self.total,
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "value": self.value,
            "wall_s": self.wall_s,
            "lanes": self.lanes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Heartbeat":
        """Rebuild a heartbeat from its :meth:`to_dict` form.

        ``lanes`` defaults to 1 so pre-versioned archives still load.
        """
        return cls(
            index=data["index"],
            total=data["total"],
            parameters=dict(data["parameters"]),
            seed=data["seed"],
            value=data["value"],
            wall_s=data["wall_s"],
            lanes=data.get("lanes", 1),
        )


@dataclass
class SweepTelemetry:
    """Aggregates worker heartbeats for one sweep or replication run.

    Args:
        cycles_per_task: Optional simulated-cycle count of one task
            (warm-up + measure + drain as appropriate).  When given,
            aggregate simulated cycles/s is reported.
        emit: Optional sink for one progress line per heartbeat (e.g.
            ``print``); ``None`` keeps telemetry silent but queryable.
    """

    cycles_per_task: Optional[int] = None
    emit: Optional[Callable[[str], None]] = None
    heartbeats: List[Heartbeat] = field(default_factory=list)
    failures: Dict[str, int] = field(default_factory=dict)
    _started_at: Optional[float] = field(default=None, repr=False)
    _total: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.cycles_per_task is not None and self.cycles_per_task < 1:
            raise ValueError("cycles_per_task must be >= 1 when given")

    # ------------------------------------------------------------------
    # Channel interface (called by repro.harness.parallel)
    # ------------------------------------------------------------------
    def start(self, total_tasks: int) -> None:
        """Open the channel for a run of ``total_tasks`` tasks.

        Zero-task sweeps are legal (an empty grid): the channel opens,
        every rate/ETA aggregate stays at its defined empty value, and
        :meth:`summary`/:meth:`snapshot` still render.
        """
        if total_tasks < 0:
            raise ValueError("total_tasks must be non-negative")
        self._started_at = time.perf_counter()
        self._total = total_tasks
        self.heartbeats.clear()
        self.failures.clear()

    def record(self, heartbeat: Heartbeat) -> None:
        """Deliver one heartbeat (completion order, not submission order)."""
        if self._started_at is None:
            self.start(heartbeat.total)
        self.heartbeats.append(heartbeat)
        if self.emit is not None:
            self.emit(self.format_heartbeat(heartbeat))

    def record_failure(self, kind: str = "retry") -> None:
        """Count one executor failure event (``retry``/``crash``/``timeout``).

        Reported by the sweep executor when a failed attempt is charged
        against a retry budget (``max_retries`` ≥ 1); a task that
        eventually succeeds still leaves its failure counts here, so
        the live view shows how hard the run is fighting.
        """
        self.failures[kind] = self.failures.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_tasks(self) -> int:
        return self._total

    @property
    def tasks_done(self) -> int:
        return len(self.heartbeats)

    @property
    def elapsed_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    @property
    def tasks_per_s(self) -> float:
        elapsed = self.elapsed_s
        return self.tasks_done / elapsed if elapsed > 0 else 0.0

    @property
    def mean_task_wall_s(self) -> float:
        if not self.heartbeats:
            return 0.0
        return sum(hb.wall_s for hb in self.heartbeats) / len(self.heartbeats)

    @property
    def cycles_per_s(self) -> Optional[float]:
        """Aggregate simulated cycles/s (needs ``cycles_per_task``)."""
        if self.cycles_per_task is None:
            return None
        elapsed = self.elapsed_s
        if elapsed <= 0:
            return None
        return self.tasks_done * self.cycles_per_task / elapsed

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion, None before the first beat."""
        rate = self.tasks_per_s
        if rate <= 0 or self._total <= 0:
            return None
        return max(self._total - self.tasks_done, 0) / rate

    @property
    def lanes_done(self) -> int:
        """Total batched lanes completed (equals tasks_done when scalar)."""
        return sum(hb.lanes for hb in self.heartbeats)

    @property
    def mean_lanes(self) -> float:
        """Mean fleet occupancy of completed tasks (1.0 = all scalar)."""
        done = self.tasks_done
        return self.lanes_done / done if done else 0.0

    @property
    def retries(self) -> int:
        """Total executor failure events of every kind."""
        return sum(self.failures.values())

    def format_heartbeat(self, heartbeat: Heartbeat) -> str:
        """One human-readable progress line for a heartbeat."""
        done = self.tasks_done
        line = (
            f"[sweep {done}/{self._total or heartbeat.total}] "
            f"{_render_parameters(heartbeat.parameters)} seed={heartbeat.seed} "
            f"-> {heartbeat.value:.6g} ({heartbeat.wall_s:.2f}s)"
        )
        if heartbeat.lanes > 1:
            line += f" [fleet x{heartbeat.lanes}]"
        cycles_rate = self.cycles_per_s
        if cycles_rate is not None:
            line += f" [{cycles_rate:.0f} cycles/s]"
        if self.failures:
            line += f" [{self.retries} retried]"
        eta = self.eta_s
        if eta is not None and done < self._total:
            line += f" eta {eta:.0f}s"
        return line

    def summary(self) -> Dict[str, object]:
        """Machine-readable run summary (for reports and tests)."""
        return {
            "total_tasks": self._total,
            "tasks_done": self.tasks_done,
            "lanes_done": self.lanes_done,
            "mean_lanes": self.mean_lanes,
            "elapsed_s": self.elapsed_s,
            "tasks_per_s": self.tasks_per_s,
            "mean_task_wall_s": self.mean_task_wall_s,
            "cycles_per_task": self.cycles_per_task,
            "cycles_per_s": self.cycles_per_s,
            "eta_s": self.eta_s,
            "failures": dict(self.failures),
        }

    def snapshot(self) -> Dict[str, object]:
        """Full JSON-serialisable state: the summary plus every heartbeat.

        ``json.dumps(telemetry.snapshot())`` round-trips (every value is
        a plain int/float/str/dict/list or None), the ``format`` field
        pins the schema (``repro.telemetry/v1``), and the heartbeat list
        rebuilds via :meth:`Heartbeat.from_dict` — enough to archive a
        sweep's progress log next to its results.
        """
        snapshot = self.summary()
        snapshot["format"] = TELEMETRY_FORMAT
        snapshot["started"] = self._started_at is not None
        snapshot["heartbeats"] = [hb.to_dict() for hb in self.heartbeats]
        return snapshot

    def to_stats(self, registry, prefix: str = "sweep") -> None:
        """Export the live aggregates onto a ``StatsRegistry``.

        Pairs with ``StatsRegistry.to_prometheus()`` for a scrapeable
        live view of a running sweep (throughput, occupancy, failures).
        """
        registry.scalar(
            f"{prefix}.total_tasks", "tasks in the sweep", self._total
        )
        registry.scalar(
            f"{prefix}.tasks_done", "tasks completed", self.tasks_done
        )
        registry.scalar(
            f"{prefix}.lanes_done", "batched lanes completed",
            self.lanes_done,
        )
        registry.scalar(
            f"{prefix}.mean_lanes", "mean fleet occupancy per task",
            self.mean_lanes,
        )
        registry.scalar(
            f"{prefix}.elapsed_s", "wall-clock seconds since start",
            self.elapsed_s,
        )
        registry.scalar(
            f"{prefix}.tasks_per_s", "aggregate task throughput",
            self.tasks_per_s,
        )
        cycles_rate = self.cycles_per_s
        registry.scalar(
            f"{prefix}.cycles_per_s", "aggregate simulated cycles/s",
            cycles_rate if cycles_rate is not None else 0.0,
        )
        registry.scalar(
            f"{prefix}.failures.total", "executor failure events",
            self.retries,
        )
        for kind in sorted(self.failures):
            registry.scalar(
                f"{prefix}.failures.{kind}",
                f"executor {kind} events", self.failures[kind],
            )

    def to_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition of the live aggregates."""
        from repro.obs.stats import StatsRegistry

        registry = StatsRegistry()
        self.to_stats(registry)
        return registry.to_prometheus(namespace=namespace)


def _render_parameters(parameters: Dict[str, object]) -> str:
    if not parameters:
        return "(no parameters)"
    return " ".join(f"{name}={value}" for name, value in parameters.items())
