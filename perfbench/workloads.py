"""The four benchmark workloads, each driven through a public entry point.

Every workload is built from its seed alone and run closed-loop by one
caller: the next call starts when the previous one returns.  Inside a
call the simulated traffic is an open-loop Bernoulli source at a fixed
load, so the simulated work per call is fixed by the seed.

This module imports nothing from ``repro`` at import time, so the
set-up probe can time ``import repro`` in a fresh process.  Why each
workload was chosen is in ``why`` and in README.md.
"""

import contextlib
import os
from typing import Dict, List, NamedTuple, Optional

from perfbench.spans import RESUME, descendants

#: Offered load (packets/input/cycle) of ``simulate`` and ``replicate``:
#: about 83% of the 64x4 c=4 CLRG saturation point, with no growing
#: backlog.
DESIGN_LOAD = 0.12


class Outcome(NamedTuple):
    """What one call produced.

    ``outputs`` are the simulated results (they must repeat exactly for
    a seed); ``cycles`` counts simulated cycles (fleet lane-cycles
    summed, warm-up included) and ``flits`` the flits delivered in the
    measured windows.  ``raw`` is the entry point's full return value,
    for the per-call checks.
    """

    outputs: Dict[str, object]
    cycles: int
    flits: int
    raw: object = None


def _null_span(name):
    return contextlib.nullcontext()


class Workload:
    """Base class: ``build`` once, then ``call`` repeatedly."""

    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False,
                 workdir: Optional[str] = None) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def build(self) -> None:
        """Import the entry point and build its inputs, up to the first
        simulated cycle (what the set-up probe times)."""
        raise NotImplementedError

    def call(self, span=_null_span) -> Outcome:
        """One call of the workload's entry point."""
        raise NotImplementedError

    def call_problems(self, outcome: Outcome) -> List[str]:
        """Cheap output checks run after every call (untimed)."""
        return []

    def checks(self, outcome: Outcome, tracer) -> Dict[str, Optional[str]]:
        """Output checks on the traced warm-up call: name -> problem."""
        return {}


def _geometry(tiny: bool):
    return (16, 2, 2) if tiny else (64, 4, 4)


class Simulate(Workload):
    name = "simulate"
    why = ("one long Simulation.run on the scalar fast kernel at 64 ports, "
           "4 layers, c=4, CLRG: traffic, inject, step and engine "
           "accounting all on the path")

    def __init__(self, seed, tiny=False, workdir=None) -> None:
        super().__init__(seed, tiny, workdir)
        self.warmup, self.measure = (20, 100) if tiny else (200, 2000)
        self.prefix = 60 if tiny else 400

    def build(self) -> None:
        from repro.core.config import HiRiseConfig
        from repro.metrics.stats import LatencyStats
        from repro.network.engine import Simulation
        from repro.switches import make_switch
        from repro.traffic import UniformRandomTraffic

        radix, layers, channels = _geometry(self.tiny)
        self.config = HiRiseConfig(
            radix=radix, layers=layers, channel_multiplicity=channels
        )
        self._stats = LatencyStats
        self._simulation = Simulation
        self._make_switch = make_switch
        self._traffic = UniformRandomTraffic
        self._simulation_for(make_switch(self.config), self.warmup)

    def _simulation_for(self, switch, warmup: int):
        traffic = self._traffic(
            self.config.radix, DESIGN_LOAD, packet_flits=4, seed=self.seed
        )
        return self._simulation(switch, traffic, warmup_cycles=warmup)

    def call(self, span=_null_span) -> Outcome:
        simulation = self._simulation_for(
            self._make_switch(self.config), self.warmup
        )
        result = simulation.run(self.measure)
        latency = self._stats.from_samples(result.packet_latencies)
        return Outcome(
            outputs={
                "throughput_flits_per_cycle":
                    result.throughput_flits_per_cycle,
                "avg_latency_cycles": result.avg_latency_cycles,
                "p99_latency_cycles": latency.p99,
                "packets_delivered": result.packets_ejected,
            },
            cycles=self.warmup + self.measure,
            flits=result.flits_ejected,
        )

    def checks(self, outcome, tracer):
        from repro.core.reference import ReferenceHiRiseSwitch

        fast = self._simulation_for(
            self._make_switch(self.config), 0
        ).run(self.prefix)
        reference = self._simulation_for(
            ReferenceHiRiseSwitch(self.config), 0
        ).run(self.prefix)
        differing = sorted(
            field for field in set(vars(fast)) | set(vars(reference))
            if getattr(fast, field, None) != getattr(reference, field, None)
        )
        problem = None
        if differing:
            problem = (
                f"fast kernel differs from ReferenceHiRiseSwitch over "
                f"{self.prefix} cycles in {', '.join(differing)}"
            )
        elif fast.packets_ejected == 0:
            problem = "reference prefix delivered no packets"
        return {"reference_parity": problem}


class Replicate(Workload):
    name = "replicate"
    why = ("replicate() of 32 seeds as one fleet group at the design "
           "point: the fleet kernel and the traffic feeding it, with the "
           "scalar kernel and engine accounting idle")

    def __init__(self, seed, tiny=False, workdir=None) -> None:
        super().__init__(seed, tiny, workdir)
        self.replications = 4 if tiny else 32
        self.windows = (
            dict(warmup_cycles=10, measure_cycles=40) if tiny else {}
        )

    def build(self) -> None:
        import repro.harness as harness
        from repro.core.config import HiRiseConfig

        radix, layers, channels = _geometry(self.tiny)
        config = HiRiseConfig(
            radix=radix, layers=layers, channel_multiplicity=channels
        )
        self.harness = harness
        self.measurement = harness.SimulationMeasurement(
            config, load=DESIGN_LOAD, **self.windows
        )

    def call(self, span=_null_span) -> Outcome:
        measurement = self.measurement
        interval = self.harness.replicate(
            measurement, num_replications=self.replications,
            base_seed=self.seed,
        )
        radix = measurement.config.radix
        lanes = self.replications
        return Outcome(
            outputs={
                "throughput_mean": interval.mean,
                "throughput_half_width": interval.half_width,
            },
            cycles=lanes * (
                measurement.warmup_cycles + measurement.measure_cycles
            ),
            flits=round(
                interval.mean * lanes * measurement.measure_cycles * radix
            ),
        )

    def _lane_values(self, tracer) -> Dict[int, float]:
        """Per-replication values the traced call computed, by seed."""
        values: Dict[int, float] = {}
        for name, args, result in tracer.captured or ():
            if name == "fleet.run_fleet_plans":
                for lane, (plan, lane_result) in enumerate(
                    zip(args[0], result)
                ):
                    values[self.seed + lane] = float(
                        self.measurement.value_from_result(
                            lane_result, plan.config
                        )
                    )
            elif name == "harness.measure":
                _measurement, _parameters, seed = args[0]
                values[seed] = float(result)
        return values

    def checks(self, outcome, tracer):
        lanes = self._lane_values(tracer)
        sampled = sorted({0, self.replications // 2, self.replications - 1})
        problem = None
        if len(lanes) != self.replications:
            problem = (
                f"saw {len(lanes)} replication values, expected "
                f"{self.replications}"
            )
        else:
            for index in sampled:
                seed = self.seed + index
                scalar = float(self.measurement(seed=seed))
                if lanes[seed] != scalar:
                    problem = (
                        f"replication {index}: batched value "
                        f"{lanes[seed]!r} != scalar value {scalar!r}"
                    )
                    break
            else:
                ordered = [lanes[self.seed + i]
                           for i in range(self.replications)]
                mean = sum(ordered) / len(ordered)
                if mean != outcome.outputs["throughput_mean"]:
                    problem = (
                        f"interval mean {outcome.outputs['throughput_mean']!r}"
                        f" != mean of replication values {mean!r}"
                    )
        return {"lanes_match_scalar": problem}


SCHEDULERS = ("clrg", "islip1", "islip4", "mwm")


class Schedulers(Workload):
    name = "schedulers"
    why = ("compare_schedulers at radix 64 with invariants on: MWM and "
           "iSLIP matchers, the VOQ switch and the checker, with traffic "
           "about 1% of wall")

    def __init__(self, seed, tiny=False, workdir=None) -> None:
        super().__init__(seed, tiny, workdir)
        self.warmup, self.measure = (5, 15) if tiny else (16, 48)

    def build(self) -> None:
        import repro.harness as harness
        from repro.core.config import HiRiseConfig
        from repro.switches import make_switch

        self.harness = harness
        radix, layers, channels = _geometry(self.tiny)
        self.geometry = dict(radix=radix, layers=layers, channels=channels)
        for name in SCHEDULERS:
            make_switch(HiRiseConfig(
                radix=radix, layers=layers, channel_multiplicity=channels,
                **harness.SCHEDULER_SPECS[name],
            ))

    def call(self, span=_null_span) -> Outcome:
        comparison = self.harness.compare_schedulers(
            **self.geometry,
            schedulers=list(SCHEDULERS), traffic=["uniform"], load=0.1,
            seed=self.seed, warmup_cycles=self.warmup,
            measure_cycles=self.measure, invariants=True, saturation=False,
        )
        row = comparison["matrix"]["uniform"]
        flits = sum(
            cell["throughput_flits_per_cycle"] * self.measure
            for cell in row.values()
        )
        return Outcome(
            outputs={
                name: {
                    "throughput_flits_per_cycle":
                        cell["throughput_flits_per_cycle"],
                    "avg_latency_cycles": cell["avg_latency_cycles"],
                    "p99_latency_cycles": cell["p99_latency_cycles"],
                    "packets_delivered": cell["packets_ejected"],
                }
                for name, cell in row.items()
            },
            cycles=len(SCHEDULERS) * (self.warmup + self.measure),
            flits=round(flits),
            raw=comparison,
        )

    def call_problems(self, outcome):
        comparison = outcome.raw
        try:
            self.harness.validate_comparison(comparison)
        except ValueError as error:
            return [f"validate_comparison: {error}"]
        return [
            f"{name}: no invariant cycles checked"
            for name, cell in comparison["matrix"]["uniform"].items()
            if not cell["invariant_cycles_checked"] > 0
        ]


#: Span names that mean a simulation ran.
_SIMULATING = ("fleet.run_fleet_plans", "harness.measure", "network.run")


class Sweep(Workload):
    name = "sweep"
    why = ("run_sweep over 18 points x 4 seeds with a fresh checkpoint, "
           "then a read-only resume: many short tasks, mixed fleet groups "
           "and scalar VOQ tasks, journal writes")

    def __init__(self, seed, tiny=False, workdir=None) -> None:
        super().__init__(seed, tiny, workdir)
        self.replications = 2 if tiny else 4
        self.windows = (
            dict(warmup_cycles=5, measure_cycles=20) if tiny else {}
        )
        self._calls = 0

    def build(self) -> None:
        import repro.harness as harness
        from repro.core.config import HiRiseConfig

        self.harness = harness
        self.measurement = harness.SimulationMeasurement(
            HiRiseConfig(radix=16, layers=2, channel_multiplicity=2),
            **self.windows,
        )
        self.grid = harness.parameter_grid(
            arbitration=["clrg", "l2l_lrg", "islip"],
            channel_multiplicity=[1, 2],
            load=[0.05, 0.10, 0.15],
        )

    def _checkpoint(self) -> str:
        self._calls += 1
        return os.path.join(self.workdir, f"sweep-{self._calls}.jsonl")

    def call(self, span=_null_span) -> Outcome:
        checkpoint = self._checkpoint()
        first = self.harness.run_sweep(
            self.measurement, self.grid, replications=self.replications,
            base_seed=self.seed, checkpoint=checkpoint,
        )
        with span(RESUME):
            resumed = self.harness.run_sweep(
                self.measurement, self.grid,
                replications=self.replications, base_seed=self.seed,
                checkpoint=checkpoint,
            )
        os.remove(checkpoint)
        measurement = self.measurement
        tasks = len(self.grid) * self.replications
        return Outcome(
            outputs={"points": [_point(point) for point in first]},
            cycles=tasks * (
                measurement.warmup_cycles + measurement.measure_cycles
            ),
            flits=round(sum(
                point.value * self.replications
                * measurement.measure_cycles * measurement.config.radix
                for point in first
            )),
            raw=[_point(point) for point in resumed],
        )

    def call_problems(self, outcome):
        if outcome.raw != outcome.outputs["points"]:
            return ["resumed sweep values differ from the first pass"]
        return []

    def checks(self, outcome, tracer):
        spans = tracer.recorder.rows()
        ran = [i for i, span in enumerate(spans) if span[0] in _SIMULATING]
        resumes = [i for i, span in enumerate(spans) if span[0] == RESUME]
        problem = None
        if not ran or not resumes:
            problem = "traced call recorded no simulations or no resume"
        else:
            inside = {
                spans[index][0]
                for resume in resumes
                for index in descendants(spans, resume)
            }
            rerun = sorted(inside & set(_SIMULATING))
            if rerun:
                problem = f"resume ran simulations: {', '.join(rerun)}"
        return {"resume_runs_nothing": problem}


def _point(point) -> List[object]:
    """A sweep point as ``[arbitration, c, load, value, half-width]``."""
    parameters = point.parameters
    return [
        str(parameters["arbitration"]), parameters["channel_multiplicity"],
        parameters["load"], point.value, point.interval.half_width,
    ]


WORKLOADS = {cls.name: cls for cls in (Simulate, Replicate, Schedulers, Sweep)}


def make_workload(name: str, seed: int, tiny: bool = False,
                  workdir: Optional[str] = None) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
    return cls(seed, tiny=tiny, workdir=workdir)
