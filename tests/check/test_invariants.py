"""The runtime invariant hook: clean runs pass, corrupted kernels trip."""

import json

import pytest

from repro.check import (
    CHECK_CODES,
    DrainStallError,
    InvariantChecker,
    InvariantViolation,
)
from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.faults import FaultSchedule, fail_channel
from repro.network import engine as engine_module
from repro.network.engine import Simulation
from repro.obs.trace import INVARIANT, SwitchTracer
from repro.traffic import UniformRandomTraffic

KERNELS = [HiRiseSwitch, ReferenceHiRiseSwitch]


def run_to_live_path(simulation, switch, cycles=10):
    """Run ``cycles`` cycles, then on until at least one path is live.

    Saturated 4-flit traffic opens and tears down paths in lockstep, so
    a fixed cycle count can end on a cycle with no path open; which
    cycle that is depends on the traffic draws, not on the kernel.
    """
    simulation.run(measure_cycles=cycles)
    for _ in range(8):
        if switch.connections:
            return
        simulation.run(measure_cycles=1)
    raise AssertionError("need at least one live path")


def small_config(**overrides):
    defaults = dict(radix=8, layers=2, channel_multiplicity=2)
    defaults.update(overrides)
    return HiRiseConfig(**defaults)


def run_checked(kernel_cls, config=None, cycles=150, load=0.6, seed=3,
                tracer=None, schedule=None, warmup=10):
    checker = InvariantChecker()
    switch = kernel_cls(
        config or small_config(), tracer=tracer, faults=schedule,
        invariants=checker,
    )
    traffic = UniformRandomTraffic(switch.num_ports, load, seed=seed)
    simulation = Simulation(switch, traffic, warmup_cycles=warmup)
    result = simulation.run(measure_cycles=cycles)
    return switch, checker, result


class TestCleanRuns:
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_checked_run_is_clean(self, kernel_cls):
        _, checker, result = run_checked(kernel_cls)
        assert checker.cycles_checked == 160
        assert result.packets_ejected > 0

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize(
        "scheme", [s for s in ArbitrationScheme]
    )
    def test_every_scheme_passes(self, kernel_cls, scheme):
        config = small_config(arbitration=scheme)
        if config.uses_voq:
            # VOQ schemes run on the VOQ fabric with its own matching
            # checker (kernel_cls does not apply — there is one kernel).
            from repro.check.matching import MatchingInvariantChecker
            from repro.switches import make_switch

            checker = MatchingInvariantChecker()
            switch = make_switch(config, invariants=checker)
            traffic = UniformRandomTraffic(switch.num_ports, 0.6, seed=3)
            Simulation(switch, traffic, warmup_cycles=10).run(
                measure_cycles=100
            )
            assert checker.cycles_checked == 110
            return
        _, checker, _ = run_checked(kernel_cls, config, cycles=100)
        assert checker.cycles_checked == 110

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_clean_under_faults(self, kernel_cls):
        schedule = FaultSchedule(
            [fail_channel(20, 0, 1, 0), fail_channel(25, 1, 0, 1)]
        )
        _, checker, _ = run_checked(kernel_cls, schedule=schedule)
        assert checker.cycles_checked == 160

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_checked_run_bit_identical_to_unchecked(self, kernel_cls):
        results = []
        for invariants in (None, InvariantChecker()):
            switch = kernel_cls(small_config(), invariants=invariants)
            traffic = UniformRandomTraffic(8, 0.6, seed=3)
            simulation = Simulation(switch, traffic, warmup_cycles=10)
            results.append(simulation.run(measure_cycles=200))
        unchecked, checked = results
        for field in ("packets_injected", "packets_ejected", "flits_ejected",
                      "packet_latencies", "per_input_ejected",
                      "per_output_ejected"):
            assert getattr(unchecked, field) == getattr(checked, field)

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_checker_ledger_counts_injections(self, kernel_cls):
        switch, checker, result = run_checked(kernel_cls)
        assert checker.injected_flits == (
            switch.occupancy() + checker.ejected_flits
        )
        assert checker.injected_packets >= result.packets_injected

    def test_checker_binds_exactly_one_switch(self):
        checker = InvariantChecker()
        HiRiseSwitch(small_config(), invariants=checker)
        with pytest.raises(ValueError, match="exactly one switch"):
            ReferenceHiRiseSwitch(small_config(), invariants=checker)


class TestCorruptedKernels:
    """Deliberate state corruption must trip the matching invariant."""

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_leaked_flit_breaks_conservation(self, kernel_cls):
        checker = InvariantChecker()
        switch = kernel_cls(small_config(), invariants=checker)
        traffic = UniformRandomTraffic(8, 0.6, seed=3)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        simulation.run(measure_cycles=20)
        # Vanish every queued flit on one occupied port.
        port = next(p for p in switch.ports if p.source_queue._pending_flits)
        port.source_queue._packets.clear()
        port.source_queue._pending_flits = 0
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=5)
        assert excinfo.value.check == "flit_conservation"

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_double_granted_output_is_detected(self, kernel_cls):
        checker = InvariantChecker()
        switch = kernel_cls(small_config(), invariants=checker)
        traffic = UniformRandomTraffic(8, 0.7, seed=5)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        run_to_live_path(simulation, switch)
        # Point a second, unconnected input at an already-owned output.
        input_port, (_, output) = next(iter(switch.connections.items()))
        other = next(
            p for p in range(switch.num_ports)
            if p != input_port and p not in switch.connections
        )
        switch.output_owner[output] = other
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=5)
        assert excinfo.value.check == "path_coherence"
        assert output in excinfo.value.resources

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_leaked_resource_owner_is_detected(self, kernel_cls):
        checker = InvariantChecker()
        switch = kernel_cls(small_config(), invariants=checker)
        traffic = UniformRandomTraffic(8, 0.7, seed=5)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        run_to_live_path(simulation, switch)
        _, (resource, _) = next(iter(switch.connections.items()))
        if isinstance(switch.resource_owner, dict):
            key = next(iter(switch.resource_owner))
            del switch.resource_owner[key]
        else:
            switch.resource_owner[resource] = -1
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=5)
        assert excinfo.value.check == "path_coherence"

    def test_clrg_counter_out_of_bounds_is_detected(self):
        config = small_config(arbitration=ArbitrationScheme.CLRG)
        checker = InvariantChecker()
        switch = HiRiseSwitch(config, invariants=checker)
        traffic = UniformRandomTraffic(8, 0.6, seed=3)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        simulation.run(measure_cycles=5)
        switch.subblock_arbiters[0].counters._counts[1] = 99
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=2)
        assert excinfo.value.check == "clrg_counters"

    def test_negative_clrg_counter_is_detected(self):
        config = small_config(arbitration=ArbitrationScheme.CLRG)
        checker = InvariantChecker()
        switch = HiRiseSwitch(config, invariants=checker)
        traffic = UniformRandomTraffic(8, 0.6, seed=3)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        simulation.run(measure_cycles=5)
        switch.subblock_arbiters[2].counters._counts[3] = -1
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=2)
        assert excinfo.value.check == "clrg_counters"
        assert excinfo.value.resources == (2,)

    def test_corrupted_voq_counter_is_detected(self):
        from repro.check.matching import MatchingInvariantChecker
        from repro.switches import make_switch

        checker = MatchingInvariantChecker()
        switch = make_switch(
            small_config(arbitration=ArbitrationScheme.ISLIP),
            invariants=checker,
        )
        traffic = UniformRandomTraffic(8, 0.6, seed=3)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        simulation.run(measure_cycles=10)
        # Move one count between two of stage 3's counters: the row total
        # (and so flit conservation) is unchanged, the rows are not.
        row = switch.stages[3].occupancy_row
        row[2] += 1
        row[5] -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=2)
        assert excinfo.value.check == "voq_occupancy"
        assert excinfo.value.resources == (3, 2)

    @staticmethod
    def _checked_voq_switch(cycles):
        """An iSLIP switch stepped by hand (no injection after ``cycles``)."""
        from repro.check.matching import MatchingInvariantChecker
        from repro.switches import make_switch

        switch = make_switch(
            small_config(arbitration=ArbitrationScheme.ISLIP),
            invariants=MatchingInvariantChecker(),
        )
        traffic = UniformRandomTraffic(8, 0.2, seed=3)
        for cycle in range(cycles):
            for packet in traffic.packets_for_cycle(cycle):
                switch.inject(packet)
            switch.step(cycle)
        return switch

    def test_stale_hol_cycle_is_detected(self):
        switch = self._checked_voq_switch(10)
        # A queued VOQ its input is not streaming from: the next step
        # neither pops it nor (being non-empty) rewrites its HOL cycle.
        stage, output = next(
            (stage, output)
            for stage in switch.stages
            for output in sorted(stage.nonempty)
            if switch.connections.get(stage.input_id, (None, None))[1]
            != output
        )
        stage.hol_row[output] -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            switch.step(10)
        assert excinfo.value.check == "voq_occupancy"
        assert excinfo.value.resources == (stage.input_id, output)
        assert "head-of-line" in str(excinfo.value)

    def test_phantom_nonempty_output_is_detected(self):
        switch = self._checked_voq_switch(10)
        # An empty VOQ of an input with nothing left to refill: only the
        # corruption can make it look non-empty.
        stage, output = next(
            (stage, output)
            for stage in switch.stages
            if not stage.source
            for output in range(8)
            if not stage.voqs[output]
        )
        stage.nonempty.add(output)
        with pytest.raises(InvariantViolation) as excinfo:
            switch.step(10)
        assert excinfo.value.check == "voq_occupancy"
        assert excinfo.value.resources == (stage.input_id, output)
        assert "phantom" in str(excinfo.value)

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_broken_lrg_order_is_detected(self, kernel_cls):
        checker = InvariantChecker()
        switch = kernel_cls(small_config(), invariants=checker)
        arbiter = next(iter(switch.int_arbiters.values()))
        arbiter._rank[0] = arbiter._rank[1]  # duplicate recency key
        traffic = UniformRandomTraffic(8, 0.3, seed=1)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=2)
        assert excinfo.value.check == "lrg_order"


class TestViolationStructure:
    def test_violation_carries_cycle_resources_snapshot(self):
        checker = InvariantChecker()
        switch = HiRiseSwitch(small_config(), invariants=checker)
        traffic = UniformRandomTraffic(8, 0.7, seed=5)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        run_to_live_path(simulation, switch)
        switch.resource_owner[
            next(iter(switch.connections.values()))[0]
        ] = -1
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(measure_cycles=5)
        violation = excinfo.value
        assert violation.cycle >= 10
        assert violation.resources
        assert violation.snapshot is not None
        assert "invariants" in violation.snapshot
        record = violation.to_dict()
        json.dumps(record)  # JSON-serialisable end to end
        assert record["check"] in CHECK_CODES

    def test_traced_violation_emits_invariant_event(self):
        tracer = SwitchTracer(capacity=None)
        checker = InvariantChecker()
        switch = HiRiseSwitch(
            small_config(), tracer=tracer, invariants=checker
        )
        traffic = UniformRandomTraffic(8, 0.7, seed=5)
        simulation = Simulation(switch, traffic, warmup_cycles=0)
        run_to_live_path(simulation, switch)
        switch.resource_owner[
            next(iter(switch.connections.values()))[0]
        ] = -1
        with pytest.raises(InvariantViolation):
            simulation.run(measure_cycles=5)
        last = tracer.events[-1]
        assert last[1] == INVARIANT
        assert last[2] == CHECK_CODES["path_coherence"]


class TestDrainStallClassification:
    def test_drain_stall_is_a_structured_violation(self, monkeypatch):
        monkeypatch.setattr(engine_module, "DRAIN_IDLE_LIMIT", 25)
        schedule = FaultSchedule([
            fail_channel(0, 0, 1, channel)
            for channel in range(2)
        ] + [
            fail_channel(0, 1, 0, channel)
            for channel in range(2)
        ])
        from repro.network.packet import Packet

        switch = HiRiseSwitch(small_config(), faults=schedule)
        switch.inject(
            Packet(packet_id=1, src=0, dst=7, num_flits=4, created_cycle=0)
        )
        simulation = Simulation(
            switch, UniformRandomTraffic(8, 0.0, seed=1), warmup_cycles=0
        )
        with pytest.raises(DrainStallError) as excinfo:
            simulation.run(measure_cycles=1, drain=True)
        error = excinfo.value
        assert isinstance(error, InvariantViolation)
        assert isinstance(error, RuntimeError)
        assert error.check == "drain_stall"
        assert error.idle_cycles == 25
        assert error.occupancy > 0
        assert error.snapshot is not None
        assert "drain made no progress for 25" in str(error)
