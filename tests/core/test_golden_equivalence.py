"""Golden-trace equivalence of the fast-path kernel against the seed kernel.

The fast-path :class:`HiRiseSwitch` replaces tuple-keyed dictionaries and
per-cycle closures with flat integer-indexed state, but it must remain a
pure refactoring: for every arbitration scheme, allocation policy, and
failed-channel configuration, a simulation driven by the same traffic
must produce **bit-identical** results to the frozen seed kernel
(:class:`ReferenceHiRiseSwitch`) — same throughput, same per-packet
latency sequence, same per-port counters.
"""

import pytest

from repro.core.config import (
    VOQ_SCHEMES,
    AllocationPolicy,
    ArbitrationScheme,
    HiRiseConfig,
)
from repro.core import fleet
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.faults import (
    FaultSchedule,
    corrupt_clrg,
    fail_channel,
    fail_input,
    repair_channel,
    repair_input,
    verify_parity,
)
from repro.network.engine import Simulation
from repro.traffic import UniformRandomTraffic

FAILED_CHANNEL_CONFIGS = {
    "healthy": frozenset(),
    "failed-channels": frozenset({(0, 1, 0), (2, 3, 1), (3, 0, 0)}),
}

# VOQ schemes (iSLIP/MWM) run on their own single kernel, so
# fast-vs-reference and fleet-lane parity only cover Hi-Rise schemes.
HIRISE_SCHEMES = [s for s in ArbitrationScheme if s not in VOQ_SCHEMES]

# A scripted mid-run schedule exercising every event kind, including a
# full 0->1 partition (both channels down, cycles 90-160).  All faults
# are repaired before the measurement window ends so the drain phase can
# finish.
SCRIPTED_SCHEDULE = FaultSchedule([
    fail_channel(60, 0, 1, 0),
    fail_channel(90, 0, 1, 1),
    corrupt_clrg(100, 5, 2),
    fail_input(120, 3),
    repair_channel(160, 0, 1, 0),
    repair_channel(200, 0, 1, 1),
    repair_input(220, 3),
    fail_channel(240, 2, 3, 1),
    repair_channel(290, 2, 3, 1),
])


def run_once(switch_class, scheme, allocation, failed_channels, load, seed):
    config = HiRiseConfig(
        radix=16,
        layers=4,
        channel_multiplicity=2,
        arbitration=scheme,
        allocation=allocation,
        failed_channels=failed_channels,
    )
    switch = switch_class(config)
    traffic = UniformRandomTraffic(16, load=load, seed=seed)
    simulation = Simulation(switch, traffic, warmup_cycles=40)
    return simulation.run(measure_cycles=300, drain=True)


def assert_identical(reference, fast):
    assert fast.packets_injected == reference.packets_injected
    assert fast.packets_ejected == reference.packets_ejected
    assert fast.flits_ejected == reference.flits_ejected
    assert fast.cycles == reference.cycles
    assert fast.packet_latencies == reference.packet_latencies
    assert fast.per_input_ejected == reference.per_input_ejected
    assert fast.per_input_latency_sum == reference.per_input_latency_sum
    assert fast.per_output_ejected == reference.per_output_ejected


@pytest.mark.parametrize("scheme", HIRISE_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize(
    "allocation", list(AllocationPolicy), ids=lambda a: a.value
)
@pytest.mark.parametrize(
    "failed_channels",
    list(FAILED_CHANNEL_CONFIGS.values()),
    ids=list(FAILED_CHANNEL_CONFIGS),
)
def test_bit_identical_to_seed_kernel(scheme, allocation, failed_channels):
    reference = run_once(
        ReferenceHiRiseSwitch, scheme, allocation, failed_channels,
        load=0.9, seed=11,
    )
    fast = run_once(
        HiRiseSwitch, scheme, allocation, failed_channels,
        load=0.9, seed=11,
    )
    assert_identical(reference, fast)


def run_once_faulted(switch_class, scheme, allocation, schedule, load, seed):
    config = HiRiseConfig(
        radix=16,
        layers=4,
        channel_multiplicity=2,
        arbitration=scheme,
        allocation=allocation,
    )
    switch = switch_class(config, faults=schedule)
    traffic = UniformRandomTraffic(16, load=load, seed=seed)
    simulation = Simulation(switch, traffic, warmup_cycles=40)
    return simulation.run(measure_cycles=300, drain=True)


@pytest.mark.parametrize("scheme", HIRISE_SCHEMES, ids=lambda s: s.value)
def test_bit_identical_under_scripted_faults(scheme):
    reference = run_once_faulted(
        ReferenceHiRiseSwitch, scheme, AllocationPolicy.INPUT_BINNED,
        SCRIPTED_SCHEDULE, load=0.9, seed=11,
    )
    fast = run_once_faulted(
        HiRiseSwitch, scheme, AllocationPolicy.INPUT_BINNED,
        SCRIPTED_SCHEDULE, load=0.9, seed=11,
    )
    assert_identical(reference, fast)


@pytest.mark.parametrize(
    "allocation", list(AllocationPolicy), ids=lambda a: a.value
)
def test_trace_streams_identical_under_scripted_faults(allocation):
    # verify_parity compares the full result *and* the complete traced
    # event streams of both kernels, so a single divergent arbitration
    # decision anywhere in the run fails loudly.
    config = HiRiseConfig(
        radix=16, layers=4, channel_multiplicity=2,
        arbitration=ArbitrationScheme.CLRG, allocation=allocation,
    )
    assert verify_parity(config, SCRIPTED_SCHEDULE, load=0.9, seed=11) == []


def test_parity_under_random_schedule():
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
    schedule = FaultSchedule.random(
        config, seed=7, horizon=340, faults=6,
        include_inputs=True, include_clrg=True,
    )
    assert len(schedule) > 0
    assert verify_parity(config, schedule, load=0.9, seed=11) == []


def test_empty_schedule_bit_identical_to_no_schedule():
    # Arming the fault hook with nothing to deliver must not perturb a
    # single arbitration decision.
    plain = run_once(
        HiRiseSwitch, ArbitrationScheme.CLRG,
        AllocationPolicy.INPUT_BINNED, frozenset(), load=0.9, seed=11,
    )
    armed = run_once_faulted(
        HiRiseSwitch, ArbitrationScheme.CLRG,
        AllocationPolicy.INPUT_BINNED, FaultSchedule(), load=0.9, seed=11,
    )
    assert_identical(plain, armed)


# ----------------------------------------------------------------------
# Fleet kernel: every golden-equivalence config, lane by lane
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", HIRISE_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize(
    "allocation", list(AllocationPolicy), ids=lambda a: a.value
)
@pytest.mark.parametrize(
    "failed_channels",
    list(FAILED_CHANNEL_CONFIGS.values()),
    ids=list(FAILED_CHANNEL_CONFIGS),
)
def test_fleet_lanes_bit_identical(scheme, allocation, failed_channels):
    # Each fleet lane (seeds 11, 12, 13) is extracted and compared
    # field-by-field against a scalar fast-kernel run with the same
    # traffic; the fast kernel is pinned to the seed kernel above, so
    # transitively every lane matches the frozen reference.
    config = HiRiseConfig(
        radix=16,
        layers=4,
        channel_multiplicity=2,
        arbitration=scheme,
        allocation=allocation,
        failed_channels=failed_channels,
    )
    assert fleet.verify_fleet_parity(
        config, load=0.9, seed=11, measure_cycles=300, warmup_cycles=40,
        lanes=3, drain=True,
    ) == []


@pytest.mark.parametrize("scheme", HIRISE_SCHEMES, ids=lambda s: s.value)
def test_fleet_lanes_bit_identical_under_scripted_faults(scheme):
    config = HiRiseConfig(
        radix=16,
        layers=4,
        channel_multiplicity=2,
        arbitration=scheme,
        allocation=AllocationPolicy.INPUT_BINNED,
    )
    assert fleet.verify_fleet_parity(
        config, SCRIPTED_SCHEDULE, load=0.9, seed=11, measure_cycles=300,
        warmup_cycles=40, lanes=3, drain=True,
    ) == []


def test_verify_parity_fleet_lanes_option():
    # The verify_parity entry point used by the fuzzer reaches the same
    # lane comparison through its fleet_lanes= option.
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
    assert verify_parity(
        config, SCRIPTED_SCHEDULE, load=0.9, seed=11, fleet_lanes=2
    ) == []


# ----------------------------------------------------------------------
# Perf counters: profiling must never perturb a single decision
# ----------------------------------------------------------------------
def run_profiled(switch_factory, load=0.9, seed=11):
    switch = switch_factory()
    traffic = UniformRandomTraffic(16, load=load, seed=seed)
    simulation = Simulation(switch, traffic, warmup_cycles=40)
    return simulation.run(measure_cycles=300, drain=True)


PERF_CONFIG = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)


def test_perf_counters_do_not_perturb_fast_kernel():
    from repro.obs.perf import PerfCounters

    plain = run_profiled(lambda: HiRiseSwitch(PERF_CONFIG))
    perf = PerfCounters(stride=4)
    profiled = run_profiled(
        lambda: HiRiseSwitch(PERF_CONFIG, perf=perf)
    )
    assert_identical(plain, profiled)
    assert perf.kernel == "HiRiseSwitch"
    assert perf.cycles_total > 0
    assert perf.cycles_sampled == -(-perf.cycles_total // 4)
    assert {"transmit", "refill", "arbitrate", "commit"} <= set(perf.time_ns)


def test_perf_counters_do_not_perturb_reference_kernel():
    from repro.obs.perf import PerfCounters

    plain = run_profiled(lambda: ReferenceHiRiseSwitch(PERF_CONFIG))
    perf = PerfCounters(stride=4)
    profiled = run_profiled(
        lambda: ReferenceHiRiseSwitch(PERF_CONFIG, perf=perf)
    )
    assert_identical(plain, profiled)
    assert perf.kernel == "ReferenceHiRiseSwitch"
    assert {"transmit", "refill", "arbitrate", "commit"} <= set(perf.time_ns)
    # And profiled fast vs profiled reference still agree.
    fast = run_profiled(
        lambda: HiRiseSwitch(PERF_CONFIG, perf=PerfCounters(stride=4))
    )
    assert_identical(profiled, fast)


def test_perf_counters_compose_with_tracer_bit_identically():
    # perf= plus a batch-capture tracer: the sampled cycles are timed
    # whole (phase "step") and drains are attributed to "trace_drain",
    # still without perturbing results.
    pytest.importorskip("numpy")
    from repro.obs.perf import PerfCounters
    from repro.obs.tracebin import BinaryTracer

    plain = run_profiled(lambda: HiRiseSwitch(PERF_CONFIG))
    perf = PerfCounters(stride=4)
    tracer = BinaryTracer()
    profiled = run_profiled(
        lambda: HiRiseSwitch(PERF_CONFIG, tracer=tracer, perf=perf)
    )
    assert_identical(plain, profiled)
    assert "step" in perf.time_ns
    # The run is shorter than the drain interval, so the capture is
    # still in the timeline; the export-path drain is the timed one.
    tracer.drain()
    assert "trace_drain" in perf.time_ns
    assert perf.ops["trace_drain"] > 0


def test_perf_counters_do_not_perturb_fleet_lanes():
    from repro.obs.perf import PerfCounters

    def make_traffics():
        return [
            UniformRandomTraffic(16, load=0.9, seed=11 + lane)
            for lane in range(3)
        ]

    plain = fleet.FleetSimulation(
        PERF_CONFIG, make_traffics(), warmup_cycles=40
    ).run(measure_cycles=300, drain=True)
    perf = PerfCounters(stride=4)
    profiled = fleet.FleetSimulation(
        PERF_CONFIG, make_traffics(), warmup_cycles=40, perf=perf,
    ).run(measure_cycles=300, drain=True)
    for lane_plain, lane_profiled in zip(plain, profiled):
        assert_identical(lane_plain, lane_profiled)
    assert perf.kernel == "FleetKernel"
    assert perf.lanes == 3
    assert {"transmit", "refill", "arbitrate"} <= set(perf.time_ns)


@pytest.mark.parametrize("load", [0.2, 1.0])
def test_bit_identical_across_loads_default_config(load):
    # The paper's headline scheme under light and saturating traffic.
    reference = run_once(
        ReferenceHiRiseSwitch, ArbitrationScheme.CLRG,
        AllocationPolicy.INPUT_BINNED, frozenset(), load=load, seed=23,
    )
    fast = run_once(
        HiRiseSwitch, ArbitrationScheme.CLRG,
        AllocationPolicy.INPUT_BINNED, frozenset(), load=load, seed=23,
    )
    assert_identical(reference, fast)
