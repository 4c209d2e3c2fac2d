"""The incremental VOQ switch is bit-identical to its frozen original.

:mod:`frozen_voq` keeps the VOQ switch that rebuilt its weight matrix
by walking every virtual output queue each cycle.  Each test here runs
it and the live :class:`repro.switches.VOQSwitch` side by side over the
same seeded traffic, traced, and requires on every cycle the same
weight matrix handed to the scheduler, the same ejected flits, the same
connections and the same scheduler state (iSLIP grant/accept pointers,
MWM tie-break offset); at the end, the same trace stream, including the
weights carried by the ``sched_grant``/``sched_accept`` events.  The
live switch also reports per-output requester lists for iSLIP, which
must be exactly the requests its weight matrix encodes, and it runs
under :class:`repro.check.MatchingInvariantChecker`, so its incremental
queue matrices are verified against the deques on every cycle.
"""

import pytest

from frozen_voq import FrozenVOQSwitch
from repro.check.matching import MatchingInvariantChecker
from repro.core.config import HiRiseConfig
from repro.faults import FaultSchedule, fail_input, repair_input
from repro.obs.trace import SCHED_ACCEPT, SCHED_GRANT, SwitchTracer
from repro.switches import VOQSwitch
from repro.traffic import (
    HotspotTraffic,
    PermutationTraffic,
    UniformRandomTraffic,
)

SCHEDULERS = {
    "islip1": dict(arbitration="islip", islip_iterations=1),
    "islip4": dict(arbitration="islip", islip_iterations=4),
    "mwm": dict(arbitration="mwm"),
}


def make_traffic(pattern, radix, seed):
    """Seeded traffic that backs VOQs up: queues, ties and idle outputs."""
    if pattern == "uniform":
        return UniformRandomTraffic(radix, 0.3, seed=seed)
    if pattern == "hotspot":
        return HotspotTraffic(
            radix, 0.05, hotspot_output=radix - 1, seed=seed,
            background_load=0.1,
        )
    return PermutationTraffic(radix, 0.25, pattern="transpose", seed=seed)


def stuck_schedule(radix):
    """Two stuck inputs: one repaired mid-run, one stuck to the end."""
    return FaultSchedule([
        fail_input(15, 1), fail_input(25, radix - 1), repair_input(50, 1),
    ])


def requests_of(weights):
    """Per-output ascending requester lists encoded by a weight matrix."""
    return [
        [inp for inp, row in enumerate(weights) if row[out] > 0]
        for out in range(len(weights))
    ]


def scheduler_state(scheduler):
    return (
        getattr(scheduler, "grant_pointers", None),
        getattr(scheduler, "accept_pointers", None),
        getattr(scheduler, "_offset", None),
    )


def flit_record(flit):
    return (flit.packet_id, flit.src, flit.dst, flit.seq,
            flit.created_cycle, flit.ejected_cycle)


def run_side_by_side(radix, scheduler, pattern, faults, cycles):
    config = HiRiseConfig(
        radix=radix, layers=2, channel_multiplicity=2,
        **SCHEDULERS[scheduler],
    )
    live_tracer, frozen_tracer = SwitchTracer(None), SwitchTracer(None)
    checker = MatchingInvariantChecker()
    live = VOQSwitch(
        config, tracer=live_tracer, invariants=checker,
        faults=stuck_schedule(radix) if faults else None,
    )
    frozen = FrozenVOQSwitch(
        config, tracer=frozen_tracer,
        faults=stuck_schedule(radix) if faults else None,
    )

    # Capture the scheduler input of every cycle on both sides.
    live_requests, frozen_weights = {}, {}
    build = live._requests

    def capture_live(cycle, cooling_inputs, cooling_outputs):
        request = build(cycle, cooling_inputs, cooling_outputs)
        if request is not None:
            live_requests[cycle] = (
                [list(row) for row in request[0]],
                [list(column) for column in request[1]],
            )
        return request

    live._requests = capture_live
    match = frozen.scheduler.match

    def capture_frozen(weights, observer=None):
        frozen_weights[frozen_tracer.cycle] = [list(row) for row in weights]
        return match(weights, observer=observer)

    frozen.scheduler.match = capture_frozen

    live_traffic = make_traffic(pattern, radix, seed=radix + 7)
    frozen_traffic = make_traffic(pattern, radix, seed=radix + 7)
    requested_cycles = 0
    for cycle in range(cycles):
        for packet in live_traffic.packets_for_cycle(cycle):
            live.inject(packet)
        for packet in frozen_traffic.packets_for_cycle(cycle):
            frozen.inject(packet)
        live_ejected = live.step(cycle)
        frozen_ejected = frozen.step(cycle)

        assert cycle in live_requests or cycle not in frozen_weights
        if cycle in frozen_weights:
            weights, requesters = live_requests[cycle]
            assert weights == frozen_weights[cycle], f"cycle {cycle}"
            assert requesters == requests_of(weights), f"cycle {cycle}"
            requested_cycles += 1
        else:
            assert cycle not in live_requests
        assert list(map(flit_record, live_ejected)) == list(
            map(flit_record, frozen_ejected)
        ), f"cycle {cycle}"
        assert live.connections == frozen.connections
        assert live.output_owner == frozen.output_owner
        assert scheduler_state(live.scheduler) == scheduler_state(
            frozen.scheduler
        ), f"cycle {cycle}"
    assert live.occupancy() == frozen.occupancy()
    assert live_tracer.events == frozen_tracer.events
    assert live.stuck_inputs == frozen.stuck_inputs
    return live_tracer, checker, requested_cycles


@pytest.mark.parametrize("faults", [False, True], ids=["healthy", "stuck"])
@pytest.mark.parametrize("pattern", ["uniform", "hotspot", "permutation"])
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("radix", [4, 16, 64])
def test_live_switch_matches_frozen(radix, scheduler, pattern, faults):
    cycles = 90 if radix == 64 else 160
    tracer, checker, requested = run_side_by_side(
        radix, scheduler, pattern, faults, cycles,
    )
    assert checker.cycles_checked == cycles
    # The runs exercise the scheduler and its traced rounds, not just
    # an idle fabric.
    assert requested > cycles // 8
    kinds = {event[1] for event in tracer.events}
    assert {SCHED_GRANT, SCHED_ACCEPT} <= kinds
