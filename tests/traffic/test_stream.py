"""Traffic stream 2: the array path, block boundaries, destination rules.

Every source draws arrivals through one array method, ``arrivals(cycle)
-> (srcs, dsts, first_packet_id)``; ``packets_for_cycle`` only wraps it
into packets.  These tests pin that both forms read the same draws, that
block-drawn runs repeat exactly across block boundaries, and that
destinations obey each pattern's rules.
"""

import numpy as np
import pytest

from repro.core import HiRiseConfig
from repro.traffic import (
    TRAFFIC_STREAM,
    AdversarialTraffic,
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TraceTraffic,
    UniformRandomTraffic,
    binning_adversarial,
)
from repro.traffic.base import BLOCK_CYCLES

PORTS = 16
#: Long enough to cross several block boundaries, with a partial block.
CYCLES = 3 * BLOCK_CYCLES + 17

_TRACE = [
    (cycle, (7 * cycle + k) % PORTS, (3 * cycle + 5 * k + 1) % PORTS)
    for cycle in range(0, CYCLES, 3) for k in range(cycle % 4)
]

SOURCES = {
    "uniform": lambda seed: UniformRandomTraffic(PORTS, 0.3, seed=seed),
    "uniform_self": lambda seed: UniformRandomTraffic(
        PORTS, 0.3, seed=seed, exclude_self=False
    ),
    "uniform_subset": lambda seed: UniformRandomTraffic(
        PORTS, 0.6, seed=seed, active_inputs=[9, 2, 5]
    ),
    "hotspot": lambda seed: HotspotTraffic(
        PORTS, 0.2, hotspot_output=PORTS - 1, seed=seed
    ),
    "hotspot_background": lambda seed: HotspotTraffic(
        PORTS, 0.2, hotspot_output=3, seed=seed, background_load=0.3
    ),
    "bursty_per_burst": lambda seed: BurstyTraffic(
        PORTS, 0.3, burst_length=6.0, seed=seed
    ),
    "bursty_per_packet": lambda seed: BurstyTraffic(
        PORTS, 0.3, burst_length=6.0, seed=seed,
        per_burst_destination=False,
    ),
    "permutation": lambda seed: PermutationTraffic(
        PORTS, 0.5, pattern="bit_reverse", seed=seed
    ),
    "adversarial": lambda seed: AdversarialTraffic(
        PORTS, 0.7,
        binning_adversarial(
            HiRiseConfig(radix=PORTS, layers=2, channel_multiplicity=2)
        ),
        seed=seed,
    ),
    "trace": lambda seed: TraceTraffic(_TRACE),
}


def array_run(traffic, cycles=CYCLES, start=0):
    """Per cycle, the (src, dst, packet_id) triples of ``arrivals``."""
    run = []
    for cycle in range(start, start + cycles):
        srcs, dsts, first = traffic.arrivals(cycle)
        assert len(srcs) == len(dsts)
        run.append([
            (src, dst, first + k)
            for k, (src, dst) in enumerate(zip(srcs.tolist(), dsts.tolist()))
        ])
    return run


def packet_run(traffic, cycles=CYCLES):
    run = []
    for cycle in range(cycles):
        packets = traffic.packets_for_cycle(cycle)
        assert all(p.created_cycle == cycle for p in packets)
        run.append([(p.src, p.dst, p.packet_id) for p in packets])
    return run


def test_stream_version():
    assert TRAFFIC_STREAM == 2


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_array_and_packet_forms_read_the_same_draws(name):
    arrays = array_run(SOURCES[name](5))
    packets = packet_run(SOURCES[name](5))
    assert arrays == packets
    assert sum(map(len, arrays)) > 0


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_runs_across_block_boundaries_repeat_exactly(name):
    first = array_run(SOURCES[name](9))
    second = array_run(SOURCES[name](9))
    assert first == second
    if name != "trace":
        # Blocks are consumed in call order: the cycle argument only
        # stamps packets, so a run started at another cycle draws the
        # same arrivals.
        assert array_run(SOURCES[name](9), start=1000) == first
        assert array_run(SOURCES[name](10)) != first


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_packet_ids_are_consecutive(name):
    ids = [pid for cycle in array_run(SOURCES[name](2)) for _, _, pid in cycle]
    assert ids == list(range(len(ids)))


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"trace"}))
def test_destinations_respect_pattern_rules(name):
    traffic = SOURCES[name](4)
    triples = [t for cycle in array_run(traffic) for t in cycle]
    active = set(traffic.active_inputs)
    assert {src for src, _, _ in triples} <= active
    assert all(0 <= dst < PORTS for _, dst, _ in triples)
    self_sends = sum(src == dst for src, dst, _ in triples)
    if name == "uniform_self":
        assert self_sends > 0
    elif name == "hotspot":
        # The hotspot's own tile also targets the hotspot (Fig 11a).
        assert all(dst == PORTS - 1 for _, dst, _ in triples)
    elif name == "hotspot_background":
        # Background packets are uniform over the *other* outputs and
        # never self-addressed.
        assert all(src != dst for src, dst, _ in triples if dst != 3)
    else:
        assert self_sends == 0


def test_at_most_one_packet_per_input_per_cycle_except_background():
    for name, make in SOURCES.items():
        if name in ("hotspot_background", "trace"):
            continue
        for cycle in array_run(make(6)):
            srcs = [src for src, _, _ in cycle]
            assert len(srcs) == len(set(srcs)), name


def test_background_follows_hotspot_packet_of_the_same_input():
    traffic = SOURCES["hotspot_background"](3)
    doubled = 0
    for cycle in array_run(traffic):
        for (src_a, dst_a, _), (src_b, dst_b, _) in zip(cycle, cycle[1:]):
            if src_a == src_b:
                doubled += 1
                assert dst_a == 3 and dst_b != 3
        srcs = [src for src, _, _ in cycle]
        assert srcs == sorted(srcs)
    assert doubled > 0


def test_active_input_order_is_injection_order():
    traffic = UniformRandomTraffic(PORTS, 1.0, seed=1, active_inputs=[9, 2, 5])
    for cycle in array_run(traffic, cycles=5):
        assert [src for src, _, _ in cycle] == [9, 2, 5]


def test_trace_arrivals_follow_the_trace_cycle():
    trace = TraceTraffic([(4, 3, 1), (4, 0, 2), (1, 5, 6)], packet_flits=2)
    srcs, dsts, first = trace.arrivals(4)
    assert srcs.tolist() == [3, 0] and dsts.tolist() == [1, 2]
    assert first == 0
    assert trace.arrivals(0)[0].size == 0
    assert trace.arrivals(1)[2] == 2


def test_destination_hook_out_of_range_raises():
    traffic = AdversarialTraffic(PORTS, 1.0, {1: 2}, seed=1)
    traffic._table[1] = PORTS
    with pytest.raises(ValueError, match="out of range"):
        traffic.arrivals(0)


def test_load_is_met_per_active_input():
    traffic = UniformRandomTraffic(8, 0.25, seed=12)
    counts = np.zeros(8)
    for cycle in range(4000):
        srcs, _, _ = traffic.arrivals(cycle)
        np.add.at(counts, srcs, 1)
    assert counts / 4000 == pytest.approx(np.full(8, 0.25), abs=0.03)
