"""Tests of the VOQ input stage, the VOQ crossbar, and make_switch.

Includes the iSLIP-1 degeneration parity (golden-test style, like
``tests/core/test_golden_equivalence.py``): with one iteration and
single-VOQ inputs, iSLIP is *structurally* equivalent to independent
per-output round-robin arbitration — pinned both at the matcher level
(identical decision sequences from identical pointer state) and at the
switch level (bit-identical simulation results when the scheduler is
swapped for a round-robin composition).
"""

import random

import numpy as np
import pytest

from repro.arbitration.islip import ISLIPArbiter
from repro.arbitration.round_robin import RoundRobinArbiter
from repro.core.config import HiRiseConfig
from repro.core.hirise import HiRiseSwitch
from repro.network.engine import Simulation
from repro.network.packet import PacketFactory
from repro.switches import VOQStage, VOQSwitch, make_switch
from repro.traffic import UniformRandomTraffic
from repro.traffic.base import SyntheticTraffic


def voq_config(arbitration="islip", radix=8, **overrides):
    defaults = dict(
        radix=radix, layers=2, channel_multiplicity=2,
        arbitration=arbitration,
    )
    defaults.update(overrides)
    return HiRiseConfig(**defaults)


class FixedDestinationTraffic(SyntheticTraffic):
    """Each input always sends to one fixed output (single-VOQ inputs)."""

    def __init__(self, num_ports, load, mapping, packet_flits=4, seed=1):
        super().__init__(num_ports, load, packet_flits=packet_flits,
                         seed=seed)
        self.mapping = mapping

    def destinations(self, srcs):
        return np.array([self.mapping[src] for src in srcs.tolist()],
                        dtype=np.int64)


# ---------------------------------------------------------------------------
# VOQStage
# ---------------------------------------------------------------------------
class TestVOQStage:
    def test_refill_moves_one_flit_per_call_into_the_right_voq(self):
        stage = VOQStage(0, 4)
        factory = PacketFactory(3)
        stage.source.append_packet(factory.create(0, 2, created_cycle=0))
        stage.source.append_packet(factory.create(0, 1, created_cycle=0))
        assert stage.occupancy_row == [0, 0, 0, 0]
        for expected in ([0, 0, 1, 0], [0, 0, 2, 0], [0, 0, 3, 0],
                         [0, 1, 3, 0]):
            stage.refill()
            assert stage.occupancy_row == expected
        assert [len(q) for q in stage.voqs] == stage.occupancy_row
        assert stage.total_occupancy() == 6  # 4 in VOQs + 2 in source

    def test_pop_dequeues_in_fifo_order_and_tracks_occupancy(self):
        stage = VOQStage(0, 2)
        factory = PacketFactory(2)
        stage.source.append_packet(factory.create(0, 1, created_cycle=0))
        stage.refill()
        stage.refill()
        head = stage.pop(1)
        tail = stage.pop(1)
        assert head.is_head and tail.is_tail
        assert stage.occupancy_row == [0, 0]

    def test_refill_on_empty_source_is_a_no_op(self):
        stage = VOQStage(0, 2)
        stage.refill()
        assert stage.total_occupancy() == 0


# ---------------------------------------------------------------------------
# make_switch dispatch and config validation
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_voq_schemes_build_the_voq_switch(self):
        assert isinstance(make_switch(voq_config("islip")), VOQSwitch)
        assert isinstance(make_switch(voq_config("mwm")), VOQSwitch)

    def test_paper_schemes_build_the_hirise_switch(self):
        assert isinstance(make_switch(voq_config("clrg")), HiRiseSwitch)

    def test_voq_switch_rejects_non_voq_configs(self):
        with pytest.raises(ValueError):
            VOQSwitch(voq_config("clrg"))

    def test_islip_iterations_validated(self):
        with pytest.raises(ValueError):
            voq_config("islip", islip_iterations=0)

    def test_iteration_count_reaches_the_scheduler(self):
        switch = make_switch(voq_config("islip", islip_iterations=3))
        assert switch.scheduler.iterations == 3


# ---------------------------------------------------------------------------
# Timing contract and conservation
# ---------------------------------------------------------------------------
class TestVOQSwitch:
    def test_connection_period_is_flits_plus_one_cooling_cycle(self):
        # One always-backlogged input -> one output: a k-flit packet
        # holds the connection k cycles and the tail cycle cools, so
        # the service period is k+1 cycles (the Hi-Rise contract).
        switch = make_switch(voq_config("islip"))
        traffic = FixedDestinationTraffic(
            8, 1.0, {i: 7 for i in range(8)}, packet_flits=4, seed=3,
        )
        result = Simulation(switch, traffic, warmup_cycles=100).run(1000)
        assert result.packets_ejected == pytest.approx(1000 / 5, abs=1)

    def test_conservation_under_drain(self):
        for arbitration in ("islip", "mwm"):
            switch = make_switch(voq_config(arbitration))
            traffic = UniformRandomTraffic(8, 0.4, seed=5)
            result = Simulation(switch, traffic, warmup_cycles=0).run(
                400, drain=True
            )
            assert switch.occupancy() == 0
            assert result.packets_injected == result.packets_ejected

    def test_voq_eliminates_head_of_line_blocking(self):
        # Input 0 alternates between a contested output and a free one;
        # with per-output queues the free-output packets overtake the
        # backlog toward the contested output.
        switch = make_switch(voq_config("islip"))
        factory = PacketFactory(4)
        for packet in (
            factory.create(0, 1, created_cycle=0),  # contested
            factory.create(1, 1, created_cycle=0),  # contests output 1
            factory.create(1, 1, created_cycle=0),  # more contention
            factory.create(0, 2, created_cycle=0),  # free output
        ):
            switch.inject(packet)
        delivered = []
        for cycle in range(60):
            delivered.extend(
                flit for flit in switch.step(cycle) if flit.is_tail
            )
        assert len(delivered) == 4
        to_free = next(f for f in delivered if f.dst == 2)
        last_contested = max(
            f.ejected_cycle for f in delivered if f.dst == 1
        )
        assert to_free.ejected_cycle < last_contested


# ---------------------------------------------------------------------------
# iSLIP-1 degeneration: per-output round-robin parity (golden style)
# ---------------------------------------------------------------------------
class PerOutputRoundRobin:
    """Independent per-output RoundRobinArbiter composition.

    Only a legal scheduler when every input requests at most one output
    (single-VOQ inputs) — then no input can win twice and the union of
    per-output winners is a matching.
    """

    def __init__(self, num_ports):
        self.num_ports = num_ports
        self.arbiters = [
            RoundRobinArbiter(num_ports) for _ in range(num_ports)
        ]

    def match(self, weights, observer=None):
        matching = {}
        for out in range(self.num_ports):
            requesting = [
                inp for inp in range(self.num_ports)
                if weights[inp][out] > 0
            ]
            winner = self.arbiters[out].arbitrate(requesting)
            if winner is not None:
                matching[winner] = out
                self.arbiters[out].update(winner)
        return matching


class TestISLIPDegeneratesToRoundRobin:
    def test_matcher_level_decision_sequences_identical(self):
        # 200 seeded single-VOQ request matrices through both matchers:
        # every decision and every pointer state must coincide.
        n = 6
        rng = random.Random(42)
        islip = ISLIPArbiter(n, iterations=1)
        golden = PerOutputRoundRobin(n)
        for _ in range(200):
            weights = [[0] * n for _ in range(n)]
            for inp in range(n):
                if rng.random() < 0.7:
                    weights[inp][rng.randrange(n)] = rng.randint(1, 5)
            assert islip.match(weights) == golden.match(weights)
            assert islip.grant_pointers == [
                arb.pointer for arb in golden.arbiters
            ]

    def test_switch_level_results_bit_identical(self):
        # Same seeded fixed-destination traffic (4 inputs contending
        # for each of 2 outputs) through the VOQ switch twice: once
        # scheduled by iSLIP-1, once by the round-robin composition.
        mapping = {i: (6 if i < 4 else 7) for i in range(8)}

        def run(swap_scheduler):
            switch = make_switch(voq_config("islip"))
            if swap_scheduler:
                switch.scheduler = PerOutputRoundRobin(8)
            traffic = FixedDestinationTraffic(8, 0.5, mapping, seed=9)
            return Simulation(switch, traffic, warmup_cycles=50).run(
                600, drain=True
            )

        islip, golden = run(False), run(True)
        assert islip.packets_ejected == golden.packets_ejected
        assert islip.packet_latencies == golden.packet_latencies
        assert islip.per_input_ejected == golden.per_input_ejected
