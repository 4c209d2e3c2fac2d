"""Bursty traffic: a two-state (on/off) Markov-modulated injection process.

During an *on* burst an input injects every cycle; bursts and idle gaps
have geometrically distributed lengths chosen so the long-run injection
rate equals ``load``.  Destinations are uniform random per packet, or held
fixed for the duration of a burst (``per_burst_destination``) which models
streaming transfers and stresses the class counters' burst-forgiveness
(the halving rule exists so "bursty traffic [does not] penalize an input
for a long time after the burst", Section III-B.4).
"""

from typing import List, Optional

import numpy as np

from repro.traffic.base import SyntheticTraffic


class BurstyTraffic(SyntheticTraffic):
    """On/off bursty injection with mean burst length ``burst_length``.

    Args:
        burst_length: Mean length of an *on* burst in packets (>= 1).
        per_burst_destination: Hold one destination for a whole burst.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        burst_length: float = 8.0,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
        per_burst_destination: bool = True,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        if burst_length < 1.0:
            raise ValueError("mean burst length must be >= 1 packet")
        if load >= 1.0 and burst_length > 1.0:
            raise ValueError("load 1.0 leaves no room for off periods")
        self.burst_length = burst_length
        self.per_burst_destination = per_burst_destination
        self._on = np.zeros(self._active.size, dtype=bool)
        self._burst_dst = np.zeros(self._active.size, dtype=np.int64)
        # Transition probabilities: P(on -> off) = 1/burst_length; solve
        # P(off -> on) so the stationary on-fraction equals the load.
        self._p_end = 1.0 / burst_length
        if load > 0.0:
            off_fraction = 1.0 - load
            mean_off = off_fraction * burst_length / load
            self._p_start = 1.0 / mean_off if mean_off > 0 else 1.0
        else:
            self._p_start = 0.0

    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        return self.uniform_destinations(srcs)

    def _draw_block(self, cycles):
        # Each cycle an *on* input ends its burst with P(p_end), then an
        # *off* input (including one that just ended) starts a burst
        # with P(p_start); an input injects while on.  One candidate
        # destination per (cycle, input) serves either as the packet's
        # destination or, per burst, as the destination a burst holds.
        width = self._active.size
        ends = self.rng.random((cycles, width)) < self._p_end
        starts = self.rng.random((cycles, width)) < self._p_start
        fresh = self.destinations(
            np.tile(self._active, cycles)
        ).reshape(cycles, width)
        on = np.empty((cycles, width), dtype=bool)
        held = np.empty((cycles, width), dtype=np.int64)
        state = self._on
        burst_dst = self._burst_dst
        for offset in range(cycles):
            state = state & ~ends[offset]
            began = starts[offset] & ~state
            state = state | began
            burst_dst = np.where(began, fresh[offset], burst_dst)
            on[offset] = state
            held[offset] = burst_dst
        self._on = state
        self._burst_dst = burst_dst
        when, column = np.nonzero(on)
        source = held if self.per_burst_destination else fresh
        return when, self._active[column], source[when, column]
