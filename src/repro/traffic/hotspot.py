"""Hotspot traffic: all inputs converge on one output.

This pattern exposes the fairness problem of the baseline layer-to-layer
LRG (Fig 11a): with every input requesting the same final output, the
output's sub-block sees one local intermediate slot carrying N/L
requestors against L2LC slots carrying N/(L*c) requestors each, so plain
slot-level LRG starves the hotspot layer's own inputs.
"""

from typing import List, Optional

import numpy as np

from repro.traffic.base import SyntheticTraffic


class HotspotTraffic(SyntheticTraffic):
    """All active inputs send to ``hotspot_output``.

    Args:
        hotspot_output: The single congested destination (paper: output 63).
        background_load: Optional extra Bernoulli load per input spread
            uniformly over the other outputs (0 disables, the paper's
            Fig 11a experiment is pure hotspot).
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        hotspot_output: int = 63,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
        background_load: float = 0.0,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        if not 0 <= hotspot_output < num_ports:
            raise ValueError(f"hotspot output {hotspot_output} out of range")
        if not 0.0 <= background_load <= 1.0:
            raise ValueError("background load must be in [0, 1]")
        self.hotspot_output = hotspot_output
        self.background_load = background_load

    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        # Every input targets the hotspot, including the hotspot's own tile
        # (the paper's Fig 11a has all inputs 0..63 requesting output 63).
        return np.full(srcs.size, self.hotspot_output, dtype=np.int64)

    def _draw_block(self, cycles):
        when, column = self._bernoulli(cycles, self.load)
        srcs = self._active[column]
        dsts = self.destinations(srcs)
        if self.background_load <= 0.0:
            return when, srcs, dsts
        # Background packets: a second Bernoulli block with uniform
        # destinations, the ones that hit the hotspot dropped.  An input
        # sending both in one cycle sends its hotspot packet first.
        extra_when, extra_column = self._bernoulli(
            cycles, self.background_load
        )
        extra_srcs = self._active[extra_column]
        extra_dsts = self.uniform_destinations(extra_srcs)
        extra_dsts[extra_dsts == self.hotspot_output] = -1
        when = np.concatenate((when, extra_when))
        order = np.lexsort((
            np.concatenate((2 * column, 2 * extra_column + 1)), when
        ))
        return (
            when[order],
            np.concatenate((srcs, extra_srcs))[order],
            np.concatenate((dsts, extra_dsts))[order],
        )

    # Bound on this class as well, so instrumentation that wraps
    # per-class entry points (perfbench/spans.py) finds it here.
    packets_for_cycle = SyntheticTraffic.packets_for_cycle
