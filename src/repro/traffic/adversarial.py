"""Adversarial and pathological corner-case traffic patterns.

``AdversarialTraffic`` replays fixed input->output demands, covering the
paper's Section III-B example (four inputs from one layer plus a lone
input from another layer all contending for one output) and any custom
corner case.  ``interlayer_worstcase`` builds the Section VI-B pathological
demand where inputs sharing an L2LC request distinct remote outputs, which
bounds the 3D switch to ~1/c-th of the flat switch's bandwidth regardless
of arbitration scheme.
"""

from typing import Dict

import numpy as np

from repro.core.config import HiRiseConfig
from repro.traffic.base import SyntheticTraffic


def paper_adversarial_demands(
    ports_per_layer: int = 16, output: int = 63
) -> Dict[int, int]:
    """The Section III-B example demands.

    Inputs {3, 7, 11, 15} on layer 1 (all binned to the same L2LC under
    4-way input binning for a 16-port layer... under 1-channel binning they
    trivially share the single channel) and input {20} on layer 2, all
    requesting ``output`` on the last layer.
    """
    inputs = [3, 7, 11, 15, ports_per_layer + 4]
    return {src: output for src in inputs}


class AdversarialTraffic(SyntheticTraffic):
    """Fixed demands: each active input always targets its mapped output.

    Args:
        demands: Mapping from input port to its (only) destination.
        load: Injection probability per active input per cycle.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        demands: Dict[int, int],
        packet_flits: int = 4,
        seed: int = 1,
    ) -> None:
        if not demands:
            raise ValueError("demands must not be empty")
        for src, dst in demands.items():
            if not 0 <= src < num_ports or not 0 <= dst < num_ports:
                raise ValueError(f"demand {src}->{dst} out of range")
        super().__init__(
            num_ports, load, packet_flits, seed,
            active_inputs=sorted(demands.keys()),
        )
        self.demands = dict(demands)
        self._table = np.full(num_ports, -1, dtype=np.int64)
        for src, dst in demands.items():
            self._table[src] = dst

    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        return self._table[srcs]


def binning_adversarial(config: HiRiseConfig) -> Dict[int, int]:
    """Demands that strand all but one channel under input binning.

    On every layer, only the inputs binned to channel 0 (``local % c ==
    0``) are active, each targeting a distinct output on the next layer.
    Under input binning they serialise on that single channel while the
    other ``c - 1`` channels idle — the "under utilization of the critical
    vertical L2LCs" scenario of Section III-A; priority-based allocation
    spreads them over all free channels and recovers up to ``c``x the
    throughput.
    """
    demands: Dict[int, int] = {}
    ports = config.ports_per_layer
    c = config.channel_multiplicity
    for layer in range(config.layers):
        dst_layer = (layer + 1) % config.layers
        actives = [local for local in range(ports) if local % c == 0]
        for index, local in enumerate(actives):
            src = config.global_port(layer, local)
            demands[src] = config.global_port(dst_layer, index % ports)
    return demands


def interlayer_worstcase(config: HiRiseConfig) -> Dict[int, int]:
    """Demands for the Section VI-B pathological corner case.

    Every input targets the *next* layer (no within-layer traffic), and the
    inputs binned to the same L2LC request *different* outputs there, so
    under input binning the channel must serialise all of them: throughput
    collapses to ``c`` packets per cycle per layer-pair, about 1/(N/(L*c))
    of each input's fair share — for the paper's 1-channel configuration,
    1/4 of the flat 2D switch.
    """
    demands: Dict[int, int] = {}
    ports = config.ports_per_layer
    for layer in range(config.layers):
        dst_layer = (layer + 1) % config.layers
        for local in range(ports):
            src = config.global_port(layer, local)
            # Inputs sharing a channel (same local % c) get distinct
            # destination outputs on the destination layer.
            dst_local = (local % config.channel_multiplicity) * (
                ports // config.channel_multiplicity
            ) + local // config.channel_multiplicity
            demands[src] = config.global_port(dst_layer, dst_local % ports)
    return demands
