"""Uniform random traffic — the paper's headline synthetic pattern."""

from typing import List, Optional

import numpy as np

from repro.traffic.base import SyntheticTraffic


class UniformRandomTraffic(SyntheticTraffic):
    """Each injected packet picks a destination uniformly at random.

    Args:
        exclude_self: Skip ``dst == src`` (a tile does not cross the switch
            to reach itself); enabled by default.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
        exclude_self: bool = True,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        self.exclude_self = exclude_self

    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        return self.uniform_destinations(srcs, self.exclude_self)
