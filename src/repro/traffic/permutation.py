"""Classic bit-permutation traffic patterns.

These deterministic patterns (Dally & Towles, *Principles and Practices of
Interconnection Networks*) complement the paper's synthetic set for corner
case studies: every input has one fixed destination derived from its port
number, producing structured load on specific L2LCs.
"""

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.traffic.base import SyntheticTraffic


def _bits(num_ports: int) -> int:
    bits = (num_ports - 1).bit_length()
    if 1 << bits != num_ports:
        raise ValueError("bit permutations need a power-of-two port count")
    return bits


def transpose(src: int, num_ports: int) -> int:
    """Swap the upper and lower halves of the address bits."""
    bits = _bits(num_ports)
    half = bits // 2
    low = src & ((1 << half) - 1)
    high = src >> half
    return (low << (bits - half)) | high


def bit_complement(src: int, num_ports: int) -> int:
    """Invert every address bit."""
    return (num_ports - 1) ^ src


def bit_reverse(src: int, num_ports: int) -> int:
    """Reverse the address bits."""
    bits = _bits(num_ports)
    out = 0
    for position in range(bits):
        if src & (1 << position):
            out |= 1 << (bits - 1 - position)
    return out


def shuffle(src: int, num_ports: int) -> int:
    """Rotate the address bits left by one (perfect shuffle)."""
    bits = _bits(num_ports)
    return ((src << 1) | (src >> (bits - 1))) & (num_ports - 1)


PATTERNS: Dict[str, Callable[[int, int], int]] = {
    "transpose": transpose,
    "bit_complement": bit_complement,
    "bit_reverse": bit_reverse,
    "shuffle": shuffle,
}


class PermutationTraffic(SyntheticTraffic):
    """Deterministic destination from a named bit permutation.

    Args:
        pattern: One of ``transpose``, ``bit_complement``, ``bit_reverse``,
            ``shuffle``.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        pattern: str = "transpose",
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        if pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}"
            )
        self.pattern = pattern
        fn = PATTERNS[pattern]
        _bits(num_ports)  # validate early
        table = np.array(
            [fn(src, num_ports) for src in range(num_ports)], dtype=np.int64
        )
        # A port that maps to itself does not cross the switch.
        table[table == np.arange(num_ports)] = -1
        self._table = table

    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        return self._table[srcs]
