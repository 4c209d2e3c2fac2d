"""Base class for synthetic traffic generators, and traffic stream 2.

Arrivals are drawn as arrays, one block of :data:`BLOCK_CYCLES` cycles
at a time: a ``(cycles, active inputs)`` block of Bernoulli draws, then
one vector of destinations from the pattern's :meth:`destinations` hook
for every arrival of the block, in (cycle, input) order.  Blocks are
consumed in call order; the ``cycle`` argument only stamps packets.
That layout is *traffic stream 2* (:data:`TRAFFIC_STREAM`): the same
seed gives the same arrivals on every kernel, but not the arrivals of
stream 1, which drew one scalar per input per cycle.
"""

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from repro.network.packet import Packet, PacketFactory

#: Version of the random stream every generator draws.  Persisted
#: identities (sweep checkpoints, repro files) record it, so results
#: drawn under another stream are never reused.
TRAFFIC_STREAM = 2

#: Cycles drawn per block (part of stream 2's definition).
BLOCK_CYCLES = 64

_NO_PORTS = np.zeros(0, dtype=np.int64)

#: ``(srcs, dsts, first_packet_id)`` of one cycle; packet ``k`` of the
#: cycle has identifier ``first_packet_id + k``.
Arrivals = Tuple[np.ndarray, np.ndarray, int]


def as_packets(
    arrivals: Arrivals, num_flits: int, cycle: int
) -> List[Packet]:
    """One cycle's arrivals as :class:`Packet` objects, in order."""
    srcs, dsts, first = arrivals
    if not len(srcs):
        return []
    return [
        Packet(packet_id, src, dst, num_flits, cycle)
        for packet_id, src, dst in zip(
            range(first, first + len(srcs)), srcs.tolist(), dsts.tolist()
        )
    ]


class SyntheticTraffic(ABC):
    """Bernoulli per-input injection with a pattern-specific destination.

    Each cycle, every *active* input generates a packet with probability
    ``load`` (packets/input/cycle); destinations come from the
    subclass's :meth:`destinations` hook.  All randomness flows through
    an explicitly seeded :class:`numpy.random.Generator`, drawn in
    blocks (see the module docstring), so runs are reproducible.

    Args:
        num_ports: Switch radix.
        load: Injection probability per input per cycle, in [0, 1].
        packet_flits: Packet length (paper default: 4 flits).
        seed: RNG seed.
        active_inputs: Inputs that inject (default: all).
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
    ) -> None:
        if num_ports < 2:
            raise ValueError("need at least two ports")
        if not 0.0 <= load <= 1.0:
            raise ValueError("load must be in [0, 1] packets/input/cycle")
        self.num_ports = num_ports
        self.load = load
        self.factory = PacketFactory(packet_flits)
        self.rng = np.random.default_rng(seed)
        if active_inputs is None:
            self.active_inputs = list(range(num_ports))
        else:
            for port in active_inputs:
                if not 0 <= port < num_ports:
                    raise ValueError(f"active input {port} out of range")
            self.active_inputs = list(active_inputs)
        self._active = np.array(self.active_inputs, dtype=np.int64)
        self._srcs = self._dsts = _NO_PORTS
        self._bounds = [0] * (BLOCK_CYCLES + 1)
        self._next = BLOCK_CYCLES  # the first call draws a block

    @abstractmethod
    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        """Destinations of packets from ``srcs``; a negative one
        suppresses its packet."""

    def _draw_block(
        self, cycles: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cycle offset, src, dst)`` of one block's packets, ordered
        by cycle offset and, within a cycle, by injection order."""
        when, column = self._bernoulli(cycles, self.load)
        srcs = self._active[column]
        return when, srcs, self.destinations(srcs)

    def _bernoulli(
        self, cycles: int, probability: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(cycle offset, active-input column)`` of each success of one
        ``(cycles, active inputs)`` block of Bernoulli draws."""
        return np.nonzero(
            self.rng.random((cycles, self._active.size)) < probability
        )

    def _refill(self) -> None:
        when, srcs, dsts = self._draw_block(BLOCK_CYCLES)
        keep = dsts >= 0
        if not keep.all():
            when, srcs, dsts = when[keep], srcs[keep], dsts[keep]
        if dsts.size and dsts.max() >= self.num_ports:
            raise ValueError(f"destination {int(dsts.max())} out of range")
        self._srcs = srcs
        self._dsts = dsts
        self._bounds = np.searchsorted(
            when, np.arange(BLOCK_CYCLES + 1)
        ).tolist()
        self._next = 0

    def arrivals(self, cycle: int) -> Arrivals:
        """One cycle's arrivals as ``(srcs, dsts, first_packet_id)``.

        Sources are in injection order (``active_inputs`` order; an
        input that sends two packets in one cycle lists both, in order).  This is
        the one generation path: :meth:`packets_for_cycle` wraps it for
        the scalar kernels and the fleet kernel packs it directly.
        """
        offset = self._next
        if offset == BLOCK_CYCLES:
            self._refill()
            offset = 0
        self._next = offset + 1
        lo = self._bounds[offset]
        hi = self._bounds[offset + 1]
        return (
            self._srcs[lo:hi], self._dsts[lo:hi], self.factory.reserve(hi - lo)
        )

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets generated during ``cycle`` (the TrafficSource protocol)."""
        return as_packets(self.arrivals(cycle), self.factory.num_flits, cycle)

    def uniform_destinations(
        self, srcs: np.ndarray, exclude_self: bool = True
    ) -> np.ndarray:
        """Uniformly random destinations, excluding each ``src`` by
        default."""
        if not exclude_self:
            return self.rng.integers(self.num_ports, size=srcs.size)
        dsts = self.rng.integers(self.num_ports - 1, size=srcs.size)
        return dsts + (dsts >= srcs)
