"""Trace playback: replay explicit (cycle, src, dst) injection triples.

Used by unit tests to script exact arbitration scenarios (the paper's
Figs 4 and 5 walk-throughs) and by the many-core simulator's adapters.
Traces round-trip through a simple CSV format (``cycle,src,dst`` with a
header) so externally captured traffic can be replayed and simulated
workloads can be archived.
"""

import csv
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.network.packet import Packet, PacketFactory
from repro.traffic.base import Arrivals, ArrivalSpan, as_packets

_NO_EVENTS = np.zeros((2, 0), dtype=np.int64)


class TraceTraffic:
    """Replays a fixed list of injections.

    Args:
        events: Iterable of ``(cycle, src, dst)`` triples.
        packet_flits: Flits per replayed packet.
    """

    def __init__(
        self,
        events: Iterable[Tuple[int, int, int]],
        packet_flits: int = 4,
    ) -> None:
        self.factory = PacketFactory(packet_flits)
        self._by_cycle: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        count = 0
        for cycle, src, dst in events:
            if cycle < 0:
                raise ValueError("trace cycles must be non-negative")
            self._by_cycle[cycle].append((src, dst))
            count += 1
        self.total_events = count
        self._arrays = {
            cycle: np.array(pairs, dtype=np.int64).T
            for cycle, pairs in self._by_cycle.items()
        }

    def arrivals(self, cycle: int) -> Arrivals:
        """Injections at ``cycle`` as ``(srcs, dsts, first_packet_id)``,
        in trace order (the array form of :meth:`packets_for_cycle`)."""
        pair = self._arrays.get(cycle, _NO_EVENTS)
        return pair[0], pair[1], self.factory.reserve(pair.shape[1])

    def arrivals_span(self, cycle: int, count: int) -> ArrivalSpan:
        """Injections at cycles ``cycle .. cycle + count - 1`` at once:
        the same packets and identifiers as ``count`` :meth:`arrivals`
        calls."""
        pairs = [self._arrays.get(cycle + k, _NO_EVENTS) for k in range(count)]
        srcs, dsts = np.concatenate(pairs, axis=1)
        calls = np.repeat(np.arange(count), [p.shape[1] for p in pairs])
        return calls, srcs, dsts, self.factory.reserve(srcs.size)

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets replayed at ``cycle`` (the TrafficSource protocol)."""
        return as_packets(self.arrivals(cycle), self.factory.num_flits, cycle)

    def events(self) -> List[Tuple[int, int, int]]:
        """All (cycle, src, dst) triples, in cycle order."""
        return [
            (cycle, src, dst)
            for cycle in sorted(self._by_cycle)
            for src, dst in self._by_cycle[cycle]
        ]

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the trace as ``cycle,src,dst`` CSV (with header)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["cycle", "src", "dst"])
            writer.writerows(self.events())
        return path

    @classmethod
    def from_csv(
        cls, path: Union[str, Path], packet_flits: int = 4
    ) -> "TraceTraffic":
        """Load a trace written by :meth:`to_csv`.

        Raises:
            ValueError: On a malformed header or non-integer fields.
        """
        path = Path(path)
        with path.open() as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["cycle", "src", "dst"]:
                raise ValueError(
                    f"{path}: expected header 'cycle,src,dst', got {header}"
                )
            try:
                events = [
                    (int(cycle), int(src), int(dst))
                    for cycle, src, dst in reader
                ]
            except (TypeError, ValueError) as error:
                raise ValueError(f"{path}: malformed trace row") from error
        return cls(events, packet_flits=packet_flits)
