"""Synthetic traffic patterns (Section V of the paper).

All generators implement the ``TrafficSource`` protocol of
:mod:`repro.network.engine`: ``packets_for_cycle(cycle)`` returns the
packets generated during that cycle.  Underneath it, ``arrivals(cycle)``
returns the same cycle as arrays ``(srcs, dsts, first_packet_id)``, which
the fleet kernel packs without building packets.  Synthetic generators
draw in blocks of cycles; that layout is traffic stream
:data:`TRAFFIC_STREAM` (see :mod:`repro.traffic.base`).  Injection rates
are expressed in packets/input/cycle; the harness converts to the paper's
packets/input/ns using the clock frequency of the switch under test.

Patterns:

* :class:`UniformRandomTraffic` — each input injects Bernoulli(load) with a
  uniformly random destination;
* :class:`HotspotTraffic` — all (or a subset of) inputs target one output;
* :class:`BurstyTraffic` — on/off injection with geometric burst lengths;
* :class:`AdversarialTraffic` — fixed input->output demands, e.g. the
  Section III-B example ({3,7,11,15} on L1 and {20} on L2 -> output 63);
* :class:`PermutationTraffic` — classic bit-permutation patterns
  (transpose, bit-complement, bit-reverse, shuffle);
* :func:`interlayer_worstcase` — the Section VI-B pathological pattern
  where inputs sharing one L2LC request distinct outputs on another layer;
* :class:`TraceTraffic` — replay of explicit (cycle, src, dst) triples.
"""

from repro.traffic.base import TRAFFIC_STREAM, SyntheticTraffic
from repro.traffic.uniform import UniformRandomTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.adversarial import (
    AdversarialTraffic,
    binning_adversarial,
    interlayer_worstcase,
    paper_adversarial_demands,
)
from repro.traffic.permutation import PermutationTraffic
from repro.traffic.trace import TraceTraffic

__all__ = [
    "TRAFFIC_STREAM",
    "SyntheticTraffic",
    "UniformRandomTraffic",
    "HotspotTraffic",
    "BurstyTraffic",
    "AdversarialTraffic",
    "PermutationTraffic",
    "TraceTraffic",
    "interlayer_worstcase",
    "binning_adversarial",
    "paper_adversarial_demands",
]
