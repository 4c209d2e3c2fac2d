"""Frozen copy of the original VOQ switch, kept as a test oracle.

:class:`FrozenVOQStage` and :class:`FrozenVOQSwitch` are the VOQ input
stage and crossbar as they were before the switch kept incremental
head-of-line and non-empty-output state: every cycle the scheduler's
weight matrix is rebuilt by walking all N x N virtual output queues,
every input's refill is attempted whether or not its source queue holds
a flit, and iSLIP reads that matrix through ``ISLIPArbiter.match``.
They play the role :mod:`frozen_matchers` plays for the matchers: the
live :class:`repro.switches.VOQSwitch` must produce the same weight
matrices, the same ejected flits, the same scheduler state and the same
trace stream on every run.  The perf and invariant hooks are left out;
the oracle only has to decide, not to measure.  Do not optimise this
copy.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.arbitration.islip import ISLIPArbiter
from repro.arbitration.mwm import MWMOracle
from repro.core.config import ArbitrationScheme
from repro.faults import FaultCursor, apply_fault_events
from repro.network.flit import Flit
from repro.network.port import SourceQueue
from repro.obs.trace import COOL, EJECT, P2_GRANT, SCHED_ACCEPT, SCHED_GRANT


class FrozenVOQStage:
    """The original input stage: VOQ deques plus an occupancy row."""

    def __init__(self, input_id: int, num_outputs: int) -> None:
        self.input_id = input_id
        self.source = SourceQueue()
        self.voqs: List[Deque[Flit]] = [deque() for _ in range(num_outputs)]
        self.occupancy_row: List[int] = [0] * num_outputs

    def refill(self) -> None:
        flit = self.source.take()
        if flit is None:
            return
        self.voqs[flit.dst].append(flit)
        self.occupancy_row[flit.dst] += 1

    def pop(self, output: int) -> Flit:
        self.occupancy_row[output] -= 1
        return self.voqs[output].popleft()

    def total_occupancy(self) -> int:
        return len(self.source) + sum(self.occupancy_row)


class FrozenVOQSwitch:
    """The original VOQ crossbar: full-rescan weights every cycle."""

    def __init__(self, config, tracer=None, faults=None) -> None:
        self.config = config
        radix = config.radix
        self.radix = radix
        self.num_ports = radix
        self.stages = [FrozenVOQStage(i, radix) for i in range(radix)]
        if config.arbitration is ArbitrationScheme.ISLIP:
            self.scheduler = ISLIPArbiter(radix, config.islip_iterations)
        else:
            self.scheduler = MWMOracle(radix)
        self.subblock_arbiters: Dict[int, object] = {
            out: self.scheduler for out in range(radix)
        }
        self.connections: Dict[int, Tuple[int, int]] = {}
        self.output_owner: List[Optional[int]] = [None] * radix
        self.grant_cycle: Dict[int, int] = {}
        self.failed_channels = frozenset(config.failed_channels)
        self.stuck_inputs: set = set()
        self._fault_cursor = (
            FaultCursor(faults) if faults is not None else None
        )
        self._zero_row = [0] * radix
        self._tracer = tracer
        if tracer is not None:
            tracer.bind(self)

    def inject(self, packet) -> None:
        src = packet.src
        if not 0 <= src < self.num_ports:
            raise ValueError(f"source port {src} out of range")
        if not 0 <= packet.dst < self.num_ports:
            raise ValueError(f"destination port {packet.dst} out of range")
        self.stages[src].source.append_packet(packet)
        if self._tracer is not None:
            self._tracer.inject(
                packet.created_cycle, src, packet.dst,
                packet.num_flits, packet.packet_id,
            )

    def occupancy(self) -> int:
        return sum(stage.total_occupancy() for stage in self.stages)

    def _refresh_fault_state(self) -> None:
        pass

    def step(self, cycle: int) -> List[Flit]:
        tracer = self._tracer
        if tracer is not None:
            tracer.cycle = cycle
        cursor = self._fault_cursor
        if cursor is not None:
            due = cursor.take(cycle)
            if due:
                apply_fault_events(self, due)
        ejected = self._transmit(cycle)
        stuck = self.stuck_inputs
        for stage in self.stages:
            if stage.input_id not in stuck:
                stage.refill()
        cooling_inputs = set()
        cooling_outputs = set()
        for flit in ejected:
            if flit.is_tail:
                cooling_inputs.add(flit.src)
                cooling_outputs.add(flit.dst)
        self._schedule(cycle, cooling_inputs, cooling_outputs)
        return ejected

    def _transmit(self, cycle: int) -> List[Flit]:
        ejected: List[Flit] = []
        released: List[int] = []
        tracer = self._tracer
        for inp, (resource, output) in self.connections.items():
            stage = self.stages[inp]
            if not stage.voqs[output]:
                continue
            flit = stage.pop(output)
            flit.ejected_cycle = cycle
            ejected.append(flit)
            if flit.is_tail:
                released.append(inp)
                self.output_owner[output] = None
                if tracer is not None:
                    tracer.emit(EJECT, flit.src, flit.dst, flit.seq, 1)
                    tracer.emit(
                        COOL, resource, inp, output,
                        self.grant_cycle.get(inp, -1),
                    )
            elif tracer is not None:
                tracer.emit(EJECT, flit.src, flit.dst, flit.seq, 0)
        for inp in released:
            del self.connections[inp]
        return ejected

    def _schedule(self, cycle, cooling_inputs, cooling_outputs) -> int:
        radix = self.radix
        connections = self.connections
        output_owner = self.output_owner
        stuck = self.stuck_inputs
        blocked = [
            output_owner[out] is not None or out in cooling_outputs
            for out in range(radix)
        ]
        weights: List[List[int]] = []
        any_request = False
        for inp in range(radix):
            if (
                inp in connections
                or inp in stuck
                or inp in cooling_inputs
            ):
                weights.append(self._zero_row)
                continue
            voqs = self.stages[inp].voqs
            row = [
                0 if blocked[out] or not voqs[out]
                else cycle - voqs[out][0].created_cycle + 1
                for out in range(radix)
            ]
            if not any_request and any(row):
                any_request = True
            weights.append(row)
        if not any_request:
            return 0

        tracer = self._tracer
        observer = None
        if tracer is not None:
            emit = tracer.emit

            def observer(iteration, stage_name, pairs):
                kind = SCHED_GRANT if stage_name == "grant" else SCHED_ACCEPT
                for port, partner in pairs:
                    if stage_name == "grant":
                        weight = weights[partner][port]
                    else:
                        weight = weights[port][partner]
                    emit(kind, iteration, port, partner, weight)

        matching = self.scheduler.match(weights, observer=observer)
        if tracer is not None and isinstance(self.scheduler, MWMOracle):
            for inp, out in matching.items():
                emit(SCHED_GRANT, 0, out, inp, weights[inp][out])
                emit(SCHED_ACCEPT, 0, inp, out, weights[inp][out])
        for inp, out in matching.items():
            connections[inp] = (out, out)
            output_owner[out] = inp
            self.grant_cycle[inp] = cycle
            if tracer is not None:
                emit = tracer.emit
                emit(P2_GRANT, out, inp, out, -1)
        return len(matching)
