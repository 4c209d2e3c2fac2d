"""Virtual-output-queued crossbar driven by iterative schedulers.

The input-queued architecture the paper positions Hi-Rise against: each
input fans its source queue into one FIFO per output (a *virtual output
queue*), eliminating head-of-line blocking, and a centralized scheduler
computes an input/output matching every cycle over a weight matrix of
head-of-line flit ages (oldest-cell-first weighting; see
:meth:`VOQSwitch._schedule`) — iSLIP (``arbitration="islip"``, iteration
count from
``config.islip_iterations``) or the maximum-weight-matching oracle
(``arbitration="mwm"``).  The switch keeps the Hi-Rise timing contract
so comparisons are fair: one flit per established connection per cycle,
connections persist from the head flit's grant until the tail transfers,
and a port whose tail moved this cycle cannot also be scheduled this
cycle ("arbitrate or transmit in a single cycle").

Cycle order within :meth:`step` (mirrors ``SwizzleSwitch2D``):

1. *faults* — due :class:`repro.faults.FaultSchedule` events land first,
   so an input stuck at cycle ``k`` is masked from cycle ``k``'s
   scheduling;
2. *transmit* — every established connection moves one flit from its
   VOQ to its output; tails release both endpoints;
3. *refill* — each unstuck input with a non-empty source queue moves
   one flit from it into the VOQ of that flit's destination;
4. *schedule* — the scheduler matches idle inputs to free outputs over
   the head-of-line-age weight matrix; every matched pair locks a
   connection that starts streaming next cycle.

The scheduler's input is never rebuilt by scanning the N x N deques.
Each :class:`VOQStage` keeps incremental rows — VOQ lengths, the head
flit's creation cycle per VOQ, and the set of non-empty outputs — that
:meth:`VOQStage.refill` and :meth:`VOQStage.pop` update where a flit
moves, and :meth:`VOQSwitch._requests` forms the weight rows and the
per-output requester lists from the non-empty sets alone.

Stuck-input faults freeze the whole input: no refill (so the VOQ
occupancy the scheduler could see stops growing), a zeroed row in the
weight matrix (so iSLIP/MWM never chase the phantom backlog of a port
that cannot transmit), and its source queue simply backs up until the
repair event.  An already-established connection of a stuck input keeps
draining — the wedge is at the request path, matching the Hi-Rise
kernels' "stopped requesting" semantics.

Observability hooks match the Hi-Rise constructors: ``tracer=`` (emits
``inject``/``eject``/``cool``/``p2_grant`` exactly like the 3D switch —
with the flat resource id of a connection being its output port id —
plus the VOQ-specific ``sched_grant``/``sched_accept`` rounds),
``faults=``, ``invariants=`` (see
:class:`repro.check.MatchingInvariantChecker`), and ``perf=``.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

import time

from repro.arbitration.islip import ISLIPArbiter
from repro.arbitration.mwm import MWMOracle
from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.faults import FaultCursor, FaultSchedule, apply_fault_events
from repro.network.engine import SwitchModel
from repro.network.flit import Flit
from repro.network.packet import Packet
from repro.network.port import SourceQueue
from repro.obs.trace import COOL, EJECT, P2_GRANT, SCHED_ACCEPT, SCHED_GRANT


class VOQStage:
    """One input's virtual-output-queue bank.

    Fans the input's unbounded :class:`SourceQueue` into one flit FIFO
    per output at one flit per cycle (the network-interface bandwidth),
    and keeps this input's rows of the scheduler's queue matrices next
    to the FIFOs.  The rows change only where a flit moves — at most one
    arrival (:meth:`refill`) and one departure (:meth:`pop`) per cycle —
    so the switch never rescans the deques to build its weights.
    """

    __slots__ = ("input_id", "source", "voqs", "occupancy_row", "hol_row",
                 "nonempty")

    def __init__(self, input_id: int, num_outputs: int) -> None:
        self.input_id = input_id
        self.source = SourceQueue()
        self.voqs: List[Deque[Flit]] = [deque() for _ in range(num_outputs)]
        #: Per-output VOQ length in flits (the tutorial's Q matrix row).
        self.occupancy_row: List[int] = [0] * num_outputs
        #: Per-output creation cycle of the VOQ's head flit.  Defined
        #: only for the outputs in :attr:`nonempty`; an emptied VOQ
        #: keeps its last value, which nothing reads.
        self.hol_row: List[int] = [0] * num_outputs
        #: Outputs whose VOQ holds at least one flit.
        self.nonempty: Set[int] = set()

    def refill(self) -> bool:
        """Move up to one flit from the source queue into its VOQ.

        Returns whether the source queue still holds flits afterwards.
        """
        source = self.source
        flit = source.take()
        if flit is None:
            return False
        dst = flit.dst
        queue = self.voqs[dst]
        if not queue:
            self.hol_row[dst] = flit.created_cycle
            self.nonempty.add(dst)
        queue.append(flit)
        self.occupancy_row[dst] += 1
        return len(source) > 0

    def pop(self, output: int) -> Flit:
        """Dequeue the front flit of the VOQ toward ``output``."""
        self.occupancy_row[output] -= 1
        queue = self.voqs[output]
        flit = queue.popleft()
        if queue:
            self.hol_row[output] = queue[0].created_cycle
        else:
            self.nonempty.discard(output)
        return flit

    def total_occupancy(self) -> int:
        """Flits resident in this stage (source queue + all VOQs)."""
        return len(self.source) + sum(self.occupancy_row)


class VOQSwitch(SwitchModel):
    """Radix-N input-queued crossbar scheduled by iSLIP or MWM.

    Args:
        config: A :class:`HiRiseConfig` whose ``arbitration`` is one of
            the VOQ schemes (``config.uses_voq`` true).  Geometry fields
            beyond ``radix`` are ignored — the VOQ fabric is flat — but
            keeping the shared config type lets the harness sweep VOQ
            and Hi-Rise points through identical machinery.
        tracer / faults / invariants / perf: The same opt-in hooks the
            Hi-Rise constructors take, observing-only (traced runs are
            bit-identical to untraced runs).
    """

    def __init__(
        self,
        config: HiRiseConfig,
        tracer: Optional[object] = None,
        faults: Optional[FaultSchedule] = None,
        invariants: Optional[object] = None,
        perf: Optional[object] = None,
    ) -> None:
        if not config.uses_voq:
            raise ValueError(
                f"VOQSwitch requires a VOQ scheme, got {config.arbitration!r}"
            )
        self.config = config
        radix = config.radix
        self.radix = radix
        self.num_ports = radix
        self.stages: List[VOQStage] = [
            VOQStage(i, radix) for i in range(radix)
        ]
        if config.arbitration is ArbitrationScheme.ISLIP:
            self.scheduler = ISLIPArbiter(radix, config.islip_iterations)
        else:
            self.scheduler = MWMOracle(radix)
        # Fault-hook compatibility: CORRUPT_CLRG events index
        # ``subblock_arbiters[output]`` and no-op when the arbiter has
        # no ``counters`` bank — which the VOQ schedulers never do.
        self.subblock_arbiters: Dict[int, object] = {
            out: self.scheduler for out in range(radix)
        }
        # input -> (resource id, output).  The VOQ fabric is flat, so a
        # connection's flat resource id is its output port id — probes,
        # the analyzer, and telemetry snapshots read these fields with
        # the same shapes the Hi-Rise kernels expose.
        self.connections: Dict[int, Tuple[int, int]] = {}
        self.output_owner: List[Optional[int]] = [None] * radix
        self.grant_cycle: Dict[int, int] = {}
        self.failed_channels = frozenset(config.failed_channels)
        self.stuck_inputs: set = set()
        self._fault_cursor = (
            FaultCursor(faults) if faults is not None else None
        )
        # The weight row of every input without a request this cycle
        # (busy, stuck, cooling, empty, or all its outputs blocked).
        self._zero_row = [0] * radix
        # Inputs whose source queue holds flits: only these refill.
        self._backlogged: Set[int] = set()

        self._tracer = tracer
        if tracer is not None:
            tracer.bind(self)
        self._perf = perf
        if perf is not None:
            perf.bind(self)
        self._invariants = invariants
        if invariants is not None:
            invariants.bind(self)

    # ------------------------------------------------------------------
    # SwitchModel interface
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        src = packet.src
        if not 0 <= src < self.num_ports:
            raise ValueError(f"source port {src} out of range")
        if not 0 <= packet.dst < self.num_ports:
            raise ValueError(f"destination port {packet.dst} out of range")
        self.stages[src].source.append_packet(packet)
        self._backlogged.add(src)
        if self._tracer is not None:
            self._tracer.inject(
                packet.created_cycle, src, packet.dst,
                packet.num_flits, packet.packet_id,
            )

    def step(self, cycle: int) -> List[Flit]:
        perf = self._perf
        if perf is None:
            return self._step(cycle)
        perf.cycles_total += 1
        if cycle % perf.stride:
            return self._step(cycle)
        perf.cycles_sampled += 1
        return self._step(cycle, perf)

    def occupancy(self) -> int:
        return sum(stage.total_occupancy() for stage in self.stages)

    # ------------------------------------------------------------------
    # Fault hook
    # ------------------------------------------------------------------
    def _refresh_fault_state(self) -> None:
        """Nothing to rebuild: stuck/failed state is read per cycle."""

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------
    def _step(self, cycle: int, perf=None) -> List[Flit]:
        """One cycle; ``perf`` (sampled cycles only) times each phase.

        Phases are reported with the kernels' names: ``transmit``,
        ``refill``, and ``arbitrate`` (the scheduler's match, with the
        weight matrix it reads and the connections it commits).
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.cycle = cycle
        cursor = self._fault_cursor
        if cursor is not None:
            due = cursor.take(cycle)
            if due:
                apply_fault_events(self, due)
        if perf is not None:
            t1 = time.perf_counter_ns()
        ejected, cooling_inputs, cooling_outputs = self._transmit(cycle)
        if perf is not None:
            t2 = time.perf_counter_ns()
        backlogged = self._backlogged
        if backlogged:
            stages = self.stages
            stuck = self.stuck_inputs
            drained = []
            for inp in backlogged:
                if inp not in stuck and not stages[inp].refill():
                    drained.append(inp)
            backlogged.difference_update(drained)
        if perf is not None:
            t3 = time.perf_counter_ns()
        granted = self._schedule(cycle, cooling_inputs, cooling_outputs)
        if perf is not None:
            t4 = time.perf_counter_ns()
            perf.add("transmit", t2 - t1, len(ejected))
            perf.add("refill", t3 - t2)
            perf.add("arbitrate", t4 - t3, granted)
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def _transmit(self, cycle: int) -> Tuple[List[Flit], Set[int], Set[int]]:
        """Move one flit per connection; tails release their endpoints.

        Returns the ejected flits and the inputs and outputs whose tail
        moved this cycle (they cool: no grant to them this cycle).
        """
        ejected: List[Flit] = []
        released: Set[int] = set()
        released_outputs: Set[int] = set()
        tracer = self._tracer
        for inp, (resource, output) in self.connections.items():
            stage = self.stages[inp]
            if not stage.voqs[output]:
                # The rest of the packet has not refilled yet: the
                # connection stalls this cycle but stays locked.
                continue
            flit = stage.pop(output)
            flit.ejected_cycle = cycle
            ejected.append(flit)
            if flit.is_tail:
                released.add(inp)
                released_outputs.add(output)
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
        return ejected, released, released_outputs

    def _requests(self, cycle, cooling_inputs, cooling_outputs):
        """This cycle's scheduler input, or ``None`` if nothing requests.

        Returns ``(weights, requesters)``: the N x N weight matrix and,
        per output, the ascending list of inputs requesting it.  Both
        are formed in one pass over each idle input's non-empty outputs
        (the stage's incremental ``nonempty`` set and ``hol_row``), so
        the cost follows the requests, not N x N deques.  Every input
        without a request shares one all-zero row.

        The weight of (input, output) is the age of the VOQ's head flit
        plus one — the oldest-cell-first weighting, which MWM turns into
        the OCF discipline.  Occupancy-weighted MWM (longest queue
        first) equalizes queue *lengths*, so under an oversubscribed
        output each input's service is its arrivals minus a common queue
        level: a small mean carrying full arrival noise, i.e. unfair at
        any horizon.  Age weights approximate FCFS across inputs
        instead.  iSLIP only reads requests, so for it the two
        weightings are identical.
        """
        radix = self.radix
        connections = self.connections
        output_owner = self.output_owner
        stuck = self.stuck_inputs
        zero_row = self._zero_row
        weights: List[List[int]] = [zero_row] * radix
        requesters: List[List[int]] = [[] for _ in range(radix)]
        any_request = False
        for stage in self.stages:
            nonempty = stage.nonempty
            if not nonempty:
                continue
            inp = stage.input_id
            if inp in connections or inp in stuck or inp in cooling_inputs:
                continue
            hol_row = stage.hol_row
            row = None
            for out in nonempty:
                if output_owner[out] is not None or out in cooling_outputs:
                    continue
                if row is None:
                    row = zero_row.copy()
                row[out] = cycle - hol_row[out] + 1
                requesters[out].append(inp)
            if row is not None:
                weights[inp] = row
                any_request = True
        if not any_request:
            return None
        return weights, requesters

    def _schedule(self, cycle, cooling_inputs, cooling_outputs) -> int:
        """Match idle inputs to free outputs over head-of-line ages.

        Returns the number of connections granted.  iSLIP takes the
        requester lists of :meth:`_requests` directly
        (:meth:`ISLIPArbiter.match_requests`); MWM, and any other
        matcher with the ``match(weights)`` interface, reads the weight
        rows.
        """
        request = self._requests(cycle, cooling_inputs, cooling_outputs)
        if request is None:
            return 0
        weights, requesters = request
        connections = self.connections
        output_owner = self.output_owner

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

        scheduler = self.scheduler
        if isinstance(scheduler, ISLIPArbiter):
            matching = scheduler.match_requests(requesters, observer)
        else:
            matching = scheduler.match(weights, observer=observer)
        if tracer is not None and isinstance(scheduler, MWMOracle):
            # MWM has no rounds: report the final matching as a single
            # iteration-0 grant+accept so audits see one schema.
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
