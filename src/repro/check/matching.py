"""Runtime invariants for the VOQ input-queued switch.

The matching-legality twin of :class:`repro.check.InvariantChecker`:
where the Hi-Rise checker re-derives path/arbiter legality from the 3D
switch's resource tables, this checker verifies the scheduler contract
of :class:`repro.switches.VOQSwitch` after every cycle:

* **flit conservation** — injected = ejected + resident (faults wedge
  traffic, they never drop it);
* **matching validity** — the connection set is a bipartite matching:
  no output driven by two inputs, ``output_owner`` coherent with
  ``connections``, every connection's resource id equal to its output
  (the VOQ fabric is flat);
* **grant legality** — no connection established for an input the
  fault schedule has stuck (schedulers must not chase the phantom
  weight of a port that cannot transmit), and no grant to an input or
  output whose tail moved the same cycle (the single-cycle
  arbitrate-or-transmit contract);
* **voq_occupancy** — every stage's incremental queue matrices agree
  with its actual VOQ deques: the occupancy row equals the VOQ lengths,
  the non-empty set is exactly the outputs with a non-empty VOQ, and
  the head-of-line row holds each of those VOQs' head-flit creation
  cycle (the weights and requests the schedulers saw were real).

Attached via the same ``invariants=`` constructor hook; checked runs
stay bit-identical to unchecked runs.  :func:`checker_for` picks the
right checker class for a config's arbitration scheme.
"""

from itertools import compress
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.check.invariants import CHECK_CODES, InvariantViolation

__all__ = ["MatchingInvariantChecker", "checker_for"]


class MatchingInvariantChecker:
    """Per-cycle matching-legality verification for one VOQ switch.

    Mirrors the :class:`repro.check.InvariantChecker` interface
    (``bind``/``after_step``/``summary``) so the harness and the
    telemetry snapshot treat both checker families identically.
    """

    def __init__(self, snapshot_ports: int = 8) -> None:
        self.snapshot_ports = snapshot_ports
        self.injected_flits = 0
        self.injected_packets = 0
        self.ejected_flits = 0
        self.cycles_checked = 0
        self.config = None
        self._switch = None
        self._prev_connections: Dict[int, Tuple[int, int]] = {}

    def bind(self, switch) -> None:
        """Attach to a switch; wraps its injection methods for counting."""
        if self._switch is not None and self._switch is not switch:
            raise ValueError(
                "a MatchingInvariantChecker verifies exactly one switch; "
                "build one checker per switch"
            )
        self._switch = switch
        self.config = switch.config

        original_inject = switch.inject

        def _counting_inject(packet, _original=original_inject):
            _original(packet)
            self.injected_packets += 1
            self.injected_flits += packet.num_flits

        switch.inject = _counting_inject

        original_many = getattr(switch, "inject_many", None)
        if original_many is not None:

            def _counting_inject_many(packets, _original=original_many):
                materialised = list(packets)
                count = _original(materialised)
                self.injected_packets += count
                self.injected_flits += sum(
                    packet.num_flits for packet in materialised
                )
                return count

            switch.inject_many = _counting_inject_many

    # ------------------------------------------------------------------
    # Failure path (identical shape to InvariantChecker._fail)
    # ------------------------------------------------------------------
    def _fail(
        self,
        switch,
        check: str,
        cycle: int,
        detail: str,
        resources: Sequence[int] = (),
    ) -> None:
        from repro.obs.snapshot import telemetry_snapshot
        from repro.obs.trace import INVARIANT

        tracer = getattr(switch, "_tracer", None)
        if tracer is not None:
            first = resources[0] if resources else -1
            second = resources[1] if len(resources) > 1 else -1
            tracer.emit(INVARIANT, CHECK_CODES.get(check, -1), first, second)
        snapshot = telemetry_snapshot(switch, max_ports=self.snapshot_ports)
        raise InvariantViolation(
            f"invariant {check!r} violated at cycle {cycle}: {detail}",
            check=check,
            cycle=cycle,
            resources=resources,
            snapshot=snapshot,
        )

    # ------------------------------------------------------------------
    # The per-cycle check (called at the end of VOQSwitch.step())
    # ------------------------------------------------------------------
    def after_step(self, switch, cycle: int, ejected) -> None:
        """Verify the scheduler contract against post-step state."""
        self.cycles_checked += 1
        self.ejected_flits += len(ejected)

        # 1. Flit conservation.
        occupancy = switch.occupancy()
        expected = self.injected_flits - self.ejected_flits
        if occupancy != expected:
            self._fail(
                switch, "flit_conservation", cycle,
                f"resident flits {occupancy} != injected "
                f"{self.injected_flits} - ejected {self.ejected_flits}",
            )

        # 2. Matching validity: connections form a matching and agree
        # with output_owner in both directions.
        connections = switch.connections
        output_owner = switch.output_owner
        seen_outputs: Set[int] = set()
        for inp, (resource, output) in connections.items():
            if resource != output:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"input {inp} resource id {resource} != output "
                    f"{output} (VOQ resources are output ports)",
                    (inp, output),
                )
            if output in seen_outputs:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"output {output} matched to two inputs",
                    (output,),
                )
            seen_outputs.add(output)
            if output_owner[output] != inp:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"connection {inp}->{output} but output_owner"
                    f"[{output}] is {output_owner[output]}",
                    (inp, output),
                )
        for output, owner in enumerate(output_owner):
            if owner is not None and connections.get(owner, (None, None))[1] != output:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"output_owner[{output}] = {owner} without a "
                    f"matching connection",
                    (owner, output),
                )

        # 3. Grant legality: connections established this cycle must not
        # involve stuck inputs or endpoints whose tail moved this cycle.
        prev = self._prev_connections
        stuck = switch.stuck_inputs
        cooling_inputs = {f.src for f in ejected if f.is_tail}
        cooling_outputs = {f.dst for f in ejected if f.is_tail}
        for inp, (resource, output) in connections.items():
            if prev.get(inp) == (resource, output):
                continue  # established in an earlier cycle
            if inp in stuck:
                self._fail(
                    switch, "stuck_input_grant", cycle,
                    f"scheduler granted output {output} to stuck "
                    f"input {inp}",
                    (inp, output),
                )
            if inp in cooling_inputs or output in cooling_outputs:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"grant {inp}->{output} in the same cycle its "
                    f"endpoint transmitted a tail",
                    (inp, output),
                )
            if switch.grant_cycle.get(inp) != cycle:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"new connection {inp}->{output} without a grant "
                    f"stamp this cycle",
                    (inp, output),
                )
        self._prev_connections = dict(connections)

        # 4. The stages' queue matrices match the deques, every stage
        # every cycle.  The test is exact without a Python-level walk of
        # all N VOQs: each of the k outputs in the non-empty set has a
        # non-empty VOQ whose counter equals its length and whose head
        # flit carries the head-of-line cycle, and exactly k VOQs are
        # non-empty and N - k counters zero — so every other VOQ is
        # empty with a zero counter.  A failing stage is then walked to
        # locate its first mismatch.
        for stage in switch.stages:
            voqs = stage.voqs
            row = stage.occupancy_row
            nonempty = stage.nonempty
            busy = len(nonempty)
            if (
                len(list(filter(None, voqs))) != busy
                or row.count(0) != len(row) - busy
            ):
                self._locate_voq_mismatch(switch, stage, cycle)
            if not busy:
                continue
            hol_row = stage.hol_row
            outputs = range(len(voqs))
            for output in nonempty:
                if not (
                    output in outputs
                    and 0 < row[output] == len(voqs[output])
                    and hol_row[output] == voqs[output][0].created_cycle
                ):
                    self._locate_voq_mismatch(switch, stage, cycle)

    def _locate_voq_mismatch(self, switch, stage, cycle: int) -> None:
        """Fail on the first disagreement of a stage's matrices.

        Called only when the fast test above failed, which it does only
        if one of these three walks finds a mismatch.
        """
        inp = stage.input_id
        lengths = list(map(len, stage.voqs))
        for output, count in enumerate(stage.occupancy_row):
            if count != lengths[output]:
                self._fail(
                    switch, "voq_occupancy", cycle,
                    f"stage {inp} VOQ[{output}] counter {count} != "
                    f"length {lengths[output]}",
                    (inp, output),
                )
        actual = set(compress(range(len(lengths)), lengths))
        for output in sorted(stage.nonempty ^ actual):
            if output in stage.nonempty:
                state = "phantom in"
            else:
                state = "missing from"
            self._fail(
                switch, "voq_occupancy", cycle,
                f"stage {inp} output {output} {state} the non-empty set",
                (inp, output),
            )
        for output in sorted(actual):
            head_cycle = stage.voqs[output][0].created_cycle
            if stage.hol_row[output] != head_cycle:
                self._fail(
                    switch, "voq_occupancy", cycle,
                    f"stage {inp} VOQ[{output}] head-of-line cycle "
                    f"{stage.hol_row[output]} != head flit's {head_cycle}",
                    (inp, output),
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Conservation ledger totals (embedded in telemetry snapshots)."""
        return {
            "cycles_checked": self.cycles_checked,
            "injected_packets": self.injected_packets,
            "injected_flits": self.injected_flits,
            "ejected_flits": self.ejected_flits,
        }

    def __repr__(self) -> str:
        return (
            f"MatchingInvariantChecker(cycles_checked={self.cycles_checked}, "
            f"injected_flits={self.injected_flits}, "
            f"ejected_flits={self.ejected_flits})"
        )


def checker_for(config, snapshot_ports: int = 8):
    """Build the invariant checker matching a config's scheme family.

    VOQ schemes get a :class:`MatchingInvariantChecker`; Hi-Rise
    schemes get the structural :class:`repro.check.InvariantChecker`.
    """
    if config.uses_voq:
        return MatchingInvariantChecker(snapshot_ports=snapshot_ports)
    from repro.check.invariants import InvariantChecker

    return InvariantChecker(snapshot_ports=snapshot_ports)
