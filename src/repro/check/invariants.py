"""Runtime structural invariants for the Hi-Rise cycle kernels.

An :class:`InvariantChecker` is handed to a switch at construction
(``HiRiseSwitch(config, invariants=...)`` or
``ReferenceHiRiseSwitch(config, invariants=...)``) and re-verifies, at
the end of every ``step(cycle)``, the structural properties the paper's
single-cycle two-phase arbitration guarantees by construction:

* **flit conservation** — every injected flit is either still inside
  the switch or has been ejected (the fault model *quiesces* in-flight
  packets, it never drops flits, so dropped-by-fault is identically 0);
* **path coherence** — ``connections``, ``resource_owner``,
  ``output_owner`` and the ports' active-VC state describe the same set
  of locked paths (at most one grant per output sub-block, at most one
  owner per resource);
* **grant legality** — a path granted this cycle went to a non-stuck
  input, over a healthy (non-failed, non-diagonal) resource that
  geometrically connects the input's layer to the output's layer, and
  never to an input/output/resource in its cooling blackout cycle;
* **L2LC occupancy** — at most ``c`` busy channels per ordered layer
  pair (Section III-A's channel redundancy bound);
* **CLRG sanity** — class counters stay within their saturation range
  ``[0, num_classes - 1]``, banks halve at most once per cycle (one
  grant per output per cycle), and a halving cycle leaves every counter
  at ``<= max_count // 2 + 1`` (halve-all-together plus the winner's
  increment, Section III-B);
* **LRG total order** — every least-recently-granted arbiter's recency
  keys are pairwise distinct with the next stamp strictly above them
  (a valid total order, the paper's LRG priority invariant).

Like the ``tracer=`` and ``faults=`` hooks, the checker is opt-in at
construction: an unchecked switch carries a single predictable
``invariants is None`` branch per cycle and is bit-identical to the
pre-checker kernels.  A failed check raises a structured
:class:`InvariantViolation` carrying the cycle, the implicated flat
resource/port ids, and a telemetry snapshot — and, on a traced switch,
emits one ``invariant`` trace event first so the failure is visible on
the timeline.
"""

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CHECK_CODES",
    "DrainStallError",
    "InvariantChecker",
    "InvariantViolation",
]

#: Check name -> integer code used in the ``invariant`` trace event.
CHECK_CODES: Dict[str, int] = {
    "flit_conservation": 0,
    "path_coherence": 1,
    "output_uniqueness": 2,
    "grant_legality": 3,
    "l2lc_occupancy": 4,
    "clrg_counters": 5,
    "lrg_order": 6,
    "drain_stall": 7,
    # VOQ scheduler checks (repro.check.matching).
    "matching_validity": 8,
    "stuck_input_grant": 9,
    "voq_occupancy": 10,
}


class InvariantViolation(RuntimeError):
    """A structural switch invariant failed during a checked run.

    Attributes:
        check: Invariant name (a :data:`CHECK_CODES` key).
        cycle: Simulation cycle the violation was detected at.
        resources: Implicated flat resource/port ids (may be empty).
        snapshot: :func:`repro.obs.telemetry_snapshot` of the switch at
            detection time (``None`` when no switch was available).
    """

    def __init__(
        self,
        message: str,
        *,
        check: str = "",
        cycle: int = -1,
        resources: Sequence[int] = (),
        snapshot: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.check = check
        self.cycle = cycle
        self.resources = tuple(int(r) for r in resources)
        self.snapshot = snapshot

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable record (embedded in repro files)."""
        return {
            "check": self.check,
            "cycle": self.cycle,
            "resources": list(self.resources),
            "message": str(self),
            "snapshot": self.snapshot,
        }


class DrainStallError(InvariantViolation):
    """A draining simulation made no progress for the idle limit.

    Raised by :meth:`repro.network.engine.Simulation.run` in place of
    the former bare ``RuntimeError`` (which it still is, so existing
    callers keep working) so ``repro check`` classifies a wedged drain
    as a structured violation instead of crashing the fuzz loop.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: int = -1,
        idle_cycles: int = 0,
        occupancy: int = 0,
        snapshot: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(
            message, check="drain_stall", cycle=cycle, snapshot=snapshot
        )
        self.idle_cycles = idle_cycles
        self.occupancy = occupancy


class InvariantChecker:
    """Per-cycle structural invariant verification for one switch.

    A checker binds to exactly one switch (differential runs need one
    checker per kernel); it counts injected flits by wrapping the
    switch's injection methods and re-derives everything else from the
    public path state after each step, so a passing checked run is
    bit-identical to an unchecked one.

    Args:
        snapshot_ports: Port-list cap passed to the telemetry snapshot
            embedded in violations.
    """

    def __init__(self, snapshot_ports: int = 8) -> None:
        self.snapshot_ports = snapshot_ports
        self.injected_flits = 0
        self.injected_packets = 0
        self.ejected_flits = 0
        self.cycles_checked = 0
        self.config = None
        self._switch = None
        self._rid_of_key: Dict[Tuple, int] = {}
        self._prev_connections: Dict[int, Tuple[int, int]] = {}
        self._prev_halvings: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction-time wiring (called by the kernels)
    # ------------------------------------------------------------------
    def bind(self, switch) -> None:
        """Attach to a switch; wraps its injection methods for counting."""
        if self._switch is not None and self._switch is not switch:
            raise ValueError(
                "an InvariantChecker verifies exactly one switch; "
                "build one checker per kernel"
            )
        self._switch = switch
        self.config = switch.config
        self._rid_of_key = {
            key: rid
            for rid, key in enumerate(switch.config.resource_key_table)
        }

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
    # Failure path
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
    # State normalisation (fast kernel: flat ids; reference: tuple keys)
    # ------------------------------------------------------------------
    def _flat_connections(self, switch) -> Dict[int, Tuple[int, int]]:
        rid_of_key = self._rid_of_key
        flat: Dict[int, Tuple[int, int]] = {}
        for input_port, (resource, output) in switch.connections.items():
            rid = resource if isinstance(resource, int) else rid_of_key[resource]
            flat[input_port] = (rid, output)
        return flat

    def _busy_resources(self, switch) -> Dict[int, int]:
        owner_state = switch.resource_owner
        if isinstance(owner_state, dict):
            rid_of_key = self._rid_of_key
            return {
                rid_of_key[key]: owner for key, owner in owner_state.items()
            }
        return {
            rid: owner for rid, owner in enumerate(owner_state) if owner >= 0
        }

    def _cooling(self, switch):
        paths = getattr(switch, "_cooling_paths", None)
        if paths is not None:
            # Fast kernel: (src, output, rid) triples torn down this
            # cycle.  (The permanent diagonal sentinels live only in the
            # _res_cooling bytearray, never here.)
            inputs = {path[0] for path in paths}
            outputs = {path[1] for path in paths}
            resources = {path[2] for path in paths}
        else:
            rid_of_key = self._rid_of_key
            inputs = set(switch._cooling_inputs)
            outputs = set(switch._cooling_outputs)
            resources = {rid_of_key[key] for key in switch._cooling_resources}
        return inputs, outputs, resources

    # ------------------------------------------------------------------
    # The per-cycle check (called at the end of step())
    # ------------------------------------------------------------------
    def after_step(self, switch, cycle: int, ejected) -> None:
        """Verify every invariant against the post-step switch state."""
        self.cycles_checked += 1
        self.ejected_flits += len(ejected)
        cfg = switch.config

        # 1. Flit conservation: the fault model quiesces in-flight
        # packets (flits are never dropped), so the ledger is exact.
        occupancy = switch.occupancy()
        expected = occupancy + self.ejected_flits
        if self.injected_flits != expected:
            self._fail(
                switch, "flit_conservation", cycle,
                f"{self.injected_flits} flits injected but "
                f"{occupancy} in flight + {self.ejected_flits} ejected "
                f"= {expected}",
            )

        connections = self._flat_connections(switch)
        busy = self._busy_resources(switch)

        # 2/3. Path coherence and output uniqueness.
        outputs_seen: Dict[int, int] = {}
        resources_seen: Dict[int, int] = {}
        key_table = cfg.resource_key_table
        for input_port, (rid, output) in connections.items():
            prior = outputs_seen.get(output)
            if prior is not None:
                self._fail(
                    switch, "output_uniqueness", cycle,
                    f"output {output} held by inputs {prior} and "
                    f"{input_port} simultaneously",
                    resources=(output, prior, input_port),
                )
            outputs_seen[output] = input_port
            prior = resources_seen.get(rid)
            if prior is not None:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"resource {key_table[rid]} held by inputs {prior} "
                    f"and {input_port} simultaneously",
                    resources=(rid, prior, input_port),
                )
            resources_seen[rid] = input_port
            if busy.get(rid) != input_port:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"connection {input_port} -> {key_table[rid]} but "
                    f"resource owner is {busy.get(rid)}",
                    resources=(rid, input_port),
                )
            if switch.output_owner[output] != input_port:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"connection {input_port} -> output {output} but "
                    f"output owner is {switch.output_owner[output]}",
                    resources=(output, input_port),
                )
        for rid, owner in busy.items():
            if rid not in resources_seen:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"resource {key_table[rid]} owned by input {owner} "
                    f"without a connection (leaked path)",
                    resources=(rid, owner),
                )
        for output, owner in enumerate(switch.output_owner):
            if owner is not None and outputs_seen.get(output) != owner:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"output {output} owned by input {owner} without a "
                    f"connection (leaked output)",
                    resources=(output, owner),
                )
        for port in switch.ports:
            connected = port.port_id in connections
            if (port.active_vc is not None) != connected:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"input {port.port_id} active_vc={port.active_vc} "
                    f"but connected={connected}",
                    resources=(port.port_id,),
                )

        # 3. Grant legality for paths locked this cycle.
        cooling_inputs, cooling_outputs, cooling_resources = (
            self._cooling(switch)
        )
        previous = self._prev_connections
        failed_channels = switch.failed_channels
        for input_port, path in connections.items():
            if previous.get(input_port) == path:
                continue  # held over from an earlier cycle
            rid, output = path
            if switch.grant_cycle.get(input_port) != cycle:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"new path {input_port} -> output {output} carries "
                    f"grant cycle {switch.grant_cycle.get(input_port)}",
                    resources=(rid, input_port),
                )
            if input_port in switch.stuck_inputs:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"stuck input {input_port} was granted output {output}",
                    resources=(rid, input_port),
                )
            if (input_port in cooling_inputs or output in cooling_outputs
                    or rid in cooling_resources):
                self._fail(
                    switch, "grant_legality", cycle,
                    f"grant {input_port} -> output {output} through "
                    f"{key_table[rid]} during its cooling blackout",
                    resources=(rid, input_port),
                )
            key = key_table[rid]
            if key[0] == "ch":
                src_layer, dst_layer, channel = key[1], key[2], key[3]
                if src_layer == dst_layer:
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"diagonal channel {key} granted",
                        resources=(rid, input_port),
                    )
                if (src_layer, dst_layer, channel) in failed_channels:
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"failed channel {key} granted to input "
                        f"{input_port}",
                        resources=(rid, input_port),
                    )
                if (cfg.layer_of_port(input_port) != src_layer
                        or cfg.layer_of_port(output) != dst_layer):
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"channel {key} does not connect input "
                        f"{input_port} to output {output}",
                        resources=(rid, input_port),
                    )
            else:  # intermediate output: same-layer path, rid == output
                if (cfg.layer_of_port(input_port) != key[1]
                        or output != rid):
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"intermediate output {key} does not connect "
                        f"input {input_port} to output {output}",
                        resources=(rid, input_port),
                    )

        # 4. L2LC occupancy <= c per ordered layer pair.
        pair_busy: Dict[Tuple[int, int], int] = {}
        for rid in busy:
            key = key_table[rid]
            if key[0] != "ch":
                continue
            pair = (key[1], key[2])
            pair_busy[pair] = pair_busy.get(pair, 0) + 1
        for pair, count in pair_busy.items():
            if count > cfg.channel_multiplicity:
                self._fail(
                    switch, "l2lc_occupancy", cycle,
                    f"{count} busy channels between layers {pair[0]} -> "
                    f"{pair[1]} exceeds c={cfg.channel_multiplicity}",
                    resources=pair,
                )

        # 5. CLRG counter sanity (integer banks only: the QoS extension
        # charges fractional costs whose post-halving bound depends on
        # the weights, so it is exempt from the integer-bank bounds).
        prev_halvings = self._prev_halvings
        for output, arbiter in switch.subblock_arbiters.items():
            counters = getattr(arbiter, "counters", None)
            if counters is None:
                continue
            counts = counters.counts()
            halvings = counters.halvings
            # A sum stays an int only when every counter is one.
            integer_bank = isinstance(sum(counts), int)
            if integer_bank and counts and (
                min(counts) < 0 or max(counts) > counters.max_count
            ):
                self._fail(
                    switch, "clrg_counters", cycle,
                    f"output {output} class counters {counts} outside "
                    f"[0, {counters.max_count}]",
                    resources=(output,),
                )
            before = prev_halvings.get(output, halvings)
            if halvings < before or halvings > before + 1:
                self._fail(
                    switch, "clrg_counters", cycle,
                    f"output {output} halvings went {before} -> "
                    f"{halvings} in one cycle (one grant per output per "
                    f"cycle allows at most one halving)",
                    resources=(output,),
                )
            if integer_bank and halvings == before + 1:
                bound = counters.max_count // 2 + 1
                if max(counts) > bound:
                    self._fail(
                        switch, "clrg_counters", cycle,
                        f"output {output} halved this cycle but counters "
                        f"{counts} exceed {bound} (bank did not halve "
                        f"all together)",
                        resources=(output,),
                    )
            prev_halvings[output] = halvings

        # 6. LRG recency keys form a valid total order everywhere.
        self._check_lrg_orders(switch, cycle)

        self._prev_connections = connections

    def _check_lrg_orders(self, switch, cycle: int) -> None:
        def check_one(arbiter, label: str) -> None:
            lrg = arbiter if hasattr(arbiter, "_rank") else getattr(
                arbiter, "lrg", None
            )
            if lrg is None or not hasattr(lrg, "_rank"):
                return  # round-robin / age sub-blocks carry no LRG state
            ranks = lrg._rank
            if len(set(ranks)) != len(ranks) or lrg._stamp <= max(ranks):
                self._fail(
                    switch, "lrg_order", cycle,
                    f"{label} recency keys {list(ranks)} (next stamp "
                    f"{lrg._stamp}) are not a valid total order",
                )

        for (layer, local), arbiter in switch.int_arbiters.items():
            check_one(arbiter, f"intermediate arbiter L{layer}.{local}")
        for (src, dst, channel), arbiter in switch.chan_arbiters.items():
            check_one(arbiter, f"channel arbiter L{src}->L{dst}#{channel}")
        for (src, dst), arbiter in switch.pair_arbiters.items():
            check_one(arbiter, f"pair arbiter L{src}->L{dst}")
        for output, arbiter in switch.subblock_arbiters.items():
            check_one(arbiter, f"sub-block arbiter out{output}")

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
            f"InvariantChecker(cycles_checked={self.cycles_checked}, "
            f"injected_flits={self.injected_flits}, "
            f"ejected_flits={self.ejected_flits})"
        )
