"""Replayable repro files for failing fuzz cases (``repro.check/v1``).

A repro file freezes one :class:`~repro.check.fuzz.CaseSpec` together
with the outcome observed when it was written (status, mismatch list or
violation record) and its shrink history.  :func:`replay_repro` re-runs
the case with the current kernels and reports whether the classification
still matches — so a checked-in historical case doubles as a regression
gate (recorded ``ok`` must stay ``ok``), and a freshly minimized failure
is confirmed reproducible by ``repro check --replay``.
"""

import json
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Union

from repro.check.fuzz import CaseOutcome, CaseSpec, run_case
from repro.traffic import TRAFFIC_STREAM

__all__ = [
    "REPRO_FORMAT",
    "ReplayResult",
    "load_repro",
    "repro_payload",
    "save_repro",
    "replay_repro",
]

#: Schema tag written into every repro file.
REPRO_FORMAT = "repro.check/v1"


def repro_payload(
    case: CaseSpec,
    outcome: CaseOutcome,
    minimized: bool = False,
    history: List[str] = (),
    fleet_lanes: int = 0,
) -> Dict[str, object]:
    """The JSON document for one repro file.

    ``fleet_lanes`` is recorded (when nonzero) so a failure found by
    the fleet lane-parity check replays under the same lane count.
    ``traffic_stream`` records the traffic stream the case was drawn
    under; a file without it predates stream versioning (stream 1).
    """
    payload = {
        "format": REPRO_FORMAT,
        "traffic_stream": TRAFFIC_STREAM,
        "case": case.to_dict(),
        "outcome": outcome.to_dict(),
        "minimized": bool(minimized),
        "history": list(history),
    }
    if fleet_lanes:
        payload["fleet_lanes"] = int(fleet_lanes)
    return payload


def save_repro(
    destination: Union[str, IO[str]],
    case: CaseSpec,
    outcome: CaseOutcome,
    minimized: bool = False,
    history: List[str] = (),
    fleet_lanes: int = 0,
) -> Dict[str, object]:
    """Write a repro file; returns the payload written."""
    payload = repro_payload(case, outcome, minimized, history, fleet_lanes)
    if hasattr(destination, "write"):
        json.dump(payload, destination, indent=2)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return payload


def load_repro(source: Union[str, IO[str]]) -> Dict[str, object]:
    """Load and validate a repro file; ``case`` is parsed to a CaseSpec.

    Raises:
        ValueError: On a wrong/missing format tag or malformed case.
    """
    if hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"not a {REPRO_FORMAT} repro file: "
            f"format={payload.get('format')!r}"
        )
    if "case" not in payload or "outcome" not in payload:
        raise ValueError("repro file needs 'case' and 'outcome' entries")
    payload["case"] = CaseSpec.from_dict(payload["case"])
    return payload


@dataclass
class ReplayResult:
    """Outcome of re-running a repro file against the current kernels."""

    case: CaseSpec
    expected_status: str
    outcome: CaseOutcome
    path: Optional[str] = None

    @property
    def matches(self) -> bool:
        return self.outcome.status == self.expected_status


def replay_repro(
    source: Union[str, IO[str]],
    invariants: bool = True,
    fleet_lanes: Optional[int] = None,
) -> ReplayResult:
    """Re-run a repro file's case; compare against its recorded status.

    ``fleet_lanes=None`` (the default) replays under the lane count
    recorded in the file (0 — no fleet check — for pre-fleet files);
    pass an explicit value to override.

    Raises:
        ValueError: If the file was recorded under another traffic
            stream than :data:`repro.traffic.TRAFFIC_STREAM`.
    """
    payload = load_repro(source)
    stream = payload.get("traffic_stream", 1)
    if stream != TRAFFIC_STREAM:
        name = source if isinstance(source, str) else "repro file"
        raise ValueError(
            f"{name}: recorded under traffic stream {stream}, but this "
            f"build draws traffic stream {TRAFFIC_STREAM}; the case's "
            f"traffic cannot be replayed"
        )
    case: CaseSpec = payload["case"]
    expected = str(payload["outcome"].get("status", "ok"))
    if fleet_lanes is None:
        fleet_lanes = int(payload.get("fleet_lanes", 0))
    outcome = run_case(case, invariants=invariants, fleet_lanes=fleet_lanes)
    return ReplayResult(
        case=case,
        expected_status=expected,
        outcome=outcome,
        path=source if isinstance(source, str) else None,
    )
