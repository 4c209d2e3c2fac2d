"""Fleet mode of the differential fuzzer (``repro check --fuzz --fleet``).

``run_case(..., fleet_lanes=N)`` adds a fleet-vs-scalar lane-parity
check to every fuzz case; lane divergences classify as ordinary
mismatches, so the existing minimizer and ``repro.check/v1`` repro
machinery handle them unchanged.  The repro file records the lane count
so ``--replay`` re-runs the failure under the same fleet configuration.
"""

import json

import pytest

import repro.core.fleet as fleet_mod
from repro.check.fuzz import generate_cases, run_case, run_fuzz
from repro.check.reprofile import load_repro, replay_repro


def test_fleet_smoke_campaign_clean():
    # A short healthy campaign: every case must pass both the scalar
    # differential check and the fleet lane-parity check.
    report = run_fuzz(seed=3, cases=4, fleet_lanes=2)
    assert report.clean
    assert report.cases_run == 4


def test_run_case_fleet_lanes_clean_on_faulted_case():
    cases = [c for c in generate_cases(0, 8) if c.fault_events]
    assert cases
    outcome = run_case(cases[0], fleet_lanes=2)
    assert outcome.status == "ok"


def test_lane_divergence_minimized_and_replayable(tmp_path, monkeypatch):
    # Inject a synthetic lane divergence that only fires when a fault
    # schedule is present: the minimizer must shrink everything except
    # the last fault event while preserving the mismatch classification,
    # and the repro file must capture the lane count for replay.
    real = fleet_mod.verify_fleet_parity

    def diverge_under_faults(config, schedule=None, **kwargs):
        messages = list(real(config, schedule, **kwargs))
        if schedule is not None:
            messages.append(
                "fleet lane 1: result field 'flits_ejected' differs "
                "(synthetic)"
            )
        return messages

    monkeypatch.setattr(
        fleet_mod, "verify_fleet_parity", diverge_under_faults
    )
    report = run_fuzz(
        seed=0, cases=4, out_dir=str(tmp_path), fleet_lanes=2
    )
    faulted = sum(
        1 for case in generate_cases(0, 4) if case.fault_events
    )
    assert len(report.failures) == faulted > 0
    failure = report.failures[0]
    assert failure.outcome.status == "mismatch"
    assert "fleet lane 1" in failure.outcome.detail
    assert failure.shrink_history  # the minimizer actually shrank it
    assert failure.minimized.fault_events  # ...but kept a fault

    payload = load_repro(failure.repro_path)
    assert payload["fleet_lanes"] == 2

    # Replay honours the recorded lane count: while the divergence is
    # still present it reproduces; with healthy parity it reads ok.
    replayed = replay_repro(failure.repro_path)
    assert replayed.matches
    monkeypatch.setattr(fleet_mod, "verify_fleet_parity", real)
    healed = replay_repro(failure.repro_path)
    assert healed.outcome.status == "ok"
    assert not healed.matches


def test_pre_fleet_repro_files_replay_scalar_only(tmp_path):
    # Files without a fleet_lanes entry (written before the fleet mode)
    # must keep replaying exactly as before (scalar differential only).
    # Replay also needs the file's traffic stream to be the current one.
    case = generate_cases(3, 1)[0]
    outcome = run_case(case)
    payload = {
        "format": "repro.check/v1",
        "traffic_stream": 2,
        "case": case.to_dict(),
        "outcome": outcome.to_dict(),
        "minimized": False,
        "history": [],
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(payload))
    result = replay_repro(str(path))
    assert result.matches
