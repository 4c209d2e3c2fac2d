"""Repro files: round-trip, replay, CLI, and the end-to-end bug hunt."""

import json
import os

import pytest

from repro.__main__ import main
from repro.check import (
    CaseOutcome,
    load_repro,
    replay_repro,
    repro_payload,
    run_case,
    run_fuzz,
    save_repro,
)
from repro.check.fuzz import generate_cases
from repro.core.hirise import HiRiseSwitch

HISTORICAL = os.path.join(
    os.path.dirname(__file__), "data", "historical_clrg_hotspot.json"
)


class TestReproFiles:
    def test_save_load_round_trip(self, tmp_path):
        case = generate_cases(seed=3, count=1)[0]
        outcome = CaseOutcome(status="ok", detail="")
        path = str(tmp_path / "case.json")
        payload = save_repro(path, case, outcome, history=["step one"])
        loaded = load_repro(path)
        assert loaded["format"] == payload["format"] == "repro.check/v1"
        assert loaded["case"] == case
        assert loaded["outcome"]["status"] == "ok"
        assert loaded["history"] == ["step one"]
        assert loaded["minimized"] is False

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something/else"}))
        with pytest.raises(ValueError, match="not a repro.check/v1"):
            load_repro(str(path))

    def test_payload_is_json_serialisable(self):
        case = generate_cases(seed=3, count=5)[-1]
        payload = repro_payload(case, CaseOutcome(status="ok", detail=""))
        json.dumps(payload)


class TestHistoricalReplay:
    def test_checked_in_case_still_reproduces_ok(self):
        result = replay_repro(HISTORICAL)
        assert result.expected_status == "ok"
        assert result.outcome.status == "ok", result.outcome.detail
        assert result.matches

    def test_cli_replay_exits_zero(self, capsys):
        assert main(["check", "--replay", HISTORICAL]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out

    def test_cli_replay_missing_file_exits_two(self, capsys):
        assert main(["check", "--replay", "/nonexistent.json"]) == 2

    def test_file_from_another_traffic_stream_is_refused(
        self, tmp_path, capsys
    ):
        # A file without a stream tag predates stream versioning.
        with open(HISTORICAL, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload.pop("traffic_stream") == 2
        path = tmp_path / "stream1.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="traffic stream 1"):
            replay_repro(str(path))
        assert main(["check", "--replay", str(path)]) == 2
        assert "traffic stream 1" in capsys.readouterr().err
        payload["traffic_stream"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="traffic stream 3"):
            replay_repro(str(path))

    def test_new_files_record_the_traffic_stream(self):
        case = generate_cases(seed=3, count=1)[0]
        payload = repro_payload(case, CaseOutcome(status="ok", detail=""))
        assert payload["traffic_stream"] == 2


class TestCliFuzz:
    def test_small_fuzz_campaign_exits_zero(self, tmp_path, capsys):
        code = main([
            "check", "--fuzz", "--seed", "7", "--cases", "3",
            "--max-radix", "8", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert "3 cases" in capsys.readouterr().out

    def test_check_without_mode_is_usage_error(self, capsys):
        assert main(["check"]) == 2


class TestInjectedBugEndToEnd:
    """The acceptance pipeline: bug -> fuzz -> minimize -> replay."""

    @pytest.fixture
    def leaky_fast_kernel(self, monkeypatch):
        # Corrupt the fast kernel AFTER each step: free the resource
        # under a live connection. The in-step invariant check has
        # already run, so the checker catches it on the next cycle.
        original_step = HiRiseSwitch.step

        def buggy_step(self, cycle):
            ejected = original_step(self, cycle)
            if self.connections:
                resource, _ = next(iter(self.connections.values()))
                self.resource_owner[resource] = -1
            return ejected

        monkeypatch.setattr(HiRiseSwitch, "step", buggy_step)

    def test_fuzz_finds_minimizes_and_replay_confirms(
        self, leaky_fast_kernel, tmp_path, capsys
    ):
        report = run_fuzz(
            seed=7, cases=4, max_radix=8, out_dir=str(tmp_path)
        )
        assert not report.clean
        failure = report.failures[0]
        assert failure.outcome.status == "violation"
        assert "path_coherence" in failure.outcome.detail
        # Minimization made progress and wrote a replayable file.
        assert failure.minimized.case_id.endswith("-min")
        assert failure.shrink_history
        assert failure.repro_path and os.path.exists(failure.repro_path)

        payload = load_repro(failure.repro_path)
        assert payload["minimized"] is True
        assert payload["outcome"]["status"] == "violation"

        # With the bug still active the repro reproduces: CLI exit 0.
        assert main(["check", "--replay", failure.repro_path]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_replay_flags_fixed_bug_as_divergence(
        self, tmp_path, monkeypatch
    ):
        original_step = HiRiseSwitch.step

        def buggy_step(self, cycle):
            ejected = original_step(self, cycle)
            if self.connections:
                resource, _ = next(iter(self.connections.values()))
                self.resource_owner[resource] = -1
            return ejected

        monkeypatch.setattr(HiRiseSwitch, "step", buggy_step)
        report = run_fuzz(
            seed=7, cases=4, max_radix=8, out_dir=str(tmp_path)
        )
        repro_path = report.failures[0].repro_path

        # "Fix" the bug; the recorded violation must no longer replay.
        monkeypatch.setattr(HiRiseSwitch, "step", original_step)
        result = replay_repro(repro_path)
        assert result.expected_status == "violation"
        assert result.outcome.status == "ok"
        assert not result.matches
        assert main(["check", "--replay", repro_path]) == 1


class TestGoldenEquivalenceUnchanged:
    def test_fuzz_cases_bit_identical_without_invariants(self):
        # invariants=False runs the exact kernels the golden suite pins;
        # a clean differential pass means checker-off is untouched.
        for case in generate_cases(seed=21, count=3, max_radix=8):
            outcome = run_case(case, invariants=False)
            assert outcome.status == "ok", (case.case_id, outcome.detail)
