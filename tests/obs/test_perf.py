"""Tests of the self-profiling counters and the cross-run perf ledger."""

import json
import pickle

import pytest

from repro.core.config import HiRiseConfig
from repro.obs.perf import (
    DEFAULT_STRIDE,
    LEDGER_FORMAT,
    PerfCounters,
    PerfCountersFactory,
    append_ledger_entry,
    compare_perf,
    config_fingerprint,
    filter_entries,
    host_info,
    make_ledger_entry,
    metric_direction,
    read_ledger,
    run_micro_benchmark,
)

CONFIG = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)


def entry_with(metrics, config=CONFIG, workload="w"):
    return make_ledger_entry(config, workload, metrics)


class TestPerfCounters:
    def test_add_accumulates_time_and_ops(self):
        perf = PerfCounters(stride=4)
        perf.add("transmit", 100, ops=3)
        perf.add("transmit", 50)
        perf.add("arbitrate", 150, ops=2)
        assert perf.time_ns == {"transmit": 150, "arbitrate": 150}
        assert perf.ops == {"transmit": 3, "arbitrate": 2}
        assert perf.sampled_ns == 300
        fractions = perf.phase_fractions()
        assert fractions["transmit"] == pytest.approx(0.5)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_phase_order_is_canonical_then_extras(self):
        perf = PerfCounters()
        perf.add("zzz_custom", 1)
        perf.add("arbitrate", 1)
        perf.add("inject", 1)
        assert list(perf.phase_fractions()) == [
            "inject", "arbitrate", "zzz_custom"
        ]

    def test_empty_counters_have_no_fractions(self):
        assert PerfCounters().phase_fractions() == {}

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            PerfCounters(stride=0)
        with pytest.raises(ValueError):
            PerfCountersFactory(stride=-1)

    def test_bind_records_kernel_identity(self):
        class FakeFleet:
            num_lanes = 8

        perf = PerfCounters()
        perf.bind(FakeFleet())
        assert perf.kernel == "FakeFleet"
        assert perf.lanes == 8

    def test_summary_is_json_serialisable(self):
        perf = PerfCounters(stride=2)
        perf.add("transmit", 10, ops=1)
        perf.cycles_total = 8
        perf.cycles_sampled = 4
        summary = json.loads(json.dumps(perf.summary()))
        assert summary["stride"] == 2
        assert summary["cycles_sampled"] == 4
        assert summary["time_ns"] == {"transmit": 10}

    def test_to_stats_exports_per_phase_scalars(self):
        from repro.obs import StatsRegistry, validate_prometheus

        perf = PerfCounters(stride=3)
        perf.add("transmit", 75, ops=5)
        perf.add("arbitrate", 25)
        registry = StatsRegistry()
        perf.to_stats(registry)
        assert registry.get("perf.stride") == 3
        assert registry.get("perf.transmit.time_ns") == 75
        assert registry.get("perf.transmit.ops") == 5
        assert registry.get("perf.transmit.frac") == pytest.approx(0.75)
        assert registry.get("perf.arbitrate.ops") == 0
        assert validate_prometheus(registry.to_prometheus()) > 0

    def test_factory_eq_hash_and_pickle(self):
        factory = PerfCountersFactory(stride=8)
        assert factory == PerfCountersFactory(stride=8)
        assert factory != PerfCountersFactory(stride=4)
        assert hash(factory) == hash(PerfCountersFactory(stride=8))
        assert factory.fleet_capable is True
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert clone().stride == 8


class TestConfigFingerprint:
    def test_equal_configs_fingerprint_identically(self):
        assert config_fingerprint(CONFIG) == config_fingerprint(
            HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
        )

    def test_failed_channel_order_is_normalised(self):
        first = HiRiseConfig(
            radix=8, layers=2, channel_multiplicity=2,
            failed_channels=[(0, 1, 0), (1, 0, 1)],
        )
        second = HiRiseConfig(
            radix=8, layers=2, channel_multiplicity=2,
            failed_channels=[(1, 0, 1), (0, 1, 0)],
        )
        assert config_fingerprint(first) == config_fingerprint(second)

    def test_architectural_changes_change_the_fingerprint(self):
        other = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
        assert config_fingerprint(CONFIG) != config_fingerprint(other)

    def test_host_info_is_json_serialisable(self):
        info = json.loads(json.dumps(host_info()))
        assert "platform" in info and "python" in info


class TestLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        first = entry_with({"cycles_per_sec": 100.0})
        second = entry_with({"cycles_per_sec": 120.0})
        append_ledger_entry(path, first)
        append_ledger_entry(path, second)
        entries = read_ledger(path)
        assert entries == [first, second]
        assert all(e["format"] == LEDGER_FORMAT for e in entries)

    def test_missing_file_reads_as_empty_history(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        entry = entry_with({"cycles_per_sec": 100.0})
        append_ledger_entry(path, entry)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"format": "repro.perf/v1", "metr')  # crash mid-append
        assert read_ledger(path) == [entry]

    def test_wrong_format_line_raises(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "repro.telemetry/v1"}\n')
        with pytest.raises(ValueError, match="not a repro.perf/v1"):
            read_ledger(path)

    def test_append_refuses_foreign_entries(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to append"):
            append_ledger_entry(tmp_path / "x.jsonl", {"format": "nope"})

    def test_entry_requires_workload_label(self):
        with pytest.raises(ValueError, match="workload"):
            make_ledger_entry(CONFIG, "", {"cycles_per_sec": 1.0})

    def test_filter_by_fingerprint_and_workload(self):
        other_config = HiRiseConfig(radix=16, layers=2,
                                    channel_multiplicity=2)
        entries = [
            entry_with({"a": 1.0}, workload="w1"),
            entry_with({"a": 2.0}, workload="w2"),
            entry_with({"a": 3.0}, config=other_config, workload="w1"),
        ]
        fp = config_fingerprint(CONFIG)
        assert filter_entries(entries, fp) == entries[:2]
        assert filter_entries(entries, fp, "w1") == entries[:1]
        assert filter_entries(entries, workload="w1") == [
            entries[0], entries[2]
        ]


class TestComparePerf:
    def test_throughput_drop_is_a_regression(self):
        regressions = compare_perf(
            entry_with({"cycles_per_sec": 50.0}),
            entry_with({"cycles_per_sec": 100.0}),
            rel_tol=0.2,
        )
        assert len(regressions) == 1
        assert regressions[0].metric == "cycles_per_sec"
        assert "dropped" in str(regressions[0])

    def test_throughput_rise_is_not_a_regression(self):
        assert compare_perf(
            entry_with({"cycles_per_sec": 200.0}),
            entry_with({"cycles_per_sec": 100.0}),
        ) == []

    def test_within_tolerance_passes(self):
        assert compare_perf(
            entry_with({"cycles_per_sec": 90.0}),
            entry_with({"cycles_per_sec": 100.0}),
            rel_tol=0.2,
        ) == []

    def test_overhead_rise_is_a_regression(self):
        regressions = compare_perf(
            entry_with({"perf_on_overhead_frac": 0.10}),
            entry_with({"perf_on_overhead_frac": 0.02}),
            rel_tol=0.5,
        )
        assert len(regressions) == 1
        assert "rose" in str(regressions[0])

    def test_directionless_metrics_are_skipped(self):
        assert metric_direction("calibration_ops_per_sec") == 0
        assert metric_direction("some_unknown_count") == 0
        assert compare_perf(
            entry_with({"calibration_ops_per_sec": 1.0}),
            entry_with({"calibration_ops_per_sec": 100.0}),
        ) == []

    def test_suffix_heuristic_directions(self):
        assert metric_direction("aggregate_lane_cycles_per_sec") == 1
        assert metric_direction("fleet_speedup") == 1
        assert metric_direction("drain_seconds") == -1
        assert metric_direction("custom_overhead_frac") == -1

    def test_fingerprint_mismatch_refuses(self):
        other = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
        with pytest.raises(ValueError, match="refusing to compare"):
            compare_perf(
                entry_with({"cycles_per_sec": 1.0}),
                entry_with({"cycles_per_sec": 1.0}, config=other),
            )

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_perf(entry_with({}), entry_with({}), rel_tol=-0.1)

    def test_non_finite_values_are_skipped(self):
        assert compare_perf(
            entry_with({"cycles_per_sec": float("nan")}),
            entry_with({"cycles_per_sec": 100.0}),
        ) == []


class TestMicroBenchmark:
    def test_smoke_returns_ledger_ready_metrics(self):
        metrics, details = run_micro_benchmark(CONFIG, cycles=40, trials=1)
        assert metrics["cycles_per_sec"] > 0
        assert metrics["normalized"] > 0
        assert metrics["calibration_ops_per_sec"] > 0
        assert details["cycles"] == 40
        entry = make_ledger_entry(CONFIG, "test", metrics)
        assert entry["fingerprint"] == config_fingerprint(CONFIG)

    def test_profiled_run_populates_phase_counters(self):
        perf = PerfCounters(stride=4)
        run_micro_benchmark(CONFIG, cycles=40, trials=1, perf=perf)
        assert perf.cycles_total == 40
        assert perf.cycles_sampled == 10
        assert {"transmit", "refill", "arbitrate", "commit"} <= set(
            perf.time_ns
        )
        assert perf.time_ns.get("inject", 0) > 0

    @pytest.mark.parametrize("arbitration", ["islip", "mwm"])
    def test_voq_run_splits_the_scheduler_phase(self, arbitration):
        config = HiRiseConfig(
            radix=8, layers=2, channel_multiplicity=2,
            arbitration=arbitration,
        )
        perf = PerfCounters(stride=4)
        run_micro_benchmark(config, cycles=40, trials=1, perf=perf)
        assert perf.kernel == "VOQSwitch"
        assert perf.cycles_sampled == 10
        assert set(perf.time_ns) == {"transmit", "refill", "arbitrate"}
        assert perf.ops["arbitrate"] > 0

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            run_micro_benchmark(CONFIG, cycles=0)
        with pytest.raises(ValueError):
            run_micro_benchmark(CONFIG, trials=0)


class TestPerfCli:
    """Exit-code contract of ``python -m repro perf``."""

    ARGS = ["--radix", "8", "--layers", "2", "--channels", "2",
            "--cycles", "40", "--trials", "1"]

    def run_cli(self, *extra):
        from repro.__main__ import main

        return main(["perf", *self.ARGS, *extra])

    def test_record_then_self_comparison_exits_zero(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.jsonl")
        assert self.run_cli("--record", "--ledger", ledger) == 0
        assert self.run_cli(
            "--record", "--ledger", ledger, "--against", ledger,
            "--rel-tol", "0.9",
        ) == 0
        assert len(read_ledger(ledger)) == 2
        out = capsys.readouterr().out
        assert "no perf regressions" in out

    def test_synthetic_regression_exits_one(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.jsonl")
        assert self.run_cli("--record", "--ledger", ledger) == 0
        entries = read_ledger(ledger)
        degraded = json.loads(json.dumps(entries[-1]))
        degraded["metrics"]["cycles_per_sec"] /= 100
        degraded["metrics"]["normalized"] /= 100
        append_ledger_entry(ledger, degraded)
        assert self.run_cli(
            "--ledger", ledger, "--against", ledger, "--rel-tol", "0.5",
        ) == 1
        assert "regression" in capsys.readouterr().err

    def test_missing_history_exits_two(self, tmp_path, capsys):
        assert self.run_cli(
            "--ledger", str(tmp_path / "absent.jsonl")
        ) == 2
        assert "no entries" in capsys.readouterr().err

    def test_no_record_and_no_ledger_exits_two(self):
        assert self.run_cli() == 2

    def test_non_hirise_design_exits_two(self):
        from repro.__main__ import main

        assert main(["perf", "--design", "2d", "--record"]) == 2

    def test_history_and_phases_render(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.jsonl")
        assert self.run_cli("--record", "--ledger", ledger) == 0
        capsys.readouterr()
        assert self.run_cli(
            "--ledger", ledger, "--history", "5", "--phases",
            "--stride", "4",
        ) == 0
        out = capsys.readouterr().out
        assert "history (1 of 1" in out
        assert "phase breakdown" in out
        assert "arbitrate" in out
