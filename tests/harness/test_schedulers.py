"""Tests of the scheduler-zoo comparison harness and VOQ sweep routing."""

import json

import pytest

from repro.core.config import HiRiseConfig
from repro.harness.measure import SimulationMeasurement
from repro.harness.schedulers import (
    SCHEDULER_SPECS,
    SCHEDULERS_SCHEMA,
    build_traffic,
    compare_schedulers,
    render_markdown,
    validate_comparison,
)
from repro.harness.sweep import parameter_grid, run_sweep


@pytest.fixture(scope="module")
def comparison():
    return compare_schedulers(
        radix=8, layers=2, channels=2, load=0.3, seed=1,
        warmup_cycles=40, measure_cycles=200,
        schedulers=("clrg", "islip1", "islip2", "mwm"),
        traffic=("uniform", "transpose"),
    )


class TestCompareSchedulers:
    def test_schema_validates_and_is_strict_json(self, comparison):
        validate_comparison(comparison)
        assert comparison["schema"] == SCHEDULERS_SCHEMA
        assert json.loads(json.dumps(comparison)) == comparison

    def test_matrix_covers_every_cell_with_invariants(self, comparison):
        for pattern in comparison["traffic"]:
            for name in comparison["schedulers"]:
                cell = comparison["matrix"][pattern][name]
                assert cell["invariant_cycles_checked"] > 0
                assert cell["invariant_violations"] == 0
                assert cell["throughput_packets_per_cycle"] >= 0.0

    def test_saturation_section_present(self, comparison):
        rates = comparison["saturation"]["throughput_packets_per_cycle"]
        assert set(rates) == set(comparison["schedulers"])
        assert all(rate > 0.0 for rate in rates.values())

    def test_markdown_renders_one_table_per_pattern(self, comparison):
        markdown = render_markdown(comparison)
        for pattern in comparison["traffic"]:
            assert f"## {pattern}" in markdown
        for name in comparison["schedulers"]:
            assert f"| {name} " in markdown
        assert "## saturation" in markdown

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            compare_schedulers(
                radix=8, measure_cycles=10, schedulers=("nope",),
            )

    def test_validation_rejects_mutations(self, comparison):
        broken = dict(comparison, schema="repro.schedulers/v0")
        with pytest.raises(ValueError, match="schema"):
            validate_comparison(broken)
        missing = {
            key: value for key, value in comparison.items()
            if key != "saturation"
        }
        with pytest.raises(ValueError, match="saturation"):
            validate_comparison(missing)

    def test_every_spec_names_a_buildable_config(self):
        from dataclasses import replace

        base = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
        for overrides in SCHEDULER_SPECS.values():
            replace(base, **overrides)

    def test_traffic_zoo_names_resolve(self):
        for pattern in ("uniform", "hotspot", "bursty", "transpose",
                        "bit_complement", "bit_reverse", "shuffle"):
            source = build_traffic(pattern, 8, 0.2, 4, 1)
            assert sum(1 for _ in source.packets_for_cycle(0)) >= 0
        with pytest.raises(ValueError, match="unknown traffic"):
            build_traffic("nope", 8, 0.2, 4, 1)


#: Per-cell results of the pinned radix-64 comparison below, recorded
#: with the original (unoptimised) Hungarian solve and iSLIP match.  The
#: matchers must reproduce them exactly; any drift means a matching
#: changed.
PINNED_RADIX64 = {
    "clrg": (200, 34.041666666666664, 11.49, 25.0, 0.9191176470588235),
    "islip1": (228, 37.916666666666664, 10.644736842105264, 28.0,
               0.9511124121779859),
    "islip4": (230, 38.416666666666664, 10.61304347826087, 27.0,
               0.9544601616628176),
    "mwm": (225, 38.25, 11.124444444444444, 23.0, 0.9273336752637749),
}
PINNED_RADIX64_PER_INPUT_SHA256 = (
    "4156e4a4d5944bcfb548353e035ed28fb337886ff3f323615f7e4964965ef2d9"
)


def test_pinned_radix64_comparison():
    import hashlib

    comparison = compare_schedulers(
        radix=64, layers=4, channels=4, load=0.3, seed=7,
        warmup_cycles=8, measure_cycles=24,
        schedulers=tuple(PINNED_RADIX64), traffic=("uniform",),
        invariants=True, saturation=False,
    )
    row = comparison["matrix"]["uniform"]
    for name, expected in PINNED_RADIX64.items():
        cell = row[name]
        assert cell["invariant_cycles_checked"] == 32
        assert (
            cell["packets_ejected"],
            cell["throughput_flits_per_cycle"],
            cell["avg_latency_cycles"],
            cell["p99_latency_cycles"],
            cell["jain"],
        ) == expected, name
    per_input = json.dumps(
        {name: cell["per_input_ejected"] for name, cell in row.items()},
        sort_keys=True,
    )
    assert (hashlib.sha256(per_input.encode()).hexdigest()
            == PINNED_RADIX64_PER_INPUT_SHA256)


class TestVOQSweepRouting:
    def test_run_sweep_crosses_voq_and_paper_schemes(self):
        # The arbitration axis routes each point through make_switch:
        # VOQ schemes on the scalar VOQ kernel, CLRG on Hi-Rise.
        measurement = SimulationMeasurement(
            config=HiRiseConfig(
                radix=8, layers=2, channel_multiplicity=2,
            ),
            metric="throughput", load=0.9,
            warmup_cycles=10, measure_cycles=80,
        )
        points = run_sweep(
            measurement,
            parameter_grid(arbitration=["clrg", "islip", "mwm"]),
        )
        assert len(points) == 3
        assert all(point.value > 0.0 for point in points)

    def test_voq_points_replicate_deterministically(self):
        measurement = SimulationMeasurement(
            config=HiRiseConfig(
                radix=8, layers=2, channel_multiplicity=2,
                arbitration="islip", islip_iterations=2,
            ),
            metric="throughput", load=0.8,
            warmup_cycles=10, measure_cycles=60,
        )
        first = run_sweep(measurement, [{}], replications=3)
        second = run_sweep(measurement, [{}], replications=3)
        assert first[0].value == second[0].value
        assert first[0].interval == second[0].interval
