"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``cost``     — implementation cost of a design point (Tables I/IV/V
  columns) from the calibrated 32 nm model;
* ``simulate`` — run a traffic pattern through a cycle-accurate switch and
  report latency/throughput;
* ``table``    — regenerate a paper table (1, 4, 5 or 6);
* ``figure``   — regenerate a paper figure's data series (9a, 9b, 9c, 10,
  11a, 11b, 11c, 12), optionally exporting CSV;
* ``trace``    — run a traced simulation (binary columnar capture by
  default) and export the cycle-level event trace (binary
  ``repro.trace_bin/v1``, JSONL and/or Chrome ``trace_event``
  timeline); ``--inspect`` filters/summarises an existing JSONL trace,
  ``--convert`` exports views of an existing binary trace;
* ``audit``    — stream a trace (JSONL or binary, sniffed by magic)
  through the fairness/starvation audit analyzer and emit JSON +
  markdown reports, optionally diffing against a baseline summary
  (non-zero exit on regression);
* ``stats``    — run a probed simulation and dump the gem5-style
  statistics registry (text, JSON, or Prometheus text exposition);
* ``perf``     — micro-benchmark the simulator itself, append results
  to an append-only cross-run ledger (``repro.perf/v1`` JSONL), show
  history, print a per-phase wall-time breakdown, and gate against a
  baseline ledger with direction-aware regression checks (non-zero
  exit on regression);
* ``faults``   — run a fault schedule (loaded from JSON or freshly
  generated) through a degraded-mode simulation, report per-phase
  throughput/latency/reachability, and optionally verify that both
  kernels stay bit-identical under the schedule.

Every command prints paper-vs-measured where the paper publishes a value.
"""

import argparse
import os
import sys
from typing import List, Optional

from repro.core import HiRiseConfig, HiRiseSwitch
from repro.network.engine import Simulation
from repro.physical import cost_of
from repro.switches import FoldedSwitch3D, SwizzleSwitch2D
from repro.traffic import HotspotTraffic, UniformRandomTraffic


def _build_design(args):
    if args.design == "2d":
        return "2d"
    if args.design == "folded":
        return "folded"
    return HiRiseConfig(
        radix=args.radix,
        layers=args.layers,
        channel_multiplicity=args.channels,
        arbitration=args.arbitration,
        islip_iterations=getattr(args, "islip_iterations", 1),
    )


def _build_switch(args):
    from repro.switches import make_switch

    if args.design == "2d":
        return SwizzleSwitch2D(args.radix)
    if args.design == "folded":
        return FoldedSwitch3D(args.radix, args.layers)
    return make_switch(_build_design(args))


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", choices=["hirise", "2d", "folded"],
                        default="hirise")
    parser.add_argument("--radix", type=int, default=64)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--channels", type=int, default=4)
    parser.add_argument(
        "--arbitration",
        choices=["clrg", "l2l_lrg", "wlrg", "l2l_rr", "age",
                 "islip", "mwm"],
        default="clrg",
    )
    parser.add_argument(
        "--islip-iterations", type=int, default=1,
        help="request/grant/accept rounds per cycle (islip only)",
    )


def cmd_cost(args) -> int:
    design = _build_design(args)
    cost = cost_of(design, radix=args.radix, layers=args.layers)
    print(f"{cost.name}")
    print(f"  area      : {cost.area_mm2:.3f} mm^2")
    print(f"  frequency : {cost.frequency_ghz:.2f} GHz")
    print(f"  energy    : {cost.energy_pj:.1f} pJ / 128-bit transaction")
    print(f"  TSVs      : {cost.tsv_count}")
    return 0


def _build_traffic(args):
    if args.traffic == "uniform":
        return UniformRandomTraffic(args.radix, args.load, seed=args.seed)
    return HotspotTraffic(
        args.radix, args.load, hotspot_output=args.radix - 1,
        seed=args.seed,
    )


def cmd_simulate(args) -> int:
    switch = _build_switch(args)
    traffic = _build_traffic(args)
    sim = Simulation(switch, traffic, warmup_cycles=args.warmup)
    result = sim.run(args.cycles, drain=args.drain)
    print(f"simulated {args.cycles} cycles at load "
          f"{args.load} packets/input/cycle ({args.traffic})")
    print(f"  delivered  : {result.packets_ejected} packets")
    print(f"  latency    : {result.avg_latency_cycles:.1f} cycles (mean)")
    print(f"  throughput : {result.throughput_packets_per_cycle:.3f} "
          f"packets/cycle")
    return 0


def cmd_compare_schedulers(args) -> int:
    import json

    from repro.harness.schedulers import (
        SCHEDULER_SPECS, compare_schedulers, render_markdown,
        validate_comparison,
    )

    for name in args.schedulers or ():
        if name not in SCHEDULER_SPECS:
            print(f"compare-schedulers: unknown scheduler {name!r} "
                  f"(one of {', '.join(SCHEDULER_SPECS)})",
                  file=sys.stderr)
            return 2
    try:
        comparison = compare_schedulers(
            radix=args.radix,
            layers=args.layers,
            channels=args.channels,
            load=args.load,
            packet_flits=args.packet_flits,
            seed=args.seed,
            warmup_cycles=args.warmup,
            measure_cycles=args.cycles,
            schedulers=args.schedulers or None,
            traffic=args.traffic or None,
            invariants=not args.no_invariants,
            saturation=not args.no_saturation,
        )
    except ValueError as error:
        print(f"compare-schedulers: {error}", file=sys.stderr)
        return 2
    validate_comparison(comparison)
    markdown = render_markdown(comparison)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(comparison, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote comparison JSON to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote comparison markdown to {args.markdown}")
    print(markdown)
    return 0


def cmd_table(args) -> int:
    from repro.harness import render_table, table1, table4, table5, table6

    scale = 0.4 if args.fast else 1.0
    if args.which == "6":
        rows = table6(network_cycles_baseline=int(8000 * scale))
        print(render_table(rows, "Table VI: application speedup"))
    else:
        builder = {"1": table1, "4": table4, "5": table5}[args.which]
        rows = builder(
            warmup_cycles=int(500 * scale), measure_cycles=int(2500 * scale)
        )
        print(render_table(rows, f"Table {args.which}"))
    if args.csv:
        from repro.harness.export import export_rows_csv

        path = export_rows_csv(rows, args.csv)
        print(f"\nwrote {path}")
    return 0


def cmd_figure(args) -> int:
    from repro.harness import (
        fig9a_frequency_vs_radix,
        fig9b_frequency_vs_layers,
        fig9c_energy_vs_radix,
        fig10_latency_vs_load,
        fig11a_hotspot_latency,
        fig11b_arbitration_throughput,
        fig11c_adversarial_throughput,
        fig12_tsv_pitch,
        render_series,
    )

    scale = 0.4 if args.fast else 1.0
    sim_kwargs = dict(
        warmup_cycles=int(500 * scale), measure_cycles=int(2500 * scale)
    )
    heavy_kwargs = dict(
        warmup_cycles=int(2000 * scale), measure_cycles=int(20000 * scale)
    )
    if args.which == "9a":
        series, columns = fig9a_frequency_vs_radix(), ["radix", "GHz"]
    elif args.which == "9b":
        series, columns = fig9b_frequency_vs_layers(), ["layers", "GHz"]
    elif args.which == "9c":
        series, columns = fig9c_energy_vs_radix(), ["radix", "pJ"]
    elif args.which == "10":
        series = fig10_latency_vs_load(**sim_kwargs)
        columns = ["pkts/in/ns", "latency ns", "accepted pkts/ns"]
    elif args.which == "11a":
        latencies = fig11a_hotspot_latency(**heavy_kwargs)
        series = {
            name: list(enumerate(values))
            for name, values in latencies.items()
        }
        columns = ["input", "latency cycles"]
    elif args.which == "11b":
        series = fig11b_arbitration_throughput(**sim_kwargs)
        columns = ["pkts/in/ns", "pkts/ns"]
    elif args.which == "11c":
        throughputs = fig11c_adversarial_throughput(**heavy_kwargs)
        series = {
            name: sorted(values.items())
            for name, values in throughputs.items()
        }
        columns = ["input", "pkts/ns"]
    else:
        series = {"Hi-Rise 4-ch 4-layer": fig12_tsv_pitch()}
        columns = ["pitch um", "GHz", "mm2"]
    print(render_series(series, f"Fig {args.which}", columns))
    if args.csv:
        from repro.harness.export import export_series_csv

        path = export_series_csv(series, args.csv, columns)
        print(f"\nwrote {path}")
    return 0


def _print_trace_summary(summary, rate=None, stride=None,
                         dropped=None) -> None:
    from repro.obs import resource_label

    meta = summary["meta"]
    print(f"{summary['events']} events")
    if rate is not None:
        print(f"  rate: {rate:,.0f} events/sec")
    if stride is not None or dropped is not None:
        print(f"  decimation: stride {stride if stride is not None else 1}, "
              f"{dropped or 0} events dropped")
    for name in sorted(summary["counts_by_kind"]):
        print(f"  {name:<12} {summary['counts_by_kind'][name]}")
    radix = meta.get("radix", 0)
    layers = meta.get("layers", 0)
    cmult = meta.get("channel_multiplicity", 0)
    resources = summary["resources"]
    if resources:
        print("per-resource totals (grants / busy cycles):")
        for rid in sorted(resources):
            entry = resources[rid]
            label = resource_label(rid, radix, layers, cmult)
            print(f"  {label:<14} {entry['grants']:>8} {entry['busy_cycles']:>8}")
    ports = summary["ports"]
    if ports:
        print("per-port totals (packets injected / flits ejected):")
        for port in sorted(ports):
            entry = ports[port]
            print(f"  port {port:<3} {entry['injected']:>8} {entry['ejected']:>8}")


def _inspect_trace(args) -> int:
    import json

    from repro.obs import filter_records, iter_jsonl, summarize_records

    try:
        records = filter_records(
            iter_jsonl(args.inspect),
            kinds=args.kind or None,
            ports=args.port or None,
        )
        if args.summary:
            import time

            start = time.perf_counter()
            summary = summarize_records(records)
            elapsed = time.perf_counter() - start
            meta = summary["meta"]
            _print_trace_summary(
                summary,
                rate=summary["events"] / elapsed if elapsed > 0 else None,
                stride=meta.get("stride"),
                dropped=meta.get("dropped"),
            )
        elif args.jsonl:
            count = -1  # don't count the meta record
            with open(args.jsonl, "w", encoding="utf-8") as handle:
                for count, record in enumerate(records):
                    handle.write(json.dumps(record) + "\n")
            print(f"wrote {count + 1} records to {args.jsonl}")
        else:
            for record in records:
                print(json.dumps(record))
    except (OSError, ValueError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    return 0


def _convert_trace(args) -> int:
    """Export views (--jsonl/--chrome/--summary) of a binary trace."""
    import json
    import time

    from repro.obs import (
        filter_records, read_tracebin, summarize_records,
        validate_chrome_path, validate_jsonl_path,
    )

    try:
        columns = read_tracebin(args.convert)
    except (OSError, ValueError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    if args.lane is not None:
        if columns.lane is None:
            print("trace: scalar trace has no lane column",
                  file=sys.stderr)
            return 2
        columns = columns.for_lane(args.lane)
    elif columns.lane is not None:
        print(f"trace: fleet trace with lanes {columns.lanes()}; "
              f"pick one with --lane", file=sys.stderr)
        return 2
    if columns.truncated:
        print("trace: warning: torn trace file, recovered "
              f"{len(columns)} events", file=sys.stderr)
    print(f"loaded {len(columns)} events from {args.convert} "
          f"(stride {columns.stride}, {columns.dropped} dropped)")
    try:
        if args.summary:
            records = filter_records(
                columns.records(), kinds=args.kind or None,
                ports=args.port or None,
            )
            start = time.perf_counter()
            summary = summarize_records(records)
            elapsed = time.perf_counter() - start
            _print_trace_summary(
                summary,
                rate=summary["events"] / elapsed if elapsed > 0 else None,
                stride=columns.stride, dropped=columns.dropped,
            )
        filtered = args.kind or args.port
        if args.jsonl:
            if filtered:
                records = filter_records(
                    columns.records(), kinds=args.kind or None,
                    ports=args.port or None,
                )
                count = -1
                with open(args.jsonl, "w", encoding="utf-8") as handle:
                    for count, record in enumerate(records):
                        handle.write(json.dumps(record) + "\n")
                written = count + 1
            else:
                written = columns.write_jsonl(args.jsonl)
            if args.validate:
                validate_jsonl_path(args.jsonl)
            print(f"wrote {written} records to {args.jsonl}")
        if args.chrome:
            events = columns.write_chrome(args.chrome)
            if args.validate:
                validate_chrome_path(args.chrome)
            print(f"wrote {events} trace events to {args.chrome}")
    except (OSError, ValueError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_trace(args) -> int:
    import time

    from repro.obs import (
        SwitchTracer, filter_records, summarize_records,
        validate_chrome_path, validate_jsonl_path,
    )

    if args.inspect:
        return _inspect_trace(args)
    if args.convert:
        return _convert_trace(args)
    if args.design != "hirise":
        print("trace: cycle-level tracing needs the hirise design",
              file=sys.stderr)
        return 2
    tracer = None
    if args.tracer == "binary":
        try:
            from repro.obs import BinaryTracer

            tracer = (
                BinaryTracer(capacity=args.capacity)
                if args.capacity is not None else BinaryTracer()
            )
        except RuntimeError:
            tracer = None  # no numpy: fall back to the row capture
    if tracer is None:
        if args.binary:
            print("trace: --binary needs the binary tracer "
                  "(numpy and --tracer binary)", file=sys.stderr)
            return 2
        tracer = (
            SwitchTracer(capacity=args.capacity)
            if args.capacity is not None else SwitchTracer()
        )
    config = _build_design(args)
    if args.kernel == "reference":
        from repro.core.reference import ReferenceHiRiseSwitch

        switch = ReferenceHiRiseSwitch(config, tracer=tracer)
    else:
        switch = HiRiseSwitch(config, tracer=tracer)
    sim = Simulation(switch, _build_traffic(args), warmup_cycles=args.warmup)
    start = time.perf_counter()
    result = sim.run(args.cycles, drain=args.drain)
    elapsed = time.perf_counter() - start
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"traced {args.cycles} cycles ({args.traffic}, load {args.load}): "
          f"{len(tracer.events)} events{dropped}, "
          f"{result.packets_ejected} packets delivered")
    counts = tracer.counts_by_kind()
    for name in sorted(counts):
        print(f"  {name:<12} {counts[name]}")
    halvings = tracer.halving_events()
    if halvings:
        print(f"  CLRG halvings: {len(halvings)} "
              f"(first at cycle {halvings[0][0]})")
    filtered = args.kind or args.port
    if args.summary:
        records = filter_records(
            tracer.records(), kinds=args.kind or None,
            ports=args.port or None,
        )
        _print_trace_summary(
            summarize_records(records),
            rate=len(tracer.events) / elapsed if elapsed > 0 else None,
            stride=getattr(tracer, "stride", 1),
            dropped=tracer.dropped,
        )
    if args.binary:
        written = tracer.save(args.binary)
        print(f"wrote {written} events to {args.binary} "
              f"(repro.trace_bin/v1)")
    if args.jsonl:
        if filtered:
            import json

            records = filter_records(
                tracer.records(), kinds=args.kind or None,
                ports=args.port or None,
            )
            count = -1
            with open(args.jsonl, "w", encoding="utf-8") as handle:
                for count, record in enumerate(records):
                    handle.write(json.dumps(record) + "\n")
            records_written = count + 1
        else:
            records_written = tracer.write_jsonl(args.jsonl)
        if args.validate:
            validate_jsonl_path(args.jsonl)
        print(f"wrote {records_written} records to {args.jsonl}")
    if args.chrome:
        events = tracer.write_chrome(args.chrome)
        if args.validate:
            validate_chrome_path(args.chrome)
        print(f"wrote {events} trace events to {args.chrome}")
    return 0


def cmd_audit(args) -> int:
    import json

    from repro.harness.report import render_audit_markdown
    from repro.obs import (
        StatsRegistry, analyze_columns, analyze_jsonl, compare_audits,
        read_tracebin, sniff_tracebin, validate_audit_summary,
    )

    options = dict(
        window=args.window,
        fairness_threshold=args.fairness_threshold,
        max_min_threshold=args.max_min_threshold,
        starvation_gap=args.starvation_gap,
    )
    try:
        if sniff_tracebin(args.trace):
            columns = read_tracebin(args.trace)
            if args.lane is not None:
                columns = columns.for_lane(args.lane)
            report = analyze_columns(columns, **options)
        elif args.lane is not None:
            print("audit: --lane needs a binary fleet trace",
                  file=sys.stderr)
            return 2
        else:
            report = analyze_jsonl(args.trace, **options)
    except (OSError, ValueError) as error:
        print(f"audit: {error}", file=sys.stderr)
        return 2
    summary = validate_audit_summary(report.summary())

    regressions = None
    if args.against:
        try:
            with open(args.against, "r", encoding="utf-8") as handle:
                baseline = validate_audit_summary(json.load(handle))
        except (OSError, ValueError) as error:
            print(f"audit: baseline: {error}", file=sys.stderr)
            return 2
        regressions = compare_audits(
            summary, baseline, rel_tol=args.rel_tol, abs_tol=args.abs_tol
        )

    fairness = summary["fairness"]
    starved = summary["starvation"]
    print(f"audited {summary['trace']['events']} events over "
          f"{summary['trace']['cycles']} cycles ({args.trace})")
    print(f"  throughput    : "
          f"{summary['traffic']['throughput_flits_per_cycle']:.4f} "
          f"flits/cycle")
    jain = fairness["jain"]
    jain_text = f"{jain:.4f}" if jain is not None else "n/a"
    maxmin = fairness["max_min"]
    maxmin_text = f"{maxmin:.3f}" if maxmin is not None else "inf"
    print(f"  fairness      : Jain {jain_text}, max/min {maxmin_text}, "
          f"{fairness['unfair_epochs']}/{fairness['epochs']} unfair epochs "
          f"(window {fairness['window']})")
    print(f"  starvation    : max gap {starved['max_gap_cycles']} cycles"
          + (f" (input {starved['max_gap_input']})"
             if starved["max_gap_input"] is not None else ""))
    print(f"  CLRG halvings : {summary['clrg']['halvings']}")
    print(f"  anomalies     : {summary['anomalies']['count']}")
    for item in summary["anomalies"]["items"][:10]:
        print(f"    [{item['kind']}] cycle {item['cycle']}")

    if args.stats or args.prometheus:
        registry = StatsRegistry()
        report.to_stats(registry)
        if args.stats:
            print(registry.dump())
        if args.prometheus:
            sys.stdout.write(registry.to_prometheus())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"wrote audit summary to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(render_audit_markdown(summary, regressions))
        print(f"wrote markdown report to {args.markdown}")
    if regressions is not None:
        if regressions:
            print(f"{len(regressions)} regression(s) vs {args.against}:",
                  file=sys.stderr)
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.against}")
    return 0


def cmd_faults(args) -> int:
    import json

    from repro.faults import (
        FaultSchedule, measure_degradation, verify_parity,
    )
    from repro.harness.report import render_degradation_markdown

    if args.design != "hirise":
        print("faults: fault injection needs the hirise design",
              file=sys.stderr)
        return 2
    config = _build_design(args)
    if args.generate is not None:
        schedule = FaultSchedule.random(
            config,
            seed=args.fault_seed,
            horizon=args.warmup + args.cycles,
            faults=args.generate,
            include_inputs=args.include_inputs,
            include_clrg=args.include_clrg,
        )
        print(f"generated {len(schedule)} fault events "
              f"(seed {args.fault_seed})")
    elif args.schedule:
        try:
            schedule = FaultSchedule.load(args.schedule)
        except (OSError, ValueError) as error:
            print(f"faults: {error}", file=sys.stderr)
            return 2
        print(f"loaded {len(schedule)} fault events from {args.schedule}")
    else:
        print("faults: give a schedule file or --generate N",
              file=sys.stderr)
        return 2
    if args.save:
        schedule.dump(args.save)
        print(f"wrote schedule to {args.save}")

    if args.parity:
        mismatches = verify_parity(
            config, schedule, load=args.load, seed=args.seed,
            measure_cycles=args.cycles, warmup_cycles=args.warmup,
        )
        if mismatches:
            print(f"faults: kernels diverged under the schedule:",
                  file=sys.stderr)
            for mismatch in mismatches:
                print(f"  {mismatch}", file=sys.stderr)
            return 1
        print("parity: fast and reference kernels bit-identical "
              "(results and trace streams)")

    report = measure_degradation(
        config, schedule, load=args.load, seed=args.seed,
        measure_cycles=args.cycles, warmup_cycles=args.warmup,
        kernel=args.kernel,
    )
    print(f"measured {report.total_cycles} cycles (uniform, load "
          f"{args.load}, {args.kernel} kernel): "
          f"{report.total_packets} packets delivered, "
          f"{report.overall_throughput:.4f} packets/cycle overall")
    print(f"  {'cycles':>13}  {'failed':>6}  {'stuck':>5}  "
          f"{'reach':>6}  {'pkts/cyc':>8}  {'latency':>8}")
    for phase in report.phases:
        print(f"  {phase.start_cycle:>5}-{phase.end_cycle:<7} "
              f"{phase.failed_channels:>6}  {phase.stuck_inputs:>5}  "
              f"{phase.reachable_fraction:>6.3f}  {phase.throughput:>8.4f}  "
              f"{phase.avg_latency:>8.1f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote degradation report to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(render_degradation_markdown(report.to_dict()))
        print(f"wrote markdown report to {args.markdown}")
    return 0


def cmd_check(args) -> int:
    from repro.check import replay_repro, run_fuzz

    if args.replay:
        failures = 0
        for path in args.replay:
            try:
                result = replay_repro(
                    path, invariants=not args.no_invariants,
                    fleet_lanes=args.fleet if args.fleet else None,
                )
            except (OSError, ValueError) as error:
                print(f"check: {error}", file=sys.stderr)
                return 2
            verdict = "reproduced" if result.matches else "DIVERGED"
            print(f"{path}: recorded {result.expected_status!r}, "
                  f"replayed {result.outcome.status!r} -> {verdict}")
            if result.outcome.detail and not result.matches:
                print(f"  {result.outcome.detail}", file=sys.stderr)
            if not result.matches:
                failures += 1
        return 1 if failures else 0

    if not args.fuzz:
        print("check: give --fuzz or --replay FILE", file=sys.stderr)
        return 2
    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        max_radix=args.max_radix,
        out_dir=args.out_dir,
        invariants=not args.no_invariants,
        minimize=not args.no_minimize,
        log=print if args.verbose else None,
        fleet_lanes=args.fleet,
    )
    print(f"fuzz seed {report.seed}: {report.cases_run} cases, "
          f"{report.ok} ok, {len(report.failures)} failing")
    for failure in report.failures:
        print(f"  {failure.original.case_id}: {failure.outcome.status} "
              f"({failure.outcome.detail})", file=sys.stderr)
        if failure.shrink_history:
            print(f"    shrunk in {len(failure.shrink_history)} steps to "
                  f"{failure.minimized.case_id}", file=sys.stderr)
        if failure.repro_path:
            print(f"    repro: {failure.repro_path}", file=sys.stderr)
    return 1 if report.failures else 0


def cmd_stats(args) -> int:
    import json

    from repro.metrics.probe import ProbedSwitch
    from repro.obs import StatsRegistry

    switch = ProbedSwitch(_build_switch(args))
    sim = Simulation(switch, _build_traffic(args), warmup_cycles=args.warmup)
    result = sim.run(args.cycles, drain=args.drain)
    registry = StatsRegistry()
    result.to_stats(registry, num_ports=args.radix)
    switch.to_stats(registry)
    if args.json:
        print(json.dumps(registry.to_dict(), indent=2, default=str))
    elif args.prometheus:
        sys.stdout.write(registry.to_prometheus())
    else:
        print(registry.dump())
    return 0


def cmd_perf(args) -> int:
    from repro.obs.perf import (
        PerfCounters, append_ledger_entry, compare_perf, config_fingerprint,
        filter_entries, make_ledger_entry, read_ledger, run_micro_benchmark,
    )

    if args.design != "hirise":
        print("perf: the micro benchmark needs the hirise design",
              file=sys.stderr)
        return 2
    config = _build_design(args)
    fingerprint = config_fingerprint(config)
    workload = args.workload or (
        f"uniform_{config.radix}x{config.layers}_c"
        f"{config.channel_multiplicity}_l{args.load:g}_{args.cycles}c"
    )

    if not args.record and not args.ledger:
        print("perf: give --record (run the benchmark) and/or "
              "--ledger FILE (read history)", file=sys.stderr)
        return 2

    # Read histories BEFORE recording, so `--record --against <the same
    # ledger>` compares the new run against the previous entry.
    try:
        history = (
            filter_entries(read_ledger(args.ledger), fingerprint, workload)
            if args.ledger else []
        )
        baseline_entries = (
            filter_entries(read_ledger(args.against), fingerprint, workload)
            if args.against else []
        )
    except ValueError as error:
        print(f"perf: {error}", file=sys.stderr)
        return 2

    if args.record:
        metrics, details = run_micro_benchmark(
            config, cycles=args.cycles, trials=args.trials,
            load=args.load, traffic_seed=args.seed,
        )
        current = make_ledger_entry(config, workload, metrics)
        print(f"measured {workload} (fingerprint {fingerprint}, "
              f"best of {details['trials']} trials)")
        print(f"  cycles/sec : {metrics['cycles_per_sec']:.0f}")
        print(f"  normalized : {metrics['normalized']:.6g} "
              f"(vs {metrics['calibration_ops_per_sec']:.3g} "
              f"calibration ops/s)")
        if args.ledger:
            append_ledger_entry(args.ledger, current)
            print(f"recorded entry #{len(history) + 1} to {args.ledger}")
    else:
        if not history:
            print(f"perf: no entries matching fingerprint {fingerprint} / "
                  f"workload {workload!r} in {args.ledger}", file=sys.stderr)
            return 2
        current = history[-1]
        if args.against and os.path.realpath(args.against) == \
                os.path.realpath(args.ledger):
            # Current came from this very file: judge its predecessor.
            baseline_entries = baseline_entries[:-1]

    if args.history:
        shown = history[-args.history:]
        print(f"history ({len(shown)} of {len(history)} matching entries):")
        for entry in shown:
            metrics = entry.get("metrics", {})
            cps = metrics.get("cycles_per_sec")
            norm = metrics.get("normalized")
            cps_text = f"{cps:.0f}" if isinstance(cps, float) else "n/a"
            norm_text = f"{norm:.6g}" if isinstance(norm, float) else "n/a"
            print(f"  {entry.get('recorded', '?'):25s} "
                  f"{cps_text:>12s} cycles/s  normalized {norm_text}")

    if args.phases:
        perf = PerfCounters(stride=args.stride)
        run_micro_benchmark(
            config, cycles=args.cycles, trials=1,
            load=args.load, traffic_seed=args.seed, perf=perf,
        )
        fractions = perf.phase_fractions()
        print(f"phase breakdown ({perf.cycles_sampled}/{perf.cycles_total} "
              f"cycles sampled at stride {perf.stride}):")
        for phase, frac in fractions.items():
            ops = perf.ops.get(phase, 0)
            ops_text = f"  ({ops} ops)" if ops else ""
            print(f"  {phase:12s} {frac:7.1%}{ops_text}")

    if args.against:
        if not baseline_entries:
            print(f"perf: no baseline entries matching fingerprint "
                  f"{fingerprint} / workload {workload!r} in {args.against}",
                  file=sys.stderr)
            return 2
        baseline = baseline_entries[-1]
        try:
            regressions = compare_perf(
                current, baseline, rel_tol=args.rel_tol
            )
        except ValueError as error:
            print(f"perf: {error}", file=sys.stderr)
            return 2
        if regressions:
            print(f"{len(regressions)} perf regression(s) vs "
                  f"{args.against} ({baseline.get('recorded', '?')}):",
                  file=sys.stderr)
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            return 1
        print(f"no perf regressions vs {args.against} "
              f"({baseline.get('recorded', '?')}, "
              f"rel tol {args.rel_tol:.0%})")
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--traffic", choices=["uniform", "hotspot"],
                        default="uniform")
    parser.add_argument("--load", type=float, default=0.08)
    parser.add_argument("--cycles", type=int, default=4000)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--drain", action="store_true",
                        help="cycle until the switch is empty afterwards")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hi-Rise (MICRO 2014) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cost = commands.add_parser("cost", help="implementation cost of a design")
    _add_design_arguments(cost)
    cost.set_defaults(handler=cmd_cost)

    simulate = commands.add_parser("simulate", help="cycle-accurate run")
    _add_design_arguments(simulate)
    _add_run_arguments(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    compare = commands.add_parser(
        "compare-schedulers",
        help="CLRG vs LRG vs iSLIP(k) vs MWM comparison matrix",
    )
    compare.add_argument("--radix", type=int, default=16)
    compare.add_argument("--layers", type=int, default=2)
    compare.add_argument("--channels", type=int, default=2)
    compare.add_argument("--load", type=float, default=0.3)
    compare.add_argument("--packet-flits", type=int, default=4)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--warmup", type=int, default=300)
    compare.add_argument("--cycles", type=int, default=2000)
    compare.add_argument(
        "--scheduler", dest="schedulers", action="append", default=[],
        metavar="NAME",
        help="include only this scheduler (repeatable; default: all)",
    )
    compare.add_argument(
        "--traffic", action="append", default=[], metavar="PATTERN",
        help="include only this traffic pattern (repeatable; default: "
             "uniform, hotspot, transpose)",
    )
    compare.add_argument("--json", metavar="PATH",
                         help="write the repro.schedulers/v1 JSON here")
    compare.add_argument("--markdown", metavar="PATH",
                         help="write the markdown report here")
    compare.add_argument("--no-invariants", action="store_true",
                         help="skip the per-cycle matching checker")
    compare.add_argument("--no-saturation", action="store_true",
                         help="skip the overdriven saturation sweep")
    compare.set_defaults(handler=cmd_compare_schedulers)

    trace = commands.add_parser(
        "trace", help="traced run exporting cycle-level events"
    )
    _add_design_arguments(trace)
    _add_run_arguments(trace)
    trace.add_argument("--kernel", choices=["fast", "reference"],
                       default="fast")
    trace.add_argument("--capacity", type=int, default=None,
                       help="event-buffer capacity (default 2^20)")
    trace.add_argument("--tracer", choices=["binary", "jsonl"],
                       default="binary",
                       help="capture buffer: binary columnar (default; "
                            "falls back to jsonl without numpy) or the "
                            "legacy row capture")
    trace.add_argument("--binary", metavar="TRACEBIN",
                       help="write the repro.trace_bin/v1 columnar "
                            "trace here")
    trace.add_argument("--jsonl", help="write the JSONL trace here")
    trace.add_argument("--chrome", help="write the Chrome trace here")
    trace.add_argument("--validate", action="store_true",
                       help="validate written traces against the schema")
    trace.add_argument("--inspect", metavar="JSONL",
                       help="filter/summarise an existing JSONL trace "
                            "instead of running a simulation")
    trace.add_argument("--convert", metavar="TRACEBIN",
                       help="export views (--jsonl/--chrome/--summary) of "
                            "an existing binary trace instead of running "
                            "a simulation")
    trace.add_argument("--lane", type=int, default=None,
                       help="with --convert on a fleet trace: select "
                            "this lane's stream")
    trace.add_argument("--kind", action="append", default=[],
                       help="keep only this event kind (repeatable)")
    trace.add_argument("--port", action="append", type=int, default=[],
                       help="keep only events touching this port "
                            "(repeatable; matches src/dst/input/output)")
    trace.add_argument("--summary", action="store_true",
                       help="print event counts by kind and per-resource/"
                            "per-port totals")
    trace.set_defaults(handler=cmd_trace)

    audit = commands.add_parser(
        "audit", help="fairness/starvation audit of a JSONL trace"
    )
    audit.add_argument("trace",
                       help="trace file to audit (JSONL or "
                            "repro.trace_bin/v1, sniffed by magic)")
    audit.add_argument("--lane", type=int, default=None,
                       help="audit this lane of a binary fleet trace")
    audit.add_argument("--window", type=int, default=256,
                       help="fairness-epoch length in cycles")
    audit.add_argument("--fairness-threshold", type=float, default=0.85,
                       help="epoch Jain index below this is unfair")
    audit.add_argument("--max-min-threshold", type=float, default=2.0,
                       help="epoch max/min service ratio above this is unfair")
    audit.add_argument("--starvation-gap", type=int, default=None,
                       help="grant gap (cycles) flagged as starvation "
                            "(default 4x window)")
    audit.add_argument("--json", help="write the audit summary JSON here")
    audit.add_argument("--markdown", help="write the markdown report here")
    audit.add_argument("--stats", action="store_true",
                       help="also dump the audit stats registry")
    audit.add_argument("--prometheus", action="store_true",
                       help="also emit the audit stats registry in "
                            "Prometheus text exposition format")
    audit.add_argument("--against", metavar="BASELINE",
                       help="compare against a baseline audit summary JSON; "
                            "exit 1 on regression")
    audit.add_argument("--rel-tol", type=float, default=0.05,
                       help="relative tolerance for baseline comparison")
    audit.add_argument("--abs-tol", type=float, default=0.0,
                       help="absolute tolerance for baseline comparison")
    audit.set_defaults(handler=cmd_audit)

    faults = commands.add_parser(
        "faults", help="degraded-mode run under a fault schedule"
    )
    faults.add_argument("schedule", nargs="?", default=None,
                        help="fault schedule JSON (omit with --generate)")
    _add_design_arguments(faults)
    _add_run_arguments(faults)
    faults.add_argument("--kernel", choices=["fast", "reference"],
                        default="fast")
    faults.add_argument("--generate", type=int, metavar="N", default=None,
                        help="generate a random N-fault schedule instead "
                             "of loading one")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed for --generate")
    faults.add_argument("--include-inputs", action="store_true",
                        help="let --generate produce stuck-input faults")
    faults.add_argument("--include-clrg", action="store_true",
                        help="let --generate produce CLRG corruptions")
    faults.add_argument("--save", help="write the schedule JSON here")
    faults.add_argument("--parity", action="store_true",
                        help="verify fast/reference kernels stay "
                             "bit-identical under the schedule; exit 1 "
                             "on divergence")
    faults.add_argument("--json", help="write the degradation report "
                                       "JSON here")
    faults.add_argument("--markdown", help="write the markdown report here")
    faults.set_defaults(handler=cmd_faults)

    check = commands.add_parser(
        "check",
        help="differential fuzzing with runtime invariants "
             "(repro.check); replay repro files",
    )
    check.add_argument("--fuzz", action="store_true",
                       help="run a seeded fuzz campaign (fast vs "
                            "reference, invariants on)")
    check.add_argument("--seed", type=int, default=0,
                       help="fuzz campaign seed (same seed, same cases)")
    check.add_argument("--cases", type=int, default=20,
                       help="number of generated cases")
    check.add_argument("--max-radix", type=int, default=16,
                       help="largest generated switch radix")
    check.add_argument("--out-dir", default=None,
                       help="write repro JSON files for failures here")
    check.add_argument("--replay", nargs="+", metavar="FILE", default=None,
                       help="re-run repro.check/v1 files; exit 1 if any "
                            "no longer reproduces its recorded outcome")
    check.add_argument("--fleet", type=int, nargs="?", const=3, default=0,
                       metavar="LANES",
                       help="also run every case through the batched "
                            "fleet kernel with LANES lanes (default 3) "
                            "and compare each lane bit-for-bit against "
                            "a scalar run; replay honours the lane "
                            "count recorded in the repro file")
    check.add_argument("--no-minimize", action="store_true",
                       help="skip shrinking failing cases")
    check.add_argument("--no-invariants", action="store_true",
                       help="differential-only runs (no per-cycle checks)")
    check.add_argument("--verbose", action="store_true",
                       help="log every case as it runs")
    check.set_defaults(handler=cmd_check)

    stats = commands.add_parser(
        "stats", help="probed run dumping the statistics registry"
    )
    _add_design_arguments(stats)
    _add_run_arguments(stats)
    stats.add_argument("--json", action="store_true",
                       help="dump as JSON instead of aligned text")
    stats.add_argument("--prometheus", action="store_true",
                       help="dump in Prometheus text exposition format")
    stats.set_defaults(handler=cmd_stats)

    perf = commands.add_parser(
        "perf",
        help="micro-benchmark the simulator itself and keep a "
             "cross-run perf ledger",
    )
    _add_design_arguments(perf)
    perf.add_argument("--record", action="store_true",
                      help="run the micro benchmark now (otherwise the "
                           "latest matching --ledger entry is used)")
    perf.add_argument("--ledger", metavar="JSONL", default=None,
                      help="append-only repro.perf/v1 history; --record "
                           "appends to it, --history/--against read it")
    perf.add_argument("--history", type=int, nargs="?", const=10,
                      default=None, metavar="N",
                      help="show the last N matching ledger entries "
                           "(default 10)")
    perf.add_argument("--against", metavar="LEDGER",
                      help="compare against the latest matching entry of "
                           "this ledger; exit 1 on regression (with the "
                           "same file, compares consecutive entries)")
    perf.add_argument("--rel-tol", type=float, default=0.2,
                      help="relative tolerance for --against (default "
                           "0.2; wall-clock is noisy)")
    perf.add_argument("--cycles", type=int, default=2000,
                      help="benchmark length in cycles")
    perf.add_argument("--trials", type=int, default=2,
                      help="trials to run (best is kept)")
    perf.add_argument("--load", type=float, default=1.0,
                      help="offered load (default saturation)")
    perf.add_argument("--seed", type=int, default=7,
                      help="traffic seed")
    perf.add_argument("--workload", default=None,
                      help="override the workload label entries are "
                           "keyed by")
    perf.add_argument("--phases", action="store_true",
                      help="also run a profiled trial and print the "
                           "per-phase wall-time breakdown")
    perf.add_argument("--stride", type=int, default=16,
                      help="sampling stride for --phases")
    perf.set_defaults(handler=cmd_perf)

    table = commands.add_parser("table", help="regenerate a paper table")
    table.add_argument("which", choices=["1", "4", "5", "6"])
    table.add_argument("--fast", action="store_true",
                       help="reduced simulation length")
    table.add_argument("--csv", help="also export rows to this CSV path")
    table.set_defaults(handler=cmd_table)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "which",
        choices=["9a", "9b", "9c", "10", "11a", "11b", "11c", "12"],
    )
    figure.add_argument("--fast", action="store_true")
    figure.add_argument("--csv", help="also export series to this CSV path")
    figure.set_defaults(handler=cmd_figure)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
