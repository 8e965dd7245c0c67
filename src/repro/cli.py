"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile FILE``   — compile MiniJ source; print stats or disassembly.
* ``run FILE``       — compile and execute; print result, output, stats.
* ``profile FILE``   — instrument, sample, and report a profile plus its
  overhead against the uninstrumented baseline; also self-profiles the
  VM and emits an overhead decomposition with a collapsed-stack flame
  graph (docs/PROFILING.md).
* ``adaptive FILE``  — run the sampled-profile-driven optimizer lifecycle.
* ``workloads``      — list the benchmark suite, or run one member.
* ``tables``         — regenerate the paper's tables and figures
  (``--jobs N`` fans cells over worker processes; baselines persist
  in a disk cache across invocations).
* ``cache``          — inspect or clear the persistent baseline cache.
* ``trace``          — run a workload with the telemetry recorder
  attached and export the event stream (Chrome ``trace_event`` JSON or
  JSONL); see docs/OBSERVABILITY.md.
* ``metrics``        — same run, but print the metrics-registry
  snapshot instead of the trace (plus the cell's static audit verdict
  and cost-certificate reconciliation).
* ``lint``           — transform and statically audit without running:
  invariant certifier + lint rules over every function
  (docs/ANALYSIS.md has the rule catalog).
* ``audit``          — the cell's static audit, its run, and the
  reconciliation of the dynamic counters against the cost certificate,
  as one findings document.
* ``plan``           — interprocedural cost analysis + static strategy
  planner: pick the cheapest sound duplication strategy per function
  under a budget, emit the plan artifact, and (``--check``) execute
  the planned program and reconcile per-function check counts.
* ``watch``          — tail a live-export telemetry spool
  (``ExperimentRunner(stream=...)``): hot calling contexts, per-function
  check rates, epoch throughput; ``--follow`` re-renders as epochs land.
* ``ledger``         — show or trend-check the continuous
  perf-regression ledger (``BENCH_history.jsonl``).

``profile``, ``trace``, ``metrics`` and ``audit`` are views over one
run path: each builds a :class:`~repro.harness.RunSpec` for its target
(a FILE becomes an ad-hoc workload registered under its path) and runs
it through :meth:`ExperimentRunner.run`, so every verb gets the
baseline, semantic, Property-1, audit and certificate checks of an
experiment cell, and then prints its view of the
:class:`~repro.harness.RunResult`.

All commands operate on deterministic simulated execution; see DESIGN.md.
Each verb imports its subsystem inside itself, so a command loads only
what it runs (docs/HARNESS.md, "Cold start").
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis import ReconcileVerdict, findings_document
from repro.errors import ReproError
from repro.frontend import CompileOptions, compile_baseline, compile_source
from repro.harness.experiment import (
    ExperimentRunner,
    RunResult,
    RunSpec,
    make_instrumentations,
    overhead_percent,
)
from repro.profiling import (
    DEFAULT_INTERVAL as DEFAULT_PROFILE_INTERVAL,
    DecompositionReport,
)
from repro.sampling import Strategy
from repro.telemetry import quantile_from_buckets
from repro.vm import run_program
from repro.workloads import (
    all_workloads,
    get_workload,
    source_workload,
    workload_names,
)

#: The ``tables`` targets besides ``figure7`` and ``all``: functions of
#: :mod:`repro.harness.tables`, each called as ``fn(runner, scale=...)``.
_TABLES = (
    "table1", "table2", "table3", "table4", "table5", "figure8a", "figure8b",
)

#: Values the parser shows before any verb runs, spelled out so that
#: building it loads neither the planner nor the ledger (tests/test_cli.py
#: pins them to ``analysis.planner.BUDGETS`` and ``profiling.ledger``).
_BUDGET_NAMES = ("default", "relaxed", "strict")
_LEDGER_FILENAME = "BENCH_history.jsonl"
_LEDGER_WINDOW = 5
_LEDGER_NOISE_PCT = 10.0


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_out(path: str, text: str) -> None:
    """Write an ``--out`` file, creating its parent directory."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _stats_lines(result) -> List[str]:
    stats = result.stats
    return [
        f"result:        {result.value}",
        f"output:        {result.output}",
        f"cycles:        {stats.cycles}",
        f"instructions:  {stats.instructions}",
        f"calls:         {stats.calls}   backedges: {stats.backward_jumps}",
        f"checks:        {stats.checks_executed} "
        f"(taken {stats.checks_taken})   samples: {stats.samples_taken}",
        f"threads:       {stats.threads_spawned}   "
        f"switches: {stats.thread_switches}   gc pauses: {stats.gc_pauses}",
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_compile(args: argparse.Namespace) -> int:
    program = compile_source(
        _read_source(args.file), CompileOptions(opt_level=args.opt_level)
    )
    if args.disasm:
        from repro.bytecode import disassemble_program

        print(disassemble_program(program), end="")
    else:
        print(
            f"{len(program.functions)} function(s), "
            f"{len(program.classes)} class(es), "
            f"{program.total_instructions()} instructions "
            f"(O{args.opt_level})"
        )
        for name in program.function_names():
            fn = program.functions[name]
            print(
                f"  {name}({fn.num_params}) "
                f"locals={fn.num_locals} len={fn.instruction_count()}"
            )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    program = compile_baseline(_read_source(args.file))
    result = run_program(program, fuel=args.fuel, engine=args.engine)
    print("\n".join(_stats_lines(result)))
    return 0


def _safe_label(label: str) -> str:
    stem = label.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return "".join(c if c.isalnum() else "-" for c in stem) or "profile"


def _print_self_profile(payload) -> DecompositionReport:
    """Print a cell's overhead decomposition and profiler sample bound
    (:attr:`RunResult.profile`); returns the decomposition."""
    report = DecompositionReport.from_dict(payload["decomposition"])
    bound = ReconcileVerdict.from_dict(payload["bound"])
    print()
    print(report.render())
    print(f"sample bound: {bound.summary()}")
    return report


def _check_top(args: argparse.Namespace) -> None:
    """``--top`` slices rows, so a value below 1 would drop them."""
    if args.top < 1:
        raise ReproError(f"--top must be >= 1, got {args.top}")


def cmd_profile(args: argparse.Namespace) -> int:
    _check_top(args)
    from repro.profiles import profile_summary
    from repro.profiling import (
        write_chrome_flame,
        write_collapsed,
        write_speedscope,
    )

    runner, result = _run_cell(
        args,
        "profile need a FILE or --workload NAME",
        profile=not args.no_self_profile,
        profile_interval=args.profile_interval,
    )
    label = result.spec.workload
    base = runner.baseline_cycles(label, result.spec.scale)
    print(
        f"baseline {base} cycles; instrumented {result.cycles} cycles "
        f"({overhead_percent(base, result.cycles):+.2f}%); "
        f"{result.stats.samples_taken} samples"
    )
    for profile in result.profiles.values():
        print()
        print(profile_summary(profile, top_n=args.top))
    if result.profile is None:
        return 0
    report = _print_self_profile(result.profile)
    stacks = result.profile["snapshot"]["stacks"]
    stacks_out = args.stacks_out or f"{_safe_label(label)}.collapsed"
    write_collapsed(stacks, stacks_out)
    print(f"collapsed stacks -> {stacks_out}")
    if args.speedscope_out:
        write_speedscope(stacks, args.speedscope_out, name=label)
        print(f"speedscope profile -> {args.speedscope_out}")
    if args.flame_out:
        write_chrome_flame(stacks, args.flame_out)
        print(f"chrome flame trace -> {args.flame_out}")
    return 0 if report.reconciles() else 1


def cmd_adaptive(args: argparse.Namespace) -> int:
    if args.interval < 1:
        raise ReproError(f"sample interval must be >= 1, got {args.interval}")
    from repro.adaptive import AdaptiveController

    program = compile_baseline(_read_source(args.file))
    controller = AdaptiveController(interval=args.interval)
    outcome = controller.optimize(program)
    print(outcome.summary())
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    if args.name is None:
        for workload in all_workloads():
            print(
                f"{workload.name:12s} {workload.paper_name:16s} "
                f"{workload.description}"
            )
        return 0
    workload = get_workload(args.name)
    program = workload.compile(args.scale)
    started = time.perf_counter()
    result = run_program(program, fuel=args.fuel, engine=args.engine)
    elapsed = time.perf_counter() - started
    print(f"{workload.name} (scale {args.scale or workload.default_scale}), "
          f"{elapsed:.2f}s wall")
    print("\n".join(_stats_lines(result)))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.harness import tables

    cache = False if args.no_cache else (args.cache_dir or True)
    runner = ExperimentRunner(jobs=args.jobs, cache=cache, engine=args.engine)
    names = list(_TABLES) + ["figure7"] if args.which == "all" else [args.which]
    for name in names:
        if name == "figure7":
            scale = {} if args.scale is None else {"scale": args.scale}
            table, _overlap = tables.figure7(runner, **scale)
            print(table.render())
        else:
            print(getattr(tables, name)(runner, scale=args.scale).render())
        print()
    if args.report:
        print(runner.timing_report())
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.baseline_cache import BaselineCache

    cache = BaselineCache(args.cache_dir) if args.cache_dir else BaselineCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached baseline(s) from {cache.directory}")
        return 0
    entries = cache.entries()
    print(f"cache directory: {cache.directory}")
    print(f"entries: {len(entries)} ({cache.size_bytes()} bytes)")
    for path in entries:
        label = cache.label(path) or "(unreadable)"
        print(f"  {path.stem[:16]}…  {label}")
    return 0


#: Shorthand accepted anywhere a transform strategy is named on the
#: command line, resolved to the canonical :class:`Strategy` value.
_STRATEGY_ALIASES = {
    "full": Strategy.FULL_DUPLICATION,
    "partial": Strategy.PARTIAL_DUPLICATION,
    "none": Strategy.NO_DUPLICATION,
    "no-dup": Strategy.NO_DUPLICATION,
    "entry": Strategy.CHECKS_ONLY_ENTRY,
    "backedge": Strategy.CHECKS_ONLY_BACKEDGE,
}


def _resolve_strategy(name: str) -> Strategy:
    alias = _STRATEGY_ALIASES.get(name)
    if alias is not None:
        return alias
    try:
        return Strategy(name)
    except ValueError:
        choices = sorted(
            {s.value for s in Strategy} | set(_STRATEGY_ALIASES)
        )
        raise ReproError(
            f"unknown strategy {name!r}; choose from {', '.join(choices)}"
        ) from None


def _kinds(args: argparse.Namespace) -> Tuple[str, ...]:
    """The ``--instrument`` kinds, in order."""
    return tuple(k.strip() for k in args.instrument.split(",") if k.strip())


def _targets(
    args: argparse.Namespace, missing: str, suite: bool = False
) -> List[str]:
    """Workload names for the FILE / ``--workload NAME`` target, or the
    whole suite for ``--workload all`` where *suite* allows it. A FILE
    becomes an ad-hoc workload registered under its path (``-`` reads
    stdin); *missing* is the error when neither is given."""
    if args.workload is not None:
        if suite and args.workload == "all":
            return workload_names()
        return [get_workload(args.workload).name]
    if args.file is not None:
        return [source_workload(args.file, _read_source(args.file)).name]
    raise ReproError(missing)


def _run_cell(
    args: argparse.Namespace, missing: str, **options
) -> Tuple[ExperimentRunner, RunResult]:
    """Run the verb's target as one experiment cell.

    The spec comes from the shared run flags; *options* configure the
    :class:`ExperimentRunner` (observers). Exhaustive instrumentation
    never samples, so its trigger is ``never``.
    """
    [workload] = _targets(args, missing)
    strategy = _resolve_strategy(args.strategy)
    spec = RunSpec(
        workload=workload,
        strategy=strategy,
        instrumentation=_kinds(args),
        trigger="never" if strategy is Strategy.EXHAUSTIVE else args.trigger,
        interval=args.interval,
        timer_period=args.timer_period,
        scale=args.scale,
        # The randomized trigger's default seed, which these verbs have
        # always sampled with (the harness would derive a per-cell one).
        seed=0x5EED,
        yieldpoint_opt=getattr(args, "yieldpoint_opt", False),
        sample_iterations=getattr(args, "iterations", 1),
    )
    runner = ExperimentRunner(
        fuel=args.fuel, engine=args.engine, ledger=False, **options
    )
    return runner, runner.run(spec)


def _observed_cell(args: argparse.Namespace, **options) -> RunResult:
    """One cell with the telemetry recorder attached (``trace``,
    ``metrics`` and ``audit``)."""
    _runner, result = _run_cell(
        args,
        "trace/metrics need a FILE or --workload NAME",
        telemetry=True,
        telemetry_capacity=args.capacity,
        **options,
    )
    return result


def _render_trace_stats(label, summary, stats) -> List[str]:
    """Human-readable recorder accounting for ``trace --stats``."""
    lines = [
        f"{label}: {stats.cycles} cycles, {stats.samples_taken} samples",
        f"  events retained: {summary['events']}"
        + (
            f" in {summary['records']} record(s)"
            if "records" in summary
            else ""
        ),
        f"  ring: capacity={summary['capacity']} "
        f"evicted={summary['dropped']} "
        f"events_lost={summary.get('dropped_events', summary['dropped'])}",
    ]
    compaction = summary.get("compaction")
    if compaction is not None:
        lines.append(
            f"  compaction: {compaction['events_in']} event(s) in, "
            f"{compaction['suppressed']} suppressed, "
            f"max_run={compaction['max_run']}, "
            f"record ratio={compaction['ratio']}x"
        )
    else:
        lines.append("  compaction: disabled")
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        events_to_chrome_trace,
        events_to_jsonl,
        inflate,
        records_to_compact_jsonl,
    )

    result = _observed_cell(
        args, compaction=args.compact or args.format == "compact"
    )
    label = result.spec.workload
    summary = result.manifest.telemetry
    if args.stats:
        print("\n".join(_render_trace_stats(label, summary, result.stats)))
        if args.out is None:
            return 0
    if args.format == "compact":
        text = records_to_compact_jsonl(result.records)
    else:
        # Inflating compacted records gives the event views the exact
        # stream a plain recorder would have retained.
        events = inflate(result.records)
        if args.format == "jsonl":
            text = events_to_jsonl(events)
        else:
            text = json.dumps(
                events_to_chrome_trace(events, label=label), indent=1
            ) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    _write_out(args.out, text)
    print(
        f"{label}: {summary['events']} event(s) "
        f"({summary['dropped']} dropped), {result.stats.cycles} cycles "
        f"-> {args.out}"
    )
    return 0


def _quantile_suffix(payload) -> str:
    """p50/p90/p99 rendering for a histogram snapshot payload.

    Tolerates sparse payloads (delta snapshots may omit min/max or carry
    no samples at all): a quantile that cannot be estimated renders as
    ``-`` instead of raising."""
    parts = []
    for q, tag in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
        value = quantile_from_buckets(
            payload.get("bounds", ()), payload.get("buckets", ()),
            payload.get("count", 0), q,
            observed_min=payload.get("min"),
            observed_max=payload.get("max"),
        )
        parts.append(f"{tag}={value:.1f}" if value is not None else f"{tag}=-")
    return " ".join(parts)


def cmd_metrics(args: argparse.Namespace) -> int:
    result = _observed_cell(
        args, profile=args.profile_vm, profile_interval=args.profile_interval
    )
    manifest = result.manifest
    snapshot = manifest.metrics
    if args.json:
        payload = dict(snapshot)
        if result.profile is not None:
            payload["vm.self_profile"] = {
                "type": "profile",
                "snapshot": result.profile["snapshot"],
            }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{result.spec.workload}: {result.stats.cycles} cycles, "
          f"{result.stats.samples_taken} samples")
    summary = manifest.telemetry
    print(f"  ring: capacity={summary['capacity']} "
          f"retained={summary['events']} evicted={summary['dropped']} "
          f"events_lost={summary.get('dropped_events', summary['dropped'])}")
    for key, payload in snapshot.items():
        if payload["type"] == "histogram":
            count, total = payload["count"], payload["sum"]
            mean = total / count if count else 0.0
            print(f"  {key}  count={count} sum={total} mean={mean:.1f} "
                  f"min={payload['min']} max={payload['max']} "
                  + _quantile_suffix(payload))
        else:
            print(f"  {key}  {payload['value']}")
    cert = result.audit.certificate
    print(f"  audit: {result.audit.summary()}")
    print(f"  certificate: {cert.static_checks} static check(s), "
          f"{cert.guarded_sites} guarded site(s); {cert.formula}")
    verdict = ReconcileVerdict.from_dict(manifest.analysis["verdict"])
    print(f"  reconcile: {verdict.summary()}")
    incremental = manifest.analysis["incremental"]
    if incremental is not None:
        print(f"  incremental: {incremental['loads']} load(s), "
              f"{incremental['replaces']} replace(s), "
              f"{'ok' if incremental['ok'] else 'FAILED'}")
    if result.profile is not None:
        _print_self_profile(result.profile)
    return 0


def _render_watch(reader, top: int, component: Optional[str]) -> List[str]:
    """One frame of the ``watch`` view for a spool's current state."""
    from repro.analysis import measured_function_checks
    from repro.profiling.cct import top_contexts

    summary = reader.summary()
    status = summary["status"] or "?"
    if summary["truncated"]:
        status += " (truncated tail)"
    lines = [f"{summary['label'] or summary['path']}: {status}"]
    meta = reader.meta
    if meta:
        described = " ".join(
            f"{key}={meta[key]}"
            for key in ("workload", "strategy", "engine", "trigger",
                        "interval")
            if meta.get(key) is not None
        )
        if described:
            lines.append(f"  run: {described}")
    lines.append(
        f"  epochs: {summary['epochs']}  records: {summary['records']}  "
        f"events: {summary['events']}  "
        f"dropped: {summary['dropped_events']}  "
        f"contexts: {summary['contexts']}"
    )
    stamps = reader.epoch_stamps()
    if len(stamps) >= 2:
        seconds = stamps[-1]["wall"] - stamps[0]["wall"]
        events = stamps[-1]["seq"] - stamps[0]["seq"]
        if seconds > 0:
            lines.append(
                f"  throughput: {events / seconds:,.0f} events/s "
                f"across {len(stamps)} epoch(s) ({seconds:.2f}s)"
            )
    checks = measured_function_checks(reader.final_metrics())
    if checks:
        total = sum(checks.values())
        strategy = (meta or {}).get("strategy", "?")
        lines.append(f"  checks [{strategy}]: {total} executed")
        ranked = sorted(checks, key=lambda name: (-checks[name], name))
        for name in ranked[:top]:
            share = checks[name] / total if total else 0.0
            lines.append(
                f"    {name:<24} {checks[name]:>8}  ({share:.1%})"
            )
    rows = top_contexts(reader.cct_table(), limit=top, component=component)
    if rows:
        lines.append(f"  hot contexts (top {len(rows)}):")
        for path, samples, wall in rows:
            wall_part = f"  wall={wall:.4f}s" if wall else ""
            lines.append(f"    {path:<40} samples={samples:g}{wall_part}")
    return lines


def cmd_watch(args: argparse.Namespace) -> int:
    _check_top(args)
    from repro.profiling.cct import top_contexts
    from repro.telemetry.streaming import SpoolReader, tail_epochs

    if args.follow:
        reader = None
        for reader, fresh in tail_epochs(
            args.spool, poll_seconds=args.poll, timeout=args.timeout
        ):
            if fresh or reader.closed or reader.truncated:
                print("\n".join(
                    _render_watch(reader, args.top, args.component)
                ))
                print()
        if reader is None or not (reader.closed or reader.truncated):
            print("watch: timed out with the spool still live",
                  file=sys.stderr)
            return 1
        return 0
    reader = SpoolReader(args.spool)
    if args.json:
        payload = reader.summary()
        payload["meta"] = reader.meta
        payload["top_contexts"] = [
            {"path": path, "samples": samples, "wall": wall}
            for path, samples, wall in top_contexts(
                reader.cct_table(), limit=args.top,
                component=args.component,
            )
        ]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print("\n".join(_render_watch(reader, args.top, args.component)))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Measure trace compaction: byte reduction + §4.4 overlap accuracy,
    per cell, with CI-gateable thresholds."""
    runner = ExperimentRunner(
        telemetry=True, compaction=True, engine=args.engine, jobs=args.jobs,
        telemetry_capacity=args.capacity,
    )
    if args.matrix:
        workloads, strategies = None, None
    elif args.workload is not None:
        workloads = [args.workload]
        strategies = [_resolve_strategy(args.strategy)]
    else:
        raise ReproError("compact needs --workload NAME or --matrix")
    reports = runner.compaction_matrix(
        workloads,
        strategies,
        instrumentation=_kinds(args),
        interval=args.interval,
        scale=args.scale,
        perfect_interval=args.perfect_interval,
    )
    failed = 0
    for report in reports:
        problems = []
        if not report["roundtrip_ok"]:
            problems.append("roundtrip")
        if not report["stream_ok"]:
            problems.append("stream")
        if report["overlap_percentage"] < args.min_overlap:
            problems.append(f"overlap<{args.min_overlap}")
        if report["compaction_ratio"] < args.min_ratio:
            problems.append(f"ratio<{args.min_ratio}")
        report["ok"] = not problems
        report["failures"] = problems
        failed += bool(problems)
    document = {
        "interval": args.interval,
        "perfect_interval": args.perfect_interval,
        "engine": runner.engine,
        "min_overlap": args.min_overlap,
        "min_ratio": args.min_ratio,
        "cells": reports,
        "ok": failed == 0,
    }
    if args.out is not None:
        _write_out(
            args.out, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for report in reports:
            status = (
                "ok" if report["ok"]
                else "FAIL[" + ",".join(report["failures"]) + "]"
            )
            print(
                f"{report['label']}: {report['events']} event(s) -> "
                f"{report['records']} record(s), {report['raw_bytes']}B -> "
                f"{report['compact_bytes']}B "
                f"({report['compaction_ratio']}x), "
                f"overlap {report['overlap_percentage']}% [{status}]"
            )
        print(
            f"{len(reports)} cell(s), {failed} failing; gates: "
            f"ratio >= {args.min_ratio}x, overlap >= {args.min_overlap}%"
        )
    return 1 if failed else 0


def _wants_json(args: argparse.Namespace) -> bool:
    """``--format json`` or the legacy ``--json`` alias."""
    return bool(getattr(args, "json", False)) or (
        getattr(args, "format", "text") == "json"
    )


def cmd_lint(args: argparse.Namespace) -> int:
    # The one verb that audits outside a run: every other verb reads
    # its cell's audit from the RunResult.
    from repro.analysis import Suppressions, audit_program
    from repro.sampling import transform_program

    suppressions = (
        Suppressions.parse(args.suppress) if args.suppress else None
    )
    strategies = [
        _resolve_strategy(s.strip())
        for s in args.strategy.split(",")
        if s.strip()
    ]
    if not strategies:
        raise ReproError("lint needs at least one --strategy")
    kinds = _kinds(args)
    reports = []
    for name in _targets(
        args, "lint needs a FILE or --workload NAME|all", suite=True
    ):
        program = get_workload(name).compile(args.scale)
        for strategy in strategies:
            transformed = transform_program(
                program, make_instrumentations(kinds), strategy
            )
            reports.append(
                audit_program(
                    transformed,
                    strategy=strategy.value,
                    suppressions=suppressions,
                    label=f"{name}/{strategy.value}",
                    program_rules=True,
                )
            )
    findings = [f for report in reports for f in report.findings]
    document = findings_document(
        "lint",
        findings,
        reports=[r.as_dict() for r in reports],
        strict=args.strict,
    )
    if _wants_json(args):
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for report in reports:
            for finding in report.findings:
                print(finding.format())
            print(f"{report.label}: {report.summary()}")
    return 0 if document["ok"] else 1


def cmd_audit(args: argparse.Namespace) -> int:
    result = _observed_cell(args)
    analysis = result.manifest.analysis
    report = replace(result.audit, label=result.spec.workload)
    incremental = analysis["incremental"]
    payload = {
        "report": report.as_dict(),
        "verdict": analysis["verdict"],
        "stats": result.stats.as_dict(),
        "incremental": incremental,
    }
    document = findings_document(
        "audit", report.findings, reports=[payload]
    )
    if args.out is not None:
        _write_out(
            args.out, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    if _wants_json(args):
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(report.render())
        cert = report.certificate
        print(f"certificate: {cert.static_checks} static check(s), "
              f"{cert.guarded_sites} guarded site(s); {cert.formula}")
        if incremental is not None:
            print(f"incremental: {incremental['loads']} load(s), "
                  f"{incremental['replaces']} replace(s), "
                  f"{len(incremental['events'])} event(s), "
                  f"{'ok' if incremental['ok'] else 'FAILED'}; "
                  f"{incremental['dynamic_certificate']['formula']}")
        verdict = ReconcileVerdict.from_dict(analysis["verdict"])
        print(f"reconcile: {verdict.summary()}")
        if args.out is not None:
            print(f"wrote {args.out}")
    return 0 if document["ok"] else 1


def _previous_plans(path: str):
    """Load plans from an earlier ``repro plan`` artifact: either a
    bare StrategyPlan dict or a findings document holding several."""
    from repro.analysis import StrategyPlan

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if "functions" in payload:
            entries = [payload]
        else:
            entries = [entry["plan"] for entry in payload["reports"]]
        plans = [StrategyPlan.from_dict(entry) for entry in entries]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"{path} is not a plan artifact: {type(exc).__name__}: {exc}"
        ) from None
    return {plan.label: plan for plan in plans}


def cmd_plan(args: argparse.Namespace) -> int:
    if args.interval < 1:
        raise ReproError(f"sample interval must be >= 1, got {args.interval}")
    from repro.analysis import plan_program

    kinds = _kinds(args)
    previous = _previous_plans(args.diff) if args.diff else None
    plans = [
        plan_program(
            get_workload(name).compile(args.scale),
            instrumentation=kinds,
            budget=args.budget,
            interval=args.interval,
            label=name,
        )
        for name in _targets(
            args, "plan needs a FILE or --workload NAME|all", suite=True
        )
    ]
    reports = []
    failures = 0
    for plan in plans:
        entry = {"label": plan.label, "plan": plan.as_dict()}
        if previous is not None:
            old = previous.get(plan.label)
            entry["diff"] = plan.diff(old) if old is not None else None
        reports.append(entry)
    if args.check:
        if args.workload is None:
            raise ReproError("plan --check needs --workload NAME|all")
        for entry, plan in zip(reports, plans):
            # One planned cell per workload; a reconciler violation
            # (measured per-function checks over the certified bound)
            # surfaces as a HarnessError and fails the command.
            runner = ExperimentRunner(
                telemetry=True, cache=False, engine=args.engine
            )
            spec = RunSpec(
                workload=entry["label"],
                strategy=Strategy.FULL_DUPLICATION,
                instrumentation=kinds,
                trigger="counter",
                interval=args.interval,
                scale=args.scale,
                plan=plan.key(),
            )
            try:
                result = runner.run(spec)
            except ReproError as exc:
                entry["check"] = {"ok": False, "error": str(exc)}
                failures += 1
            else:
                manifest = result.manifest
                analysis = manifest.analysis if manifest is not None else {}
                entry["check"] = {
                    "ok": True,
                    "cycles": result.cycles,
                    "verdict": analysis.get("verdict"),
                    "strategies": plan.strategy_counts(),
                }
    document = findings_document(
        "plan", [], reports=reports, extra_failures=failures
    )
    if args.out is not None:
        _write_out(
            args.out, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    if _wants_json(args):
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for entry, plan in zip(reports, plans):
            print(plan.explain() if args.explain else plan.summary())
            if previous is not None:
                changes = entry.get("diff")
                if changes is None:
                    print(f"  diff: no previous plan for {plan.label!r}")
                elif not changes:
                    print("  diff: no strategy changes")
                else:
                    for change in changes:
                        print(
                            f"  diff: {change['function']}: "
                            f"{change['before']} -> {change['after']}"
                        )
            check = entry.get("check")
            if check is not None:
                if check["ok"]:
                    print(
                        f"  check: ok ({check['cycles']} cycles, "
                        f"reconciled per function)"
                    )
                else:
                    print(f"  check: FAILED — {check['error']}")
        if failures:
            print(f"{failures} check failure(s)")
        if args.out is not None:
            print(f"wrote {args.out}")
    return 0 if document["ok"] else 1


def cmd_ledger(args: argparse.Namespace) -> int:
    from repro.profiling import PerfLedger

    ledger = PerfLedger(args.ledger)
    if args.action == "show":
        records = ledger.records(
            bench=args.bench, key=args.key, metric=args.metric
        )
        if args.json:
            json.dump(records, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        if not records:
            print(f"{ledger.path}: no matching records")
            return 0
        for record in records:
            normalized = record.get("normalized")
            norm = f" (norm {normalized:.4g})" if normalized else ""
            print(
                f"{record.get('ts', '?'):20s} "
                f"{record.get('bench', '?')}/{record.get('key', '?')}"
                f"/{record.get('metric', '?')}: "
                f"{record.get('value', float('nan')):.4g}{norm}"
            )
        print(f"{len(records)} record(s) in {ledger.path}")
        return 0
    # action == "check"
    if args.window < 1:
        raise ReproError(f"ledger window must be >= 1, got {args.window}")
    report = ledger.check(window=args.window, noise_pct=args.noise)
    if args.json:
        json.dump(
            [v.as_dict() for v in report.verdicts],
            sys.stdout, indent=2, sort_keys=True,
        )
        sys.stdout.write("\n")
    else:
        print(report.render())
    if report.regressions and not args.warn_only:
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine",
        default=None,
        choices=["fast", "reference", "compiled"],
        help="VM execution engine (default $REPRO_ENGINE or fast); all "
        "produce bit-identical results",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Instrumentation sampling via code duplication "
            "(Arnold & Ryder, PLDI 2001) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniJ source")
    p.add_argument("file", help="MiniJ source file, or - for stdin")
    p.add_argument("-O", "--opt-level", type=int, default=2, choices=[0, 1, 2])
    p.add_argument("--disasm", action="store_true", help="print bytecode")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and execute")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=100_000_000)
    _add_engine_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "profile",
        help="instrument, sample, report — and self-profile the VM",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="MiniJ source file, or - for stdin")
    p.add_argument("--workload", default=None,
                   help="profile a benchmark-suite member instead of a file")
    p.add_argument("--scale", type=int, default=None)
    p.add_argument(
        "--instrument",
        default="call-edge",
        help="comma-separated kinds: call-edge, field-access, block-count, "
        "edge-profile, param-value, path-profile",
    )
    p.add_argument(
        "--strategy",
        default="full-duplication",
        help="transform strategy; canonical names or shorthands "
        "(full, partial, none, entry, backedge)",
    )
    p.add_argument("--trigger", default="counter",
                   choices=["counter", "timer", "randomized",
                            "per-thread-counter", "never"])
    p.add_argument("--interval", type=int, default=1000)
    p.add_argument("--iterations", type=int, default=1,
                   help="consecutive loop iterations per sample (counted "
                   "backedges)")
    p.add_argument("--timer-period", type=int, default=100_000)
    p.add_argument("--yieldpoint-opt", action="store_true")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--fuel", type=int, default=100_000_000)
    p.add_argument(
        "--profile-interval", type=int, default=DEFAULT_PROFILE_INTERVAL,
        help="observer boundaries per VM self-profiler sample",
    )
    p.add_argument(
        "--no-self-profile", action="store_true",
        help="skip the VM overhead decomposition and flame-graph export",
    )
    p.add_argument(
        "--stacks-out", default=None,
        help="collapsed-stack output path (default <target>.collapsed)",
    )
    p.add_argument(
        "--speedscope-out", default=None,
        help="also write a speedscope JSON profile",
    )
    p.add_argument(
        "--flame-out", default=None,
        help="also write a Chrome trace_event flame graph",
    )
    _add_engine_arg(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("adaptive", help="profile-directed optimization demo")
    p.add_argument("file")
    p.add_argument("--interval", type=int, default=101)
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("workloads", help="list or run benchmark workloads")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--fuel", type=int, default=200_000_000)
    _add_engine_arg(p)
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=list(_TABLES) + ["figure7", "all"],
    )
    p.add_argument("--scale", type=int, default=None)
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the experiment matrix "
        "(default $REPRO_JOBS or 1; 0 = all cores)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent baseline cache directory "
        "(default $REPRO_CACHE_DIR or ~/.cache/repro-baselines)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent baseline cache",
    )
    p.add_argument(
        "--report", action="store_true",
        help="print per-cell timing and cache-hit accounting",
    )
    _add_engine_arg(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser(
        "cache", help="inspect or clear the persistent baseline cache"
    )
    p.add_argument("action", choices=["info", "clear"])
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "lint",
        help="statically audit transformed code (no execution)",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="MiniJ source file, or - for stdin")
    p.add_argument("--workload", default=None,
                   help="benchmark-suite member, or 'all' for the suite")
    p.add_argument("--scale", type=int, default=None)
    p.add_argument(
        "--strategy",
        default="full,partial,none",
        help="comma-separated strategies to audit under; canonical "
        "names or shorthands (full, partial, none, entry, backedge)",
    )
    p.add_argument("--instrument", default="call-edge")
    p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on any finding, not just errors",
    )
    p.add_argument(
        "--suppress", default=None,
        help="comma-separated rule suppressions, e.g. "
        "'LNT001,AUD007@main'",
    )
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="output format (json = the shared findings "
                   "document; docs/ANALYSIS.md)")
    p.add_argument("--json", action="store_true",
                   help="alias for --format json")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "plan",
        help="statically plan per-function duplication strategies "
        "under a cost budget (no execution unless --check)",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="MiniJ source file, or - for stdin")
    p.add_argument("--workload", default=None,
                   help="benchmark-suite member, or 'all' for the suite")
    p.add_argument("--scale", type=int, default=None)
    p.add_argument(
        "--budget", default="default", choices=_BUDGET_NAMES,
        help="code-growth budget weighing duplication cost against "
        "predicted check savings",
    )
    p.add_argument(
        "--instrument", default="call-edge,block-count",
        help="comma-separated instrumentation kinds the plan is for",
    )
    p.add_argument(
        "--interval", type=int, default=1000,
        help="sample interval recorded in the plan and used by --check",
    )
    p.add_argument("--explain", action="store_true",
                   help="print per-function rationale and rule citations")
    p.add_argument(
        "--diff", default=None, metavar="PLAN_JSON",
        help="compare against a previous plan artifact and report "
        "per-function strategy changes",
    )
    p.add_argument(
        "--check", action="store_true",
        help="execute each planned workload and reconcile measured "
        "per-function check counts against the certified bounds",
    )
    p.add_argument("--out", default=None,
                   help="write the plan document (JSON) to a file")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--json", action="store_true",
                   help="alias for --format json")
    _add_engine_arg(p)
    p.set_defaults(func=cmd_plan)

    for name, helptext, fn in (
        ("trace", "run with telemetry and export the event trace",
         cmd_trace),
        ("metrics", "run with telemetry and print the metrics registry",
         cmd_metrics),
        ("audit", "audit, run, and reconcile against the certificate",
         cmd_audit),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", nargs="?", default=None,
                       help="MiniJ source file, or - for stdin")
        p.add_argument("--workload", default=None,
                       help="run a benchmark-suite member instead of a file")
        p.add_argument("--scale", type=int, default=None)
        p.add_argument(
            "--strategy",
            default="full-duplication",
            help="transform strategy; canonical names or shorthands "
            "(full, partial, none, entry, backedge)",
        )
        p.add_argument("--instrument", default="call-edge")
        p.add_argument("--trigger", default="counter",
                       choices=["counter", "timer", "randomized",
                                "per-thread-counter", "never"])
        p.add_argument("--interval", type=int, default=1000)
        p.add_argument("--timer-period", type=int, default=100_000)
        p.add_argument("--capacity", type=int, default=65536,
                       help="event-ring capacity (oldest evicted beyond)")
        p.add_argument("--fuel", type=int, default=200_000_000)
        _add_engine_arg(p)
        if name == "trace":
            p.add_argument("--format", default="chrome",
                           choices=["chrome", "jsonl", "compact"])
            p.add_argument("--out", default=None,
                           help="write to a file instead of stdout")
            p.add_argument(
                "--compact", action="store_true",
                help="record through suppression windows (runs of "
                "identical events collapse into single records; "
                "implied by --format compact)",
            )
            p.add_argument(
                "--stats", action="store_true",
                help="print recorder accounting (ring occupancy, "
                "evictions, compaction ratio) instead of the trace; "
                "combine with --out to also export",
            )
        elif name == "audit":
            p.add_argument("--format", default="text",
                           choices=["text", "json"],
                           help="output format (json = the shared "
                           "findings document; docs/ANALYSIS.md)")
            p.add_argument("--json", action="store_true",
                           help="alias for --format json")
            p.add_argument("--out", default=None,
                           help="also write the JSON document to a file")
        else:
            p.add_argument("--json", action="store_true",
                           help="emit the raw snapshot as JSON")
            p.add_argument(
                "--profile-vm", action="store_true",
                help="attach the VM self-profiler and print the overhead "
                "decomposition next to the metrics",
            )
            p.add_argument(
                "--profile-interval", type=int,
                default=DEFAULT_PROFILE_INTERVAL,
                help="observer boundaries per self-profiler sample",
            )
        p.set_defaults(func=fn)

    p = sub.add_parser(
        "compact",
        help="measure trace compaction: byte reduction and overlap "
        "accuracy, with CI-gateable thresholds",
    )
    p.add_argument("--workload", default=None,
                   help="single benchmark-suite member to measure")
    p.add_argument(
        "--matrix", action="store_true",
        help="run the full workload x duplication-strategy matrix",
    )
    p.add_argument(
        "--strategy", default="full-duplication",
        help="transform strategy for --workload mode; canonical names "
        "or shorthands (full, partial, none, entry, backedge)",
    )
    p.add_argument("--instrument", default="call-edge")
    p.add_argument("--interval", type=int, default=1000,
                   help="counter-trigger sample interval for the "
                   "measured cell")
    p.add_argument(
        "--perfect-interval", type=int, default=1,
        help="interval of the exact (perfect-profile) reference run",
    )
    p.add_argument("--scale", type=int, default=None)
    p.add_argument(
        "--capacity", type=int, default=262144,
        help="event-ring capacity per run; the perfect-interval "
        "reference stream must fit (suppressed records count as one)",
    )
    p.add_argument(
        "--min-overlap", type=float, default=0.0,
        help="fail any cell whose overlap percentage is below this",
    )
    p.add_argument(
        "--min-ratio", type=float, default=0.0,
        help="fail any cell whose byte compaction ratio is below this",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default $REPRO_JOBS or 1; 0 = all cores)",
    )
    p.add_argument("--out", default=None,
                   help="also write the JSON report to a file")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON on stdout")
    _add_engine_arg(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser(
        "watch",
        help="tail a live-export telemetry spool: hot calling contexts, "
        "check rates, and epoch throughput (live or finished runs)",
    )
    p.add_argument("spool", help="spool directory written by a streamed "
                   "run (ExperimentRunner(stream=...))")
    p.add_argument("--follow", action="store_true",
                   help="keep polling and re-render as epochs land, "
                   "until the spool closes")
    p.add_argument("--top", type=int, default=10,
                   help="contexts/functions to show per frame")
    p.add_argument("--component", default=None,
                   help="rank contexts by one cost component "
                   "(e.g. check, dispatch, payload) instead of all")
    p.add_argument("--poll", type=float, default=0.5,
                   help="seconds between --follow polls")
    p.add_argument("--timeout", type=float, default=None,
                   help="give up on --follow after this many idle "
                   "seconds (exit 1 if the spool never closed)")
    p.add_argument("--json", action="store_true",
                   help="emit the spool summary + top contexts as JSON")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "ledger",
        help="inspect or check the continuous perf-regression ledger",
    )
    p.add_argument("action", choices=["show", "check"])
    p.add_argument(
        "--ledger", default=_LEDGER_FILENAME,
        help=f"ledger path (default ./{_LEDGER_FILENAME})",
    )
    p.add_argument("--bench", default=None, help="filter: bench name")
    p.add_argument("--key", default=None, help="filter: series key")
    p.add_argument("--metric", default=None, help="filter: metric name")
    p.add_argument(
        "--window", type=int, default=_LEDGER_WINDOW,
        help="rolling-baseline depth (median of preceding records)",
    )
    p.add_argument(
        "--noise", type=float, default=_LEDGER_NOISE_PCT,
        help="noise band in percent; deviations inside it never flag",
    )
    p.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI perf-trend mode)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ledger)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
