"""Generators for every table and figure in the paper's evaluation.

Each function runs the required experiment matrix through an
:class:`ExperimentRunner` and returns a :class:`TableResult` whose rows
place our measured values next to the paper's published ones. The
``benchmarks/`` directory has one pytest-benchmark harness per
generator; EXPERIMENTS.md records a captured run.

Every generator first *enumerates* its full experiment matrix and
hands it to :meth:`ExperimentRunner.prefetch`. That one batch
transforms, verifies and audits each cell family once (the cells that
differ only in trigger, interval, phase, timer period or seed — Table
4's interval sweep, Table 5's trigger grid), and fans the families
over the worker pool when the runner is configured with ``jobs > 1``
(``--jobs`` / ``$REPRO_JOBS``). Row assembly then runs as a sequence of
memo hits, so a parallel run is cell-for-cell identical to a serial
one. Table 2's ``xform ms`` is the family's single transform time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import paper_data
from repro.harness.experiment import (
    ExperimentRunner,
    RunSpec,
    overhead_percent,
)
from repro.harness.formatting import mean, render_table
from repro.profiles.overlap import overlap_percentage, overlap_series
from repro.profiles.profile import Profile
from repro.sampling.framework import Strategy
from repro.workloads.suite import workload_names


@dataclass
class TableResult:
    """A rendered experiment table plus its raw rows."""

    title: str
    headers: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)
    decimals: int = 1

    def render(self) -> str:
        text = render_table(
            self.headers, self.rows, title=self.title, decimals=self.decimals
        )
        if self.notes:
            text += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return text


def _suite(workloads: Optional[Sequence[str]]) -> List[str]:
    return list(workloads) if workloads is not None else workload_names()


# ---------------------------------------------------------------------------
# Table 1 — exhaustive instrumentation overhead


def table1(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """Exhaustive call-edge / field-access overhead (no framework)."""
    runner = runner or ExperimentRunner()
    suite = _suite(workloads)
    runner.prefetch(
        [
            RunSpec(name, Strategy.EXHAUSTIVE, (kind,), scale=scale)
            for name in suite
            for kind in ("call-edge", "field-access")
        ]
    )
    rows: List[List] = []
    measured_call: List[float] = []
    measured_field: List[float] = []
    for name in suite:
        call = runner.overhead_pct(
            RunSpec(name, Strategy.EXHAUSTIVE, ("call-edge",), scale=scale)
        )
        fld = runner.overhead_pct(
            RunSpec(name, Strategy.EXHAUSTIVE, ("field-access",), scale=scale)
        )
        measured_call.append(call)
        measured_field.append(fld)
        paper = paper_data.PAPER_TABLE1.get(name, (None, None))
        rows.append([name, call, paper[0], fld, paper[1]])
    rows.append(
        [
            "AVERAGE",
            mean(measured_call),
            paper_data.PAPER_TABLE1_AVG[0],
            mean(measured_field),
            paper_data.PAPER_TABLE1_AVG[1],
        ]
    )
    return TableResult(
        title="Table 1: exhaustive instrumentation overhead (%)",
        headers=[
            "benchmark",
            "call-edge",
            "(paper)",
            "field-access",
            "(paper)",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 2 — Full-Duplication framework overhead


def table2(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """Framework overhead of Full-Duplication with no samples taken,
    with the backedge/entry checks-only breakdown, space increase, and
    transform-time accounting."""
    runner = runner or ExperimentRunner()
    suite = _suite(workloads)
    runner.prefetch(
        [
            spec
            for name in suite
            for spec in (
                RunSpec(name, Strategy.FULL_DUPLICATION, ("none",), scale=scale),
                RunSpec(name, Strategy.CHECKS_ONLY_BACKEDGE, (), scale=scale),
                RunSpec(name, Strategy.CHECKS_ONLY_ENTRY, (), scale=scale),
            )
        ]
    )
    rows: List[List] = []
    totals: List[float] = []
    backs: List[float] = []
    entries: List[float] = []
    spaces: List[float] = []
    times: List[float] = []
    for name in suite:
        program, _ = runner.baseline(name, scale)
        base_cycles = runner.baseline_cycles(name, scale)
        base_bytes = program.total_code_size_bytes()

        full = runner.run(
            RunSpec(name, Strategy.FULL_DUPLICATION, ("none",), scale=scale)
        )
        total_pct = overhead_percent(base_cycles, full.cycles)
        back_pct = runner.overhead_pct(
            RunSpec(name, Strategy.CHECKS_ONLY_BACKEDGE, (), scale=scale)
        )
        entry_pct = runner.overhead_pct(
            RunSpec(name, Strategy.CHECKS_ONLY_ENTRY, (), scale=scale)
        )
        space_kb = (full.code_bytes - base_bytes) / 1024.0
        # Transform time relative to a from-scratch compile is what the
        # paper's "compile time increase" measures; we report the
        # duplication pass time in ms (informational — Python timing).
        transform_ms = full.transform_seconds * 1000.0

        totals.append(total_pct)
        backs.append(back_pct)
        entries.append(entry_pct)
        spaces.append(space_kb)
        times.append(transform_ms)
        paper = paper_data.PAPER_TABLE2.get(name, (None,) * 5)
        rows.append(
            [
                name,
                total_pct,
                paper[0],
                back_pct,
                paper[1],
                entry_pct,
                paper[2],
                space_kb,
                transform_ms,
            ]
        )
    rows.append(
        [
            "AVERAGE",
            mean(totals),
            paper_data.PAPER_TABLE2_AVG[0],
            mean(backs),
            paper_data.PAPER_TABLE2_AVG[1],
            mean(entries),
            paper_data.PAPER_TABLE2_AVG[2],
            mean(spaces),
            mean(times),
        ]
    )
    return TableResult(
        title="Table 2: Full-Duplication framework overhead (no samples)",
        headers=[
            "benchmark",
            "total%",
            "(paper)",
            "backedge%",
            "(paper)",
            "entry%",
            "(paper)",
            "space+KB",
            "xform ms",
        ],
        rows=rows,
        notes=[
            "space+KB is duplicated-code growth at our 4-bytes/instruction "
            "proxy; the paper reports absolute Jalapeño code sizes",
            "xform ms is the measured duplication-pass wall time (the "
            "paper's 34% compile-time increase is Jalapeño-specific)",
        ],
    )


# ---------------------------------------------------------------------------
# Table 3 — No-Duplication checking overhead


def table3(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """No-Duplication checking overhead (no samples taken)."""
    runner = runner or ExperimentRunner()
    suite = _suite(workloads)
    runner.prefetch(
        [
            RunSpec(name, Strategy.NO_DUPLICATION, (kind,), scale=scale)
            for name in suite
            for kind in ("call-edge", "field-access")
        ]
    )
    rows: List[List] = []
    calls: List[float] = []
    fields: List[float] = []
    for name in suite:
        call = runner.overhead_pct(
            RunSpec(name, Strategy.NO_DUPLICATION, ("call-edge",), scale=scale)
        )
        fld = runner.overhead_pct(
            RunSpec(
                name, Strategy.NO_DUPLICATION, ("field-access",), scale=scale
            )
        )
        calls.append(call)
        fields.append(fld)
        paper = paper_data.PAPER_TABLE3.get(name, (None, None))
        rows.append([name, call, paper[0], fld, paper[1]])
    rows.append(
        [
            "AVERAGE",
            mean(calls),
            paper_data.PAPER_TABLE3_AVG[0],
            mean(fields),
            paper_data.PAPER_TABLE3_AVG[1],
        ]
    )
    return TableResult(
        title="Table 3: No-Duplication checking overhead (%)",
        headers=[
            "benchmark",
            "call-edge",
            "(paper)",
            "field-access",
            "(paper)",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 4 — sampled overhead and accuracy vs interval


def _accuracy_for(
    runner: ExperimentRunner,
    name: str,
    strategy: Strategy,
    interval: int,
    scale: Optional[int],
    perfect: Dict[str, Profile],
) -> Tuple[float, float, float, int]:
    """(call acc, field acc, total cycles, samples) for one config."""
    result = runner.run(
        RunSpec(
            name,
            strategy,
            ("call-edge", "field-access"),
            trigger="counter",
            interval=interval,
            scale=scale,
        )
    )
    call_acc = overlap_percentage(
        perfect["call-edge"], result.profiles["call-edge"]
    )
    field_acc = overlap_percentage(
        perfect["field-access"], result.profiles["field-access"]
    )
    return call_acc, field_acc, result.cycles, result.stats.samples_taken


def table4(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    intervals: Optional[Sequence[int]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """Overhead & accuracy of sampled call-edge + field-access
    instrumentation vs sample interval, Full-Dup and No-Dup."""
    runner = runner or ExperimentRunner()
    intervals = list(intervals or paper_data.PAPER_INTERVALS)
    suite = _suite(workloads)
    strategies = (Strategy.FULL_DUPLICATION, Strategy.NO_DUPLICATION)
    kinds = ("call-edge", "field-access")
    prefetch: List[RunSpec] = []
    for name in suite:
        for strategy in strategies:
            prefetch.append(
                RunSpec(
                    name, strategy, kinds,
                    trigger="counter", interval=1, scale=scale,
                )
            )
            prefetch.append(
                RunSpec(name, strategy, kinds, trigger="never", scale=scale)
            )
            prefetch.extend(
                RunSpec(
                    name, strategy, kinds,
                    trigger="counter", interval=interval, scale=scale,
                )
                for interval in intervals
            )
    runner.prefetch(prefetch)

    # Per-strategy perfect profiles (the paper's interval-1 definition).
    perfects = {
        (name, strategy): runner.perfect_profiles(
            name, ("call-edge", "field-access"), scale, strategy=strategy
        )
        for name in suite
        for strategy in (Strategy.FULL_DUPLICATION, Strategy.NO_DUPLICATION)
    }
    base_cycles = {
        name: runner.baseline_cycles(name, scale) for name in suite
    }
    framework_cycles: Dict[Tuple[str, Strategy], int] = {}
    for name in suite:
        for strategy in (Strategy.FULL_DUPLICATION, Strategy.NO_DUPLICATION):
            result = runner.run(
                RunSpec(
                    name,
                    strategy,
                    ("call-edge", "field-access"),
                    trigger="never",
                    scale=scale,
                )
            )
            framework_cycles[(name, strategy)] = result.cycles

    rows: List[List] = []
    for strategy, paper_ref in (
        (Strategy.FULL_DUPLICATION, paper_data.PAPER_TABLE4_FULL),
        (Strategy.NO_DUPLICATION, paper_data.PAPER_TABLE4_NODUP),
    ):
        for interval in intervals:
            call_accs: List[float] = []
            field_accs: List[float] = []
            sampled_ohs: List[float] = []
            total_ohs: List[float] = []
            samples: List[float] = []
            for name in suite:
                call_acc, field_acc, cycles, nsamples = _accuracy_for(
                    runner,
                    name,
                    strategy,
                    interval,
                    scale,
                    perfects[(name, strategy)],
                )
                call_accs.append(call_acc)
                field_accs.append(field_acc)
                samples.append(nsamples)
                base = base_cycles[name]
                total_ohs.append(overhead_percent(base, cycles))
                sampled_ohs.append(
                    100.0
                    * (cycles - framework_cycles[(name, strategy)])
                    / base
                )
            paper = paper_ref.get(interval, (None,) * 5)
            rows.append(
                [
                    f"{strategy.value}@{interval}",
                    mean(samples),
                    mean(sampled_ohs),
                    paper[1],
                    mean(total_ohs),
                    paper[2],
                    mean(call_accs),
                    paper[3],
                    mean(field_accs),
                    paper[4],
                ]
            )
    return TableResult(
        title=(
            "Table 4: sampled instrumentation overhead & accuracy "
            "(averaged over benchmarks)"
        ),
        headers=[
            "strategy@interval",
            "samples",
            "instr%",
            "(paper)",
            "total%",
            "(paper)",
            "call-acc",
            "(paper)",
            "field-acc",
            "(paper)",
        ],
        rows=rows,
        notes=[
            "our runs execute ~10^4-10^5 checks (vs the paper's ~10^7), so "
            "accuracy collapse shifts to smaller intervals with the same "
            "shape (too few samples)",
        ],
    )


# ---------------------------------------------------------------------------
# Table 5 — trigger mechanisms


def _table5_timer_spec(
    name: str, timer_period: int, scale: Optional[int]
) -> RunSpec:
    return RunSpec(
        name,
        Strategy.FULL_DUPLICATION,
        ("field-access",),
        trigger="timer",
        timer_period=timer_period,
        scale=scale,
    )


def _table5_counter_specs(
    name: str, interval: int, scale: Optional[int]
) -> List[RunSpec]:
    """The counter grid matched to one timer run: three nearby
    intervals x three phases, in measurement order."""
    candidates = sorted(
        {interval, max(1, (interval * 9) // 10), (interval * 11) // 10}
    )
    return [
        RunSpec(
            name,
            Strategy.FULL_DUPLICATION,
            ("field-access",),
            trigger="counter",
            interval=candidate,
            scale=scale,
            phase=phase,
        )
        for candidate in candidates
        for phase in (0, candidate // 3, (2 * candidate) // 3)
    ]


def table5(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
    target_samples: int = 150,
) -> TableResult:
    """Timer-based vs counter-based trigger accuracy (field-access,
    Full-Duplication). Following the paper's method, the counter
    interval is chosen per benchmark so both triggers take roughly the
    same number of samples."""
    runner = runner or ExperimentRunner()
    suite = _suite(workloads)

    # Phase 1: perfect profiles + timer runs (periods derive from the
    # baselines, which run serially but hit the persistent cache).
    timer_periods = {
        name: max(400, runner.baseline_cycles(name, scale) // target_samples)
        for name in suite
    }
    runner.prefetch(
        [
            RunSpec(
                name,
                Strategy.FULL_DUPLICATION,
                ("field-access",),
                trigger="counter",
                interval=1,
                scale=scale,
            )
            for name in suite
        ]
        + [
            _table5_timer_spec(name, timer_periods[name], scale)
            for name in suite
        ]
    )
    # Phase 2: each workload's counter grid is matched to its timer
    # run's sample count, so it can only be enumerated now.
    grid: List[RunSpec] = []
    for name in suite:
        timer_run = runner.run(
            _table5_timer_spec(name, timer_periods[name], scale)
        )
        interval = max(
            1,
            timer_run.stats.checks_executed
            // max(1, timer_run.stats.samples_taken),
        )
        grid.extend(_table5_counter_specs(name, interval, scale))
    runner.prefetch(grid)

    rows: List[List] = []
    timer_accs: List[float] = []
    counter_accs: List[float] = []
    for name in suite:
        perfect = runner.perfect_profiles(name, ("field-access",), scale)
        timer_run = runner.run(
            _table5_timer_spec(name, timer_periods[name], scale)
        )
        timer_samples = max(1, timer_run.stats.samples_taken)
        timer_acc = overlap_percentage(
            perfect["field-access"], timer_run.profiles["field-access"]
        )
        interval = max(1, timer_run.stats.checks_executed // timer_samples)
        # A single fixed stride on a small deterministic program can
        # lock onto a loop pattern (the paper's §4.4 deterministic-
        # correlation caveat) — much more likely here than on SPECjvm98
        # because our programs are tiny and perfectly regular. The
        # paper only requires the counter interval to *approximately*
        # match the timer's sample count, so we report the median over
        # a small grid of plain periodic counter configurations (three
        # nearby intervals x three phases).
        counter_accs_here = []
        counter_run = None
        for counter_spec in _table5_counter_specs(name, interval, scale):
            counter_run = runner.run(counter_spec)
            counter_accs_here.append(
                overlap_percentage(
                    perfect["field-access"],
                    counter_run.profiles["field-access"],
                )
            )
        counter_accs_here.sort()
        counter_acc = counter_accs_here[len(counter_accs_here) // 2]
        timer_accs.append(timer_acc)
        counter_accs.append(counter_acc)
        paper = paper_data.PAPER_TABLE5.get(name, (None, None))
        rows.append(
            [
                name,
                timer_acc,
                paper[0],
                counter_acc,
                paper[1],
                timer_samples,
                counter_run.stats.samples_taken,
            ]
        )
    rows.append(
        [
            "AVERAGE",
            mean(timer_accs),
            paper_data.PAPER_TABLE5_AVG[0],
            mean(counter_accs),
            paper_data.PAPER_TABLE5_AVG[1],
            None,
            None,
        ]
    )
    return TableResult(
        title=(
            "Table 5: trigger accuracy, field-access via Full-Duplication "
            "(overlap %)"
        ),
        headers=[
            "benchmark",
            "time-based",
            "(paper)",
            "counter-based",
            "(paper)",
            "t-samples",
            "c-samples",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 7 — javac call-edge profile


def figure7(
    runner: Optional[ExperimentRunner] = None,
    interval: int = 100,
    scale: int = 20,
    top_n: int = 30,
) -> Tuple[TableResult, float]:
    """Perfect vs sampled javac call-edge sample-percentages.

    Returns the per-edge series table and the overall overlap. The
    paper's javac overlaps 93.8% at interval 1000 with ~10^7 checks;
    our smaller run uses a proportionally smaller interval.
    """
    runner = runner or ExperimentRunner()
    runner.prefetch(
        [
            RunSpec(
                "javac",
                Strategy.FULL_DUPLICATION,
                ("call-edge",),
                trigger="counter",
                interval=i,
                scale=scale,
            )
            for i in (1, interval)
        ]
    )
    perfect = runner.perfect_profiles("javac", ("call-edge",), scale)[
        "call-edge"
    ]
    sampled_run = runner.run(
        RunSpec(
            "javac",
            Strategy.FULL_DUPLICATION,
            ("call-edge",),
            trigger="counter",
            interval=interval,
            scale=scale,
        )
    )
    sampled = sampled_run.profiles["call-edge"]
    overlap = overlap_percentage(perfect, sampled)
    rows: List[List] = []
    for key, perfect_pct, sampled_pct in overlap_series(
        perfect, sampled, top_n
    ):
        caller, site, callee = key
        rows.append(
            [f"{caller}@{site}->{callee}", perfect_pct, sampled_pct]
        )
    table = TableResult(
        title=(
            f"Figure 7: javac call-edge profile, interval {interval} "
            f"(overlap {overlap:.1f}%; paper: "
            f"{paper_data.PAPER_FIGURE7_OVERLAP}% at interval 1000)"
        ),
        headers=["call edge", "perfect%", "sampled%"],
        rows=rows,
        decimals=3,
    )
    return table, overlap


# ---------------------------------------------------------------------------
# Figure 8 — Jalapeño-specific (yieldpoint) optimization


def figure8a(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """Framework-only overhead with the yieldpoint optimization."""
    runner = runner or ExperimentRunner()
    suite = _suite(workloads)
    runner.prefetch(
        [
            RunSpec(
                name,
                Strategy.FULL_DUPLICATION,
                ("none",),
                yieldpoint_opt=True,
                scale=scale,
            )
            for name in suite
        ]
    )
    rows: List[List] = []
    overheads: List[float] = []
    for name in suite:
        pct = runner.overhead_pct(
            RunSpec(
                name,
                Strategy.FULL_DUPLICATION,
                ("none",),
                yieldpoint_opt=True,
                scale=scale,
            )
        )
        overheads.append(pct)
        rows.append([name, pct, paper_data.PAPER_FIGURE8A.get(name)])
    rows.append(
        ["AVERAGE", mean(overheads), paper_data.PAPER_FIGURE8A_AVG]
    )
    return TableResult(
        title=(
            "Figure 8(A): Jalapeño-specific framework overhead "
            "(yieldpoints replaced by checks, no samples)"
        ),
        headers=["benchmark", "overhead%", "(paper)"],
        rows=rows,
    )


def figure8b(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    intervals: Optional[Sequence[int]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """Total sampling overhead vs interval under the yieldpoint
    optimization (both instrumentations)."""
    runner = runner or ExperimentRunner()
    intervals = list(intervals or paper_data.PAPER_INTERVALS)
    suite = _suite(workloads)
    runner.prefetch(
        [
            RunSpec(
                name,
                Strategy.FULL_DUPLICATION,
                ("call-edge", "field-access"),
                trigger="counter",
                interval=interval,
                yieldpoint_opt=True,
                scale=scale,
            )
            for interval in intervals
            for name in suite
        ]
    )
    rows: List[List] = []
    for interval in intervals:
        totals: List[float] = []
        for name in suite:
            pct = runner.overhead_pct(
                RunSpec(
                    name,
                    Strategy.FULL_DUPLICATION,
                    ("call-edge", "field-access"),
                    trigger="counter",
                    interval=interval,
                    yieldpoint_opt=True,
                    scale=scale,
                )
            )
            totals.append(pct)
        rows.append(
            [interval, mean(totals), paper_data.PAPER_FIGURE8B.get(interval)]
        )
    return TableResult(
        title=(
            "Figure 8(B): Jalapeño-specific total sampling overhead "
            "(averaged over benchmarks)"
        ),
        headers=["interval", "total%", "(paper)"],
        rows=rows,
    )
