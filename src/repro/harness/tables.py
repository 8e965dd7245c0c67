"""Generators for every table and figure in the paper's evaluation.

Each function runs the required experiment matrix through an
:class:`ExperimentRunner` and returns a :class:`TableResult` whose rows
place our measured values next to the paper's published ones. The
``benchmarks/`` directory has one pytest-benchmark harness per
generator; EXPERIMENTS.md records a captured run.

Every generator *enumerates* its full experiment matrix once, keyed by
row coordinates, runs it as one :meth:`ExperimentRunner.run_many`
batch and reads its rows from the returned results. That batch
transforms, verifies and audits each cell family once (the cells that
differ only in trigger, interval, phase, timer period or seed — Table
4's interval sweep, Table 5's trigger grid), and fans the families over
the worker pool when the runner is configured with ``jobs > 1``
(``--jobs`` / ``$REPRO_JOBS``), so a parallel run is cell-for-cell
identical to a serial one. Table 5 matches its counter grid to its
timer runs, so it runs two batches: the timer runs, then the perfect
profiles with the grids, whose cells the batch derives from each
family's interval-1 run. Table 2's ``xform ms`` is the family's single
transform time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import paper_data
from repro.harness.experiment import (
    ExperimentRunner,
    RunResult,
    RunSpec,
    overhead_percent,
)
from repro.harness.formatting import mean, render_table
from repro.profiles.overlap import overlap_percentage, overlap_series
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


def _run_matrix(
    runner: ExperimentRunner, matrix: Dict[tuple, RunSpec]
) -> Dict[tuple, RunResult]:
    """Run a matrix keyed by row coordinates as one batch."""
    return dict(zip(matrix, runner.run_many(list(matrix.values()))))


def _overhead(runner: ExperimentRunner, result: RunResult) -> float:
    """*result*'s total overhead over its workload's baseline, percent."""
    spec = result.spec
    return overhead_percent(
        runner.baseline_cycles(spec.workload, spec.scale), result.cycles
    )


#: The two instrumentations the paper measures throughout.
_CALL_FIELD = ("call-edge", "field-access")


def _per_kind_table(
    runner: Optional[ExperimentRunner],
    workloads: Optional[Sequence[str]],
    scale: Optional[int],
    strategy: Strategy,
    paper: Dict[str, Tuple[float, float]],
    paper_avg: Tuple[float, float],
    title: str,
) -> TableResult:
    """Tables 1 and 3: the overhead of call-edge and of field-access
    instrumentation, each alone, under *strategy*."""
    runner = runner or ExperimentRunner()
    suite = _suite(workloads)
    cells = _run_matrix(
        runner,
        {
            (name, kind): RunSpec(name, strategy, (kind,), scale=scale)
            for name in suite
            for kind in _CALL_FIELD
        },
    )
    rows: List[List] = []
    for name in suite:
        call, fld = (
            _overhead(runner, cells[name, kind]) for kind in _CALL_FIELD
        )
        published = paper.get(name, (None, None))
        rows.append([name, call, published[0], fld, published[1]])
    rows.append(
        [
            "AVERAGE",
            mean([row[1] for row in rows]),
            paper_avg[0],
            mean([row[3] for row in rows]),
            paper_avg[1],
        ]
    )
    return TableResult(
        title=title,
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
# Table 1 — exhaustive instrumentation overhead


def table1(
    runner: Optional[ExperimentRunner] = None,
    workloads: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> TableResult:
    """Exhaustive call-edge / field-access overhead (no framework)."""
    return _per_kind_table(
        runner, workloads, scale, Strategy.EXHAUSTIVE,
        paper_data.PAPER_TABLE1, paper_data.PAPER_TABLE1_AVG,
        "Table 1: exhaustive instrumentation overhead (%)",
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
    cells = _run_matrix(
        runner,
        {
            (name, strategy): RunSpec(name, strategy, kinds, scale=scale)
            for name in suite
            for strategy, kinds in (
                (Strategy.FULL_DUPLICATION, ("none",)),
                (Strategy.CHECKS_ONLY_BACKEDGE, ()),
                (Strategy.CHECKS_ONLY_ENTRY, ()),
            )
        },
    )
    rows: List[List] = []
    for name in suite:
        program, _ = runner.baseline(name, scale)
        full = cells[name, Strategy.FULL_DUPLICATION]
        paper = paper_data.PAPER_TABLE2.get(name, (None,) * 5)
        rows.append(
            [
                name,
                _overhead(runner, full),
                paper[0],
                _overhead(runner, cells[name, Strategy.CHECKS_ONLY_BACKEDGE]),
                paper[1],
                _overhead(runner, cells[name, Strategy.CHECKS_ONLY_ENTRY]),
                paper[2],
                (full.code_bytes - program.total_code_size_bytes()) / 1024.0,
                # Transform time relative to a from-scratch compile is
                # what the paper's "compile time increase" measures; we
                # report the duplication pass time in ms (informational
                # — Python timing).
                full.transform_seconds * 1000.0,
            ]
        )
    rows.append(
        [
            "AVERAGE",
            mean([row[1] for row in rows]),
            paper_data.PAPER_TABLE2_AVG[0],
            mean([row[3] for row in rows]),
            paper_data.PAPER_TABLE2_AVG[1],
            mean([row[5] for row in rows]),
            paper_data.PAPER_TABLE2_AVG[2],
            mean([row[7] for row in rows]),
            mean([row[8] for row in rows]),
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
    return _per_kind_table(
        runner, workloads, scale, Strategy.NO_DUPLICATION,
        paper_data.PAPER_TABLE3, paper_data.PAPER_TABLE3_AVG,
        "Table 3: No-Duplication checking overhead (%)",
    )


# ---------------------------------------------------------------------------
# Table 4 — sampled overhead and accuracy vs interval


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
    # Per (workload, strategy): the perfect profile (the paper's
    # interval-1 definition), the framework alone (no trigger, key
    # None), and every sampled interval.
    cells = _run_matrix(
        runner,
        {
            (name, strategy, interval): RunSpec(
                name, strategy, _CALL_FIELD,
                trigger="never" if interval is None else "counter",
                interval=interval, scale=scale,
            )
            for name in suite
            for strategy in (Strategy.FULL_DUPLICATION, Strategy.NO_DUPLICATION)
            for interval in (1, None, *intervals)
        },
    )
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
                perfect = cells[name, strategy, 1].profiles
                result = cells[name, strategy, interval]
                call_accs.append(
                    overlap_percentage(
                        perfect["call-edge"], result.profiles["call-edge"]
                    )
                )
                field_accs.append(
                    overlap_percentage(
                        perfect["field-access"],
                        result.profiles["field-access"],
                    )
                )
                samples.append(result.stats.samples_taken)
                base = runner.baseline_cycles(name, scale)
                total_ohs.append(overhead_percent(base, result.cycles))
                sampled_ohs.append(
                    100.0
                    * (result.cycles - cells[name, strategy, None].cycles)
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


def _table5_spec(name: str, scale: Optional[int], **trigger) -> RunSpec:
    """A Table 5 cell: field-access via Full-Duplication."""
    return RunSpec(
        name,
        Strategy.FULL_DUPLICATION,
        ("field-access",),
        scale=scale,
        **trigger,
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
        _table5_spec(
            name, scale, trigger="counter", interval=candidate, phase=phase
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

    # Batch 1: the timer runs (periods derive from the baselines, which
    # run serially but hit the persistent cache).
    timer_specs = [
        _table5_spec(
            name,
            scale,
            trigger="timer",
            timer_period=max(
                400, runner.baseline_cycles(name, scale) // target_samples
            ),
        )
        for name in suite
    ]
    timer_runs = dict(zip(suite, runner.run_many(timer_specs)))
    # Batch 2: the perfect profiles and each workload's counter grid,
    # matched to its timer run's sample count, in one batch, so each
    # family's interval-1 cell records the windows its grid is derived
    # from.
    grids = {
        name: _table5_counter_specs(
            name,
            max(
                1,
                timer_runs[name].stats.checks_executed
                // max(1, timer_runs[name].stats.samples_taken),
            ),
            scale,
        )
        for name in suite
    }
    grid_runs = iter(
        runner.run_many(
            [
                _table5_spec(name, scale, trigger="counter", interval=1)
                for name in suite
            ]
            + [spec for grid in grids.values() for spec in grid]
        )
    )
    perfects = {name: next(grid_runs) for name in suite}

    rows: List[List] = []
    for name in suite:
        perfect = perfects[name].profiles["field-access"]
        timer_run = timer_runs[name]
        timer_acc = overlap_percentage(
            perfect, timer_run.profiles["field-access"]
        )
        # A single fixed stride on a small deterministic program can
        # lock onto a loop pattern (the paper's §4.4 deterministic-
        # correlation caveat) — much more likely here than on SPECjvm98
        # because our programs are tiny and perfectly regular. The
        # paper only requires the counter interval to *approximately*
        # match the timer's sample count, so we report the median over
        # a small grid of plain periodic counter configurations (three
        # nearby intervals x three phases).
        counter_runs = [next(grid_runs) for _ in grids[name]]
        counter_accs = sorted(
            overlap_percentage(perfect, run.profiles["field-access"])
            for run in counter_runs
        )
        paper = paper_data.PAPER_TABLE5.get(name, (None, None))
        rows.append(
            [
                name,
                timer_acc,
                paper[0],
                counter_accs[len(counter_accs) // 2],
                paper[1],
                max(1, timer_run.stats.samples_taken),
                counter_runs[-1].stats.samples_taken,
            ]
        )
    rows.append(
        [
            "AVERAGE",
            mean([row[1] for row in rows]),
            paper_data.PAPER_TABLE5_AVG[0],
            mean([row[3] for row in rows]),
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
    perfect, sampled = (
        result.profiles["call-edge"]
        for result in runner.run_many(
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
    )
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
    results = runner.run_many(
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
    rows: List[List] = [
        [name, _overhead(runner, result), paper_data.PAPER_FIGURE8A.get(name)]
        for name, result in zip(suite, results)
    ]
    rows.append(
        [
            "AVERAGE",
            mean([row[1] for row in rows]),
            paper_data.PAPER_FIGURE8A_AVG,
        ]
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
    cells = _run_matrix(
        runner,
        {
            (interval, name): RunSpec(
                name,
                Strategy.FULL_DUPLICATION,
                _CALL_FIELD,
                trigger="counter",
                interval=interval,
                yieldpoint_opt=True,
                scale=scale,
            )
            for interval in intervals
            for name in suite
        },
    )
    rows: List[List] = [
        [
            interval,
            mean([_overhead(runner, cells[interval, name]) for name in suite]),
            paper_data.PAPER_FIGURE8B.get(interval),
        ]
        for interval in intervals
    ]
    return TableResult(
        title=(
            "Figure 8(B): Jalapeño-specific total sampling overhead "
            "(averaged over benchmarks)"
        ),
        headers=["interval", "total%", "(paper)"],
        rows=rows,
    )
