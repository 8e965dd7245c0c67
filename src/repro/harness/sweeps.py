"""Overhead/accuracy sweeps and Pareto analysis.

The paper's practical takeaway from Table 4 is a *range*: "there is
actually a large range of sample intervals (from 100 to 10,000) that
offer high accuracy with low overhead." This module turns that into a
queryable object per workload: sweep intervals, compute each point's
(overhead, accuracy), extract the Pareto frontier, and report the
operating range meeting explicit accuracy/overhead targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.harness.experiment import ExperimentRunner, RunSpec, overhead_percent
from repro.harness.tables import TableResult
from repro.profiles.overlap import overlap_percentage
from repro.sampling.framework import Strategy


@dataclass(frozen=True)
class SweepPoint:
    """One (interval, overhead, accuracy) measurement."""

    interval: int
    overhead_pct: float
    accuracy_pct: float
    samples: int

    def dominates(self, other: "SweepPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        return (
            self.overhead_pct <= other.overhead_pct
            and self.accuracy_pct >= other.accuracy_pct
            and (
                self.overhead_pct < other.overhead_pct
                or self.accuracy_pct > other.accuracy_pct
            )
        )


def interval_sweep(
    runner: ExperimentRunner,
    workload: str,
    intervals: Sequence[int] = (1, 3, 10, 30, 100, 300, 1000, 3000, 10000),
    instrumentation: Tuple[str, ...] = ("call-edge", "field-access"),
    strategy: Strategy = Strategy.FULL_DUPLICATION,
    scale: Optional[int] = None,
) -> List[SweepPoint]:
    """Measure each interval's total overhead and profile accuracy.

    Accuracy is the mean overlap across the instrumentation kinds,
    against the strategy's interval-1 perfect profiles.
    """
    # One batch for the whole sweep, with the perfect profile
    # (interval 1).
    grid = sorted(set(intervals) | {1})
    specs = [
        RunSpec(
            workload,
            strategy,
            instrumentation,
            trigger="counter",
            interval=interval,
            scale=scale,
        )
        for interval in grid
    ]
    results = dict(zip(grid, runner.run_many(specs)))
    base_cycles = runner.baseline_cycles(workload, scale)
    perfect = results[1].profiles
    points: List[SweepPoint] = []
    for interval in intervals:
        result = results[interval]
        overlaps = [
            overlap_percentage(perfect[kind], result.profiles[kind])
            for kind in perfect
        ]
        points.append(
            SweepPoint(
                interval=interval,
                overhead_pct=overhead_percent(base_cycles, result.cycles),
                accuracy_pct=sum(overlaps) / len(overlaps),
                samples=result.stats.samples_taken,
            )
        )
    return points


def pareto_frontier(points: Sequence[SweepPoint]) -> List[SweepPoint]:
    """The non-dominated points, sorted by overhead ascending."""
    frontier = [
        p for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    frontier.sort(key=lambda p: (p.overhead_pct, -p.accuracy_pct))
    return frontier


def operating_range(
    points: Sequence[SweepPoint],
    min_accuracy: float = 80.0,
    max_overhead: float = 15.0,
) -> List[int]:
    """Intervals meeting both targets (the paper's usable band)."""
    return sorted(
        p.interval
        for p in points
        if p.accuracy_pct >= min_accuracy and p.overhead_pct <= max_overhead
    )


def sweep_table(
    workload: str,
    points: Sequence[SweepPoint],
    min_accuracy: float = 80.0,
    max_overhead: float = 15.0,
) -> TableResult:
    """Render a sweep with Pareto/operating-range annotations."""
    frontier = set(
        (p.interval for p in pareto_frontier(points))
    )
    usable = set(operating_range(points, min_accuracy, max_overhead))
    rows = []
    for p in sorted(points, key=lambda p: p.interval):
        flags = []
        if p.interval in frontier:
            flags.append("pareto")
        if p.interval in usable:
            flags.append("usable")
        rows.append(
            [
                p.interval,
                p.overhead_pct,
                p.accuracy_pct,
                p.samples,
                "+".join(flags) or "-",
            ]
        )
    return TableResult(
        title=(
            f"Overhead/accuracy sweep: {workload} "
            f"(usable = accuracy >= {min_accuracy:g}% and overhead <= "
            f"{max_overhead:g}%)"
        ),
        headers=["interval", "overhead%", "accuracy%", "samples", "flags"],
        rows=rows,
    )
