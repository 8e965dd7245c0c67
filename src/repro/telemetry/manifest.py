"""Per-run manifests: the provenance record of an experiment cell.

A :class:`RunManifest` answers "what exactly produced this number?":
the full :class:`~repro.harness.experiment.RunSpec`, the engine, the
resolved trigger configuration (including the derived per-cell seed for
randomized triggers), simulated-cycle and wall-clock timings, the final
:class:`~repro.vm.tracing.ExecStats`, and a metrics snapshot. With
telemetry on, ``ExperimentRunner`` builds one per computed cell and
keeps it only on the cell's memoized ``RunResult.manifest``; pool
workers ship it back pickled inside that result. It is an in-memory
record of plain, JSON-able fields, not a file format: ``repro trace``,
``metrics``, ``audit`` and ``plan --check`` read it, and
``compaction_accuracy`` adds its report to it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


def spec_as_dict(spec) -> Dict[str, Any]:
    """JSON-able rendering of a :class:`RunSpec` (enums → values)."""
    payload = dataclasses.asdict(spec)
    payload["strategy"] = spec.strategy.value
    payload["instrumentation"] = list(spec.instrumentation)
    return payload


@dataclass
class RunManifest:
    """Provenance + measurements for one experiment cell."""

    spec: Dict[str, Any]
    engine: str
    trigger: Dict[str, Any]
    seed: Optional[int]
    cycles: int
    value: int
    wall_seconds: float
    stats: Dict[str, Any]
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: static-analysis section: audit verdict, cost certificate, and the
    #: static↔dynamic reconciliation result (see :mod:`repro.analysis`)
    analysis: Dict[str, Any] = field(default_factory=dict)
    #: self-profiling section: the overhead profiler's snapshot, its
    #: decomposition report, and the sample-bound verdict (empty when
    #: the producing runner had profiling disabled; docs/PROFILING.md)
    profiling: Dict[str, Any] = field(default_factory=dict)
    #: strategy-plan section for planned (mixed-strategy) cells: the
    #: default strategy, the per-function assignments the run actually
    #: applied, and per-strategy counts (empty for unplanned cells;
    #: see :mod:`repro.analysis.planner`)
    plan: Dict[str, Any] = field(default_factory=dict)
    source: str = "serial"
