"""Per-run manifests: the provenance record of an experiment cell.

A :class:`RunManifest` is a small JSON document answering "what exactly
produced this number?": the full :class:`~repro.harness.experiment.RunSpec`,
the engine, the resolved trigger configuration (including the derived
per-cell seed for randomized triggers), simulated-cycle and wall-clock
timings, the final :class:`~repro.vm.tracing.ExecStats`, and a metrics
snapshot. ``ExperimentRunner`` emits one per computed cell — including
manifests pickled back from pool workers — and folds each cell's
metrics into its own registry as the manifest arrives. For a roll-up
of a list of manifests, :func:`aggregate_manifests` builds a
sweep-level summary.

Manifests round-trip exactly: ``load_manifest(path) ==`` the manifest
that was written (tests/test_telemetry.py pins write → load → equal).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

MANIFEST_VERSION = 1


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
    #: static↔dynamic reconciliation result (empty when the producing
    #: runner had auditing disabled; see :mod:`repro.analysis`)
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
    version: int = MANIFEST_VERSION

    @property
    def label(self) -> str:
        spec = self.spec
        interval = spec.get("interval")
        suffix = f"@{interval}" if interval is not None else ""
        return (
            f"{spec.get('workload')}/{spec.get('strategy')}"
            f"/{spec.get('trigger')}{suffix}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def load_manifest(path: Union[str, pathlib.Path]) -> RunManifest:
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return RunManifest.from_dict(payload)


def aggregate_manifests(manifests: List[RunManifest]) -> Dict[str, Any]:
    """Sweep-level summary across cells (serial and pool alike).

    Counters that are meaningful as totals are summed; per-cell detail
    stays available through the individual manifests. Deterministic:
    output depends only on the manifest contents, not worker order,
    because cells are keyed and sorted by label.
    """
    from repro.telemetry.metrics import MetricsRegistry

    merged = MetricsRegistry()
    cells = []
    total_cycles = 0
    total_wall = 0.0
    by_source: Dict[str, int] = {}
    for m in sorted(manifests, key=lambda m: m.label):
        merged.merge_snapshot(m.metrics)
        total_cycles += m.cycles
        total_wall += m.wall_seconds
        by_source[m.source] = by_source.get(m.source, 0) + 1
        cells.append(
            {
                "label": m.label,
                "engine": m.engine,
                "seed": m.seed,
                "cycles": m.cycles,
                "wall_seconds": m.wall_seconds,
                "source": m.source,
            }
        )
    return {
        "version": MANIFEST_VERSION,
        "cells": cells,
        "cell_count": len(cells),
        "total_cycles": total_cycles,
        "total_wall_seconds": total_wall,
        "sources": dict(sorted(by_source.items())),
        "metrics": merged.snapshot(),
    }
