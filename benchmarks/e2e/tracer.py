"""Layer spans recorded from outside the program.

:meth:`Tracer.install` wraps each layer's public entry points (the
``TARGETS`` table) in place. Every call opens a span ``[layer, name,
start, end, parent]`` kept in memory; :meth:`Tracer.write` dumps them
once, when the child process is done. The driver folds the spans of all
traced processes into per-layer self times with :func:`layer_totals`.

Two rules keep the spans a clean partition of the wall time:

* a call into the layer that is already innermost opens no new span, so
  ``CompiledEngine.__init__`` -> ``FastEngine.__init__`` -> ``_compile``
  and ``ExperimentRunner.run`` -> ``.baseline`` are one span each;
* inside ``vm.execute`` only ``vm.lower`` opens spans: functions that
  dynamic programs load or replace mid-run are compiled there, through
  the engines' ``_compile``. Observer hooks that fire while the guest
  runs (recorder, profiler, certifier) are execution cost, which is what
  the ``observed`` workload measures, and tracing them would put the
  tracer on the VM's hot path.

The lowering counts are read when ``VM.run`` returns, so they include
the functions compiled lazily during the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _note_engine(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.engines.append(args[0])


def _count_run(tracer: "Tracer", args: tuple, result: object) -> None:
    """Guest instructions of the run, and the lowering counts of the
    engine it built, now that lazy compiles are done too."""
    counts = tracer.counts
    counts["vm.execute.instructions"] += result.stats.instructions
    while tracer.engines:
        engine = tracer.engines.pop()
        compiled = getattr(engine, "compile_counts", None)
        if compiled is None:
            # The fast engine keeps one handler list per compiled function.
            counts["vm.lower.regions"] += len(engine._codes)
            continue
        for name in ("regions", "cache_hits", "fallbacks"):
            counts[f"vm.lower.{name}"] += compiled[name]


#: (module, attribute path, layer, hook on return). A target whose module
#: the child never imported is skipped: that layer does not run there.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.cli", "main", "harness", None),
    ("repro.harness.experiment", "ExperimentRunner.run", "harness", None),
    ("repro.harness.experiment", "ExperimentRunner.baseline", "harness", None),
    ("repro.workloads.suite", "Workload.compile", "frontend", None),
    ("repro.sampling.framework", "SamplingFramework.transform",
     "sampling.transform", None),
    ("repro.sampling.framework", "transform_planned", "sampling.transform", None),
    ("repro.harness.experiment", "audit_program", "analysis.audit", None),
    ("repro.harness.experiment", "IncrementalCertifier.from_program",
     "analysis.audit", None),
    ("repro.harness.experiment", "reconcile", "analysis.reconcile", None),
    ("repro.harness.experiment", "reconcile_plan", "analysis.reconcile", None),
    ("repro.harness.experiment", "property1_vs_baseline",
     "analysis.reconcile", None),
    ("repro.harness.experiment", "reconcile_profile", "analysis.reconcile", None),
    ("repro.vm.engine", "FastEngine.__init__", "vm.lower", _note_engine),
    ("repro.vm.compiler", "CompiledEngine.__init__", "vm.lower", _note_engine),
    ("repro.vm.engine", "FastEngine._compile", "vm.lower", None),
    ("repro.vm.compiler", "CompiledEngine._compile", "vm.lower", None),
    ("repro.vm.interpreter", "VM.run", "vm.execute", _count_run),
    ("repro.telemetry.metrics", "MetricsRegistry.counter", "telemetry", None),
    ("repro.telemetry.metrics", "MetricsRegistry.merge_snapshot", "telemetry", None),
    ("repro.telemetry.recorder", "TelemetryRecorder.sync_metrics", "telemetry", None),
    ("repro.telemetry.compaction", "CompactingRecorder.sync_metrics",
     "telemetry", None),
    ("repro.telemetry.streaming", "StreamingRecorder.close", "telemetry", None),
    ("repro.telemetry.manifest", "RunManifest.__init__", "telemetry", None),
    ("repro.harness.experiment", "resolve_ledger", "profiling", None),
    ("repro.harness.experiment", "decompose", "profiling", None),
    ("repro.profiling.profiler", "OverheadProfiler.snapshot", "profiling", None),
)

#: Every layer a span can carry, in pipeline order. ``process`` is
#: interpreter start-up and exit (which includes writing the span file),
#: added by the driver around each child.
LAYERS: Tuple[str, ...] = (
    "process", "import", "harness", "frontend", "sampling.transform",
    "analysis.audit", "analysis.reconcile", "vm.lower", "vm.execute",
    "telemetry", "profiling",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: ``module:attribute`` targets not found in an imported module
        #: (an entry point renamed or removed since the benchmark was
        #: defined); their time shows up in the caller's layer.
        self.missing: List[str] = []
        #: engines built by a ``VM.run`` that has not returned yet
        self.engines: List[object] = []
        self._open: List[int] = []

    def _opens(self, layer: str) -> bool:
        if not self._open:
            return True
        top = self.spans[self._open[-1]][0]
        if top == layer:
            return False
        return top != "vm.execute" or layer == "vm.lower"

    def add(self, layer: str, name: str, start: float, end: float) -> None:
        """Record a top-level span measured by the caller."""
        self.spans.append([layer, name, start, end, -1])

    @contextmanager
    def span(self, layer: str, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [layer, name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner: object, attr: str, layer: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._opens(layer):
                return original(*args, **kwargs)
            with self.span(layer, name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(self, args, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every target whose module is already imported."""
        for module_name, path, layer, on_return in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owners, attr = path.split(".")
            owner: object = module
            try:
                for part in owners:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}:{path}")
                continue
            self.wrap(owner, attr, layer, path, on_return)

    def write(self, path: str, started: float) -> None:
        """Dump spans and counts; *started* is the process's first stamp."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "started": started,
                    "finished": time.perf_counter(),
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "missing": self.missing,
                },
                handle,
            )


def layer_totals(spans: Iterable[list]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and span counts per layer.

    A span's self time is its duration minus the durations of its
    direct children, so the self times of one process sum to the
    durations of its top-level spans.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for layer, _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    for index, (layer, _name, start, end, _parent) in enumerate(spans):
        self_s[layer] += (end - start) - child_time[index]
        calls[layer] += 1
    return self_s, calls


def chrome_trace(processes: List[dict]) -> dict:
    """Chrome ``trace_event`` document: one pid per traced process, one
    complete event per span, timestamps relative to the first spawn."""
    origin = min(proc["spawned"] for proc in processes)
    events = []
    for pid, proc in enumerate(processes, start=1):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 1,
            "args": {"name": proc["label"]},
        })
        for layer, name, start, end, _parent in proc["spans"]:
            events.append({
                "ph": "X", "name": name, "cat": layer, "pid": pid, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
