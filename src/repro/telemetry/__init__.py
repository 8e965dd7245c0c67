"""Structured telemetry: event tracing, metrics, and run manifests.

The observability subsystem for the reproduction (docs/OBSERVABILITY.md):

* :mod:`repro.telemetry.events` — typed event vocabulary;
* :mod:`repro.telemetry.ring` — bounded flight-recorder buffer;
* :mod:`repro.telemetry.recorder` — the hook surface the VM engines
  call (:class:`TelemetryRecorder`, optionally suppressing runs of
  identical events, and :class:`NullRecorder` for overhead gating);
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms;
* :mod:`repro.telemetry.manifest` — per-run provenance JSON;
* :mod:`repro.telemetry.compaction` — the record form (events and
  suppressed runs), the suppression windows, and the verified
  keyframe/delta snapshot stream;
* :mod:`repro.telemetry.exporters` — views over records: JSONL,
  Chrome trace_event, and the packed file codec with its reader;
* :mod:`repro.telemetry.streaming` — epoch-based live export: the
  streaming recorder, the append-only spool (writer/reader), and
  ``tail_epochs`` for following a live run.
"""

from repro.telemetry.compaction import (
    DeltaSnapshotStream,
    StreamCompactor,
    SuppressedRun,
    diff_metrics_snapshot,
    diff_profile_snapshot,
    inflate,
    record_weight,
    sample_site_profile,
    total_event_weight,
)
from repro.telemetry.events import (
    CHECK_TAKEN,
    DUP_ENTER,
    DUP_EXIT,
    EVENT_KINDS,
    GC_PAUSE,
    RECOMPILE,
    SAMPLE_FIRED,
    THREAD_SWITCH,
    TIMER_TICK,
    Event,
    event_from_dict,
)
from repro.telemetry.exporters import (
    HARNESS_TID,
    compact_jsonl_to_records,
    events_to_chrome_trace,
    events_to_jsonl,
    records_to_compact_jsonl,
)
from repro.telemetry.manifest import (
    RunManifest,
    aggregate_manifests,
    load_manifest,
    spec_as_dict,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    quantile_from_buckets,
)
from repro.telemetry.recorder import (
    NullRecorder,
    TelemetryRecorder,
    recompile_decision,
)
from repro.telemetry.ring import EventRing
from repro.telemetry.streaming import (
    SpoolReader,
    SpoolWriter,
    StreamingRecorder,
    tail_epochs,
)

__all__ = [
    "CHECK_TAKEN",
    "DUP_ENTER",
    "DUP_EXIT",
    "EVENT_KINDS",
    "GC_PAUSE",
    "HARNESS_TID",
    "RECOMPILE",
    "SAMPLE_FIRED",
    "THREAD_SWITCH",
    "TIMER_TICK",
    "DEFAULT_BUCKETS",
    "Counter",
    "DeltaSnapshotStream",
    "Event",
    "EventRing",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "RunManifest",
    "SpoolReader",
    "SpoolWriter",
    "StreamCompactor",
    "StreamingRecorder",
    "SuppressedRun",
    "TelemetryRecorder",
    "aggregate_manifests",
    "compact_jsonl_to_records",
    "diff_metrics_snapshot",
    "diff_profile_snapshot",
    "event_from_dict",
    "events_to_chrome_trace",
    "events_to_jsonl",
    "inflate",
    "load_manifest",
    "metric_key",
    "quantile_from_buckets",
    "recompile_decision",
    "record_weight",
    "records_to_compact_jsonl",
    "sample_site_profile",
    "spec_as_dict",
    "tail_epochs",
]
