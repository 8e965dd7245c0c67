"""Structured telemetry: event tracing, metrics, and run manifests.

The observability subsystem for the reproduction (docs/OBSERVABILITY.md):

* :mod:`repro.telemetry.events` — typed event vocabulary;
* :mod:`repro.telemetry.ring` — bounded flight-recorder buffer;
* :mod:`repro.telemetry.recorder` — the hook surface the VM engines
  call (:class:`TelemetryRecorder`, optionally suppressing runs of
  identical events, and :class:`NullRecorder` for overhead gating);
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms, and
  the metrics snapshot's merge and diff;
* :mod:`repro.telemetry.manifest` — the per-cell provenance record;
* :mod:`repro.telemetry.compaction` — the record form (events and
  suppressed runs), the suppression windows, and the verified
  keyframe/delta snapshot stream;
* :mod:`repro.telemetry.exporters` — views over records: JSONL,
  Chrome trace_event, and the packed file codec with its reader;
* :mod:`repro.telemetry.streaming` — epoch-based live export: the
  streaming recorder, the append-only spool (writer/reader), and
  ``tail_epochs`` for following a live run.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "compaction": (
        "DeltaSnapshotStream", "StreamCompactor", "SuppressedRun", "inflate",
        "record_weight", "sample_site_profile", "total_event_weight",
    ),
    "events": (
        "CHECK_TAKEN", "DUP_ENTER", "DUP_EXIT", "EVENT_KINDS", "GC_PAUSE",
        "RECOMPILE", "SAMPLE_FIRED", "THREAD_SWITCH", "TIMER_TICK", "Event",
        "event_from_dict",
    ),
    "exporters": (
        "HARNESS_TID", "compact_jsonl_to_records", "events_to_chrome_trace",
        "events_to_jsonl", "records_to_compact_jsonl",
    ),
    "manifest": ("RunManifest", "spec_as_dict"),
    "metrics": (
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "diff_metrics_snapshot", "metric_key", "quantile_from_buckets",
    ),
    "recorder": ("NullRecorder", "TelemetryRecorder", "recompile_decision"),
    "ring": ("EventRing",),
    "streaming": (
        "SpoolReader", "SpoolWriter", "StreamingRecorder", "tail_epochs",
    ),
})
