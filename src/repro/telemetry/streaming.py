"""Live streaming export: flush telemetry to an append-only spool.

Every observability surface in the repo used to be exported only after
a run completed; this module makes the export *epoch-based and live*.
A :class:`StreamingRecorder` is a suppressing, context-tracking
:class:`TelemetryRecorder` that, at every epoch boundary (a fixed
number of emitted events), appends one JSON line to a **spool** — a
directory of rolling JSONL segments plus a small ``MANIFEST.json``
index — containing:

* the compacted event records completed since the previous epoch
  (captured *before* ring admission, so the spool never loses events to
  ring eviction — suppression windows stay open across epochs, keeping
  the record stream identical to a non-streaming recorder's);
* a delta-encoded metrics snapshot (keyframe + deltas, composing
  through ``MetricsRegistry.merge_snapshot``);
* a delta-encoded profiler snapshot when a profiler is attached
  (composing through :func:`repro.profiling.merge_snapshots`);
* newly interned calling-context table entries.

Memory is bounded: each epoch's buffers are drained on flush, and the
open file handle is the only per-spool state that grows with nothing.

**Bit-equal reconstruction.** Both snapshot kinds go through one
:class:`~repro.telemetry.compaction.DeltaSnapshotStream`, which
verifies every delta before committing it and falls back to a keyframe
on any mismatch. The result is a hard guarantee:
:meth:`SpoolReader.final_metrics` and :meth:`SpoolReader.final_profile`
reconstruct the end-of-run snapshots exactly, not approximately
(tests/test_streaming.py pins this for the full workload × strategy
matrix).

**Crash tolerance.** Each epoch is one line, flushed on write. A
process killed mid-write leaves at most one truncated trailing line,
which :class:`SpoolReader` tolerates (``reader.truncated`` is True and
the parsed prefix is served); anything else unparsable is corruption
and raises. ``MANIFEST.json`` is rewritten atomically (temp + rename)
so readers never observe a half-written index.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.profiling.cct import cct_from_events
from repro.profiling.profiler import merge_snapshots
from repro.telemetry.compaction import (
    DeltaSnapshotStream,
    Record,
    diff_metrics_snapshot,
    diff_profile_snapshot,
    inflate,
    record_as_dict,
    record_from_dict,
    replay,
)
from repro.telemetry.events import Event
from repro.telemetry.metrics import merge_metric_snapshots
from repro.telemetry.recorder import TelemetryRecorder

#: Spool format version (bump on incompatible layout changes).
SPOOL_VERSION = 1

#: Manifest file name inside a spool directory.
MANIFEST_NAME = "MANIFEST.json"

#: Default emitted events per epoch flush.
DEFAULT_EPOCH_EVENTS = 4096

#: Default segment roll size (bytes of JSONL per segment file).
DEFAULT_SEGMENT_BYTES = 1 << 20


def _segment_name(index: int) -> str:
    return f"segment-{index:06d}.jsonl"


class SpoolWriter:
    """Low-level append side of a spool directory.

    One JSON-able payload per :meth:`append` becomes one line in the
    current segment; segments roll at ``segment_max_bytes``. The
    manifest index is rewritten (atomically) after every append, so a
    live reader always has a consistent view of the closed prefix.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        label: str = "",
        meta: Optional[Dict[str, Any]] = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        stale = sorted(self.path.glob("segment-*.jsonl"))
        if stale:
            raise ReproError(
                f"spool directory {self.path} already holds "
                f"{len(stale)} segment(s); refusing to append to an "
                "existing spool"
            )
        self.label = label
        self.meta = dict(meta or {})
        self.segment_max_bytes = segment_max_bytes
        self.closed = False
        self._segments: List[Dict[str, Any]] = []
        self._handle = None
        self._epochs = 0
        self._roll()
        self._write_manifest("live")

    # -- internals -----------------------------------------------------------

    def _roll(self) -> None:
        if self._handle is not None:
            self._handle.close()
        name = _segment_name(len(self._segments))
        self._segments.append({"name": name, "epochs": 0, "bytes": 0})
        self._handle = open(self.path / name, "w", encoding="utf-8")

    def _write_manifest(
        self, status: str, final: Optional[Dict[str, Any]] = None
    ) -> None:
        payload: Dict[str, Any] = {
            "version": SPOOL_VERSION,
            "status": status,
            "label": self.label,
            "meta": self.meta,
            "epochs": self._epochs,
            "segment_max_bytes": self.segment_max_bytes,
            "segments": self._segments,
        }
        if final is not None:
            payload["final"] = final
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        tmp.write_text(
            json.dumps(payload, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path / MANIFEST_NAME)

    # -- append side ---------------------------------------------------------

    def append(self, payload: Dict[str, Any]) -> None:
        if self.closed:
            raise ReproError(f"spool {self.path} is closed")
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        segment = self._segments[-1]
        if segment["bytes"] and (
            segment["bytes"] + len(line) > self.segment_max_bytes
        ):
            self._roll()
            segment = self._segments[-1]
        self._handle.write(line)
        self._handle.flush()
        segment["bytes"] += len(line)
        segment["epochs"] += 1
        self._epochs += 1
        self._write_manifest("live")

    def close(self, final: Optional[Dict[str, Any]] = None) -> None:
        if self.closed:
            return
        self.closed = True
        self._handle.close()
        self._handle = None
        self._write_manifest("closed", final=final)


class StreamingRecorder(TelemetryRecorder):
    """A recorder that exports epochs to a spool mid-run.

    Args:
        path: spool directory to create (must not already be a spool).
        capacity: ring size, as :class:`TelemetryRecorder`. Suppression
            and context tracking are always on: the spool carries
            calling-context ids and the suppression windows key on them
            (`repro watch` renders hot contexts from either the
            profiler CCT or these event tags).
        epoch_events: emitted events per epoch flush — the bounded
            memory knob: completed records buffer at most one epoch.
        profiler: optional :class:`OverheadProfiler` whose snapshots are
            delta-streamed alongside the metrics.
        label / meta: provenance recorded in the spool manifest.

    The record stream is identical to a non-streaming
    ``TelemetryRecorder(suppress=True, context=True)`` run: spooled
    records are captured at completion time (before ring admission, so
    eviction never loses them) and suppression windows survive epoch
    boundaries un-flushed. :meth:`close` flushes the compactor, writes
    the final epoch (end-of-run metrics/profile snapshots), and marks
    the manifest ``closed``.
    """

    __slots__ = (
        "writer", "epoch_events", "profiler", "epochs_flushed",
        "_epoch_records", "_events_since_flush", "_ctx_mark",
        "_metrics_stream", "_profile_stream",
    )

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        capacity: int = 65536,
        epoch_events: int = DEFAULT_EPOCH_EVENTS,
        profiler=None,
        label: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ):
        if epoch_events < 1:
            raise ReproError(
                f"epoch_events must be >= 1, got {epoch_events}"
            )
        super().__init__(capacity=capacity, suppress=True, context=True)
        self.writer = SpoolWriter(path, label=label, meta=meta)
        self.epoch_events = epoch_events
        self.profiler = profiler
        self.epochs_flushed = 0
        self._epoch_records: List[Record] = []
        self._events_since_flush = 0
        self._ctx_mark = 0
        self._metrics_stream = DeltaSnapshotStream(
            diff_metrics_snapshot, merge_metric_snapshots
        )
        self._profile_stream = DeltaSnapshotStream(
            diff_profile_snapshot, merge_snapshots
        )

    # -- hot path ------------------------------------------------------------

    def _store(self, record: Record) -> None:
        # Completed records are spool-bound *before* ring admission:
        # the ring may evict, the spool never does.
        self._epoch_records.append(record)
        super()._store(record)

    def _emit(self, kind, cycles, tid, function, pc, data) -> None:
        super()._emit(kind, cycles, tid, function, pc, data)
        self._events_since_flush += 1
        if self._events_since_flush >= self.epoch_events:
            self.flush_epoch()

    # -- epoch flushing ------------------------------------------------------

    def flush_epoch(self, force: bool = False) -> bool:
        """Write one epoch line: buffered records + metric/profile
        deltas + new contexts. Skipped when nothing happened since the
        last flush (unless *force*, used by the final epoch so every
        spool ends with the end-of-run snapshots)."""
        records = self._epoch_records
        if not records and not self._events_since_flush and not force:
            return False
        self._epoch_records = []
        self._events_since_flush = 0
        payload: Dict[str, Any] = {
            "epoch": self.epochs_flushed,
            "stamp": {
                "wall": time.time(),
                "seq": self._seq,
                "dropped_events": self.dropped_events,
            },
            "events": [record_as_dict(r) for r in records],
            "metrics": self._metrics_stream.push(self.metrics.snapshot()),
        }
        if self.profiler is not None:
            payload["profile"] = self._profile_stream.push(
                self.profiler.snapshot()
            )
        fresh = self.contexts.entries_since(self._ctx_mark)
        if fresh:
            payload["contexts"] = fresh
            self._ctx_mark = len(self.contexts)
        self.writer.append(payload)
        self.epochs_flushed += 1
        return True

    def close(self) -> None:
        """Flush open suppression windows, write the final epoch, and
        mark the spool closed. Call after ``sync_metrics()`` so the
        final reconstructed snapshot equals the manifest's."""
        if self.writer.closed:
            return
        self.compactor.flush()
        self.flush_epoch(force=True)
        self.writer.close(final=self.summary())

    def summary(self) -> Dict[str, Any]:
        payload = super().summary()
        payload["stream"] = {
            "path": str(self.writer.path),
            "epochs": self.epochs_flushed,
            "epoch_events": self.epoch_events,
            "closed": self.writer.closed,
        }
        return payload


# ---------------------------------------------------------------------------
# read side


class SpoolReader:
    """Truncation-tolerant read-back of a (live or finished) spool.

    Parses every epoch line across the segment files in index order. A
    trailing line that fails to parse — the signature of a crash or
    kill mid-write — sets :attr:`truncated` and serves the parsed
    prefix; a malformed line anywhere else raises
    :class:`~repro.errors.ReproError`.
    """

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise ReproError(f"{self.path} is not a spool (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError:
            manifest = None
        if not isinstance(manifest, dict):
            raise ReproError(
                f"spool {self.path}: {MANIFEST_NAME} is not a JSON object"
            )
        self.manifest: Dict[str, Any] = manifest
        self.truncated = False
        self.epochs: List[Dict[str, Any]] = []
        # The directory scan, not the manifest index, is authoritative:
        # a crash can leave a segment the manifest never recorded.
        segments = sorted(self.path.glob("segment-*.jsonl"))
        for i, segment in enumerate(segments):
            last_segment = i == len(segments) - 1
            raw = segment.read_bytes()
            lines = raw.split(b"\n")
            # A file ending without a newline means the writer died
            # mid-line; keep the fragment and let the JSON parse below
            # decide whether it happens to be complete.
            body = lines[:-1] if raw.endswith(b"\n") else lines
            for j, line in enumerate(body):
                if not line.strip():
                    continue
                last_line = last_segment and j == len(body) - 1
                try:
                    self.epochs.append(json.loads(line.decode("utf-8")))
                except (ValueError, UnicodeDecodeError):
                    if last_line:
                        self.truncated = True
                        break
                    raise ReproError(
                        f"spool {segment.name}: corrupt epoch line {j}"
                    )

    # -- stream views --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.manifest.get("status") == "closed"

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", ""))

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self.manifest.get("meta", {}))

    def records(self) -> List[Record]:
        """Every spooled record, in completion order (the eviction-free
        union of all epochs)."""
        out: List[Record] = []
        for epoch in self.epochs:
            out.extend(record_from_dict(d) for d in epoch.get("events", ()))
        return out

    def events(self) -> List[Event]:
        """The inflated event stream."""
        return inflate(self.records())

    def contexts(self) -> Dict[str, str]:
        """Accumulated context-id → path table."""
        table: Dict[str, str] = {}
        for epoch in self.epochs:
            for ctx, joined in epoch.get("contexts", ()):
                table[str(ctx)] = joined
        return table

    # -- snapshot reconstruction ---------------------------------------------

    def _replay(self, field: str, merge, error: str) -> List[Dict[str, Any]]:
        records = [epoch[field] for epoch in self.epochs if field in epoch]
        if records and records[0]["kind"] != "keyframe":
            raise ReproError(error)
        return replay(records, merge)

    def metrics_snapshots(self) -> List[Dict[str, Dict[str, Any]]]:
        """Replay the per-epoch metric records into full snapshots."""
        return self._replay(
            "metrics", merge_metric_snapshots,
            "spool: delta before any keyframe",
        )

    def final_metrics(self) -> Dict[str, Dict[str, Any]]:
        snapshots = self.metrics_snapshots()
        return snapshots[-1] if snapshots else {}

    def profile_snapshots(self) -> List[Dict[str, Any]]:
        return self._replay(
            "profile", merge_snapshots,
            "spool: profile delta before keyframe",
        )

    def final_profile(self) -> Optional[Dict[str, Any]]:
        snapshots = self.profile_snapshots()
        return snapshots[-1] if snapshots else None

    # -- derived views -------------------------------------------------------

    def cct_table(self) -> Dict[str, Dict[str, List[float]]]:
        """The hottest available calling-context table: the profiler
        CCT when the spool carries profile snapshots with one, else a
        pseudo-CCT recovered from ctx-tagged events."""
        profile = self.final_profile()
        if profile is not None:
            cct = profile.get("cct")
            if cct:
                return cct
        return cct_from_events(self.events(), self.contexts())

    def epoch_stamps(self) -> List[Dict[str, Any]]:
        return [dict(e.get("stamp", {})) for e in self.epochs]

    def summary(self) -> Dict[str, Any]:
        """Spool-level accounting for rendering and tests."""
        records = 0
        for epoch in self.epochs:
            records += len(epoch.get("events", ()))
        stamps = self.epoch_stamps()
        return {
            "path": str(self.path),
            "status": self.manifest.get("status"),
            "label": self.label,
            "truncated": self.truncated,
            "epochs": len(self.epochs),
            "records": records,
            "events": stamps[-1]["seq"] if stamps else 0,
            "dropped_events": (
                stamps[-1].get("dropped_events", 0) if stamps else 0
            ),
            "contexts": len(self.contexts()),
        }


def tail_epochs(
    path: Union[str, pathlib.Path],
    poll_seconds: float = 0.5,
    timeout: Optional[float] = None,
) -> Iterator[Tuple["SpoolReader", List[Dict[str, Any]]]]:
    """Follow a live spool: yield ``(reader, new_epochs)`` as epochs
    land, until the spool closes (or *timeout* seconds pass with the
    spool still live). The final yield always reflects the closed (or
    timed-out) state, so consumers can render a last frame.
    """
    seen = 0
    waited = 0.0
    while True:
        reader = SpoolReader(path)
        fresh = reader.epochs[seen:]
        if fresh or reader.closed or reader.truncated:
            yield reader, fresh
            seen = len(reader.epochs)
            waited = 0.0
        if reader.closed or reader.truncated:
            return
        time.sleep(poll_seconds)
        waited += poll_seconds
        if timeout is not None and waited >= timeout:
            yield SpoolReader(path), []
            return
