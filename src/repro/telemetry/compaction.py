"""Trace-aware redundancy suppression for telemetry streams.

At production sampling intervals the flight recorder is dominated by
*runs*: per-(kind, thread, site) sequences whose successive events
differ only by constant strides — the sequence number advances by the
same step, the cycle stamp by the same period, integer payload fields
(tick indices, dup-enter stamps) by the same delta. A deterministic
cycle-accurate simulator produces such runs by construction whenever
the guest sits in a loop, so collapsing them is *lossless*: a
:class:`SuppressedRun` stores the first event plus the strides and the
repeat count, and :func:`inflate` regenerates the original events
bit-for-bit (pinned across all three engines by
tests/test_compaction.py).

The module has three layers:

* **suppression windows** — :class:`StreamCompactor` keeps one open
  window per (kind, tid, function, pc) key and folds each pushed event
  into its window when the strides match, else flushes a record.
  ``TelemetryRecorder(suppress=True)`` routes its hook surface through
  a compactor, so every engine compacts transparently; without
  ``suppress`` no compactor exists (the same compile-time no-op
  contract as ``NullRecorder`` — engines only ever branch on
  ``recorder is None``).
* **records** — :func:`record_as_dict` / :func:`record_from_dict` are
  the one record form. Plain events render exactly as
  :meth:`Event.as_dict`, runs nest under a ``"run"`` key; spool epochs
  and the packed file codec (``repro.telemetry.exporters``) both use
  it, and plain JSONL and Chrome traces are views over the inflated
  events.
* **delta-encoded snapshots** — :func:`diff_metrics_snapshot` renders
  the change between two ``MetricsRegistry`` snapshots *as another
  valid snapshot* (counter increments, histogram bucket deltas, changed
  gauges), so keyframe + deltas reconstruct exactly through the
  existing associative merge — the same merge pool workers already
  use. :func:`diff_profile_snapshot` does the same for
  ``OverheadProfiler`` snapshots. :class:`DeltaSnapshotStream` encodes
  either kind as keyframes and verified deltas, and :func:`replay`
  rebuilds the sequence.

Accuracy is quantified with the paper's own §4.4 metric:
:func:`sample_site_profile` projects a (possibly suppressed) stream
onto a (function, pc) sample profile, and the harness compares it
against a perfect interval-1 profile with ``overlap_percentage``
(docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.profiles.profile import Profile
from repro.telemetry.events import SAMPLE_FIRED, Event, event_from_dict

#: A full snapshot every N pushes; between keyframes only changed keys
#: travel. Small enough that a reader seeking into a stream replays at
#: most 15 deltas, large enough to amortize keyframe cost over
#: steady-state runs.
KEYFRAME_EVERY = 16


class SuppressedRun(NamedTuple):
    """``count`` events collapsed into one record.

    The i-th original event (0-based) is::

        Event(first.seq + i * seq_stride,
              first.kind,
              first.cycles + i * cycles_stride,
              first.tid, first.function, first.pc,
              data with each strideable field advanced by i * stride)

    ``data_strides`` aligns with ``first.data``; a stride of 0 means the
    field is constant across the run (which also covers non-integer
    payload values — only exact-int fields ever get a nonzero stride).
    """

    first: Event
    count: int
    seq_stride: int
    cycles_stride: int
    data_strides: Tuple[int, ...]

    @property
    def span_cycles(self) -> int:
        """Time span covered by the run (first to last event)."""
        return (self.count - 1) * self.cycles_stride

    def events(self) -> Iterator[Event]:
        """Regenerate the collapsed events, in order."""
        first = self.first
        yield first
        data = first.data
        strides = self.data_strides
        for i in range(1, self.count):
            if strides and any(strides):
                row = tuple(
                    (k, v if s == 0 else v + i * s)
                    for (k, v), s in zip(data, strides)
                )
            else:
                row = data
            yield Event(
                first.seq + i * self.seq_stride,
                first.kind,
                first.cycles + i * self.cycles_stride,
                first.tid,
                first.function,
                first.pc,
                row,
            )


#: A compacted stream element: a plain event or a collapsed run.
Record = Union[Event, SuppressedRun]


def record_weight(record: Record) -> int:
    """How many original events a record stands for."""
    return record.count if isinstance(record, SuppressedRun) else 1


def total_event_weight(records: Iterable[Record]) -> int:
    return sum(record_weight(r) for r in records)


def inflate(records: Iterable[Record]) -> List[Event]:
    """Re-inflate a compacted stream to the original events.

    Events come back in global ``seq`` order regardless of how runs
    interleaved, so ``inflate(compact(stream)) == stream`` exactly.
    """
    out: List[Event] = []
    for record in records:
        if isinstance(record, SuppressedRun):
            out.extend(record.events())
        else:
            out.append(record)
    out.sort(key=lambda e: e.seq)
    return out


def _strideable(value: Any) -> bool:
    # bool is an int subclass but True+1 would silently become 2.
    return type(value) is int


class _Window:
    """One open suppression window: a pending first event, then (once a
    second compatible event arrives) locked strides and a count."""

    __slots__ = ("first", "count", "seq_stride", "cycles_stride",
                 "data_strides")

    def __init__(self, first: Event):
        self.first = first
        self.count = 1
        self.seq_stride = 0
        self.cycles_stride = 0
        self.data_strides: Tuple[int, ...] = ()

    def derive(self, event: Event) -> bool:
        """Try to lock strides from the pending first event to *event*."""
        first = self.first
        if len(event.data) != len(first.data):
            return False
        strides: List[int] = []
        for (k0, v0), (k1, v1) in zip(first.data, event.data):
            if k0 != k1:
                return False
            if _strideable(v0) and _strideable(v1):
                strides.append(v1 - v0)
            elif v0 == v1 and type(v0) is type(v1):
                strides.append(0)
            else:
                return False
        self.seq_stride = event.seq - first.seq
        self.cycles_stride = event.cycles - first.cycles
        self.data_strides = tuple(strides)
        self.count = 2
        return True

    def extends(self, event: Event) -> bool:
        """Does *event* continue the locked arithmetic progression?"""
        first = self.first
        i = self.count
        if event.seq != first.seq + i * self.seq_stride:
            return False
        if event.cycles != first.cycles + i * self.cycles_stride:
            return False
        if len(event.data) != len(first.data):
            return False
        for (k0, v0), s, (k1, v1) in zip(
            first.data, self.data_strides, event.data
        ):
            if k0 != k1:
                return False
            if s == 0:
                if v0 != v1 or type(v0) is not type(v1):
                    return False
            elif v1 != v0 + i * s:
                return False
        return True

    def record(self) -> Record:
        if self.count == 1:
            return self.first
        return SuppressedRun(
            self.first, self.count, self.seq_stride, self.cycles_stride,
            self.data_strides,
        )


class StreamCompactor:
    """Per-key suppression windows over an event stream.

    Pushed events are grouped by (kind, tid, function, pc) — the
    site-and-context key — and each group's consecutive events collapse
    while they advance by constant strides. Completed records go to
    ``sink`` in completion order; :meth:`flush` closes every open
    window (end of run), :meth:`pending_records` peeks without closing
    (live snapshot reads).

    With ``context_key=True``, events carrying a trailing ``("ctx",
    id)`` data field (a recorder built with ``context=True``) group by
    ``(kind, tid, ctx, pc)`` instead — the full calling context
    replaces the bare function name, so the same pc reached through
    different call chains gets separate windows. Events without a ctx
    field (timer ticks, thread switches, annotations) keep the
    site key. The grouping is still loss-free: a context id pins the
    leaf function, so every window remains homogeneous in
    (kind, tid, function, pc) and :func:`inflate` is unchanged.
    """

    __slots__ = ("sink", "events_in", "records_out", "suppressed",
                 "max_run", "context_key", "_windows")

    def __init__(
        self,
        sink: Callable[[Record], None],
        context_key: bool = False,
    ):
        self.sink = sink
        self.events_in = 0
        self.records_out = 0
        self.suppressed = 0
        self.max_run = 1
        self.context_key = bool(context_key)
        self._windows: Dict[Tuple, _Window] = {}

    def push(self, event: Event) -> None:
        self.events_in += 1
        if self.context_key:
            data = event.data
            if data and data[-1][0] == "ctx":
                # int ctx ids cannot collide with str function names,
                # so both key shapes share one window table.
                key = (event.kind, event.tid, data[-1][1], event.pc)
            else:
                key = (event.kind, event.tid, event.function, event.pc)
        else:
            key = (event.kind, event.tid, event.function, event.pc)
        window = self._windows.get(key)
        if window is None:
            self._windows[key] = _Window(event)
            return
        if window.count == 1:
            if window.derive(event):
                self.suppressed += 1
                return
            self._emit(window.first)
            self._windows[key] = _Window(event)
            return
        if window.extends(event):
            window.count += 1
            self.suppressed += 1
            return
        self._close(window)
        self._windows[key] = _Window(event)

    def _emit(self, record: Record) -> None:
        self.records_out += 1
        self.sink(record)

    def _close(self, window: _Window) -> None:
        if window.count > self.max_run:
            self.max_run = window.count
        self._emit(window.record())

    def flush(self) -> None:
        """Close every open window (stream order by first seq)."""
        windows = sorted(
            self._windows.values(), key=lambda w: w.first.seq
        )
        self._windows.clear()
        for window in windows:
            self._close(window)

    def pending_records(self) -> List[Record]:
        """Records still held in open windows, without closing them."""
        return [
            w.record()
            for w in sorted(self._windows.values(), key=lambda w: w.first.seq)
        ]

    def ratio(self) -> float:
        """Events per emitted-or-pending record (>= 1.0)."""
        out = self.records_out + len(self._windows)
        return self.events_in / out if out else 1.0


# -- record (de)serialization ------------------------------------------------


def record_as_dict(record: Record) -> Dict[str, Any]:
    """JSON-ready rendering; plain events render exactly as in the
    uncompacted JSONL format, runs nest under a ``"run"`` key."""
    if isinstance(record, SuppressedRun):
        payload: Dict[str, Any] = {
            "run": {
                "count": record.count,
                "seq_stride": record.seq_stride,
                "cycles_stride": record.cycles_stride,
                "first": record.first.as_dict(),
            }
        }
        if any(record.data_strides):
            payload["run"]["data_strides"] = list(record.data_strides)
        return payload
    return record.as_dict()


def record_from_dict(payload: Dict[str, Any]) -> Record:
    """Inverse of :func:`record_as_dict`."""
    run = payload.get("run")
    if run is None:
        return event_from_dict(payload)
    first = event_from_dict(run["first"])
    strides = run.get("data_strides")
    if strides is None:
        strides = [0] * len(first.data)
    if len(strides) != len(first.data):
        raise ReproError(
            "suppressed run: data_strides length "
            f"{len(strides)} != data length {len(first.data)}"
        )
    return SuppressedRun(
        first,
        int(run["count"]),
        int(run["seq_stride"]),
        int(run["cycles_stride"]),
        tuple(int(s) for s in strides),
    )


# -- stream -> profile projection --------------------------------------------


def sample_site_profile(
    records: Iterable[Record], name: str = "sample-sites"
) -> Profile:
    """Project a (raw or compacted) stream onto a (function, pc) sample
    profile — the object the §4.4 overlap metric compares. Runs count
    with their full weight, so suppression never biases the profile."""
    profile = Profile(name)
    record = profile.record
    for item in records:
        if isinstance(item, SuppressedRun):
            first = item.first
            if first.kind == SAMPLE_FIRED:
                record((first.function, first.pc), item.count)
        elif item.kind == SAMPLE_FIRED:
            record((item.function, item.pc))
    return profile


# -- delta-encoded metrics snapshots -----------------------------------------


def diff_metrics_snapshot(
    base: Dict[str, Dict[str, Any]],
    current: Dict[str, Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The change from *base* to *current*, as a valid snapshot.

    Counters carry increments, histograms carry bucket/count/sum deltas
    (min/max carry the current value — they only ever tighten, so the
    merge's min/max pick reconstructs them), gauges appear only when
    changed. Because the delta is itself a snapshot,
    ``MetricsRegistry.merge_snapshot`` composes keyframe + deltas back
    into the exact current state, and worker deltas merge associatively
    exactly like full snapshots.

    Requires metrics to have evolved monotonically from *base* (true
    for counters/histograms by construction); raises otherwise.
    """
    delta: Dict[str, Dict[str, Any]] = {}
    for key, cur in current.items():
        prev = base.get(key)
        if prev == cur:
            continue
        mtype = cur.get("type")
        if prev is None or prev.get("type") != mtype:
            delta[key] = json.loads(json.dumps(cur))
            continue
        if mtype == "counter":
            step = int(cur["value"]) - int(prev["value"])
            if step < 0:
                raise ReproError(
                    f"metric {key!r}: counter went backwards "
                    f"({prev['value']} -> {cur['value']})"
                )
            delta[key] = {"type": "counter", "value": step}
        elif mtype == "gauge":
            delta[key] = {"type": "gauge", "value": cur["value"]}
        elif mtype == "histogram":
            if list(prev["bounds"]) != list(cur["bounds"]):
                delta[key] = json.loads(json.dumps(cur))
                continue
            delta[key] = {
                "type": "histogram",
                "count": int(cur["count"]) - int(prev["count"]),
                "sum": cur["sum"] - prev["sum"],
                "min": cur["min"],
                "max": cur["max"],
                "bounds": list(cur["bounds"]),
                "buckets": [
                    int(c) - int(p)
                    for c, p in zip(cur["buckets"], prev["buckets"])
                ],
            }
        else:
            delta[key] = json.loads(json.dumps(cur))
    return delta


# -- delta-encoded profiler snapshots ----------------------------------------

#: Scalar fields of a profiler snapshot that diff additively.
_PROFILE_SCALARS = ("runs", "boundaries", "samples", "elapsed_seconds")


def diff_profile_snapshot(
    base: Dict[str, Any], current: Dict[str, Any]
) -> Dict[str, Any]:
    """The change between two ``OverheadProfiler`` snapshots, as a valid
    snapshot: ``merge_snapshots([base, delta]) == current`` (module
    :mod:`repro.profiling.profiler` owns the merge). Only changed
    heat/op_heat/stack keys are carried."""
    delta: Dict[str, Any] = {
        "version": current.get("version"),
        "interval": current.get("interval"),
    }
    for field in _PROFILE_SCALARS:
        delta[field] = current.get(field, 0) - base.get(field, 0)
    for table in ("wall_seconds", "sample_counts"):
        cur = current.get(table, {})
        prev = base.get(table, {})
        delta[table] = {
            comp: value - prev.get(comp, 0)
            for comp, value in cur.items()
            if value != prev.get(comp, 0)
        }
    for table in ("heat", "op_heat"):
        cur = current.get(table, {})
        prev = base.get(table, {})
        delta[table] = {
            key: n - prev.get(key, 0)
            for key, n in cur.items()
            if n != prev.get(key, 0)
        }
    cur_stacks = current.get("stacks", {})
    prev_stacks = base.get("stacks", {})
    delta["stacks"] = {
        key: [n - prior[0], wall - prior[1]]
        for key, (n, wall) in cur_stacks.items()
        for prior in (prev_stacks.get(key, (0, 0.0)),)
        if [n, wall] != list(prior)
    }
    cct = current.get("cct")
    if cct is not None:
        from repro.profiling.cct import diff_cct_table

        delta["cct"] = diff_cct_table(base.get("cct", {}), cct)
    return delta


# -- keyframe + delta streams ------------------------------------------------


class DeltaSnapshotStream:
    """Keyframe + verified-delta encoding of a snapshot sequence.

    ``diff(base, current)`` renders a change as a snapshot and
    ``merge(snapshots)`` folds snapshots together, such that
    ``merge([base, diff(base, current)])`` normally equals *current*.
    ``push(snapshot)`` returns one JSON-able record: a ``keyframe``
    (full snapshot) every :data:`KEYFRAME_EVERY` pushes, else a
    ``delta`` holding only the change.

    Delta chains over floats can drift by an ulp
    (``base + (cur - base) != cur``), so every delta is verified by
    replaying it before it is returned, and a keyframe replaces any
    delta that does not replay to the exact snapshot
    ("verify-or-keyframe"). :func:`replay` with the same ``merge``
    therefore rebuilds the pushed sequence exactly.
    """

    def __init__(
        self,
        diff: Callable[[Dict[str, Any], Dict[str, Any]], Dict[str, Any]],
        merge: Callable[[Iterable[Dict[str, Any]]], Dict[str, Any]],
    ):
        self.diff = diff
        self.merge = merge
        self._index = 0
        self._last: Optional[Dict[str, Any]] = None

    def push(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        index = self._index
        self._index = index + 1
        snapshot = json.loads(json.dumps(snapshot))  # detach from caller
        last = self._last
        self._last = snapshot
        if last is not None and index % KEYFRAME_EVERY:
            delta = self.diff(last, snapshot)
            if self.merge([last, delta]) == snapshot:
                return {"kind": "delta", "seq": index, "changed": delta}
        return {"kind": "keyframe", "seq": index, "snapshot": snapshot}


def replay(
    records: Iterable[Dict[str, Any]],
    merge: Callable[[Iterable[Dict[str, Any]]], Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Rebuild the snapshots a :class:`DeltaSnapshotStream` encoded."""
    out: List[Dict[str, Any]] = []
    state: Optional[Dict[str, Any]] = None
    for record in records:
        kind = record.get("kind")
        if kind == "keyframe":
            state = record["snapshot"]
        elif kind == "delta":
            if state is None:
                raise ReproError("delta record before any keyframe")
            state = merge([state, record["changed"]])
        else:
            raise ReproError(f"unknown snapshot record kind {kind!r}")
        out.append(state)
    return out
