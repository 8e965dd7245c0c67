"""Event recorders: the objects the VM's observer hooks talk to.

Two implementations share one surface:

* :class:`NullRecorder` — every hook is a no-op. Attaching one keeps
  the VM's telemetry branches alive but does no work; the CI throughput
  gate holds this within a few percent of running with no recorder at
  all (the *null-recorder fast path* contract in docs/OBSERVABILITY.md).
* :class:`TelemetryRecorder` — appends typed events to a bounded
  :class:`~repro.telemetry.ring.EventRing` and maintains derived
  metrics in a :class:`~repro.telemetry.metrics.MetricsRegistry`. With
  ``suppress=True`` the events first pass through the suppression
  windows of :mod:`repro.telemetry.compaction`, so the ring holds
  compacted records.

The hooks are **engine-agnostic**: both the reference interpreter and
the fast engine call them at the same observer boundaries with the same
arguments in the same order, so for any given program + trigger the
recorded event stream is bit-identical across engines
(tests/test_telemetry.py pins this).

Derived state kept by the recorder (never by the engines, so the two
engines cannot drift):

* per-thread duplicated-code occupancy — set on a taken check, cleared
  (with a ``dup.exit`` event and a residency observation) at the next
  check boundary on that thread;
* the last virtual-timer tick boundary — ``vm.check_to_sample_latency``
  measures cycles from that boundary to each fired sample, which is
  exactly the §2.1 attribution error the timer trigger suffers from.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.telemetry.compaction import (
    Record,
    StreamCompactor,
    inflate,
    record_weight,
    total_event_weight,
)
from repro.telemetry.events import (
    CHECK_TAKEN,
    DUP_ENTER,
    DUP_EXIT,
    GC_PAUSE,
    RECOMPILE,
    SAMPLE_FIRED,
    THREAD_SWITCH,
    TIMER_TICK,
    Event,
)
from repro.telemetry.metrics import Counter, MetricsRegistry
from repro.telemetry.ring import EventRing


class NullRecorder:
    """API-complete recorder that records nothing.

    Also the base class of the real recorder, so the VM can hold "any
    recorder" without isinstance checks on hot paths.
    """

    __slots__ = ()

    #: True when events/metrics are actually collected. The engines
    #: never consult this — they are compiled/dispatched on
    #: ``recorder is None`` only — but callers use it to decide whether
    #: exporting makes sense.
    active = False

    #: True when the recorder wants the live frame stack at event
    #: boundaries so it can attribute events to full calling contexts.
    #: The reference engine passes ``frames`` unconditionally on its
    #: recorder-attached paths (ignored unless this is set); the fast
    #: and compiled tiers consult this flag when they generate code and
    #: only write the extra argument when it is True.
    wants_context = False

    def check(self, cycles, tid, function, pc, fired, target=None,
              frames=None) -> None:
        """Every executed CHECK; ``fired`` means the transfer was taken
        (``cycles`` then already includes the transfer penalty and
        ``target`` is the duplicated-code pc). ``frames`` is the live
        frame stack, consulted only under :attr:`wants_context`."""

    def guarded_fired(self, cycles, tid, function, pc, frames=None) -> None:
        """A GUARDED_INSTR whose trigger poll returned True."""

    def gc_pause(self, cycles, tid, function, pc, pause, allocs,
                 frames=None) -> None:
        """The allocation clock charged a GC pause of ``pause`` cycles."""

    def timer_tick(self, boundary, tick, tid) -> None:
        """Virtual timer crossed ``boundary`` (= tick * timer_period)."""

    def thread_switch(self, cycles, tid) -> None:
        """The scheduler charged a switch away from thread ``tid``."""

    def annotate(self, kind, cycles=0, tid=-1, function=None, pc=None,
                 **data) -> None:
        """Free-form event from outside the VM (harness, adaptive)."""

    def events(self) -> Tuple[Event, ...]:
        return ()

    def summary(self) -> Dict[str, Any]:
        return {
            "active": False,
            "events": 0,
            "dropped": 0,
            "dropped_events": 0,
            "capacity": 0,
        }

    def sync_metrics(self) -> None:
        """Publish recorder-internal state (ring occupancy, drops) to the
        metrics registry. No-op here: a null recorder has no registry."""


class TelemetryRecorder(NullRecorder):
    """Flight recorder + metrics for one (or more) VM runs.

    Args:
        capacity: ring-buffer size; the oldest records are evicted once
            exceeded (``ring.dropped`` counts how many).
        suppress: collapse runs of identical events into
            :class:`~repro.telemetry.compaction.SuppressedRun` records
            before they enter the ring. Lossless: :meth:`events`
            re-inflates the records to the stream a plain recorder
            retains. Off by default, and then no compactor exists, so
            the plain path does no suppression work.
        context: attribute sample/check/dup/gc events to their full
            calling context — every such event gains a trailing
            ``("ctx", id)`` data field, with ids interned in
            first-observation order by a
            :class:`~repro.profiling.cct.ContextTracker` (so they are
            engine-identical whenever the event streams are). Off by
            default: the extra field changes the stream's bytes. Each
            frame's path is interned once, at the frame's first event,
            and its id kept on the frame. With ``suppress``
            the suppression windows also key on the context id, so one
            pc reached through different call chains gets separate
            windows.

    ``dropped_events`` weighs ring evictions in original events (an
    evicted run of 500 loses 500 events), which is what the stream
    reconciler needs to bound how many samples a suffix may be missing.
    """

    __slots__ = ("ring", "metrics", "_seq", "_dup_enter", "_last_tick",
                 "_marks", "wants_context", "contexts", "compactor",
                 "dropped_events", "_checks", "_samples")

    active = True

    def __init__(
        self,
        capacity: int = 65536,
        suppress: bool = False,
        context: bool = False,
    ):
        self.ring = EventRing(capacity)
        self.metrics = MetricsRegistry()
        self._seq = 0
        #: tid -> cycles at the last un-exited dup.enter
        self._dup_enter: Dict[int, int] = {}
        self._last_tick: Optional[int] = None
        #: counter name -> total already published by sync_metrics
        self._marks: Dict[str, int] = {}
        self.wants_context = bool(context)
        if self.wants_context:
            from repro.profiling.cct import ContextTracker

            self.contexts: Optional[ContextTracker] = ContextTracker()
        else:
            self.contexts = None
        self.dropped_events = 0
        #: function -> its ``vm.checks.by_function`` and
        #: ``vm.samples.by_function`` counters, looked up once each
        self._checks: Dict[str, Counter] = {}
        self._samples: Dict[str, Counter] = {}
        self.compactor = (
            StreamCompactor(self._store, context_key=self.wants_context)
            if suppress
            else None
        )

    # -- internals ---------------------------------------------------------

    def _store(self, record: Record) -> None:
        """Admit one completed record (an event, or a closed window)."""
        evicted = self.ring.append(record)
        if evicted is not None:
            self.dropped_events += record_weight(evicted)

    def _emit(self, kind, cycles, tid, function, pc, data) -> None:
        seq = self._seq
        self._seq = seq + 1
        event = Event(seq, kind, cycles, tid, function, pc, data)
        compactor = self.compactor
        if compactor is None:
            self._store(event)
        else:
            compactor.push(event)

    def _sample(self, mechanism, cycles, tid, function, pc, ctx=None) -> None:
        data = (("mechanism", mechanism),)
        if ctx is not None:
            data += (("ctx", ctx),)
        self._emit(SAMPLE_FIRED, cycles, tid, function, pc, data)
        metrics = self.metrics
        metrics.counter("vm.samples").inc()
        counter = self._samples.get(function)
        if counter is None:
            counter = self._samples[function] = metrics.counter(
                "vm.samples.by_function", {"function": function}
            )
        counter.inc()
        if self._last_tick is not None:
            metrics.histogram("vm.check_to_sample_latency_cycles").observe(
                cycles - self._last_tick
            )

    def _context(self, frames) -> int:
        """The context id of the innermost frame's path, interned at
        the frame's first event and kept on the frame."""
        top = frames[-1]
        ctx = top.ctx
        if ctx is None:
            ctx = top.ctx = self.contexts.intern_frames(frames)
        return ctx

    # -- VM hooks ----------------------------------------------------------

    def check(self, cycles, tid, function, pc, fired, target=None,
              frames=None) -> None:
        # Per-function executed-check counts are what the plan
        # reconciler compares against each function's certified bound;
        # every engine reports every executed CHECK through this hook,
        # so the labelled counter is engine-identical by construction.
        counter = self._checks.get(function)
        if counter is None:
            counter = self._checks[function] = self.metrics.counter(
                "vm.checks.by_function", {"function": function}
            )
        counter.inc()
        ctx = (
            self._context(frames)
            if self.wants_context and frames is not None
            else None
        )
        enter = self._dup_enter.pop(tid, None)
        if enter is not None:
            # First check boundary after a sample transfer: execution
            # is demonstrably back in checking code.
            residency = cycles - enter
            data = (("enter_cycles", enter), ("residency", residency))
            if ctx is not None:
                data += (("ctx", ctx),)
            self._emit(DUP_EXIT, cycles, tid, function, pc, data)
            self.metrics.histogram("vm.dup_residency_cycles").observe(
                residency
            )
        if fired:
            self._sample("check", cycles, tid, function, pc, ctx)
            data = (("target", target),)
            if ctx is not None:
                data += (("ctx", ctx),)
            self._emit(CHECK_TAKEN, cycles, tid, function, pc, data)
            self._emit(
                DUP_ENTER, cycles, tid, function, pc,
                () if ctx is None else (("ctx", ctx),),
            )
            self._dup_enter[tid] = cycles

    def guarded_fired(self, cycles, tid, function, pc, frames=None) -> None:
        ctx = (
            self._context(frames)
            if self.wants_context and frames is not None
            else None
        )
        self._sample("guarded", cycles, tid, function, pc, ctx)

    def gc_pause(self, cycles, tid, function, pc, pause, allocs,
                 frames=None) -> None:
        data = (("pause_cycles", pause), ("alloc_count", allocs))
        if self.wants_context and frames is not None:
            data += (("ctx", self._context(frames)),)
        self._emit(GC_PAUSE, cycles, tid, function, pc, data)
        self.metrics.counter("vm.gc_pauses").inc()

    def timer_tick(self, boundary, tick, tid) -> None:
        self._last_tick = boundary
        self._emit(TIMER_TICK, boundary, tid, None, None, (("tick", tick),))
        self.metrics.counter("vm.timer_ticks").inc()

    def thread_switch(self, cycles, tid) -> None:
        self._emit(
            THREAD_SWITCH, cycles, tid, None, None, (("from_tid", tid),)
        )
        self.metrics.counter("vm.thread_switches").inc()

    def annotate(self, kind, cycles=0, tid=-1, function=None, pc=None,
                 **data) -> None:
        self._emit(kind, cycles, tid, function, pc, tuple(data.items()))

    # -- read side ---------------------------------------------------------

    def records(self) -> Tuple[Record, ...]:
        """The retained stream as stored, oldest first: plain events,
        and with ``suppress`` also windows (still-open ones included)."""
        out = list(self.ring)
        if self.compactor is not None:
            out.extend(self.compactor.pending_records())
        return tuple(out)

    def events(self) -> Tuple[Event, ...]:
        """The retained stream as events, oldest first (suppression
        windows re-inflated)."""
        return tuple(inflate(self.records()))

    def summary(self) -> Dict[str, Any]:
        compactor = self.compactor
        if compactor is None:
            summary = {"active": True, "events": len(self.ring)}
        else:
            records = self.records()
            summary = {
                "active": True,
                "events": total_event_weight(records),
                "records": len(records),
            }
        # dropped counts evicted ring entries, dropped_events the events
        # they stood for. Exposed here (and as vm.telemetry.ring.* via
        # sync_metrics) so `repro metrics` and manifest readers can
        # detect loss without the trace verb.
        summary["dropped"] = self.ring.dropped
        summary["dropped_events"] = self.dropped_events
        summary["capacity"] = self.ring.capacity
        if compactor is not None:
            summary["compaction"] = {
                "enabled": True,
                "events_in": compactor.events_in,
                "suppressed": compactor.suppressed,
                "max_run": compactor.max_run,
                "ratio": round(compactor.ratio(), 3),
            }
        if self.contexts is not None:
            summary["contexts"] = len(self.contexts)
        return summary

    def _bump(self, name: str, total: int) -> None:
        """Advance counter *name* to cumulative *total* (sync pattern:
        safe to call repeatedly, never double-counts)."""
        mark = self._marks.get(name, 0)
        if total > mark:
            self.metrics.counter(name).inc(total - mark)
            self._marks[name] = total

    def sync_metrics(self) -> None:
        """Publish ring occupancy and eviction counts as first-class
        ``vm.telemetry.ring.*`` metrics, and with ``suppress`` the
        compactor's state as ``vm.telemetry.compaction.*`` (idempotent:
        counters advance by deltas since the last sync)."""
        metrics = self.metrics
        metrics.gauge("vm.telemetry.ring.events").set(len(self.ring))
        metrics.gauge("vm.telemetry.ring.capacity").set(self.ring.capacity)
        self._bump("vm.telemetry.ring.dropped", self.ring.dropped)
        self._bump("vm.telemetry.ring.dropped_events", self.dropped_events)
        compactor = self.compactor
        if compactor is None:
            return
        self._bump("vm.telemetry.compaction.events_in", compactor.events_in)
        self._bump("vm.telemetry.compaction.suppressed", compactor.suppressed)
        self._bump("vm.telemetry.compaction.records",
                   compactor.records_out + len(compactor._windows))
        metrics.gauge("vm.telemetry.compaction.ratio").set(
            round(compactor.ratio(), 4)
        )
        metrics.gauge("vm.telemetry.compaction.max_run").set(
            compactor.max_run
        )
        self._bump("vm.telemetry.compaction.dropped_events",
                   self.dropped_events)


def recompile_decision(recorder, cycles, **data) -> None:
    """Convenience used by the adaptive controller: emit an
    ``adaptive.recompile`` event (no-op on a null recorder)."""
    recorder.annotate(RECOMPILE, cycles=cycles, **data)
