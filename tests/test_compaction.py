"""Trace-aware redundancy suppression: windows, codecs, and the gate.

The compaction contract (docs/OBSERVABILITY.md) is *bit-equivalent
losslessness*: inflating a suppressed stream — whether from the
recorder, record-per-line JSONL, or the packed compact codec — must
reproduce the exact event stream a plain recorder would have retained,
on every engine, including dynamic-code paths (LOADFN / REPLACEFN /
OSR). On top of that ride the delta-encoded snapshots (keyframe +
delta composition through the registry's own merge) and the §4.4
overlap-accuracy harness that CI gates on.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.analysis import reconcile_stream
from repro.errors import ReproError
from repro.harness import ExperimentRunner, RunSpec
from repro.harness.experiment import make_instrumentations
from repro.profiling import OverheadProfiler, diff_snapshot, merge_snapshots
from repro.sampling import CounterTrigger, SamplingFramework, Strategy, \
    make_trigger
from repro.telemetry import (
    SAMPLE_FIRED,
    TIMER_TICK,
    DeltaSnapshotStream,
    Event,
    EventRing,
    Histogram,
    MetricsRegistry,
    StreamCompactor,
    SuppressedRun,
    TelemetryRecorder,
    compact_jsonl_to_records,
    diff_metrics_snapshot,
    events_to_jsonl,
    inflate,
    quantile_from_buckets,
    record_weight,
    records_to_compact_jsonl,
    sample_site_profile,
    total_event_weight,
)
from repro.telemetry.compaction import KEYFRAME_EVERY, record_as_dict, replay
from repro.telemetry.metrics import merge_metric_snapshots
from repro.vm import run_program
from repro.workloads import get_workload

ENGINES = ("reference", "fast", "compiled")


def _event(seq, kind="timer.tick", cycles=None, tid=0, function=None,
           pc=None, data=()):
    return Event(seq, kind, cycles if cycles is not None else seq * 10,
                 tid, function, pc, data)


def _run_recorder(workload, recorder, strategy=Strategy.FULL_DUPLICATION,
                  kinds=("call-edge",), engine="fast", trigger=None):
    program = get_workload(workload).compile(None)
    transformed = SamplingFramework(strategy).transform(
        program, make_instrumentations(kinds)
    )
    run_program(
        transformed,
        trigger=trigger if trigger is not None else CounterTrigger(100),
        engine=engine,
        recorder=recorder,
    )
    return recorder


# ---------------------------------------------------------------------------
# suppression windows


class TestSuppressedRun:
    def test_events_reconstruct_arithmetic_progression(self):
        first = _event(5, kind="gc.pause", cycles=100, function="f", pc=3,
                       data=(("pause_cycles", 40), ("alloc_count", 64)))
        run = SuppressedRun(first, count=3, seq_stride=2, cycles_stride=50,
                            data_strides=(0, 64))
        expanded = list(run.events())
        assert [e.seq for e in expanded] == [5, 7, 9]
        assert [e.cycles for e in expanded] == [100, 150, 200]
        assert [dict(e.data)["alloc_count"] for e in expanded] == [
            64, 128, 192
        ]
        assert all(dict(e.data)["pause_cycles"] == 40 for e in expanded)
        assert run.span_cycles == 100
        assert record_weight(run) == 3
        assert record_weight(first) == 1

    def test_inflate_restores_seq_order(self):
        run = SuppressedRun(_event(0), count=3, seq_stride=2,
                            cycles_stride=10, data_strides=())
        odd = _event(1)
        events = inflate([run, odd])
        assert [e.seq for e in events] == [0, 1, 2, 4]
        assert total_event_weight([run, odd]) == 4


class TestStreamCompactor:
    def _compact(self, events):
        out = []
        compactor = StreamCompactor(out.append)
        for event in events:
            compactor.push(event)
        compactor.flush()
        return out, compactor

    def test_identical_stride_run_collapses(self):
        events = [
            _event(i, kind="timer.tick", cycles=1000 + i * 500,
                   data=(("tick", i),))
            for i in range(6)
        ]
        records, compactor = self._compact(events)
        assert len(records) == 1
        (run,) = records
        assert isinstance(run, SuppressedRun)
        assert run.count == 6
        assert run.cycles_stride == 500
        assert compactor.max_run == 6
        assert inflate(records) == events

    def test_stride_break_opens_new_window(self):
        events = [
            _event(0, cycles=0), _event(1, cycles=10), _event(2, cycles=20),
            _event(3, cycles=100),  # breaks the cycle stride
        ]
        records, _ = self._compact(events)
        assert inflate(records) == events
        assert len(records) == 2

    def test_ratio_counts_events_over_records(self):
        events = [_event(i, cycles=i * 7) for i in range(10)]
        _, compactor = self._compact(events)
        assert compactor.events_in == 10
        assert compactor.ratio() == pytest.approx(10.0 / 1.0)


# ---------------------------------------------------------------------------
# ring: eviction reporting


class TestRingEviction:
    def test_append_returns_evicted_entry(self):
        ring = EventRing(capacity=2)
        assert ring.append(_event(0)) is None
        assert ring.append(_event(1)) is None
        evicted = ring.append(_event(2))
        assert evicted is not None and evicted.seq == 0
        assert ring.dropped == 1

    def test_suppressing_recorder_weighs_evicted_runs(self):
        recorder = TelemetryRecorder(capacity=1, suppress=True)
        # Two runs of three identical-stride ticks, separated by stride
        # breaks: the second closure evicts the first run (weight 3)
        # from the capacity-1 ring.
        cycles = [10, 20, 30, 1000, 1010, 1020, 50000]
        for i, cyc in enumerate(cycles):
            recorder.timer_tick(cyc, i, 0)
        assert recorder.dropped_events == 3
        assert recorder.ring.dropped == 1
        summary = recorder.summary()
        assert summary["dropped_events"] == recorder.dropped_events
        assert summary["dropped"] == recorder.ring.dropped

    def test_plain_recorder_sync_metrics_publishes_ring_state(self):
        recorder = TelemetryRecorder(capacity=2)
        for i in range(5):
            recorder.timer_tick(1000 * (i + 1), i, 0)
        recorder.sync_metrics()
        snap = recorder.metrics.snapshot()
        assert snap["vm.telemetry.ring.dropped"]["value"] == 3
        assert snap["vm.telemetry.ring.events"]["value"] == 2
        assert snap["vm.telemetry.ring.capacity"]["value"] == 2
        # idempotent: a second sync adds nothing
        recorder.sync_metrics()
        assert recorder.metrics.snapshot()["vm.telemetry.ring.dropped"][
            "value"
        ] == 3


# ---------------------------------------------------------------------------
# recorder equivalence: suppression is lossless on every engine


class TestSuppressingRecorderEquivalence:
    #: dynload exercises LOADFN/REPLACEFN + OSR remaps; osr exercises
    #: mid-loop OSR; mtrt adds GC pauses; volano adds thread switches.
    CASES = [
        ("compress", Strategy.FULL_DUPLICATION, dict(kind="counter",
                                                     interval=100)),
        ("dynload", Strategy.FULL_DUPLICATION, dict(kind="counter",
                                                    interval=50)),
        ("osr", Strategy.PARTIAL_DUPLICATION, dict(kind="counter",
                                                   interval=50)),
        ("mtrt", Strategy.FULL_DUPLICATION, dict(kind="timer")),
        ("volano", Strategy.NO_DUPLICATION, dict(kind="timer")),
    ]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload,strategy,trig", CASES)
    def test_inflated_stream_bit_equals_plain(self, workload, strategy,
                                              trig, engine):
        trig = dict(trig)
        kind = trig.pop("kind")
        plain = _run_recorder(
            workload, TelemetryRecorder(), strategy=strategy,
            engine=engine, trigger=make_trigger(kind, trig.get("interval")),
        )
        compacting = _run_recorder(
            workload, TelemetryRecorder(suppress=True), strategy=strategy,
            engine=engine, trigger=make_trigger(kind, trig.get("interval")),
        )
        assert compacting.events() == plain.events()
        assert len(compacting.records()) <= len(plain.events())

    def test_suppress_off_keeps_plain_accounting(self):
        plain = _run_recorder("compress", TelemetryRecorder())
        assert plain.compactor is None
        assert plain.records() == plain.events()
        summary = plain.summary()
        assert list(summary) == [
            "active", "events", "dropped", "dropped_events", "capacity",
        ]
        plain.sync_metrics()
        assert not any(
            key.startswith("vm.telemetry.compaction.")
            for key in plain.metrics.snapshot()
        )

    def test_context_recorders_report_contexts(self):
        for suppress in (False, True):
            recorder = _run_recorder(
                "compress", TelemetryRecorder(suppress=suppress, context=True)
            )
            assert recorder.summary()["contexts"] == len(recorder.contexts)
            assert recorder.summary()["contexts"] > 0

    def test_summary_and_metrics_surface_compaction(self):
        recorder = _run_recorder("db", TelemetryRecorder(suppress=True))
        summary = recorder.summary()
        assert summary["events"] == len(recorder.events())
        assert summary["records"] == len(recorder.records())
        compaction = summary["compaction"]
        assert compaction["enabled"] is True
        assert compaction["events_in"] == summary["events"]
        assert compaction["suppressed"] > 0
        recorder.sync_metrics()
        snap = recorder.metrics.snapshot()
        assert snap["vm.telemetry.compaction.events_in"]["value"] == (
            compaction["events_in"]
        )
        assert snap["vm.telemetry.compaction.suppressed"]["value"] == (
            compaction["suppressed"]
        )
        assert snap["vm.telemetry.compaction.max_run"]["value"] == (
            compaction["max_run"]
        )


# ---------------------------------------------------------------------------
# serialization: record JSONL and the packed compact codec


class TestRecordSerialization:
    def test_reader_accepts_record_per_line(self):
        recorder = _run_recorder("javac", TelemetryRecorder(suppress=True))
        records = list(recorder.records())
        assert any(isinstance(r, SuppressedRun) for r in records)
        # The record form spool epochs carry, one record per line.
        text = "".join(
            json.dumps(record_as_dict(r), separators=(",", ":")) + "\n"
            for r in records
        )
        assert compact_jsonl_to_records(text) == records

    @pytest.mark.parametrize("kinds", [
        ("call-edge",), ("call-edge", "field-access"),
    ])
    def test_reader_reads_plain_jsonl_view(self, kinds):
        recorder = _run_recorder(
            "compress", TelemetryRecorder(), kinds=kinds,
            trigger=CounterTrigger(50),
        )
        events = list(recorder.events())
        assert compact_jsonl_to_records(events_to_jsonl(events)) == events


class TestCompactCodec:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload,strategy", [
        ("javac", Strategy.FULL_DUPLICATION),
        ("dynload", Strategy.FULL_DUPLICATION),
        ("osr", Strategy.PARTIAL_DUPLICATION),
    ])
    def test_round_trip_bit_equal(self, workload, strategy, engine):
        recorder = _run_recorder(
            workload, TelemetryRecorder(suppress=True), strategy=strategy, engine=engine,
            trigger=CounterTrigger(50),
        )
        records = recorder.records()
        text = records_to_compact_jsonl(records)
        assert inflate(compact_jsonl_to_records(text)) == list(
            recorder.events()
        )

    def test_compact_beats_plain_jsonl(self):
        recorder = _run_recorder(
            "javac", TelemetryRecorder(suppress=True), trigger=CounterTrigger(1000)
        )
        events = recorder.events()
        raw = len(events_to_jsonl(events).encode("utf-8"))
        compact = len(
            records_to_compact_jsonl(recorder.records()).encode("utf-8")
        )
        assert raw / compact >= 2.0


# ---------------------------------------------------------------------------
# delta-encoded metrics snapshots


def _registry_with(counter=0, observations=()):
    registry = MetricsRegistry()
    if counter:
        registry.counter("c").inc(counter)
    for value in observations:
        registry.histogram("h").observe(value)
    return registry


class TestDeltaSnapshots:
    def test_diff_then_merge_reconstructs_exactly(self):
        registry = _registry_with(counter=3, observations=(5, 17))
        base = registry.snapshot()
        registry.counter("c").inc(4)
        registry.histogram("h").observe(400)
        registry.gauge("g").set(7)
        current = registry.snapshot()
        delta = diff_metrics_snapshot(base, current)
        assert "g" in delta and delta["c"]["value"] == 4
        assert merge_metric_snapshots([base, delta]) == current

    def test_unchanged_keys_are_absent_from_delta(self):
        registry = _registry_with(counter=1, observations=(2,))
        base = registry.snapshot()
        registry.counter("c").inc()
        delta = diff_metrics_snapshot(base, registry.snapshot())
        assert set(delta) == {"c"}

    def test_counter_regression_raises(self):
        base = {"c": {"type": "counter", "value": 5}}
        current = {"c": {"type": "counter", "value": 3}}
        with pytest.raises(ReproError):
            diff_metrics_snapshot(base, current)

    def test_stream_keyframe_cadence_and_replay(self):
        stream = DeltaSnapshotStream(
            diff_metrics_snapshot, merge_metric_snapshots
        )
        registry = MetricsRegistry()
        originals, records = [], []
        for i in range(2 * KEYFRAME_EVERY + 3):
            registry.counter("ticks").inc(i + 1)
            registry.histogram("lat").observe(4 ** (i % 12))
            snapshot = registry.snapshot()
            originals.append(snapshot)
            records.append(stream.push(snapshot))
        keyframes = [r["seq"] for r in records if r["kind"] == "keyframe"]
        assert keyframes == [0, KEYFRAME_EVERY, 2 * KEYFRAME_EVERY]
        # records survive JSON transport
        records = json.loads(json.dumps(records))
        assert replay(records, merge_metric_snapshots) == originals

    def test_unverifiable_delta_becomes_keyframe(self):
        # A diff that loses the change cannot replay to the snapshot,
        # so the stream sends a keyframe instead; an unchanged snapshot
        # replays from the empty delta.
        stream = DeltaSnapshotStream(
            lambda base, current: {}, merge_metric_snapshots
        )
        first = _registry_with(counter=1).snapshot()
        second = _registry_with(counter=2).snapshot()
        kinds = [
            stream.push(snapshot)["kind"]
            for snapshot in (first, second, second)
        ]
        assert kinds == ["keyframe", "keyframe", "delta"]

    def test_replay_rejects_delta_first_and_unknown_kinds(self):
        with pytest.raises(ReproError):
            replay([{"kind": "delta", "changed": {}}], merge_metric_snapshots)
        with pytest.raises(ReproError):
            replay([{"kind": "bogus"}], merge_metric_snapshots)

    def test_delta_composes_with_worker_merge(self):
        # keyframe + delta is itself a snapshot: folding it into another
        # registry (pool-worker style) equals folding the full current.
        registry = _registry_with(counter=2, observations=(9,))
        base = registry.snapshot()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(100)
        current = registry.snapshot()
        delta = diff_metrics_snapshot(base, current)
        worker = _registry_with(counter=10, observations=(3,))
        direct = _registry_with(counter=10, observations=(3,))
        worker.merge_snapshot(base)
        worker.merge_snapshot(delta)
        direct.merge_snapshot(current)
        assert worker.snapshot() == direct.snapshot()


class TestProfileDelta:
    def _snapshot(self, bump):
        profiler = OverheadProfiler(interval=1, clock=_FakeClock())
        profiler.start()
        frames = _frames("main", "leaf")
        for _ in range(bump):
            profiler.boundary("dispatch", "leaf", 0, 1, frames, 0)
        profiler.stop()
        return profiler.snapshot()

    def test_merge_base_with_delta_equals_current(self):
        profiler = OverheadProfiler(interval=1, clock=_FakeClock())
        frames = _frames("main", "leaf")
        profiler.start()
        profiler.boundary("dispatch", "leaf", 0, 1, frames, 0)
        profiler.stop()
        base = profiler.snapshot()
        profiler.start()
        profiler.boundary("check", "leaf", 2, 5, frames, 0)
        profiler.stop()
        current = profiler.snapshot()
        delta = diff_snapshot(base, current)
        merged = merge_snapshots([base, delta])
        assert merged["samples"] == current["samples"]
        assert merged["heat"] == current["heat"]
        assert merged["wall_seconds"]["check"] == pytest.approx(
            current["wall_seconds"]["check"]
        )
        assert merged["stacks"] == current["stacks"]


# ---------------------------------------------------------------------------
# profiler test doubles


class _FakeClock:
    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _frames(*names):
    return [
        types.SimpleNamespace(function=types.SimpleNamespace(name=name))
        for name in names
    ]


# ---------------------------------------------------------------------------
# quantile edge cases (compacted snapshots may be sparse)


class TestQuantileEdges:
    def test_empty_histogram_quantiles_are_none(self):
        hist = Histogram(bounds=(10, 100))
        assert hist.quantiles() == {0.5: None, 0.9: None, 0.99: None}

    def test_single_bucket_histogram_never_raises(self):
        hist = Histogram(bounds=(10,))
        hist.observe(7)
        values = hist.quantiles((0.5, 0.9, 0.99, 1.0))
        assert all(v == pytest.approx(7.0) for v in values.values())

    def test_no_bounds_payload_returns_none(self):
        assert quantile_from_buckets((), (5,), 5, 0.5) is None

    def test_merge_tolerates_sparse_histogram_payload(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(4, 16)).observe(3)
        # A delta payload with no min/max/count (nothing observed in the
        # window) must fold in without raising.
        registry.merge_snapshot(
            {"h": {"type": "histogram", "bounds": [4, 16]}}
        )
        hist = registry.histogram("h")
        assert hist.count == 1 and hist.min == 3

    def test_cli_quantile_suffix_tolerates_sparse_payload(self):
        from repro.cli import _quantile_suffix

        assert _quantile_suffix({"type": "histogram"}) == (
            "p50=- p90=- p99=-"
        )


# ---------------------------------------------------------------------------
# stream reconciliation


class TestReconcileStream:
    def test_complete_stream_reconciles(self):
        recorder = _run_recorder("javac", TelemetryRecorder(suppress=True))
        result_stats = self._stats_for("javac")
        verdict = reconcile_stream(result_stats, recorder.records())
        assert verdict.ok, verdict.violations

    def _stats_for(self, workload):
        program = get_workload(workload).compile(None)
        transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            program, make_instrumentations(("call-edge",))
        )
        return run_program(
            transformed, trigger=CounterTrigger(100), engine="fast"
        ).stats

    def test_missing_samples_without_drops_is_violation(self):
        stats = self._stats_for("javac")
        verdict = reconcile_stream(stats, [])
        assert not verdict.ok
        assert "unaccounted" in verdict.violations[0]

    def test_drops_excuse_missing_samples(self):
        stats = self._stats_for("javac")
        verdict = reconcile_stream(
            stats, [], dropped_events=stats.checks_taken * 10
        )
        assert verdict.ok

    def test_excess_samples_is_violation(self):
        run = SuppressedRun(
            _event(0, kind=SAMPLE_FIRED, function="f", pc=0),
            count=10 ** 6, seq_stride=1, cycles_stride=1, data_strides=(),
        )
        stats = self._stats_for("compress")
        verdict = reconcile_stream(stats, [run])
        assert not verdict.ok


# ---------------------------------------------------------------------------
# overlap + site profiles


class TestSampleSiteProfile:
    def test_runs_count_with_full_weight(self):
        single = _event(0, kind=SAMPLE_FIRED, function="f", pc=4,
                        data=(("mechanism", "check"),))
        run = SuppressedRun(
            _event(1, kind=SAMPLE_FIRED, function="g", pc=9,
                   data=(("mechanism", "check"),)),
            count=5, seq_stride=4, cycles_stride=100, data_strides=(0,),
        )
        tick = _event(2, kind=TIMER_TICK)
        profile = sample_site_profile([single, run, tick])
        assert profile.count(("f", 4)) == 1
        assert profile.count(("g", 9)) == 5
        assert profile.total() == 6


# ---------------------------------------------------------------------------
# harness integration


class TestHarnessCompaction:
    def _spec(self, **over):
        base = dict(
            workload="javac", strategy=Strategy.FULL_DUPLICATION,
            instrumentation=("call-edge",), trigger="counter", interval=500,
        )
        base.update(over)
        return RunSpec(**base)

    def test_runner_collects_records_and_metrics(self):
        runner = ExperimentRunner(telemetry=True, compaction=True)
        result = runner.run(self._spec())
        assert result.records is not None and len(result.records) > 0
        telemetry = result.manifest.telemetry
        assert telemetry["compaction"]["enabled"] is True
        assert telemetry["compaction"]["suppressed"] > 0
        assert "vm.telemetry.compaction.events_in" in result.manifest.metrics
        # inflating the records matches a plain-telemetry run bit-for-bit
        plain = ExperimentRunner(telemetry=True).run(self._spec())
        assert inflate(result.records) == list(plain.records)

    def test_compaction_accuracy_report(self):
        runner = ExperimentRunner(telemetry=True, compaction=True)
        report = runner.compaction_accuracy(self._spec())
        assert report["roundtrip_ok"] is True
        assert report["stream_ok"] is True
        assert report["compaction_ratio"] > 1.0
        assert 0.0 <= report["overlap_percentage"] <= 100.0
        # the report lands in the cell's memoized manifest
        manifest = runner.run(self._spec()).manifest
        assert manifest.telemetry["compaction_accuracy"] == report

    def test_compaction_accuracy_requires_flags(self):
        runner = ExperimentRunner(telemetry=True)
        from repro.errors import HarnessError

        with pytest.raises(HarnessError):
            runner.compaction_accuracy(self._spec())

    def test_compaction_matrix_subset(self):
        runner = ExperimentRunner(telemetry=True, compaction=True)
        reports = runner.compaction_matrix(
            workloads=("compress",),
            strategies=(Strategy.FULL_DUPLICATION,),
            interval=500,
        )
        assert len(reports) == 1
        assert reports[0]["roundtrip_ok"]


# ---------------------------------------------------------------------------
# CLI surfaces


class TestCompactionCLI:
    def _main(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_compact_verb_reports_and_passes(self, capsys):
        code, out = self._main(
            ["compact", "--workload", "compress", "--interval", "1000",
             "--min-ratio", "1.5"],
            capsys,
        )
        assert code == 0
        assert "overlap" in out and "0 failing" in out

    def test_compact_verb_gates_exit_code(self, capsys):
        code, out = self._main(
            ["compact", "--workload", "compress", "--interval", "1000",
             "--min-ratio", "10000"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out

    def test_compact_verb_json_document(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = self._main(
            ["compact", "--workload", "compress", "--interval", "1000",
             "--json", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["ok"] is True
        assert document["cells"][0]["roundtrip_ok"] is True
        assert json.loads(out)["cells"][0]["label"] == (
            document["cells"][0]["label"]
        )

    def test_trace_stats_renders_compaction(self, capsys):
        code, out = self._main(
            ["trace", "--workload", "compress", "--stats", "--compact"],
            capsys,
        )
        assert code == 0
        assert "compaction:" in out and "suppressed" in out
        assert "ring: capacity=" in out

    def test_trace_stats_without_compact(self, capsys):
        code, out = self._main(
            ["trace", "--workload", "compress", "--stats"], capsys
        )
        assert code == 0
        assert "compaction: disabled" in out

    def test_trace_format_compact_round_trips(self, capsys, tmp_path):
        path = tmp_path / "trace.cjsonl"
        code, _ = self._main(
            ["trace", "--workload", "compress", "--format", "compact",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        raw = tmp_path / "trace.jsonl"
        code, _ = self._main(
            ["trace", "--workload", "compress", "--format", "jsonl",
             "--out", str(raw)],
            capsys,
        )
        assert code == 0
        assert inflate(compact_jsonl_to_records(path.read_text())) == (
            compact_jsonl_to_records(raw.read_text())
        )
