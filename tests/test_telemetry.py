"""Telemetry layer: events, ring, metrics, manifests, and transparency.

The observability contract has three load-bearing clauses
(docs/OBSERVABILITY.md):

1. **Engine determinism** — the event stream recorded at observer
   boundaries is bit-identical between the reference interpreter and
   the fast engine, for every trigger and strategy.
2. **Transparency** — attaching a recorder never changes what the VM
   computes: ExecStats and sampled profiles are identical with
   telemetry on and off, across the whole workload suite.
3. **Round-trips** — event streams survive serialization exactly
   (write → load → equal), and manifests survive pickling.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.errors import ReproError
from repro.harness import ExperimentRunner, RunSpec
from repro.harness.experiment import make_instrumentations
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import (
    CHECK_TAKEN,
    DUP_ENTER,
    DUP_EXIT,
    EVENT_KINDS,
    GC_PAUSE,
    SAMPLE_FIRED,
    THREAD_SWITCH,
    TIMER_TICK,
    Event,
    EventRing,
    MetricsRegistry,
    NullRecorder,
    TelemetryRecorder,
    compact_jsonl_to_records,
    event_from_dict,
    events_to_chrome_trace,
    events_to_jsonl,
    metric_key,
)
from repro.vm import ExecStats, run_program
from repro.workloads import all_workloads, get_workload


def _event(seq, kind="timer.tick", **over):
    base = dict(seq=seq, kind=kind, cycles=seq * 10, tid=0,
                function=None, pc=None, data=())
    base.update(over)
    return Event(**base)


# ---------------------------------------------------------------------------
# ring buffer


class TestEventRing:
    def test_append_preserves_order(self):
        ring = EventRing(capacity=8)
        events = [_event(i) for i in range(5)]
        for e in events:
            ring.append(e)
        assert list(ring) == events
        assert len(ring) == 5
        assert ring.dropped == 0

    def test_eviction_drops_oldest_first(self):
        ring = EventRing(capacity=4)
        for i in range(7):
            ring.append(_event(i))
        assert [e.seq for e in ring] == [3, 4, 5, 6]
        assert len(ring) == 4
        assert ring.dropped == 3

    def test_snapshot_is_detached(self):
        ring = EventRing(capacity=4)
        ring.append(_event(0))
        snap = ring.snapshot()
        ring.append(_event(1))
        assert [e.seq for e in snap] == [0]

    def test_clear_resets_everything(self):
        ring = EventRing(capacity=2)
        for i in range(5):
            ring.append(_event(i))
        ring.clear()
        assert len(ring) == 0
        assert ring.dropped == 0
        assert list(ring) == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)


# ---------------------------------------------------------------------------
# events


class TestEvent:
    def test_dict_round_trip(self):
        event = _event(3, kind="sample.fired", function="main", pc=17,
                       data=(("mechanism", "check"), ("target", 42)))
        assert event_from_dict(event.as_dict()) == event

    def test_round_trip_preserves_data_order(self):
        event = _event(0, data=(("z", 1), ("a", 2)))
        assert event_from_dict(event.as_dict()).data == (("z", 1), ("a", 2))

    def test_events_compare_and_hash_as_tuples(self):
        assert _event(1) == _event(1)
        assert len({_event(1), _event(1), _event(2)}) == 2


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.counter("hits").value == 5

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.counter("hits").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(1)
        assert reg.gauge("depth").value == 1

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(10, 100))
        for v in (1, 5, 50, 500):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == 556
        assert (hist.min, hist.max) == (1, 500)
        assert hist.bucket_counts == [2, 1, 1]  # <=10, <=100, +Inf

    def test_label_rendering_is_order_independent(self):
        assert metric_key("m", {"b": 1, "a": 2}) == 'm{a=2,b=1}'
        reg = MetricsRegistry()
        reg.counter("m", {"b": 1, "a": 2}).inc()
        reg.counter("m", {"a": 2, "b": 1}).inc()
        assert reg.counter("m", {"a": 2, "b": 1}).value == 2

    def test_type_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ReproError):
            reg.gauge("x")

    def test_merge_snapshot_is_associative_aggregation(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.histogram("h", bounds=(10,)).observe(4)
        b.histogram("h", bounds=(10,)).observe(40)
        a.merge_snapshot(b.snapshot())
        assert a.counter("n").value == 5
        hist = a.histogram("h", bounds=(10,))
        assert hist.count == 2 and hist.sum == 44
        assert hist.bucket_counts == [1, 1]

    def test_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(10,)).observe(1)
        b.histogram("h", bounds=(99,)).observe(1)
        with pytest.raises(ReproError):
            a.merge_snapshot(b.snapshot())


# ---------------------------------------------------------------------------
# engine determinism + transparency


def _instrumented(workload, strategy=Strategy.FULL_DUPLICATION,
                  kinds=("call-edge",)):
    program = get_workload(workload).compile(None)
    instr = make_instrumentations(kinds)
    return SamplingFramework(strategy).transform(program, instr), instr


#: (workload, strategy, trigger kwargs) cases chosen to exercise every
#: event kind: counter sampling (check/dup events), timer ticks, thread
#: switches (volano spawns threads), and GC pauses (mtrt allocates).
_DETERMINISM_CASES = [
    ("compress", Strategy.FULL_DUPLICATION, dict(trigger="counter",
                                                 interval=100)),
    ("volano", Strategy.NO_DUPLICATION, dict(trigger="timer")),
    ("mtrt", Strategy.FULL_DUPLICATION, dict(trigger="timer")),
]


class TestEngineDeterminism:
    @pytest.mark.parametrize("workload,strategy,cfg", _DETERMINISM_CASES)
    def test_event_streams_bit_identical(self, workload, strategy, cfg):
        from repro.sampling import make_trigger

        streams, snapshots, stats = [], [], []
        for engine in ("reference", "fast"):
            transformed, _ = _instrumented(workload, strategy)
            rec = TelemetryRecorder()
            trigger = make_trigger(cfg["trigger"], cfg.get("interval"))
            result = run_program(transformed, trigger=trigger,
                                 engine=engine, recorder=rec)
            streams.append(rec.events())
            snapshots.append(rec.metrics.snapshot())
            stats.append(result.stats.as_dict())
        assert streams[0] == streams[1]
        assert snapshots[0] == snapshots[1]
        assert stats[0] == stats[1]
        assert len(streams[0]) > 0

    def test_stream_covers_expected_kinds(self):
        from repro.sampling import make_trigger

        kinds = set()
        # volano spawns threads (thread.switch); mtrt allocates enough
        # to trip the GC clock (gc.pause).
        for workload in ("volano", "mtrt"):
            transformed, _ = _instrumented(workload, Strategy.NO_DUPLICATION)
            rec = TelemetryRecorder()
            run_program(transformed, trigger=make_trigger("timer"),
                        recorder=rec)
            kinds |= {e.kind for e in rec.ring}
        assert {SAMPLE_FIRED, TIMER_TICK, THREAD_SWITCH, GC_PAUSE} <= kinds

    def test_dup_spans_pair_and_nest_correctly(self):
        transformed, _ = _instrumented("compress")
        rec = TelemetryRecorder()
        run_program(transformed, trigger=CounterTrigger(100), recorder=rec)
        open_span = {}
        for event in rec.ring:
            if event.kind == DUP_ENTER:
                assert not open_span.get(event.tid), "nested dup.enter"
                open_span[event.tid] = True
            elif event.kind == DUP_EXIT:
                assert open_span.get(event.tid), "dup.exit without enter"
                open_span[event.tid] = False
        enters = sum(1 for e in rec.ring if e.kind == DUP_ENTER)
        takens = sum(1 for e in rec.ring if e.kind == CHECK_TAKEN)
        assert enters == takens > 0

    def test_event_cycles_are_monotonic_per_thread(self):
        transformed, _ = _instrumented("mtrt")
        rec = TelemetryRecorder()
        run_program(transformed, trigger=CounterTrigger(50), recorder=rec)
        last = {}
        for event in rec.ring:
            if event.kind == TIMER_TICK:
                continue  # stamped at the boundary, may trail detection
            assert event.cycles >= last.get(event.tid, 0)
            last[event.tid] = event.cycles


class TestTransparency:
    """Acceptance: telemetry on/off differential over the whole suite."""

    @pytest.mark.parametrize(
        "workload", [w.name for w in all_workloads()]
    )
    def test_recorder_never_perturbs_execution(self, workload):
        fingerprints = []
        for recorder in (None, NullRecorder(), TelemetryRecorder()):
            transformed, instr = _instrumented(workload)
            result = run_program(transformed, trigger=CounterTrigger(100),
                                 recorder=recorder)
            fingerprints.append((
                result.value,
                result.stats.as_dict(),
                {i.kind: dict(i.profile.counts) for i in instr},
            ))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


# ---------------------------------------------------------------------------
# ExecStats helpers (satellite: shared field list)


class TestExecStatsHelpers:
    def test_scalar_fields_cover_all_slots(self):
        assert set(ExecStats.SCALAR_FIELDS) == (
            set(ExecStats.__slots__) - {"opcode_counts"}
        )

    def test_dict_round_trip(self):
        stats = ExecStats()
        stats.cycles = 7
        stats.checks_taken = 2
        assert ExecStats.from_dict(stats.as_dict()).as_dict() == (
            stats.as_dict()
        )


# ---------------------------------------------------------------------------
# manifests


class TestManifests:
    def _run(self, **runner_kwargs):
        runner = ExperimentRunner(cache=False, telemetry=True,
                                  **runner_kwargs)
        spec = RunSpec("compress", Strategy.FULL_DUPLICATION,
                       ("call-edge",), trigger="counter", interval=100)
        return runner, runner.run(spec)

    def test_runner_attaches_manifest(self):
        runner, result = self._run()
        manifest = result.manifest
        assert manifest is not None
        assert manifest.spec["workload"] == "compress"
        assert manifest.trigger == {"kind": "counter", "interval": 100,
                                    "phase": 0}
        assert manifest.cycles == result.stats.cycles
        assert manifest.stats == result.stats.as_dict()
        assert manifest.source == "serial"
        assert manifest.telemetry["active"] is True
        # the memoized result is the one store of the manifest
        assert runner.run(result.spec).manifest is manifest

    def test_manifest_pickles_and_stays_json_able(self):
        _, result = self._run()
        manifest = result.manifest
        # pool workers ship the manifest back pickled
        assert pickle.loads(pickle.dumps(manifest)) == manifest
        payload = dataclasses.asdict(manifest)
        assert json.loads(json.dumps(payload)) == payload

    def test_pool_manifests_reach_parent(self):
        runner = ExperimentRunner(cache=False, telemetry=True, jobs=2)
        specs = [
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="counter", interval=100),
            RunSpec("jess", Strategy.NO_DUPLICATION, ("call-edge",),
                    trigger="counter", interval=50),
        ]
        manifests = [result.manifest for result in runner.run_many(specs)]
        assert all(m.source.startswith("pool:") for m in manifests)
        assert all(m.metrics["vm.samples"]["value"] > 0 for m in manifests)
        # a cell's VM metrics stay in its manifest; the runner's
        # registry holds only its own harness counters
        assert all(key.startswith("harness.")
                   for key in runner.metrics.snapshot())

    def test_timing_report_counts_pool_cache_hits(self, tmp_path):
        spec = RunSpec("compress", Strategy.FULL_DUPLICATION,
                       ("call-edge",), trigger="counter", interval=100)
        warm = ExperimentRunner(cache=str(tmp_path), jobs=1)
        warm.run_many([spec])
        runner = ExperimentRunner(cache=str(tmp_path), jobs=2)
        runner.run_many([spec])
        report = runner.timing_report()
        assert "1 hit(s)" in report


# ---------------------------------------------------------------------------
# exporters


class TestExporters:
    def _events(self):
        transformed, _ = _instrumented("compress")
        rec = TelemetryRecorder()
        run_program(transformed, trigger=CounterTrigger(100), recorder=rec)
        return rec.events()

    def test_jsonl_round_trip(self):
        events = self._events()
        assert tuple(compact_jsonl_to_records(events_to_jsonl(events))) == (
            events
        )

    def test_chrome_trace_shape(self):
        events = self._events()
        doc = events_to_chrome_trace(events, label="compress")
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "X" in phases and "i" in phases and "M" in phases
        for entry in doc["traceEvents"]:
            assert {"ph", "pid"} <= set(entry)
            if entry.get("name") != "process_name":
                assert "tid" in entry
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in slices)
        assert all(e["name"] == "duplicated-code" for e in slices)
        assert json.loads(json.dumps(doc)) == doc

    def test_chrome_trace_sample_counter_track(self):
        doc = events_to_chrome_trace(self._events())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert counters[-1]["args"]["samples"] == len(
            [e for e in self._events() if e.kind == SAMPLE_FIRED]
        )


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_trace_emits_valid_chrome_json(self, capsys):
        from repro.cli import main

        rc = main(["trace", "--workload", "compress", "--strategy", "full",
                   "--interval", "100"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} >= {"i", "X", "M"}

    def test_trace_jsonl_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        rc = main(["trace", "--workload", "compress", "--strategy", "full",
                   "--interval", "100", "--format", "jsonl",
                   "--out", str(out)])
        assert rc == 0
        events = compact_jsonl_to_records(out.read_text())
        assert events and all(e.kind in EVENT_KINDS for e in events)

    def test_metrics_prints_sample_counters(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "--workload", "compress", "--strategy",
                   "full-duplication", "--interval", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vm.samples" in out
        assert "vm.check_to_sample_latency_cycles" in out

    def test_unknown_strategy_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["trace", "--workload", "compress",
                     "--strategy", "bogus"]) == 1
        assert "unknown strategy" in capsys.readouterr().err

    def test_needs_file_or_workload(self, capsys):
        from repro.cli import main

        assert main(["metrics"]) == 1
        assert "need a FILE or --workload" in capsys.readouterr().err
