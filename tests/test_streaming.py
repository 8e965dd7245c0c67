"""Live telemetry export: the streaming spool, CCT profiling, and watch.

The streaming contract (docs/OBSERVABILITY.md) has three legs:

* **losslessness** — a streamed run's spool, read back and folded
  through the existing associative merges, reconstructs the end-of-run
  metrics/profile snapshots *bit-equal*, and its record stream is
  bit-equal to what a non-streaming context-keyed recorder retains;
* **engine independence** — context ids are interned from the shared
  event stream, so context-keyed compaction is bit-identical across
  reference / fast / compiled engines, including dynamic-code paths
  (LOADFN / REPLACEFN / OSR);
* **crash tolerance** — a spool whose writer died mid-run reads back
  as a clean prefix: every flushed epoch is intact, a half-written
  tail line reports ``truncated=True`` instead of raising, and the
  prefix still merges. Here a finished spool is cut at every point a
  killed writer can leave it; ``tests_ci/test_spool_kill.py`` kills a
  real writer process.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from repro.analysis import reconcile_stream
from repro.bytecode import BytecodeBuilder, Op, Program
from repro.errors import ReproError
from repro.harness import ExperimentRunner, RunSpec
from repro.harness.experiment import make_instrumentations
from repro.profiling import OverheadProfiler, diff_snapshot, merge_snapshots
from repro.profiling.cct import (
    CallingContextTree,
    ContextTracker,
    cct_from_events,
    join_path,
    split_path,
    top_contexts,
)
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import (
    SpoolReader,
    SpoolWriter,
    StreamingRecorder,
    TelemetryRecorder,
    tail_epochs,
)
from repro.telemetry.streaming import MANIFEST_NAME
from repro.vm import run_program
from repro.workloads import all_workloads, get_workload

ENGINES = ("reference", "fast", "compiled")

ALL_WORKLOADS = tuple(w.name for w in all_workloads())

ROUND_TRIP_STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def _transformed(workload, strategy, scale=None, kinds=("call-edge",)):
    program = get_workload(workload).compile(scale)
    return SamplingFramework(strategy).transform(
        program, make_instrumentations(kinds)
    )


def _run_with(recorder, workload, strategy, engine="fast", interval=100,
              scale=None, profiler=None):
    transformed = _transformed(workload, strategy, scale=scale)
    result = run_program(
        transformed,
        trigger=CounterTrigger(interval),
        engine=engine,
        recorder=recorder,
        profiler=profiler,
    )
    recorder.sync_metrics()
    return result


def _recursive_program(depth):
    """main -> outer -> f(depth), where f recurses down to 0 and holds
    the program's only CHECK (its target jumps back to the body)."""
    f = BytecodeBuilder("f", num_params=1)
    body, base, dup = f.new_label(), f.new_label(), f.new_label()
    f.emit(Op.CHECK, dup)
    f.label(body)
    f.load(0).jz(base)
    f.load(0).push(1).emit(Op.SUB).call("f").push(1).emit(Op.ADD).ret()
    f.label(base)
    f.ret_const(0)
    f.label(dup)
    f.jump(body)
    outer = BytecodeBuilder("outer", num_params=1)
    outer.load(0).call("f").ret()
    main = BytecodeBuilder("main")
    main.push(depth).call("outer").ret()
    return Program([main.build(), outer.build(), f.build()])


# ---------------------------------------------------------------------------
# calling-context tree primitives


class TestContextTracker:
    def test_interning_is_first_observation_order(self):
        tracker = ContextTracker()
        a = tracker.intern(("main", "f"))
        b = tracker.intern(("main", "g"))
        assert (a, b) == (0, 1)
        assert tracker.intern(("main", "f")) == a
        assert tracker.path_of(b) == ("main", "g")

    def test_entries_since_yields_only_new_contexts(self):
        tracker = ContextTracker()
        tracker.intern(("main",))
        mark = len(tracker)
        tracker.intern(("main", "f"))
        fresh = tracker.entries_since(mark)
        assert fresh == [(1, "main;f")]

    def test_join_split_round_trip(self):
        path = ("main", "compress", "emitRun")
        assert split_path(join_path(path)) == path

    @pytest.mark.parametrize("engine", ENGINES)
    def test_caller_interning_gives_path_ids(self, engine, monkeypatch):
        """A frame whose caller holds an id is interned from it; the ids
        and events equal those of interning every whole path.  The first
        event fires three frames deep, where no caller holds an id."""
        program = _recursive_program(depth=6)

        def run():
            rec = TelemetryRecorder(context=True)
            run_program(
                program, trigger=CounterTrigger(3), engine=engine,
                recorder=rec,
            )
            return rec.contexts.table(), tuple(rec.events())

        by_caller = run()
        assert by_caller[0]["0"] == "main;outer;f"
        assert len(by_caller[0]) == 7
        monkeypatch.setattr(
            ContextTracker, "intern_frames",
            lambda self, frames: self.intern(
                [f.function.name for f in frames]
            ),
        )
        assert run() == by_caller


class TestCallingContextTree:
    def test_record_and_snapshot(self):
        cct = CallingContextTree()
        cct.record(("main", "f"), "check", 2, 0.5)
        cct.record(("main", "f"), "check", 1, 0.25)
        cct.record(("main",), "dispatch", 1, 0.0)
        snap = cct.snapshot()
        assert snap["main;f"]["check"] == [3, 0.75]
        assert snap["main"]["dispatch"] == [1, 0.0]

    def test_snapshot_diff_carries_cct_changes_and_merges_back(self):
        base = dict(merge_snapshots([]), cct={"main": {"check": [2, 0.5]}})
        cur = dict(merge_snapshots([]), cct={
            "main": {"check": [5, 1.0], "dispatch": [1, 0.125]},
            "main;f": {"check": [3, 0.375]},
        })
        delta = diff_snapshot(base, cur)
        assert delta["cct"] == {
            "main": {"check": [3, 0.5], "dispatch": [1, 0.125]},
            "main;f": {"check": [3, 0.375]},
        }
        assert merge_snapshots(
            [json.loads(json.dumps(base)), delta]
        ) == cur

    def test_top_contexts_orders_by_samples(self):
        table = {
            "a": {"check": [1, 9.0]},
            "b": {"check": [5, 1.0]},
            "c": {"check": [5, 2.0]},
        }
        assert [k for k, _, _ in top_contexts(table)] == ["c", "b", "a"]

    def test_cct_from_events_builds_pseudo_tree(self):
        rec = TelemetryRecorder(suppress=True, context=True)
        _run_with(rec, "compress", Strategy.FULL_DUPLICATION)
        table = cct_from_events(rec.events(), rec.contexts.table())
        assert table, "expected ctx-tagged events to produce contexts"
        for cell in table.values():
            assert all(n > 0 for n, _wall in cell.values())


# ---------------------------------------------------------------------------
# engine independence of context-keyed compaction


class TestContextBitIdentity:
    #: dynload exercises LOADFN/REPLACEFN, osr exercises on-stack
    #: replacement; compress is the plain hot-loop shape.
    CASES = ("compress", "dynload", "osr")

    @pytest.mark.parametrize("workload", CASES)
    def test_context_keyed_streams_identical_across_engines(self, workload):
        outcomes = []
        for engine in ENGINES:
            rec = TelemetryRecorder(suppress=True, context=True)
            result = _run_with(rec, workload, Strategy.FULL_DUPLICATION,
                               engine=engine)
            outcomes.append((
                result.value,
                result.stats.as_dict(),
                rec.records(),
                tuple(rec.events()),
                rec.contexts.table(),
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_context_off_stream_has_no_ctx_annotations(self):
        rec = TelemetryRecorder(suppress=True)
        _run_with(rec, "compress", Strategy.FULL_DUPLICATION)
        for event in rec.events():
            assert all(key != "ctx" for key, _ in event.data)

    def test_context_key_splits_windows_per_context(self):
        """Same function sampled from two callers must not share a
        suppression window when context-keyed."""
        keyed = TelemetryRecorder(suppress=True, context=True)
        plain = TelemetryRecorder(suppress=True)
        for rec in (keyed, plain):
            _run_with(rec, "compress", Strategy.FULL_DUPLICATION,
                      interval=10)
        # Bit-equal events either way: context only changes grouping.
        assert [e._replace(data=tuple(
            p for p in e.data if p[0] != "ctx"
        )) for e in keyed.events()] == list(plain.events())


# ---------------------------------------------------------------------------
# spool writer / reader


class TestSpool:
    def test_writer_refuses_existing_segments(self, tmp_path):
        spool = tmp_path / "cell"
        writer = SpoolWriter(spool)
        writer.append({"epoch": 0})
        writer.close()
        with pytest.raises(ReproError):
            SpoolWriter(spool)

    def test_segments_roll_by_size(self, tmp_path):
        writer = SpoolWriter(tmp_path / "cell", segment_max_bytes=64)
        for epoch in range(8):
            writer.append({"epoch": epoch, "pad": "x" * 40})
        writer.close()
        reader = SpoolReader(tmp_path / "cell")
        assert len(list((tmp_path / "cell").glob("segment-*.jsonl"))) > 1
        assert [e["epoch"] for e in reader.epochs] == list(range(8))

    def test_manifest_tracks_live_then_closed(self, tmp_path):
        writer = SpoolWriter(tmp_path / "cell", label="demo")
        writer.append({"epoch": 0})
        live = SpoolReader(tmp_path / "cell")
        assert not live.closed and live.label == "demo"
        writer.close(final={"done": True})
        done = SpoolReader(tmp_path / "cell")
        assert done.closed
        assert done.manifest["final"] == {"done": True}

    def test_truncated_tail_line_is_tolerated(self, tmp_path):
        writer = SpoolWriter(tmp_path / "cell")
        writer.append({"epoch": 0, "events": []})
        writer.append({"epoch": 1, "events": []})
        segment = next((tmp_path / "cell").glob("segment-*.jsonl"))
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-10])  # cut mid-way through epoch 1
        reader = SpoolReader(tmp_path / "cell")
        assert reader.truncated
        assert [e["epoch"] for e in reader.epochs] == [0]

    def test_mid_stream_corruption_raises(self, tmp_path):
        writer = SpoolWriter(tmp_path / "cell")
        writer.append({"epoch": 0})
        writer.append({"epoch": 1})
        writer.close()
        segment = next((tmp_path / "cell").glob("segment-*.jsonl"))
        lines = segment.read_text().splitlines(keepends=True)
        lines[0] = "{corrupt\n"
        segment.write_text("".join(lines))
        with pytest.raises(ReproError):
            SpoolReader(tmp_path / "cell")

    def test_reader_requires_manifest(self, tmp_path):
        with pytest.raises(ReproError):
            SpoolReader(tmp_path / "missing")


# ---------------------------------------------------------------------------
# streaming round trip: the merge guarantee


class TestStreamingRoundTrip:
    @pytest.mark.parametrize("strategy", ROUND_TRIP_STRATEGIES,
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_spool_reconstructs_run_bit_equal(self, tmp_path, workload,
                                              strategy):
        """Acceptance: every workload x duplication strategy streams
        losslessly — the spool's merged reconstruction equals the live
        recorder's end state, and the record stream matches a
        non-streaming context-keyed run exactly."""
        streamed = StreamingRecorder(tmp_path / "spool", epoch_events=64)
        result = _run_with(streamed, workload, strategy)
        streamed.close()

        reference = TelemetryRecorder(suppress=True, context=True)
        ref_result = _run_with(reference, workload, strategy)

        assert result.value == ref_result.value
        assert result.stats.as_dict() == ref_result.stats.as_dict()
        assert streamed.records() == reference.records()

        reader = SpoolReader(tmp_path / "spool")
        assert reader.closed and not reader.truncated
        assert tuple(reader.records()) == reference.records()
        assert list(reader.events()) == list(reference.events())
        assert reader.final_metrics() == reference.metrics.snapshot()
        assert reader.contexts() == reference.contexts.table()
        verdict = reconcile_stream(result.stats, reader.records())
        assert verdict.ok, verdict.violations

    def test_profile_snapshots_merge_bit_equal(self, tmp_path):
        profiler = OverheadProfiler(interval=16, cct=True)
        rec = StreamingRecorder(tmp_path / "spool", epoch_events=32,
                                profiler=profiler)
        _run_with(rec, "compress", Strategy.FULL_DUPLICATION,
                  profiler=profiler)
        rec.close()
        reader = SpoolReader(tmp_path / "spool")
        final = reader.final_profile()
        live = profiler.snapshot()
        assert json.dumps(final, sort_keys=True) == json.dumps(
            live, sort_keys=True
        )
        assert reader.cct_table() == live["cct"]

    def test_streaming_never_perturbs_execution(self, tmp_path):
        bare = _transformed("compress", Strategy.FULL_DUPLICATION)
        plain = run_program(bare, trigger=CounterTrigger(100))
        rec = StreamingRecorder(tmp_path / "spool", epoch_events=16)
        streamed = _run_with(rec, "compress", Strategy.FULL_DUPLICATION)
        rec.close()
        assert streamed.value == plain.value
        assert streamed.stats.as_dict() == plain.stats.as_dict()

    def test_epoch_cadence_bounds_buffered_state(self, tmp_path):
        rec = StreamingRecorder(tmp_path / "spool", epoch_events=16)
        _run_with(rec, "compress", Strategy.FULL_DUPLICATION, interval=10)
        assert rec.epochs_flushed >= 2  # flushed *during* the run
        rec.close()
        reader = SpoolReader(tmp_path / "spool")
        assert len(reader.epochs) == rec.epochs_flushed

    def test_tail_epochs_follows_to_close(self, tmp_path):
        rec = StreamingRecorder(tmp_path / "spool", epoch_events=32)
        _run_with(rec, "compress", Strategy.FULL_DUPLICATION)
        rec.close()
        frames = list(tail_epochs(tmp_path / "spool", poll_seconds=0.01))
        assert frames, "closed spool must yield at least one frame"
        reader, fresh = frames[-1]
        assert reader.closed
        assert sum(len(f) for _, f in frames) == len(reader.epochs)


# ---------------------------------------------------------------------------
# crash tolerance: a spool cut where a killed writer can leave it


def _cut_points(spool, seed):
    """Every place a writer killed mid-run can leave its segments:
    ``(segment index, byte offset, inside_line)`` for each epoch-line
    boundary, plus three seeded offsets strictly inside each line (a
    fragment that cannot parse, because it lacks at least the closing
    brace)."""
    rng = random.Random(seed)
    points = []
    for index, segment in enumerate(sorted(spool.glob("segment-*.jsonl"))):
        raw = segment.read_bytes()
        start = 0
        points.append((index, 0, False))
        while start < len(raw):
            end = raw.index(b"\n", start)
            for offset in sorted(rng.sample(range(start + 1, end), 3)):
                points.append((index, offset, True))
            start = end + 1
            points.append((index, start, False))
    return points


def _cut(spool, target, index, offset):
    """Rebuild *target* as *spool* would look with its writer killed
    after *offset* bytes of segment *index*: a live manifest, the
    earlier segments whole, that segment cut, no later segments."""
    if target.exists():
        shutil.rmtree(target)
    target.mkdir()
    manifest = json.loads((spool / MANIFEST_NAME).read_text())
    manifest["status"] = "live"
    manifest.pop("final", None)
    (target / MANIFEST_NAME).write_text(json.dumps(manifest))
    segments = sorted(spool.glob("segment-*.jsonl"))
    for segment in segments[:index]:
        shutil.copyfile(segment, target / segment.name)
    cut = segments[index]
    (target / cut.name).write_bytes(cut.read_bytes()[:offset])


class TestCrashTolerance:
    #: (workload, sample interval, events per epoch); both spools span
    #: more than 16 epochs, so the cuts also land after a second
    #: metrics keyframe.
    CASES = (("osr", 20, 32), ("compress", 100, 24))

    @pytest.mark.parametrize("workload,interval,epoch_events", CASES)
    def test_cut_spool_reads_back_as_exact_prefix(
        self, tmp_path, workload, interval, epoch_events
    ):
        """Cut a finished spool at every epoch boundary and at seeded
        offsets inside each line: every cut reads back as a live spool
        whose records are a bit-equal prefix of the full run's, with
        ``truncated`` set exactly when the cut splits a line, snapshots
        that still merge, counters that never exceed the full run, and
        a stream that reconciles once flagged as truncated."""
        spool = tmp_path / "spool"
        recorder = StreamingRecorder(spool, epoch_events=epoch_events)
        stats = _run_with(
            recorder, workload, Strategy.FULL_DUPLICATION, interval=interval
        ).stats
        recorder.close()
        full = SpoolReader(spool)
        assert len(full.epochs) > 16
        full_records = full.records()
        final_full = full.final_metrics()

        points = _cut_points(spool, seed=len(full.epochs))
        assert sum(inside for _, _, inside in points) == 3 * len(full.epochs)
        target = tmp_path / "cut"
        for index, offset, inside_line in points:
            _cut(spool, target, index, offset)
            reader = SpoolReader(target)
            assert not reader.closed
            assert reader.truncated == inside_line
            records = reader.records()
            assert full_records[:len(records)] == records
            snapshots = reader.metrics_snapshots()
            assert len(snapshots) == len(reader.epochs)
            for key, payload in reader.final_metrics().items():
                if payload["type"] == "counter":
                    assert payload["value"] <= final_full[key]["value"]
            verdict = reconcile_stream(stats, records, truncated=True)
            assert verdict.ok and verdict.truncated, verdict.violations

    def test_torn_manifest_is_an_error_naming_the_spool(
        self, tmp_path, capsys
    ):
        """A MANIFEST.json cut at seeded offsets (as the segments are),
        at 0 bytes, or holding no object is a ReproError naming the
        spool and its manifest, which ``repro watch`` reports as an
        error, with or without ``--follow``."""
        from repro.cli import main

        spool = tmp_path / "spool"
        recorder = StreamingRecorder(spool, epoch_events=32)
        _run_with(recorder, "osr", Strategy.FULL_DUPLICATION, interval=20)
        recorder.close()
        manifest = (spool / MANIFEST_NAME).read_bytes().rstrip()
        rng = random.Random(len(SpoolReader(spool).epochs))
        offsets = [0] + sorted(rng.sample(range(1, len(manifest)), 3))
        for payload in [manifest[:offset] for offset in offsets] + [b"[1,2]"]:
            (spool / MANIFEST_NAME).write_bytes(payload)
            with pytest.raises(ReproError) as caught:
                SpoolReader(spool)
            assert str(caught.value) == (
                f"spool {spool}: {MANIFEST_NAME} is not a JSON object"
            )
            for follow in ([], ["--follow", "--poll", "0.01"]):
                assert main(["watch", str(spool), *follow]) == 1
                assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_reconcile_stream_truncated_waives_lower_bound(self):
        rec = TelemetryRecorder(suppress=True, context=True)
        result = _run_with(rec, "compress", Strategy.FULL_DUPLICATION)
        records = rec.records()
        half = records[: len(records) // 2]
        strict = reconcile_stream(result.stats, half)
        assert not strict.ok
        waived = reconcile_stream(result.stats, half, truncated=True)
        assert waived.ok and waived.truncated
        assert "truncated" in waived.summary()
        round_tripped = type(waived).from_dict(waived.as_dict())
        assert round_tripped.truncated


# ---------------------------------------------------------------------------
# harness + CLI surface


class TestHarnessStreaming:
    SPEC = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                   trigger="counter", interval=100)

    def test_runner_stream_produces_sealed_spool(self, tmp_path):
        runner = ExperimentRunner(profile=True, stream=tmp_path / "live")
        result = runner.run(self.SPEC)
        assert result.spool is not None
        reader = SpoolReader(result.spool)
        assert reader.closed
        # Spool reconstruction agrees with the manifest bit-for-bit.
        assert reader.final_metrics() == result.manifest.metrics
        assert json.dumps(reader.final_profile(), sort_keys=True) == (
            json.dumps(result.profile["snapshot"], sort_keys=True)
        )
        stream_info = result.manifest.telemetry["stream"]
        assert stream_info["closed"] and stream_info["path"] == result.spool

    def test_cells_differing_only_in_seed_stream_to_their_own_spools(
        self, tmp_path
    ):
        runner = ExperimentRunner(cache=False, stream=tmp_path / "live")
        results = [
            runner.run(RunSpec(
                "compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                trigger="randomized", interval=100, seed=seed,
            ))
            for seed in (1, 2)
        ]
        assert results[0].spool != results[1].spool
        for result in results:
            reader = SpoolReader(result.spool)
            assert reader.closed
            assert reader.final_metrics() == result.manifest.metrics

    def test_stream_implies_telemetry_and_compaction(self, tmp_path):
        runner = ExperimentRunner(stream=tmp_path / "live")
        assert runner.telemetry and runner.compaction

    def test_manifest_telemetry_reports_drop_accounting(self, tmp_path):
        runner = ExperimentRunner(stream=tmp_path / "live")
        result = runner.run(self.SPEC)
        telemetry = result.manifest.telemetry
        assert telemetry["dropped_events"] == 0
        assert telemetry["dropped"] == 0

    def test_eviction_loss_surfaces_as_metric(self, tmp_path):
        """Satellite: ring evictions become first-class metrics. A
        deliberately tiny ring must drop, and the loss must appear in
        both the manifest telemetry section and the metrics snapshot."""
        runner = ExperimentRunner(
            stream=tmp_path / "live", telemetry_capacity=8
        )
        result = runner.run(self.SPEC)
        telemetry = result.manifest.telemetry
        assert telemetry["dropped_events"] > 0
        metrics = result.manifest.metrics
        # Metrics are frozen at sync_metrics; close() flushes remaining
        # windows through the ring afterwards, so the summary may count
        # a few more drops than the published counter.
        published = metrics["vm.telemetry.ring.dropped_events"]["value"]
        assert 0 < published <= telemetry["dropped_events"]
        # The spool never loses what the ring evicts: the streamed
        # record stream stays complete.
        reader = SpoolReader(result.spool)
        assert reader.summary()["records"] > len(result.records)


class TestWatchCli:
    def _spool(self, tmp_path):
        runner = ExperimentRunner(profile=True, stream=tmp_path / "live")
        return runner.run(TestHarnessStreaming.SPEC).spool

    def test_watch_renders_hot_contexts(self, tmp_path, capsys):
        from repro.cli import main

        spool = self._spool(tmp_path)
        assert main(["watch", spool, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "hot contexts" in out
        assert "main;" in out
        assert "epochs:" in out

    def test_watch_json_payload(self, tmp_path, capsys):
        from repro.cli import main

        spool = self._spool(tmp_path)
        assert main(["watch", spool, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "closed"
        assert payload["top_contexts"]
        assert all("path" in row for row in payload["top_contexts"])

    def test_watch_follow_exits_when_closed(self, tmp_path, capsys):
        from repro.cli import main

        spool = self._spool(tmp_path)
        assert main(["watch", spool, "--follow", "--poll", "0.01"]) == 0
        assert "hot contexts" in capsys.readouterr().out

    def test_watch_missing_spool_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err
