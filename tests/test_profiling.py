"""Self-sampling overhead profiler, flame-graph export, perf ledger.

The profiling contract has three load-bearing clauses
(docs/PROFILING.md):

1. **Transparency** — attaching a profiler (disabled *or* enabled)
   never changes what the VM computes: event streams, ExecStats, and
   instruction counts stay bit-identical to the null baseline across
   the whole workload x strategy matrix.
2. **Reconciliation** — the overhead decomposition's component sum
   partitions the profiled span, so it lands within tolerance of an
   independently measured wall time, and the profiler's own sampling
   work obeys a Property-1-style bound (samples <= boundaries //
   interval + runs).
3. **Associativity** — profile snapshots merge associatively and
   commutatively, so cell profiles fold together in any grouping,
   exactly like metrics snapshots, and merging a snapshot's diff onto
   its base gives the snapshot back.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import reconcile_profile
from repro.errors import AnalysisError, HarnessError, ReproError
from repro.harness import ExperimentRunner, RunSpec
from repro.harness.experiment import make_instrumentations
from repro.profiling import (
    COMPONENTS,
    DecompositionReport,
    OverheadProfiler,
    PerfLedger,
    decompose,
    diff_snapshot,
    make_record,
    merge_snapshots,
    resolve_ledger,
    stacks_to_chrome_flame,
    stacks_to_collapsed,
    stacks_to_speedscope,
    write_collapsed,
    write_speedscope,
)
from repro.profiling.ledger import LEDGER_ENV, LEDGER_FILENAME
from repro.sampling import (
    CounterTrigger,
    NeverTrigger,
    SamplingFramework,
    Strategy,
    TimerTrigger,
    make_trigger,
)
from repro.telemetry import (
    Histogram,
    TelemetryRecorder,
    events_to_chrome_trace,
    quantile_from_buckets,
)
from repro.vm import run_program
from repro.workloads import all_workloads, get_workload


class _Fn:
    def __init__(self, name):
        self.name = name


class _Frame:
    def __init__(self, name):
        self.function = _Fn(name)


def _frames(*names):
    return [_Frame(n) for n in names]


class _FakeClock:
    """Deterministic clock: each call advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


# ---------------------------------------------------------------------------
# profiler unit behaviour


class TestOverheadProfiler:
    def test_samples_fire_at_interval(self):
        prof = OverheadProfiler(interval=2, clock=_FakeClock())
        prof.start()
        frames = _frames("main")
        for _ in range(7):
            prof.boundary("dispatch", "main", 0, 1, frames, 0)
        prof.stop()
        assert prof.boundaries == 7
        assert prof.samples == 3  # polls 2, 4, 6
        assert prof.bound_holds()

    def test_wall_time_partitions_the_span(self):
        clock = _FakeClock()
        prof = OverheadProfiler(interval=1, clock=clock)
        prof.start()
        frames = _frames("main")
        prof.boundary("dispatch", "main", 0, 1, frames, 0)
        prof.boundary("poll", "main", 1, 2, frames, 0)
        prof.boundary("payload", "main", 2, 3, frames, 0)
        prof.stop()
        snap = prof.snapshot()
        total = sum(snap["wall_seconds"].values())
        assert total == pytest.approx(snap["elapsed_seconds"])
        # every component key is one of the documented ones
        assert set(snap["wall_seconds"]) == set(COMPONENTS)

    def test_fired_check_classifies_as_trampoline_and_enters_dup(self):
        prof = OverheadProfiler(interval=1, clock=_FakeClock())
        prof.start()
        frames = _frames("f")
        prof.check_boundary(True, "f", 4, frames, 0)
        assert prof.sample_counts["trampoline"] == 1
        # while resident in duplicated code, dispatch reports as dup
        prof.boundary("dispatch", "f", 5, 1, frames, 0)
        assert prof.sample_counts["dup"] == 1
        # an unfired check ends residency
        prof.check_boundary(False, "f", 6, frames, 0)
        assert prof.sample_counts["check"] == 1
        prof.boundary("dispatch", "f", 7, 1, frames, 0)
        assert prof.sample_counts["dispatch"] == 1
        prof.stop()

    def test_guarded_boundary_classification(self):
        prof = OverheadProfiler(interval=1, clock=_FakeClock())
        prof.start()
        frames = _frames("g")
        prof.guarded_boundary(True, "g", 0, frames, 0)
        prof.guarded_boundary(False, "g", 1, frames, 0)
        prof.stop()
        assert prof.sample_counts["payload"] == 1
        assert prof.sample_counts["check"] == 1

    def test_heat_and_stack_tables(self):
        prof = OverheadProfiler(interval=1, clock=_FakeClock())
        prof.start()
        prof.boundary("dispatch", "f", 3, 1, _frames("main", "f"), 0)
        prof.boundary("dispatch", "f", 3, 1, _frames("main", "f"), 0)
        prof.boundary("dispatch", "g", 0, 2, _frames("main", "g"), 0)
        prof.stop()
        snap = prof.snapshot()
        assert snap["heat"]["f@3"] == 2
        assert snap["heat"]["g@0"] == 1
        assert snap["stacks"]["main;f"][0] == 2
        assert snap["stacks"]["main;g"][0] == 1

    def test_stop_attributes_tail_to_runtime(self):
        prof = OverheadProfiler(interval=1, clock=_FakeClock())
        prof.start()
        prof.boundary("dispatch", "f", 0, 1, _frames("f"), 0)
        prof.stop()
        assert prof.wall["runtime"] > 0.0

    def test_disabled_profiler_is_inert_in_vm(self):
        program = get_workload("jack").compile(None)
        prof = OverheadProfiler(enabled=False)
        from repro.vm.interpreter import VM

        VM(program, engine="fast", profiler=prof).run()
        assert prof.boundaries == 0
        assert prof.samples == 0
        assert prof.runs == 0


class TestTriggerSampleBound:
    def test_counter_trigger_derives_a_bound(self):
        trigger = CounterTrigger(4)
        for _ in range(10):
            trigger.poll()
        assert trigger.sample_bound() == 10 // 4 + 1
        assert trigger.samples_triggered <= trigger.sample_bound()

    def test_interval_free_triggers_have_no_bound(self):
        assert NeverTrigger().sample_bound() is None
        assert TimerTrigger().sample_bound() is None


# ---------------------------------------------------------------------------
# snapshot merging (pool-worker contract)


def _snap_from(events):
    """Build a snapshot by replaying (component, fn, pc) boundary events."""
    prof = OverheadProfiler(interval=1, clock=_FakeClock())
    prof.start()
    for comp, fn, pc in events:
        prof.boundary(comp, fn, pc, 1, _frames("main", fn), 0)
    prof.stop()
    return prof.snapshot()


class TestMergeSnapshots:
    A = [("dispatch", "f", 0), ("check", "f", 1)]
    B = [("poll", "g", 0)]
    C = [("dispatch", "f", 0), ("payload", "h", 2)]

    def test_merge_is_associative_and_commutative(self):
        a, b, c = _snap_from(self.A), _snap_from(self.B), _snap_from(self.C)
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        swapped = merge_snapshots([c, a, b])
        assert left == right == swapped

    def test_merge_sums_tables(self):
        a, c = _snap_from(self.A), _snap_from(self.C)
        merged = merge_snapshots([a, c])
        assert merged["heat"]["f@0"] == 2
        assert merged["runs"] == 2
        assert merged["samples"] == a["samples"] + c["samples"]
        # A contributes 2 samples under main;f, C contributes 1 more
        assert merged["stacks"]["main;f"][0] == 3

    def test_mixed_intervals_lose_the_interval(self):
        a = _snap_from(self.A)
        b = dict(_snap_from(self.B), interval=128)
        assert merge_snapshots([a, b])["interval"] is None

    def test_empty_merge_is_an_empty_profile(self):
        merged = merge_snapshots([])
        assert merged["samples"] == 0
        assert merged["runs"] == 0


#: One profiler sample: (component, calling context, block head,
#: opcode, wall seconds). Walls are dyadic, so every sum below is exact
#: and rounding cannot hide a fault.
_SAMPLES = st.lists(
    st.tuples(
        st.sampled_from(COMPONENTS),
        st.sampled_from(("main", "main;f", "main;f;g", "main;g")),
        st.sampled_from(("f@0", "f@3", "g@1", "main@7")),
        st.sampled_from(("CHECK", "INSTR", "CALL")),
        st.integers(0, 1 << 12).map(lambda n: n / 256),
    ),
    max_size=25,
)


def _profile_of(samples, runs=1):
    """The snapshot a CCT-mode profiler at interval 8 takes after
    *samples*, built without the merge under test."""
    snap = {
        "version": 1,
        "interval": 8,
        "runs": runs,
        "boundaries": 8 * len(samples),
        "samples": len(samples),
        "elapsed_seconds": 0.0,
        "wall_seconds": {c: 0.0 for c in COMPONENTS},
        "sample_counts": {c: 0 for c in COMPONENTS},
        "heat": {},
        "op_heat": {},
        "stacks": {},
        "cct": {},
    }
    for component, path, site, op, wall in samples:
        snap["elapsed_seconds"] += wall
        snap["wall_seconds"][component] += wall
        snap["sample_counts"][component] += 1
        snap["heat"][site] = snap["heat"].get(site, 0) + 1
        snap["op_heat"][op] = snap["op_heat"].get(op, 0) + 1
        count, total = snap["stacks"].get(path, (0, 0.0))
        snap["stacks"][path] = [count + 1, total + wall]
        cell = snap["cct"].setdefault(path, {})
        count, total = cell.get(component, (0, 0.0))
        cell[component] = [count + 1, total + wall]
    return snap


def _leaves(table):
    for value in table.values():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield value


class TestSnapshotAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(_SAMPLES, _SAMPLES)
    def test_merging_the_diff_onto_its_base_gives_the_snapshot(
        self, before, after
    ):
        base = _profile_of(before)
        grown = _profile_of(before + after, runs=2)
        delta = diff_snapshot(base, grown)
        assert merge_snapshots([base, delta]) == grown
        # only changed leaves travel, beside the interval and version
        counted = {k: v for k, v in delta.items()
                   if k not in ("version", "interval")}
        assert all(
            any(leaf) if isinstance(leaf, list) else leaf
            for leaf in _leaves(counted)
        )

    @settings(max_examples=60, deadline=None)
    @given(_SAMPLES, _SAMPLES, _SAMPLES)
    def test_merge_is_associative_and_commutative(self, x, y, z):
        a, b, c = (_profile_of(samples) for samples in (x, y, z))
        grouped = merge_snapshots([merge_snapshots([a, b]), c])
        assert grouped == merge_snapshots([a, merge_snapshots([b, c])])
        assert grouped == merge_snapshots([c, b, a])
        assert grouped == _profile_of(x + y + z, runs=3)


# ---------------------------------------------------------------------------
# reconciliation


class TestReconcileProfile:
    def test_bound_holds_on_a_real_run(self):
        program = get_workload("jack").compile(None)
        prof = OverheadProfiler(interval=64)
        run_program(program, engine="fast", profiler=prof)
        verdict = reconcile_profile(prof.snapshot())
        assert verdict.ok
        assert verdict.observed <= verdict.bound

    def test_violation_is_reported(self):
        snap = {"interval": 10, "boundaries": 100, "samples": 50, "runs": 1}
        verdict = reconcile_profile(snap)
        assert not verdict.ok
        assert "at most" in verdict.violations[0]

    def test_merged_runs_widen_the_slack(self):
        snap = {"interval": 10, "boundaries": 100, "samples": 12, "runs": 3}
        assert reconcile_profile(snap).ok

    def test_intervalless_snapshot_raises(self):
        with pytest.raises(AnalysisError):
            reconcile_profile({"interval": None, "boundaries": 1, "samples": 0})


class TestDecomposition:
    def test_report_round_trip(self):
        report = DecompositionReport(
            components={"dispatch": 0.8, "check": 0.2},
            sample_counts={"dispatch": 8, "check": 2},
            measured_wall=1.01,
            samples=10,
            boundaries=640,
            interval=64,
        )
        clone = DecompositionReport.from_dict(report.as_dict())
        assert clone.component_sum == pytest.approx(1.0)
        assert clone.reconciles()
        assert clone.share("dispatch") == pytest.approx(80.0)

    def test_out_of_tolerance_sum_is_flagged(self):
        report = DecompositionReport(
            components={"dispatch": 0.5},
            sample_counts={"dispatch": 5},
            measured_wall=1.0,
            samples=5,
            boundaries=320,
            interval=64,
        )
        assert not report.reconciles()
        assert "VIOLATED" in report.render()

    def test_zero_wall_never_reconciles(self):
        report = decompose(
            {"wall_seconds": {}, "sample_counts": {}}, measured_wall=0.0
        )
        assert not report.reconciles()
        assert report.error_pct == 0.0


# ---------------------------------------------------------------------------
# transparency across the workload x strategy matrix (acceptance)


def _instrumented(workload, strategy):
    program = get_workload(workload).compile(None)
    instr = make_instrumentations(("call-edge",))
    return SamplingFramework(strategy).transform(program, instr), instr


def _fingerprint(workload, strategy, profiler):
    transformed, instr = _instrumented(workload, strategy)
    rec = TelemetryRecorder()
    result = run_program(
        transformed,
        trigger=CounterTrigger(100),
        engine="fast",
        recorder=rec,
        profiler=profiler,
    )
    return (
        result.value,
        tuple(result.output),
        result.stats.as_dict(),
        rec.events(),
        {i.kind: dict(i.profile.counts) for i in instr},
    )


class TestTransparency:
    """Profiling (off *and* on) never perturbs execution."""

    @pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_profiler_never_perturbs_execution(self, workload, strategy):
        baseline = _fingerprint(workload, strategy, None)
        disabled = _fingerprint(
            workload, strategy, OverheadProfiler(enabled=False)
        )
        enabled = _fingerprint(workload, strategy, OverheadProfiler())
        assert baseline == disabled == enabled

    def test_enabled_decomposition_reconciles_with_wall_time(self):
        import time

        transformed, _ = _instrumented(
            "compress", Strategy.FULL_DUPLICATION
        )
        prof = OverheadProfiler(interval=64)
        started = time.perf_counter()
        run_program(
            transformed,
            trigger=CounterTrigger(1000),
            engine="fast",
            profiler=prof,
        )
        measured_wall = time.perf_counter() - started
        report = decompose(prof.snapshot(), measured_wall=measured_wall)
        assert report.reconciles(), report.render()
        assert reconcile_profile(prof.snapshot()).ok


# ---------------------------------------------------------------------------
# histogram quantiles (satellite)


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram(bounds=(1, 10, 100))
        assert h.quantiles() == {0.5: None, 0.9: None, 0.99: None}

    def test_single_bucket_clamps_to_observed_range(self):
        h = Histogram(bounds=(1000,))
        for v in (40, 50, 60):
            h.observe(v)
        q = h.quantiles((0.5,))[0.5]
        assert 40 <= q <= 60  # not smeared over [0, 1000]

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram(bounds=(1, 2))
        h.observe(500)
        assert h.quantiles((0.5,))[0.5] == 500.0
        assert h.quantiles((0.99,))[0.99] == 500.0

    def test_interpolation_inside_a_bucket(self):
        h = Histogram(bounds=(10, 20))
        for v in (11, 12, 18, 19):
            h.observe(v)
        p50 = h.quantiles((0.5,))[0.5]
        assert 11 <= p50 <= 19

    def test_extreme_quantiles_stay_in_range(self):
        h = Histogram(bounds=(10, 20, 30))
        for v in (5, 15, 25):
            h.observe(v)
        qs = h.quantiles((0.0, 1.0))
        assert qs[0.0] >= 5
        assert qs[1.0] == 25.0

    def test_invalid_quantile_raises(self):
        h = Histogram()
        with pytest.raises(ReproError):
            h.quantiles((1.5,))

    def test_works_on_snapshot_dicts(self):
        h = Histogram(bounds=(10, 100))
        for v in (3, 30, 60):
            h.observe(v)
        payload = h.as_dict()
        live = h.quantiles((0.9,))[0.9]
        from_snapshot = quantile_from_buckets(
            payload["bounds"], payload["buckets"], payload["count"], 0.9,
            observed_min=payload["min"], observed_max=payload["max"],
        )
        assert from_snapshot == pytest.approx(live)

    def test_empty_count_from_snapshot_is_none(self):
        assert quantile_from_buckets((), (), 0, 0.5) is None


# ---------------------------------------------------------------------------
# chrome trace thread metadata (satellite)


class TestChromeTraceThreadMetadata:
    def _trace_for(self, workload):
        transformed, _ = _instrumented(workload, Strategy.NO_DUPLICATION)
        rec = TelemetryRecorder()
        run_program(
            transformed, trigger=make_trigger("timer"), recorder=rec
        )
        return rec.events(), events_to_chrome_trace(rec.events())

    def test_every_event_tid_has_named_track(self):
        # volano spawns green threads: events carry several tids.
        events, trace = self._trace_for("volano")
        event_tids = {max(e.tid, 0) if e.tid >= 0 else 9999 for e in events}
        assert len({e.tid for e in events if e.tid > 0}) >= 1, (
            "workload must exercise spawned threads"
        )
        named = {
            rec["tid"]: rec["args"]["name"]
            for rec in trace["traceEvents"]
            if rec.get("ph") == "M" and rec["name"] == "thread_name"
        }
        for tid in event_tids:
            assert tid in named
        # spawned threads get distinct labels, main is called out
        assert named[0] == "main (tid 0)"
        spawned = [t for t in named if 0 < t < 9999]
        for tid in spawned:
            assert str(tid) in named[tid]

    def test_process_name_and_sort_index_present(self):
        _events, trace = self._trace_for("volano")
        meta = [r for r in trace["traceEvents"] if r.get("ph") == "M"]
        names = {r["name"] for r in meta}
        assert "process_name" in names
        assert "thread_sort_index" in names
        sort_records = [r for r in meta if r["name"] == "thread_sort_index"]
        for rec in sort_records:
            assert rec["args"]["sort_index"] == rec["tid"]


# ---------------------------------------------------------------------------
# flame-graph exporters


_STACKS = {
    "main;f": [3, 0.003],
    "main;f;g": [2, 0.002],
    "main": [1, 0.001],
}


class TestFlamegraphExporters:
    def test_collapsed_format(self):
        text = stacks_to_collapsed(_STACKS)
        lines = text.strip().splitlines()
        assert "main;f 3" in lines
        assert "main;f;g 2" in lines
        assert "main 1" in lines
        # folded format: every line is "frames count"
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            assert frames
            assert int(count) > 0

    def test_speedscope_schema(self):
        doc = stacks_to_speedscope(_STACKS, name="t")
        assert doc["$schema"].endswith("file-format-schema.json")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"]) == 3
        frames = doc["shared"]["frames"]
        for sample in profile["samples"]:
            for idx in sample:
                assert 0 <= idx < len(frames)
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))

    def test_chrome_flame_nests_slices(self):
        doc = stacks_to_chrome_flame(_STACKS)
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        # one slice per frame per stack: 1 + 2 + 3
        assert len(slices) == 6
        meta = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "M"}
        assert {"process_name", "thread_name"} <= meta

    def test_writers_create_parent_dirs(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "x.collapsed"
        write_collapsed(_STACKS, out)
        assert out.read_text().startswith("main")
        ss = tmp_path / "deep" / "x.speedscope.json"
        write_speedscope(_STACKS, ss)
        assert json.loads(ss.read_text())["profiles"]

    def test_empty_stack_key_renders_unknown(self):
        text = stacks_to_collapsed({"": [1, 0.0]})
        assert text.strip() == "(unknown) 1"


# ---------------------------------------------------------------------------
# perf ledger


def _record(key="w/fast", value=100.0, **over):
    rec = make_record("bench", key, "instr_per_sec", value)
    rec.update(over)
    return rec


class TestPerfLedger:
    def test_record_carries_normalization_and_host(self):
        rec = make_record("b", "k", "m", 1000.0)
        assert rec["normalized"] > 0
        assert rec["host"]["implementation"]
        assert rec["higher_is_better"] is True

    def test_append_and_filtered_read(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.append(_record(key="a"))
        ledger.append(_record(key="b"))
        assert len(ledger.records()) == 2
        assert len(ledger.records(key="a")) == 1

    def test_unparseable_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps(_record()) + "\n{not json\n" + json.dumps(_record())
            + "\n"
        )
        assert len(PerfLedger(path).records()) == 2

    def test_regression_beyond_noise_band_is_flagged(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        for _ in range(4):
            ledger.append(_record(value=100.0, normalized=100.0))
        ledger.append(_record(value=50.0, normalized=50.0))
        report = ledger.check(noise_pct=10.0)
        assert not report.ok
        verdict = report.regressions[0]
        assert verdict.delta_pct == pytest.approx(50.0)
        assert "REGRESSED" in verdict.summary()

    def test_noise_band_absorbs_small_dips(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        for value in (100.0, 101.0, 99.0, 96.0):
            ledger.append(_record(value=value, normalized=value))
        assert ledger.check(noise_pct=10.0).ok

    def test_lower_is_better_flips_direction(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        for value in (10.0, 10.0, 20.0):
            ledger.append(
                _record(
                    value=value, normalized=value, higher_is_better=False
                )
            )
        report = ledger.check(noise_pct=10.0)
        assert not report.ok  # latency doubled

    def test_single_record_is_insufficient_history(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        ledger.append(_record())
        report = ledger.check()
        assert report.ok
        assert "insufficient" in report.verdicts[0].summary()

    def test_rolling_window_forgets_ancient_records(self, tmp_path):
        ledger = PerfLedger(tmp_path / "h.jsonl")
        # ancient fast records, then a stable slow plateau
        for value in (1000.0, 1000.0):
            ledger.append(_record(value=value, normalized=value))
        for value in (100.0, 101.0, 99.0, 100.0, 100.0, 100.0):
            ledger.append(_record(value=value, normalized=value))
        # window=5 baselines on the plateau, not the ancient records
        assert ledger.check(window=5, noise_pct=10.0).ok

    def test_resolve_ledger_semantics(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert resolve_ledger(None) is None
        assert resolve_ledger(False) is None
        assert resolve_ledger(True).path.name == LEDGER_FILENAME
        explicit = resolve_ledger(tmp_path / "x.jsonl")
        assert explicit.path == tmp_path / "x.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env.jsonl"))
        assert resolve_ledger(None).path.name == "env.jsonl"


# ---------------------------------------------------------------------------
# harness integration


def _counted(payload):
    """A manifest or profile snapshot less its host-side fields: wall
    clock (the self-profile included) and where the cell ran."""
    payload = {
        key: value for key, value in payload.items()
        if key not in ("wall_seconds", "elapsed_seconds", "profiling",
                       "source")
    }
    if "stacks" in payload:
        payload["stacks"] = {
            stack: count for stack, (count, _wall) in payload["stacks"].items()
        }
    return payload


class TestHarnessProfiling:
    def _spec(self, workload="jack"):
        return RunSpec(
            workload=workload,
            strategy=Strategy.FULL_DUPLICATION,
            trigger="counter",
            interval=1000,
        )

    def test_profiled_cell_reconciles_and_lands_in_manifest(self):
        runner = ExperimentRunner(profile=True, telemetry=True)
        result = runner.run(self._spec())
        payload = result.profile
        assert payload is not None
        assert payload["decomposition"]["reconciles"]
        assert payload["bound"]["ok"]
        assert result.manifest.profiling["snapshot"]["samples"] >= 0
        assert result.vm_seconds > 0

    def test_profiling_off_leaves_no_payload(self):
        runner = ExperimentRunner()
        result = runner.run(self._spec())
        assert result.profile is None

    def test_profiling_never_changes_stats(self):
        plain = ExperimentRunner().run(self._spec())
        profiled = ExperimentRunner(profile=True).run(self._spec())
        assert plain.stats.as_dict() == profiled.stats.as_dict()
        assert {
            k: dict(p.counts) for k, p in plain.profiles.items()
        } == {
            k: dict(p.counts) for k, p in profiled.profiles.items()
        }

    def test_memoized_profiles_merge_across_cells(self):
        runner = ExperimentRunner(profile=True)
        results = [runner.run(self._spec(w)) for w in ("jack", "volano")]
        snapshots = [result.profile["snapshot"] for result in results]
        merged = merge_snapshots(snapshots)
        assert merged["runs"] == 2
        assert merged["samples"] == sum(s["samples"] for s in snapshots)
        assert merged["boundaries"] == sum(s["boundaries"] for s in snapshots)
        assert reconcile_profile(merged).ok
        # a memo hit hands back the kept snapshot, not a new store
        assert runner.run(self._spec("jack")).profile["snapshot"] is (
            snapshots[0]
        )

    def test_ledger_appends_one_record_per_cell(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        runner = ExperimentRunner(ledger=path)
        runner.run(self._spec("jack"))
        runner.run(self._spec("volano"))
        records = PerfLedger(path).records()
        assert len(records) == 2
        assert {r["bench"] for r in records} == {"harness"}
        assert all(r["value"] > 0 for r in records)

    def test_memoized_rerun_does_not_double_append(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        runner = ExperimentRunner(ledger=path)
        runner.run(self._spec())
        runner.run(self._spec())  # memo hit
        assert len(PerfLedger(path).records()) == 1

    def test_pool_profiles_manifests_and_ledger_match_serial(
        self, tmp_path
    ):
        specs = [self._spec("jack"), self._spec("volano")]
        kept = {}
        for jobs in (1, 2):
            path = tmp_path / f"ledger-{jobs}.jsonl"
            runner = ExperimentRunner(
                profile=True, telemetry=True, ledger=path, jobs=jobs
            )
            results = runner.run_many(specs)
            # the runner appends exactly once per cell, workers never do
            assert len(PerfLedger(path).records()) == len(specs)
            snapshots = [result.profile["snapshot"] for result in results]
            merged = merge_snapshots(snapshots)
            assert merged["runs"] == len(specs)
            assert merged["samples"] == sum(s["samples"] for s in snapshots)
            kept[jobs] = (
                [_counted(dataclasses.asdict(r.manifest)) for r in results],
                _counted(merged),
            )
        assert kept[1] == kept[2]

    def test_bound_violation_is_a_hard_error(self, monkeypatch):
        from repro.harness import experiment as exp_mod

        def broken(snapshot):
            from repro.analysis.reconcile import ReconcileVerdict

            return ReconcileVerdict(
                ok=False, bound=0, observed=1,
                formula="x", violations=["synthetic violation"],
            )

        monkeypatch.setattr(exp_mod, "reconcile_profile", broken)
        runner = ExperimentRunner(profile=True)
        with pytest.raises(HarnessError, match="sample bound"):
            runner.run(self._spec())


# ---------------------------------------------------------------------------
# CLI


class TestProfileCLI:
    def test_profile_workload_emits_decomposition_and_stacks(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "jack.collapsed"
        assert main([
            "profile", "--workload", "jack", "--strategy", "full",
            "--interval", "1000", "--stacks-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "overhead decomposition" in printed
        assert "component sum" in printed
        assert "sample bound" in printed
        assert out.exists()
        first = out.read_text().splitlines()[0]
        frames, count = first.rsplit(" ", 1)
        assert frames and int(count) > 0

    def test_profile_no_self_profile_skips_decomposition(
        self, capsys
    ):
        from repro.cli import main

        assert main([
            "profile", "--workload", "jack", "--strategy", "none",
            "--trigger", "never", "--no-self-profile",
        ]) == 0
        assert "overhead decomposition" not in capsys.readouterr().out

    def test_profile_speedscope_and_flame_outputs(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        ss = tmp_path / "p.speedscope.json"
        flame = tmp_path / "p.flame.json"
        assert main([
            "profile", "--workload", "volano", "--strategy", "full",
            "--interval", "1000",
            "--stacks-out", str(tmp_path / "p.collapsed"),
            "--speedscope-out", str(ss),
            "--flame-out", str(flame),
        ]) == 0
        assert json.loads(ss.read_text())["profiles"]
        assert json.loads(flame.read_text())["traceEvents"]

    def test_metrics_profile_vm_prints_decomposition(self, capsys):
        from repro.cli import main

        assert main([
            "metrics", "--workload", "jack", "--strategy", "full",
            "--interval", "1000", "--profile-vm",
        ]) == 0
        printed = capsys.readouterr().out
        assert "overhead decomposition" in printed
        assert "p50=" in printed  # histogram quantile suffix

    def test_metrics_json_includes_self_profile(self, capsys):
        from repro.cli import main

        assert main([
            "metrics", "--workload", "jack", "--strategy", "full",
            "--interval", "1000", "--profile-vm", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vm.self_profile"]["snapshot"]["samples"] >= 0

    def test_ledger_show_and_check(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "h.jsonl"
        ledger = PerfLedger(path)
        for value in (100.0, 100.0, 100.0, 40.0):
            ledger.append(_record(value=value, normalized=value))
        assert main(["ledger", "show", "--ledger", str(path)]) == 0
        assert "record(s)" in capsys.readouterr().out
        # regression beyond the band: exit 1 strict, 0 warn-only
        assert main(["ledger", "check", "--ledger", str(path)]) == 1
        capsys.readouterr()
        assert main([
            "ledger", "check", "--ledger", str(path), "--warn-only",
        ]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_ledger_check_empty_is_ok(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "ledger", "check", "--ledger", str(tmp_path / "none.jsonl"),
        ]) == 0
        assert "no series" in capsys.readouterr().out
