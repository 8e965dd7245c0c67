"""Cell families: one transform per family, indistinguishable cells.

``ExperimentRunner.run_many`` transforms, verifies and audits each cell
family (:meth:`RunSpec.family_key` -- every spec field except trigger,
interval, phase, timer_period and seed) once per batch, and runs the
family's cells on the shared program. These tests pin that sharing is
invisible: every cell of a mixed batch equals the same spec run alone
in a fresh runner (value, cycles, stats, profiles, manifest), earlier
cells' profiles survive later cells of their family, the transform runs
once per family, and the pool agrees with the serial path (cells,
manifests, and the batch's merged self-profile).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.harness import ExperimentRunner, RunSpec
from repro.harness.experiment import make_instrumentations
from repro.profiling import merge_snapshots
from repro.sampling import Strategy
from repro.sampling import framework as framework_module

FULL = Strategy.FULL_DUPLICATION

#: Every instrumentation kind the harness registers, in one spec.
ALL_KINDS = (
    "call-edge", "field-access", "block-count", "edge-profile",
    "param-value", "path-profile", "branch-bias", "cct", "none",
)

#: A plan putting one compress function under No-Duplication.
PLAN = (("rleCompress", Strategy.NO_DUPLICATION.value),)

#: Families interleave, so a family's cells are not contiguous.
BATCH = [
    RunSpec("compress", FULL, ALL_KINDS, trigger="never", scale=1),
    RunSpec("compress", FULL, ALL_KINDS, trigger="counter", interval=1,
            scale=1),
    RunSpec("dynload", FULL, ("call-edge",), trigger="counter", interval=5),
    RunSpec("compress", FULL, ALL_KINDS, trigger="counter", interval=7,
            scale=1),
    RunSpec("osr", Strategy.PARTIAL_DUPLICATION, ("block-count",),
            trigger="counter", interval=5),
    RunSpec("compress", FULL, ALL_KINDS, trigger="counter", interval=7,
            phase=3, scale=1),
    RunSpec("compress", FULL, ALL_KINDS, trigger="timer",
            timer_period=3000, scale=1),
    RunSpec("dynload", FULL, ("call-edge",), trigger="randomized",
            interval=5),
    RunSpec("compress", FULL, ALL_KINDS, trigger="randomized", interval=7,
            scale=1),
    RunSpec("osr", Strategy.PARTIAL_DUPLICATION, ("block-count",),
            trigger="timer", timer_period=2000),
    RunSpec("compress", FULL, ("call-edge", "field-access"),
            trigger="counter", interval=3, scale=1, plan=PLAN),
    RunSpec("compress", FULL, ("call-edge", "field-access"),
            trigger="counter", interval=30, scale=1, plan=PLAN),
    RunSpec("compress", Strategy.NO_DUPLICATION, ("path-profile",),
            trigger="randomized", interval=4, seed=11, scale=1),
    RunSpec("compress", Strategy.NO_DUPLICATION, ("path-profile",),
            trigger="counter", interval=4, scale=1),
]

FAMILIES = {spec.family_key() for spec in BATCH}


def _fingerprint(result):
    return (
        result.value,
        result.cycles,
        result.stats.as_dict(),
        {name: dict(p.counts) for name, p in result.profiles.items()},
    )


def _manifest_json(result):
    """The manifest without its host-side fields (wall time, the
    self-profile's wall clock, and where the cell ran)."""
    payload = dataclasses.asdict(result.manifest)
    for host_side in ("wall_seconds", "profiling", "source"):
        payload.pop(host_side)
    return json.dumps(payload, sort_keys=True)


def _merged_profile(results):
    """The batch's self-profiles merged into one, less wall clock."""
    merged = merge_snapshots(result.profile["snapshot"] for result in results)
    for wall_clock in ("elapsed_seconds", "wall_seconds"):
        merged.pop(wall_clock)
    merged["stacks"] = {
        stack: count for stack, (count, _wall) in merged["stacks"].items()
    }
    return merged


@pytest.fixture(scope="module")
def batch_results():
    runner = ExperimentRunner(cache=False, telemetry=True, profile=True,
                              jobs=1)
    return runner, runner.run_many(BATCH)


def test_batch_covers_every_instrumentation_kind():
    kinds = {instr.profile.name for instr in make_instrumentations(ALL_KINDS)}
    assert len(kinds) == 9
    assert len(FAMILIES) == 5 < len(BATCH)


def test_each_cell_matches_a_solo_run(batch_results):
    _runner, results = batch_results
    for spec, result in zip(BATCH, results):
        solo = ExperimentRunner(cache=False, telemetry=True).run(spec)
        assert _fingerprint(result) == _fingerprint(solo), spec.describe()
        assert _manifest_json(result) == _manifest_json(solo), (
            spec.describe()
        )
        assert result.audit.as_dict() == solo.audit.as_dict()


def test_earlier_profiles_survive_later_cells(monkeypatch):
    """Each cell's profiles, as they stood when the cell returned, are
    unchanged after the rest of its family has run."""
    at_return = []
    original = ExperimentRunner._compute

    def recording(self, spec, families):
        result, record = original(self, spec, families)
        at_return.append(
            {name: dict(p.counts) for name, p in result.profiles.items()}
        )
        return result, record

    monkeypatch.setattr(ExperimentRunner, "_compute", recording)
    results = ExperimentRunner(cache=False, jobs=1).run_many(BATCH)
    assert at_return == [
        {name: dict(p.counts) for name, p in result.profiles.items()}
        for result in results
    ]
    profiles = [p for result in results for p in result.profiles.values()]
    assert len({id(p) for p in profiles}) == len(profiles)


def test_transform_runs_once_per_family(monkeypatch):
    calls = {"transform": 0}
    transform = framework_module.SamplingFramework.transform

    def counting_transform(self, *args, **kwargs):
        calls["transform"] += 1
        return transform(self, *args, **kwargs)

    monkeypatch.setattr(
        framework_module.SamplingFramework, "transform", counting_transform
    )
    runner = ExperimentRunner(cache=False, jobs=1)
    runner.run_many(BATCH)
    # the planned family goes through the same transform
    assert calls["transform"] == len(FAMILIES)
    assert (
        runner.metrics.counter("harness.transform.families").value
        == len(FAMILIES)
    )
    assert f"transforms: {len(FAMILIES)} for {len(BATCH)} cells" in (
        runner.timing_report()
    )
    # a lone run() outside a batch is a family of one
    lone = ExperimentRunner(cache=False)
    lone.run(BATCH[0])
    lone.run(BATCH[1])
    assert calls["transform"] == len(FAMILIES) + 2


def test_pool_agrees_with_serial(batch_results):
    _serial_runner, serial = batch_results
    runner = ExperimentRunner(cache=False, telemetry=True, profile=True,
                              jobs=2)
    pooled = runner.run_many(BATCH)
    assert [_fingerprint(r) for r in pooled] == [
        _fingerprint(r) for r in serial
    ]
    assert [_manifest_json(r) for r in pooled] == [
        _manifest_json(r) for r in serial
    ]
    assert _merged_profile(pooled) == _merged_profile(serial)
    assert _merged_profile(serial)["runs"] == len(BATCH)
    assert [rec.label for rec in runner.cell_log] == [
        spec.describe() for spec in BATCH
    ]
    assert (
        runner.metrics.counter("harness.transform.families").value
        == len(FAMILIES)
    )


def test_sample_iterations_is_part_of_the_family():
    """Counted backedges change the transformed program, so they split
    families; at the default (1) every cell keeps its historical seed."""
    from dataclasses import replace

    from repro.harness.experiment import cell_seed

    spec = RunSpec("compress", FULL, ("block-count",), trigger="counter",
                   interval=7, scale=1)
    counted = replace(spec, sample_iterations=4)
    assert counted.family_key() != spec.family_key()
    assert cell_seed(counted) != cell_seed(spec)
    assert cell_seed(spec) == 0x9D6AE25B  # the seed before the field
    runner = ExperimentRunner(cache=False, jobs=1)
    plain, looped = runner.run_many([spec, counted])
    assert looped.value == plain.value
    # a sample stays in duplicated code for 4 loop iterations, so the
    # run passes fewer checks than the uncounted transform
    assert looped.stats.checks_executed < plain.stats.checks_executed



def test_planned_cell_rejects_counted_backedges():
    """A plan mixes strategies and its transform counts no backedges,
    so a planned spec asking for sample_iterations > 1 is an error
    instead of silently running one sample per iteration."""
    from dataclasses import replace

    from repro.errors import HarnessError

    spec = RunSpec("compress", FULL, ("call-edge",), trigger="counter",
                   interval=50, scale=1, plan=PLAN)
    runner = ExperimentRunner(cache=False)
    with pytest.raises(HarnessError, match="sample_iterations=4"):
        runner.run(replace(spec, sample_iterations=4))
    assert runner.run(spec).value == runner.baseline("compress", 1)[1].value
