"""Derived cells equal computed ones.

``ExperimentRunner.run_many`` derives a single-threaded cell family's
counter and randomized cells from the window ledgers of two recorded
runs instead of running them (docs/HARNESS.md, "Derived cells"). These
tests hold every derived cell to the same spec computed alone in a
fresh runner — its value, every scalar ``ExecStats`` counter, and every
profile, key order included — and pin which families are refused, and
why.
"""

from __future__ import annotations

import pytest

from repro.harness import ExperimentRunner, RunSpec
from repro.harness.tables import table4
from repro.sampling import Strategy
from repro.sampling.triggers import CounterTrigger, RandomizedCounterTrigger
from repro.workloads.suite import workload_names

FULL = Strategy.FULL_DUPLICATION
PARTIAL = Strategy.PARTIAL_DUPLICATION
NO_DUP = Strategy.NO_DUPLICATION
CALL_FIELD = ("call-edge", "field-access")

#: (trigger, interval, phase) of every cell of a family.
TRIGGERS = (
    ("never", None, 0),
    ("counter", 1, 0),
    ("counter", 7, 0),
    ("counter", 7, 2),
    ("counter", 100, 0),
    ("counter", 100, 33),
    ("counter", 1000, 0),
    ("randomized", 10, 0),
)

#: The cells of a family of the other instrumentations.
SHORT = TRIGGERS[:3] + TRIGGERS[-1:]

#: Strategy and yieldpoint optimization of every family.
SHAPES = ((FULL, False), (FULL, True), (PARTIAL, False), (NO_DUP, False))

#: The instrumentations besides call-edge and field-access whose
#: actions keep no state between polls, on three workloads.
OTHER_KINDS = (
    "block-count", "edge-profile", "param-value", "branch-bias", "cct",
    "none",
)


def _family(
    workload, strategy, kinds, yieldpoint_opt=False, triggers=TRIGGERS
):
    return [
        RunSpec(
            workload, strategy, kinds, trigger=trigger, interval=interval,
            phase=phase, yieldpoint_opt=yieldpoint_opt,
        )
        for trigger, interval, phase in triggers
    ]


BATCH = [
    spec
    for workload in workload_names()
    for strategy, yieldpoint_opt in SHAPES
    for spec in _family(workload, strategy, CALL_FIELD, yieldpoint_opt)
] + [
    spec
    for workload in ("compress", "db", "dynload")
    for kinds in [(kind,) for kind in OTHER_KINDS] + [("path-profile",)]
    for strategy in (FULL, NO_DUP)
    if not (strategy is NO_DUP and kinds == ("path-profile",))
    for spec in _family(workload, strategy, kinds, triggers=SHORT)
]


def _fingerprint(result):
    return (
        result.value,
        result.stats.as_dict(),
        {name: list(p.counts.items()) for name, p in result.profiles.items()},
    )


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    cache = tmp_path_factory.mktemp("baselines")
    runner = ExperimentRunner(cache=cache, jobs=1)
    results = runner.run_many(BATCH)
    return runner, cache, dict(zip(BATCH, results))


def _sources(runner, specs):
    """Where each of *specs* came from: the cell log keeps the batch's
    cells in batch order, after the baselines."""
    records = [
        rec for rec in runner.cell_log if not rec.label.startswith("baseline:")
    ]
    assert [rec.label for rec in records] == [spec.describe() for spec in specs]
    return {spec: rec.source for spec, rec in zip(specs, records)}


def _silent(spec):
    """No-Duplication without instrumentation guards nothing: the
    family executes no poll, so even its interval-1 cell is its never
    cell."""
    return spec.strategy is NO_DUP and spec.instrumentation == ("none",)


def test_every_derived_cell_equals_its_solo_run(batch):
    runner, cache, results = batch
    sources = _sources(runner, BATCH)
    derived = [spec for spec in BATCH if sources[spec] == "derived"]
    # Every countdown cell of a single-threaded family but its
    # interval-1 cell is derived; no cell of a threaded one is, as none
    # of these intervals outlasts its polls.
    assert derived == [
        spec for spec in BATCH
        if spec.workload not in ("mtrt", "pbob", "volano")
        and spec.trigger != "never"
        and (spec.interval != 1 or _silent(spec))
    ]
    for spec in derived:
        solo = ExperimentRunner(cache=cache).run(spec)
        assert _fingerprint(results[spec]) == _fingerprint(solo), (
            spec.describe(), spec.phase,
        )
        assert results[spec].cycles == solo.cycles
        assert results[spec].vm_seconds == 0.0


def test_the_batch_records_two_runs_per_derived_family(batch):
    runner, _cache, _results = batch
    counts = {
        key: payload["value"]
        for key, payload in runner.metrics.snapshot().items()
        if key.startswith("harness.derive.")
    }
    keys = {spec.family_key(): spec for spec in BATCH}
    threaded = [
        key for key in keys if key[0] in ("mtrt", "pbob", "volano")
    ]
    # A No-Duplication family's never run holds no window worth
    # recording (its polls own only their actions), and one without
    # polls records nothing.
    recordings = sum(
        0 if _silent(spec) else 1 if spec.strategy is NO_DUP else 2
        for key, spec in keys.items() if key not in threaded
    )
    assert counts == {
        "harness.derive.cells": len([
            rec for rec in runner.cell_log if rec.source == "derived"
        ]),
        "harness.derive.recordings": recordings,
        "harness.derive.refused.threads": len(threaded),
    }


@pytest.mark.parametrize(
    "specs, runner_options, reason",
    [
        (
            _family("compress", NO_DUP, ("path-profile",), triggers=SHORT),
            {}, "instrumentation",
        ),
        (
            [RunSpec("compress", FULL, CALL_FIELD, trigger="timer",
                     timer_period=3000)],
            {}, "timer",
        ),
        (_family("volano", FULL, CALL_FIELD), {}, "threads"),
        (_family("jess", FULL, CALL_FIELD), {"telemetry": True}, "observer"),
        (_family("jess", FULL, CALL_FIELD), {"engine": "reference"}, "engine"),
        (_family("jess", FULL, CALL_FIELD)[:2], {}, "few"),
        (_family("jess", FULL, CALL_FIELD)[2:], {}, "few"),
    ],
)
def test_refused_families_are_computed_with_their_reason(
    specs, runner_options, reason
):
    runner = ExperimentRunner(cache=False, jobs=1, **runner_options)
    runner.run_many(specs)
    assert {rec.source for rec in runner.cell_log} == {"baseline", "serial"}
    assert {
        key: payload["value"]
        for key, payload in runner.metrics.snapshot().items()
        if key.startswith("harness.derive.")
    } == {f"harness.derive.refused.{reason}": 1}


def test_a_sample_free_counter_cell_is_its_never_cell():
    """In every family of a mixed batch, a counter cell whose first
    sample lies past the run's polls has its never cell's stats and
    profiles."""
    specs = [
        RunSpec(workload, strategy, kinds, trigger=trigger,
                interval=interval, scale=1)
        for workload in ("compress", "mtrt", "osr")
        for strategy, kinds in (
            (FULL, CALL_FIELD), (NO_DUP, ("field-access",)),
            (PARTIAL, ("block-count",)),
        )
        for trigger, interval in (("never", None), ("counter", 10 ** 7))
    ]
    runner = ExperimentRunner(cache=False, jobs=1)
    results = runner.run_many(specs)
    for never, counter in zip(results[::2], results[1::2]):
        assert counter.stats.samples_taken == 0
        assert _fingerprint(counter) == _fingerprint(never)
    assert _sources(runner, specs) == {
        spec: "serial" if spec.trigger == "never" else "derived"
        for spec in specs
    }


def test_table4_derives_every_single_threaded_family():
    runner = ExperimentRunner(cache=False, jobs=1)
    table4(runner, scale=1)
    counts = {
        key: payload["value"]
        for key, payload in runner.metrics.snapshot().items()
        if key.startswith("harness.derive.refused.")
    }
    # mtrt, pbob and volano spawn threads, under both strategies.
    assert counts == {"harness.derive.refused.threads": 6}
    assert runner.metrics.counter("harness.derive.recordings").value == (
        2 * 9 + 9
    )
    report = runner.timing_report()
    assert "families not derived: threads 6" in report


@pytest.mark.parametrize(
    "trigger",
    [
        lambda: CounterTrigger(7),
        lambda: CounterTrigger(7, phase=2),
        lambda: CounterTrigger(1),
        lambda: RandomizedCounterTrigger(10, seed=3),
    ],
)
def test_fire_positions_are_the_polls_that_fire(trigger):
    polled = trigger()
    positions = trigger().fires()
    fired = [index for index in range(500) if polled.poll()]
    assert [next(positions) for _ in fired] == fired
