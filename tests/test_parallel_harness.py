"""Parallel sweep engine: pool execution must be invisible in the data.

Every experiment cell is deterministic (simulated VM, cycle cost
model, seeded triggers), so running a sweep through the worker pool
must produce results bit-identical to the serial loop — same ExecStats
field-for-field, same profiles key-for-key, cell-for-cell. These tests
pin that contract, plus the knobs around it: ``effective_jobs`` env
parsing, per-cell seed derivation, RunnerConfig round-trips, and the
timing report's accounting.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import HarnessError
from repro.harness import (
    ExperimentRunner,
    RunSpec,
    RunnerConfig,
    cell_seed,
    effective_jobs,
)
from repro.harness.parallel import JOBS_ENV
from repro.sampling import Strategy
from repro.vm import CostModel

#: A small but shape-diverse sweep: exhaustive + both duplication
#: strategies, counter and randomized triggers, two workloads.
SWEEP = [
    RunSpec("compress", Strategy.EXHAUSTIVE, ("call-edge",)),
    RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="counter", interval=10),
    RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
            trigger="randomized", interval=10),
    RunSpec("jess", Strategy.PARTIAL_DUPLICATION, ("block-count",),
            trigger="counter", interval=25),
    RunSpec("jess", Strategy.NO_DUPLICATION, ("block-count",),
            trigger="counter", interval=25),
    RunSpec("jess", Strategy.FULL_DUPLICATION, ("none",)),
]


def _cell_fingerprint(result):
    """Everything observable about one cell, in comparable form."""
    return (
        result.value,
        result.cycles,
        result.stats.as_dict(),
        {
            kind: dict(profile.counts)
            for kind, profile in result.profiles.items()
        },
    )


class TestPoolDeterminism:
    """Satellite 3: --jobs 1 and --jobs 4 agree cell-for-cell."""

    def test_serial_and_parallel_sweeps_identical(self):
        serial = ExperimentRunner(cache=False)
        parallel = ExperimentRunner(cache=False)
        serial_results = serial.run_many(SWEEP, jobs=1)
        parallel_results = parallel.run_many(SWEEP, jobs=4)
        assert len(serial_results) == len(parallel_results) == len(SWEEP)
        for spec, s_res, p_res in zip(SWEEP, serial_results,
                                      parallel_results):
            assert _cell_fingerprint(s_res) == _cell_fingerprint(p_res), (
                f"pool changed the data for {spec.describe()}"
            )

    def test_pool_results_match_individual_runs(self):
        """run_many is just a faster spelling of [run(s) for s in specs]."""
        pooled = ExperimentRunner(cache=False)
        pooled_results = pooled.run_many(SWEEP[:4], jobs=2)
        solo = ExperimentRunner(cache=False)
        for spec, pooled_res in zip(SWEEP[:4], pooled_results):
            assert _cell_fingerprint(solo.run(spec)) == _cell_fingerprint(
                pooled_res
            )

    def test_run_many_memoizes(self):
        runner = ExperimentRunner(cache=False)
        first = runner.run_many(SWEEP[:2], jobs=2)
        hits_before = runner.memo_hits
        second = runner.run_many(SWEEP[:2], jobs=2)
        assert runner.memo_hits > hits_before
        for a, b in zip(first, second):
            assert a is b  # memo returns the same object, not a rerun


class TestJobsKnob:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert effective_jobs(None) == 1

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert effective_jobs(3) == 3

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert effective_jobs(None) == 5

    def test_garbage_env_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(HarnessError, match=JOBS_ENV):
            effective_jobs(None)

    def test_nonpositive_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert effective_jobs(0) == multiprocessing.cpu_count()
        assert effective_jobs(-1) == multiprocessing.cpu_count()


class TestCellSeed:
    def test_deterministic(self):
        spec = SWEEP[2]
        assert cell_seed(spec) == cell_seed(spec)

    def test_sensitive_to_spec_content(self):
        a = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=10)
        b = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=11)
        assert cell_seed(a) != cell_seed(b)

    def test_fits_in_32_bits(self):
        for spec in SWEEP:
            assert 0 <= cell_seed(spec) < 2 ** 32

    def test_explicit_seed_overrides_derived(self):
        base = RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                       trigger="randomized", interval=10)
        runner = ExperimentRunner(cache=False)
        derived = runner.run(base)
        pinned = runner.run(
            RunSpec("compress", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="randomized", interval=10,
                    seed=cell_seed(base))
        )
        assert _cell_fingerprint(derived) == _cell_fingerprint(pinned)


class TestRunnerConfig:
    def test_round_trip_preserves_measurement_inputs(self):
        runner = ExperimentRunner(
            cost_model=CostModel(check_cost=3), cache=False
        )
        rebuilt = RunnerConfig.from_runner(runner).build_runner()
        spec = SWEEP[1]
        assert _cell_fingerprint(runner.run(spec)) == _cell_fingerprint(
            rebuilt.run(spec)
        )

    def test_config_is_picklable(self):
        import pickle

        from repro.harness import cost_model_fingerprint

        config = RunnerConfig.from_runner(ExperimentRunner(cache=False))
        thawed = pickle.loads(pickle.dumps(config))
        assert cost_model_fingerprint(thawed.cost_model) == (
            cost_model_fingerprint(config.cost_model)
        )
        assert (thawed.fuel, thawed.check_semantics, thawed.check_property1,
                thawed.cache_dir) == (
            config.fuel, config.check_semantics, config.check_property1,
            config.cache_dir)


class TestTimingReport:
    def test_report_accounts_for_pool_cells(self):
        runner = ExperimentRunner(cache=False)
        runner.run_many(SWEEP, jobs=2)
        report = runner.timing_report()
        assert "cells computed" in report
        assert "in pool across" in report
        assert "baseline cache: disabled" in report
        # every sweep cell shows up in the log with a source
        pool_cells = [
            rec for rec in runner.cell_log if rec.source.startswith("pool:")
        ]
        assert len(pool_cells) == len(SWEEP)

    def test_serial_report_has_no_pool_cells(self):
        runner = ExperimentRunner(cache=False)
        runner.run_many(SWEEP[:2], jobs=1)
        assert all(
            not rec.source.startswith("pool:") for rec in runner.cell_log
        )
