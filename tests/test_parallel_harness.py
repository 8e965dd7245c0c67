"""Parallel sweep engine: pool execution must be invisible in the data.

Every experiment cell is deterministic (simulated VM, cycle cost
model, seeded triggers), so running a sweep through the worker pool
must produce results bit-identical to the serial loop — same ExecStats
field-for-field, same profiles key-for-key, cell-for-cell — and the
parent must keep pooled cells exactly as it keeps serial ones: the same
harness counters and memo hits. These tests pin that contract, plus
the knobs around it: ``effective_jobs`` env parsing, per-cell seed
derivation, workers adopting the runner (inherited under fork, pickled
under spawn), the serial path for one-family batches, and the timing
report's accounting.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.errors import HarnessError
from repro.harness import (
    ExperimentRunner,
    RunSpec,
    cell_seed,
    cost_model_fingerprint,
    effective_jobs,
    interval_sweep,
    parallel,
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
        serial = ExperimentRunner(cache=False, jobs=1)
        pooled = ExperimentRunner(cache=False, jobs=4)
        serial_results = serial.run_many(SWEEP)
        pooled_results = pooled.run_many(SWEEP)
        assert len(serial_results) == len(pooled_results) == len(SWEEP)
        for spec, s_res, p_res in zip(SWEEP, serial_results,
                                      pooled_results):
            assert _cell_fingerprint(s_res) == _cell_fingerprint(p_res), (
                f"pool changed the data for {spec.describe()}"
            )

    def test_pool_results_match_individual_runs(self):
        """run_many is just a faster spelling of [run(s) for s in specs]."""
        pooled = ExperimentRunner(cache=False, jobs=2)
        pooled_results = pooled.run_many(SWEEP[:4])
        solo = ExperimentRunner(cache=False)
        for spec, pooled_res in zip(SWEEP[:4], pooled_results):
            assert _cell_fingerprint(solo.run(spec)) == _cell_fingerprint(
                pooled_res
            )

    def test_run_many_memoizes(self):
        runner = ExperimentRunner(cache=False, jobs=2)
        first = runner.run_many(SWEEP[:2])
        assert runner.memo_hits == 0
        second = runner.run_many(SWEEP[:2])
        assert runner.memo_hits == 2
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


#: Two workloads by two strategies: four cell families of one cell.
FAMILIES = [
    RunSpec(name, strategy, ("call-edge",), trigger="counter", interval=100)
    for name in ("compress", "osr")
    for strategy in (Strategy.FULL_DUPLICATION, Strategy.NO_DUPLICATION)
]


def _harness_counters(runner):
    """The runner's own counters, less the baseline cache's: pool
    workers run their own baselines, so cache traffic may differ."""
    return {
        key: payload["value"]
        for key, payload in runner.metrics.snapshot().items()
        if key.startswith("harness.")
        and not key.startswith("harness.baseline_cache.")
    }


class TestOneKeepingPath:
    def test_pool_cells_are_kept_like_serial_cells(self, tmp_path):
        kept = {}
        for jobs in (1, 2):
            runner = ExperimentRunner(
                cache=False, jobs=jobs, telemetry=True, profile=True,
                stream=tmp_path / f"jobs-{jobs}",
            )
            runner.run_many(FAMILIES)
            sources = {rec.source.split(":")[0] for rec in runner.cell_log
                       if not rec.label.startswith("baseline:")}
            assert sources == {"serial" if jobs == 1 else "pool"}
            kept[jobs] = (_harness_counters(runner), runner.memo_hits)
        assert kept[1] == kept[2]
        counters, memo_hits = kept[1]
        for name in ("audit.cells", "audit.reconciled", "profile.cells",
                     "stream.cells", "transform.families"):
            assert counters[f"harness.{name}"] == len(FAMILIES)
        # every cell was computed by the batch, none reused
        assert memo_hits == 0

    def test_one_family_batch_runs_serially(self):
        runner = ExperimentRunner(cache=False, jobs=2)
        runner.run_many(SWEEP[1:3])
        assert [rec.source for rec in runner.cell_log] == [
            "baseline", "serial", "serial",
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interval_sweep_runs_its_baseline_once(self, jobs, monkeypatch):
        """One family, so no pool and no second runner: the baseline
        runs once, in the parent, at any --jobs."""
        computed = []
        baseline = ExperimentRunner.baseline

        def counting(self, name, scale=None):
            if (name, scale) not in self._baselines:
                computed.append(name)
            return baseline(self, name, scale)

        monkeypatch.setattr(ExperimentRunner, "baseline", counting)
        runner = ExperimentRunner(cache=False, jobs=jobs)
        interval_sweep(runner, "compress", (10, 100, 1000))
        assert computed == ["compress"]
        assert [rec.source for rec in runner.cell_log] == (
            ["baseline"] + ["serial"] * 4
        )


class TestWorkersAdoptTheRunner:
    def test_a_used_runner_pickles_with_its_options(self, tmp_path):
        runner = ExperimentRunner(
            cost_model=CostModel(check_cost=3), cache=False,
            profile=True, stream=tmp_path / "live",
        )
        runner.run(SWEEP[1])
        thawed = pickle.loads(pickle.dumps(runner))
        assert cost_model_fingerprint(thawed.cost_model) == (
            cost_model_fingerprint(runner.cost_model)
        )
        result = thawed.run(SWEEP[2])
        # the spool lands where the parent would have put it
        assert result.spool == runner._spool_path(SWEEP[2])
        plain = ExperimentRunner(cost_model=CostModel(check_cost=3),
                                 cache=False)
        assert _cell_fingerprint(result) == _cell_fingerprint(
            plain.run(SWEEP[2])
        )

    def test_spawned_workers_match_serial(self, monkeypatch):
        """Under spawn, workers unpickle the runner, baselines and memo
        included, instead of inheriting it."""
        monkeypatch.setattr(
            parallel, "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        specs = SWEEP[:2]
        pooled = ExperimentRunner(cache=False, jobs=2)
        pooled.run(SWEEP[3])
        results = pooled.run_many(specs)
        sources = {rec.source for rec in pooled.cell_log[-len(specs):]}
        assert all(source.startswith("pool:") for source in sources)
        assert f"pool:{os.getpid()}" not in sources
        serial = ExperimentRunner(cache=False, jobs=1).run_many(specs)
        assert [_cell_fingerprint(r) for r in results] == [
            _cell_fingerprint(r) for r in serial
        ]


class TestTimingReport:
    def test_report_accounts_for_pool_cells(self):
        runner = ExperimentRunner(cache=False, jobs=2)
        runner.run_many(SWEEP)
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
        runner = ExperimentRunner(cache=False, jobs=1)
        runner.run_many(SWEEP[:2])
        assert all(
            not rec.source.startswith("pool:") for rec in runner.cell_log
        )
