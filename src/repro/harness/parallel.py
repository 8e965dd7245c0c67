"""Parallel sweep execution: fan experiment cells over worker processes.

The experiment matrix behind every table and figure is embarrassingly
parallel — each (workload x strategy x trigger x interval) cell is an
independent, deterministic simulation. This module provides the pool
that :meth:`repro.harness.ExperimentRunner.run_many` fans cells out
over:

* each worker process builds its own :class:`ExperimentRunner` from a
  picklable :class:`RunnerConfig` (cost model, fuel, cache directory,
  observers) in its initializer, so per-workload compilation and
  baseline execution happen at most once per worker — or once *ever*
  when a persistent baseline cache directory is shared;
* cells are dispatched one *cell family* per task (``chunksize=1``;
  :meth:`~repro.harness.RunSpec.family_key`): the worker runs the
  family's cells in order on one shared transformed program, and the
  outcomes are unpacked back into submission order, so the caller sees
  the exact list it would get from a serial loop;
* every cell is seeded deterministically from its spec content
  (:func:`~repro.harness.experiment.cell_seed`), never from worker
  identity, scheduling order, or wall clock — the same spec produces
  bit-identical results at any ``--jobs`` value.
  ``tests/test_parallel_harness.py`` holds the tripwire asserting
  jobs=1 and jobs=4 agree cell-for-cell.

Workers prefer the ``fork`` start method (cheap on Linux, inherits the
parent's compiled-workload caches) and fall back to ``spawn`` where
fork is unavailable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.vm.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import RunResult, RunSpec

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``--jobs`` value: explicit arg, else ``$REPRO_JOBS``,
    else 1. Zero or negative means "all cores". A ``$REPRO_JOBS`` that
    is not an integer is a :class:`HarnessError`."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise HarnessError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


# ---------------------------------------------------------------------------
# worker plumbing


@dataclass(frozen=True)
class RunnerConfig:
    """Everything a worker needs to rebuild the parent's runner."""

    cost_model: CostModel
    fuel: int
    cache_dir: Optional[str] = None
    engine: str = "fast"
    telemetry: bool = False
    telemetry_capacity: int = 65536
    compaction: bool = False
    #: self-profiling travels to workers; the perf ledger deliberately
    #: does not — cells computed in a pool are appended by the parent
    #: (see ExperimentRunner._ledger_append), keeping the append-only
    #: file single-writer.
    profile: bool = False
    profile_interval: int = 64
    #: live-export spool root; workers derive the same per-cell spool
    #: paths as the parent (cell_seed is content-addressed), so a
    #: streamed sweep produces one spool per cell wherever it ran.
    stream: Optional[str] = None

    @classmethod
    def from_runner(cls, runner) -> "RunnerConfig":
        cache = runner.baseline_cache
        return cls(
            cost_model=runner.cost_model,
            fuel=runner.fuel,
            cache_dir=str(cache.directory) if cache is not None else None,
            engine=runner.engine,
            telemetry=runner.telemetry,
            telemetry_capacity=runner.telemetry_capacity,
            compaction=runner.compaction,
            profile=runner.profile,
            profile_interval=runner.profile_interval,
            stream=runner.stream,
        )

    def build_runner(self):
        from repro.harness.experiment import ExperimentRunner

        return ExperimentRunner(
            cost_model=self.cost_model,
            fuel=self.fuel,
            cache=self.cache_dir if self.cache_dir is not None else False,
            jobs=1,
            engine=self.engine,
            telemetry=self.telemetry,
            telemetry_capacity=self.telemetry_capacity,
            compaction=self.compaction,
            profile=self.profile,
            profile_interval=self.profile_interval,
            ledger=False,
            stream=self.stream,
        )


@dataclass
class CellOutcome:
    """One executed cell plus its provenance and timing.

    ``cache_hits``/``cache_misses``/``cache_stores`` are per-cell
    baseline-cache deltas observed in the worker; the parent folds them
    into its metrics registry so the timing report's cache accounting
    covers pool cells too (a worker's cache handle is invisible to the
    parent's ``BaselineCache.stats``).
    """

    result: "RunResult"
    seconds: float
    worker_pid: int
    baseline_cache_hit: bool
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0


_WORKER_RUNNER = None


def _init_worker(config: RunnerConfig) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = config.build_runner()


def _run_cell(spec: "RunSpec", families: dict) -> CellOutcome:
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer always runs
        raise RuntimeError("worker pool used without initialization")
    cache = runner.baseline_cache
    if cache is not None:
        before = (cache.stats.hits, cache.stats.misses, cache.stats.stores)
    else:
        before = (0, 0, 0)
    started = time.perf_counter()
    result = runner._run(spec, families)
    seconds = time.perf_counter() - started
    if cache is not None:
        after = (cache.stats.hits, cache.stats.misses, cache.stats.stores)
    else:
        after = before
    return CellOutcome(
        result=result,
        seconds=seconds,
        worker_pid=os.getpid(),
        baseline_cache_hit=after[0] > before[0],
        cache_hits=after[0] - before[0],
        cache_misses=after[1] - before[1],
        cache_stores=after[2] - before[2],
    )


def _run_family(specs: List["RunSpec"]) -> List[CellOutcome]:
    """One pool task: a cell family's cells, in order, sharing one
    transformed program."""
    families: dict = {}
    return [_run_cell(spec, families) for spec in specs]


def _pool_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_specs(
    specs: Sequence["RunSpec"],
    config: RunnerConfig,
    jobs: int,
) -> List[CellOutcome]:
    """Execute *specs* over *jobs* worker processes, in order.

    Each task is one cell family's specs. Falls back to an in-process
    loop for jobs<=1 or a single family, so callers can route
    everything through one entry point.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.family_key(), []).append(index)
    tasks = [[specs[i] for i in indices] for indices in groups.values()]
    jobs = max(1, jobs)
    if jobs == 1 or len(tasks) <= 1:
        _init_worker(config)
        try:
            done = [_run_family(task) for task in tasks]
        finally:
            _reset_worker()
    else:
        ctx = _pool_context()
        with ctx.Pool(
            processes=min(jobs, len(tasks)),
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            done = pool.map(_run_family, tasks, chunksize=1)
    by_index = {
        index: outcome
        for indices, family_outcomes in zip(groups.values(), done)
        for index, outcome in zip(indices, family_outcomes)
    }
    return [by_index[index] for index in range(len(specs))]


def _reset_worker() -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = None
