"""Parallel sweep execution: fan experiment cells over worker processes.

The experiment matrix behind every table and figure is embarrassingly
parallel — each (workload x strategy x trigger x interval) cell is an
independent, deterministic simulation. This module provides the pool
that :meth:`repro.harness.ExperimentRunner.run_many` fans a batch out
over when its uncomputed cells span two or more cell families and the
runner has more than one job:

* each worker adopts the parent's :class:`ExperimentRunner` in its
  initializer — inherited under ``fork``, pickled under ``spawn`` — so
  every runner option reaches the workers with no list to keep, and
  workers reuse the baselines the parent already holds (a shared
  baseline cache directory spares the rest). The worker drops its
  ledger: the parent keeps every cell, so only it appends;
* cells are dispatched one *cell family* per task (``chunksize=1``;
  :meth:`~repro.harness.RunSpec.family_key`): the worker *computes*
  the family's cells in order on one shared transformed program and
  ships each back with its log record and baseline-cache deltas. The
  parent *keeps* them in batch order through the same step as a serial
  cell, so the caller sees the exact list, manifests, counters and cell
  log it would get from a serial loop;
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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import (
        CellRecord, ExperimentRunner, RunResult, RunSpec,
    )

    #: A cell computed by a worker: its result, its log record, and the
    #: baseline-cache (hits, misses, stores) it caused in the worker.
    PooledCell = Tuple[RunResult, CellRecord, Tuple[int, ...]]

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


_WORKER_RUNNER: Optional["ExperimentRunner"] = None


def _init_worker(runner: "ExperimentRunner") -> None:
    """Adopt the parent's runner. Its ledger goes, so only the parent
    appends: it keeps every cell a worker computes."""
    global _WORKER_RUNNER
    runner.ledger = None
    _WORKER_RUNNER = runner


def _run_family(specs: List["RunSpec"]) -> List[PooledCell]:
    """One pool task: a cell family's cells, in order, sharing one
    transformed program. Each cell comes back with its log record and
    the baseline-cache hits, misses and stores it caused here."""
    runner = _WORKER_RUNNER
    families: dict = {}
    cells = []
    for spec in specs:
        before = runner._cache_counts()
        result, record = runner._compute(spec, families)
        cache_counts = runner._cache_delta(before)
        record.source = f"pool:{os.getpid()}"
        record.baseline_cache_hit = cache_counts[0] > 0
        cells.append((result, record, cache_counts))
    return cells


def _pool_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_specs(
    runner: "ExperimentRunner", specs: Sequence["RunSpec"], jobs: int
) -> List[PooledCell]:
    """Compute *specs* on *jobs* worker processes that adopt *runner*,
    one task per cell family, and return the cells in *specs* order.
    The caller keeps them."""
    groups: Dict[tuple, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.family_key(), []).append(index)
    tasks = [[specs[i] for i in indices] for indices in groups.values()]
    with _pool_context().Pool(
        processes=min(jobs, len(tasks)),
        initializer=_init_worker,
        initargs=(runner,),
    ) as pool:
        done = pool.map(_run_family, tasks, chunksize=1)
    by_index = {
        index: cell
        for indices, cells in zip(groups.values(), done)
        for index, cell in zip(indices, cells)
    }
    return [by_index[index] for index in range(len(specs))]
