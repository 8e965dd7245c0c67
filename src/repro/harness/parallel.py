"""Parallel sweep execution: fan experiment cells over worker processes.

The experiment matrix behind every table and figure is embarrassingly
parallel — each (workload x strategy x trigger x interval) cell is an
independent, deterministic simulation. This module provides the pool
that :meth:`repro.harness.ExperimentRunner.run_many` fans a batch out
over when its uncomputed cells span two or more cell families and the
runner has more than one job:

* the batch runs the baseline of every family it computes in the
  parent first, each once (:meth:`~repro.harness.ExperimentRunner.
  run_many`), so no worker runs a baseline or touches the baseline
  cache;
* each worker adopts the parent's :class:`ExperimentRunner` in its
  initializer — inherited under ``fork``, pickled under ``spawn`` — so
  every runner option and the batch's baselines reach the workers with
  no list to keep. The worker drops its ledger: the parent keeps every
  cell, so only it appends;
* cells are dispatched one *cell family* per task
  (:meth:`~repro.harness.RunSpec.family_key`): the worker *computes*
  the family as the serial loop does — on one shared transformed
  program, deriving its counter cells where it can — and the task
  returns what :meth:`~repro.harness.ExperimentRunner._compute_family`
  returns, the family's cells with their log records and its
  derivation counts. The parent *keeps* them in batch order in the
  same loop as serial cells, so the caller gets the list, manifests,
  counters and cell log of a serial loop, a pooled cell's source
  (``pool:<pid>``) aside. ``tests/test_cell_families.py`` and
  ``tests/test_parallel_harness.py`` compare them;
* every cell is seeded deterministically from its spec content
  (:func:`~repro.harness.experiment.cell_seed`), never from worker
  identity, scheduling order, or wall clock — the same spec produces
  bit-identical results at any ``--jobs`` value.
  ``tests/test_parallel_harness.py`` holds the tripwire asserting
  jobs=1 and jobs=4 agree cell-for-cell.

Workers prefer the ``fork`` start method (cheap on Linux, inherits the
parent's compiled-workload caches) and fall back to ``spawn`` where
fork is unavailable. The pool is a
:class:`concurrent.futures.ProcessPoolExecutor`, so a worker that dies
(killed, or out of memory) ends the batch with an error instead of
leaving the parent waiting for a result that will never come.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import (
        CellRecord, ExperimentRunner, RunResult, RunSpec,
    )

    #: What computing one cell family gives: its cells, each with its
    #: log record, and its ``harness.derive.*`` counts.
    FamilyCells = Tuple[List[Tuple[RunResult, CellRecord]], Dict[str, int]]

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
    """Adopt the parent's runner, with the batch's baselines. Its
    ledger goes, so only the parent appends: it keeps every cell a
    worker computes. The cells it computes are logged as this
    worker's."""
    global _WORKER_RUNNER
    runner.ledger = None
    runner._source = f"pool:{os.getpid()}"
    _WORKER_RUNNER = runner


def _run_family(specs: List["RunSpec"]) -> "FamilyCells":
    """One pool task: a cell family computed as the serial loop
    computes it (:meth:`ExperimentRunner._compute_family`)."""
    return _WORKER_RUNNER._compute_family(specs)


def _pool_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_families(
    runner: "ExperimentRunner",
    families: List[List["RunSpec"]],
    jobs: int,
) -> List["FamilyCells"]:
    """Compute each cell family of *families* on *jobs* worker
    processes that adopt *runner*, one task per family, and return what
    each task returned, in *families* order. The caller keeps the
    cells.

    A worker that dies mid-task breaks the pool; that ends the batch
    with a :class:`HarnessError` naming the families left unfinished.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    computed: List["FamilyCells"] = []
    lost = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(families)),
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(runner,),
    ) as pool:
        futures = [pool.submit(_run_family, family) for family in families]
        for family, future in zip(families, futures):
            try:
                computed.append(future.result())
            except BrokenProcessPool:
                lost.append(family[0].describe())
            except BaseException:
                # A family's own error ends the batch: start no more.
                pool.shutdown(cancel_futures=True)
                raise
    if lost:
        raise HarnessError(
            "a pool worker died before it finished the cell famil"
            + ("y of " if len(lost) == 1 else "ies of ")
            + "; ".join(lost)
        )
    return computed
