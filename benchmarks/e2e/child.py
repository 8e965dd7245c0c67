"""One benchmark child process: ``python -m benchmarks.e2e.child JOB``.

``JOB`` is a JSON object written by the driver; ``mode`` selects what
the process does:

* ``setup`` -- import the CLI and load the workload registry, then exit
  (the set-up probe of ``tables`` and ``cold_cell``);
* ``cell`` -- run cold-cell candidate number ``cell``, print its value,
  cycles and guest instructions as JSON;
* ``rounds`` -- in one warm process, run a warm-up round (set-up time
  ends with it), then timed rounds for the job's ``seconds``, printing
  one JSON line per round;
* ``tables`` -- ``repro tables`` through ``repro.cli.main``, used only
  for the traced run (the untraced run is ``python -m repro tables``).

With ``"trace": PATH`` the process records layer spans (see
:mod:`benchmarks.e2e.tracer`) and writes them to PATH at the end.
"""

import time

STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from benchmarks.e2e.cells import COLD_CELLS, ROUNDS, Cell  # noqa: E402


def run_spec(cell: Cell):
    """The ``RunSpec`` a :class:`Cell` describes."""
    from repro.harness.experiment import RunSpec
    from repro.sampling.framework import Strategy

    return RunSpec(
        cell.workload,
        Strategy(cell.strategy),
        cell.instrumentation,
        trigger="counter",
        interval=cell.interval,
        scale=cell.scale,
    )


def _import(mode: str) -> None:
    if mode in ("setup", "tables"):
        import repro.cli  # noqa: F401
    else:
        import repro.harness.experiment  # noqa: F401
    if mode == "rounds":
        import repro.telemetry  # noqa: F401


def _setup() -> None:
    from repro.workloads import all_workloads

    all_workloads()


def _cell(job: dict) -> None:
    from repro.harness.experiment import ExperimentRunner

    cell = COLD_CELLS[job["cell"]]
    runner = ExperimentRunner(cache=False)
    result = runner.run(run_spec(cell))
    baseline = runner.baseline(cell.workload, cell.scale)[1]
    print(json.dumps({
        "value": result.value,
        "cycles": result.cycles,
        "instructions": result.stats.instructions + baseline.stats.instructions,
    }))


def _round(kind: str, cells, spool_dir: str) -> dict:
    """One round: a fresh runner over *cells*; the wall time covers the
    runs only, and the spool check runs after the clock stops."""
    from repro.errors import HarnessError
    from repro.harness.experiment import ExperimentRunner

    observed = kind == "observed"
    line = {"instructions": 0, "cells": {}}
    started = time.perf_counter()
    try:
        runner = (
            ExperimentRunner(cache=False, profile=True, stream=spool_dir)
            if observed
            else ExperimentRunner(cache=False)
        )
        results = []
        for cell in cells:
            result = runner.run(run_spec(cell))
            baseline = runner.baseline(cell.workload, cell.scale)[1]
            line["instructions"] += (
                result.stats.instructions + baseline.stats.instructions
            )
            line["cells"][cell.key] = [result.value, result.cycles]
            results.append(result)
    except HarnessError as exc:
        line["error"] = str(exc)
        return line
    finally:
        line["ended"] = time.perf_counter()
        line["wall"] = line["ended"] - started
    if observed:
        line["spool_ok"], line["spool_bytes"] = _check_spools(results)
        shutil.rmtree(spool_dir)
    return line


def _check_spools(results) -> tuple:
    """Every spool's reconstructed final metrics equal its manifest's."""
    from repro.telemetry import SpoolReader

    ok = True
    size = 0
    for result in results:
        ok = ok and SpoolReader(result.spool).final_metrics() == (
            result.manifest.metrics
        )
        for folder, _dirs, files in os.walk(result.spool):
            size += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return ok, size


def _rounds(job: dict) -> None:
    kind = job["kind"]
    order = random.Random(job["seed"])
    index = 0
    while True:
        cells = list(ROUNDS[kind])
        order.shuffle(cells)
        spool_dir = os.path.join(job["tmp"], f"spool-{os.getpid()}-{index}")
        line = _round(kind, cells, spool_dir)
        line["warmup"] = index == 0
        if index == 0:
            # Set-up: interpreter start, imports and the cold first round.
            # The timed rounds then get the job's seconds.
            line["setup"] = line["ended"] - job["spawned"]
            deadline = line["ended"] + job["seconds"]
        print(json.dumps(line), flush=True)
        index += 1
        # Garbage of the finished round is collected off the clock.
        gc.collect()
        # At least one timed round; another only if it should end in time.
        if index > 1 and time.perf_counter() + line["wall"] > deadline:
            break


def _tables(job: dict) -> int:
    import repro.cli

    return repro.cli.main(
        ["tables", job["which"], "--jobs", "1", "--no-cache"]
    )


def main(argv) -> int:
    job = json.loads(argv[0])
    mode = job["mode"]
    _import(mode)
    tracer = None
    if job.get("trace"):
        from benchmarks.e2e.tracer import Tracer

        tracer = Tracer()
        # Everything this process imported so far, from its first
        # statement on, is the import layer.
        tracer.add("import", "import", STARTED, time.perf_counter())
        tracer.install()
    code = 0
    if mode == "setup":
        _setup()
    elif mode == "cell":
        _cell(job)
    elif mode == "rounds":
        _rounds(job)
    elif mode == "tables":
        code = _tables(job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if tracer is not None:
        tracer.write(job["trace"], STARTED)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
