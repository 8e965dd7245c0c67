"""Streaming-overhead gate: live export must ride nearly free.

The streaming spool (docs/OBSERVABILITY.md, "Live streaming & CCT")
exists so telemetry can be watched *during* a run — which is only
worth having if flushing epochs to disk does not meaningfully slow
the run down. This bench times the same cell twice on the same
engine:

* **baseline** — a suppressing, context-keyed ``TelemetryRecorder``
  (everything streaming does in memory, minus the spool);
* **streamed** — a ``StreamingRecorder`` flushing delta-encoded
  epochs to a spool directory.

Both runs are bit-identical in what they retain (pinned by
tests/test_streaming.py), so the timing difference isolates the
export pipeline: JSON encoding, delta verification, and appends.

Methodology matches the other tight gates in
``bench_vm_throughput.py``: adjacent baseline/streamed pairs with the
order flipped every pair (host drift hits both sides equally), and
the reported overhead is the **median of per-pair ratios**. CI's
``stream-gate`` job holds javac and osr on the compiled engine to
≤5% and keeps the spool as a build artifact.

Usage:
    PYTHONPATH=src python benchmarks/bench_stream.py \
        --engine compiled --gate 5 --spool-dir stream-spools
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.experiment import make_instrumentations  # noqa: E402
from repro.profiling import (  # noqa: E402
    LEDGER_FILENAME,
    PerfLedger,
    make_record,
)
from repro.sampling import (  # noqa: E402
    CounterTrigger,
    SamplingFramework,
    Strategy,
)
from repro.telemetry import StreamingRecorder, TelemetryRecorder  # noqa: E402
from repro.vm import run_program  # noqa: E402
from repro.vm.engine import resolve_engine  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_stream.json"
DEFAULT_LEDGER = REPO_ROOT / LEDGER_FILENAME

#: (workload, scale) cells the gate holds — mirrors the compaction
#: gate: javac is the check-dense static shape, osr the dynamic-code
#: path (LOADFN/REPLACEFN/OSR all emit ctx-tagged events).
GATE_CELLS = (("javac", 500), ("osr", 150))

INTERVAL = 1000
PAIRS = 7


def _prepare(workload: str, scale: int):
    program = get_workload(workload).compile(scale)
    return SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        program, make_instrumentations(("call-edge",))
    )


def _baseline_recorder() -> TelemetryRecorder:
    return TelemetryRecorder(suppress=True, context=True)


def _time_run(transformed, engine: str, recorder) -> float:
    started = time.perf_counter()
    run_program(
        transformed,
        trigger=CounterTrigger(INTERVAL),
        engine=engine,
        recorder=recorder,
    )
    recorder.sync_metrics()
    if isinstance(recorder, StreamingRecorder):
        recorder.close()
    return time.perf_counter() - started


def measure_cell(
    workload: str,
    scale: int,
    engine: str,
    spool_dir: pathlib.Path,
    pairs: int = PAIRS,
) -> Dict:
    transformed = _prepare(workload, scale)
    # Warm the engine's code caches and both recorder paths out of
    # band: the first run after compilation is reliably slower, and a
    # single warm-up run has been observed to leave the *next* run
    # still 5-10% slow — warm each side once.
    warm = spool_dir / f"{workload}-warmup"
    _time_run(transformed, engine, _baseline_recorder())
    _time_run(transformed, engine, StreamingRecorder(warm))
    shutil.rmtree(warm, ignore_errors=True)
    ratios: List[float] = []
    base_seconds: List[float] = []
    stream_seconds: List[float] = []
    events = 0
    for pair in range(pairs):
        spool = spool_dir / f"{workload}-pair{pair}"
        if spool.exists():
            shutil.rmtree(spool)
        streamed_rec = StreamingRecorder(spool)
        baseline_first = pair % 2 == 0
        if baseline_first:
            base = _time_run(transformed, engine, _baseline_recorder())
            stream = _time_run(transformed, engine, streamed_rec)
        else:
            stream = _time_run(transformed, engine, streamed_rec)
            base = _time_run(transformed, engine, _baseline_recorder())
        events = max(events, streamed_rec.compactor.events_in)
        base_seconds.append(base)
        stream_seconds.append(stream)
        ratios.append(stream / base)
        # Keep exactly one spool per workload as the artifact.
        if pair != pairs - 1:
            shutil.rmtree(spool, ignore_errors=True)
        else:
            spool.rename(spool_dir / workload)
    median_ratio = statistics.median(ratios)
    return {
        "workload": workload,
        "scale": scale,
        "engine": engine,
        "interval": INTERVAL,
        "pairs": pairs,
        "events": events,
        "baseline_seconds_median": statistics.median(base_seconds),
        "streamed_seconds_median": statistics.median(stream_seconds),
        "overhead_pct": (median_ratio - 1.0) * 100.0,
        "spool": str(spool_dir / workload),
    }


def measure(
    engine: str, spool_dir: pathlib.Path, pairs: int = PAIRS
) -> Dict:
    spool_dir.mkdir(parents=True, exist_ok=True)
    cells = {
        workload: measure_cell(workload, scale, engine, spool_dir, pairs)
        for workload, scale in GATE_CELLS
    }
    return {
        "engine": engine,
        "cells": cells,
        "worst_overhead_pct": max(
            row["overhead_pct"] for row in cells.values()
        ),
    }


def render(report: Dict) -> str:
    lines = [
        f"streaming overhead ({report['engine']} engine, "
        f"median of per-pair ratios)",
        f"{'workload':12s} {'base s':>8s} {'stream s':>9s} {'overhead':>9s}",
    ]
    for name, row in report["cells"].items():
        lines.append(
            f"{name:12s} {row['baseline_seconds_median']:8.4f} "
            f"{row['streamed_seconds_median']:9.4f} "
            f"{row['overhead_pct']:+8.2f}%"
        )
    lines.append(
        f"worst overhead: {report['worst_overhead_pct']:+.2f}%"
    )
    return "\n".join(lines)


def ledger_append(report: Dict, ledger: PerfLedger) -> int:
    records = []
    for name, row in report["cells"].items():
        records.append(
            make_record(
                bench="stream",
                key=f"{name}/{row['engine']}",
                metric="overhead_pct",
                value=row["overhead_pct"],
                higher_is_better=False,
                meta={
                    "scale": row["scale"],
                    "interval": row["interval"],
                    "pairs": row["pairs"],
                },
            )
        )
    return ledger.append_many(records)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine", default=None,
        help="execution engine (default $REPRO_ENGINE, else fast)",
    )
    parser.add_argument(
        "--pairs", type=int, default=PAIRS,
        help="baseline/streamed timing pairs per cell",
    )
    parser.add_argument(
        "--gate", type=float, default=None, metavar="PCT",
        help="exit nonzero if the worst cell's overhead exceeds PCT",
    )
    parser.add_argument(
        "--spool-dir", default=None,
        help="keep one spool per workload here (CI artifact); "
        "default: a temp dir, removed afterwards",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument(
        "--ledger", default=str(DEFAULT_LEDGER),
        help="perf-regression ledger to append bench=stream records to",
    )
    parser.add_argument("--no-ledger", action="store_true")
    args = parser.parse_args(argv)

    engine = resolve_engine(args.engine)
    temp_spools = args.spool_dir is None
    spool_dir = pathlib.Path(
        tempfile.mkdtemp(prefix="bench-stream-")
        if temp_spools
        else args.spool_dir
    )
    try:
        report = measure(engine, spool_dir, pairs=args.pairs)
    finally:
        if temp_spools:
            shutil.rmtree(spool_dir, ignore_errors=True)
    print(render(report))
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[wrote {out}]")
    if not args.no_ledger:
        ledger = PerfLedger(args.ledger)
        appended = ledger_append(report, ledger)
        print(f"[appended {appended} record(s) to {ledger.path}]")
    if args.gate is not None and (
        report["worst_overhead_pct"] > args.gate
    ):
        print(
            f"error: streaming overhead "
            f"{report['worst_overhead_pct']:+.2f}% exceeds gate "
            f"{args.gate:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
