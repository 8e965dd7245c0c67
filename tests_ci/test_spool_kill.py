"""SIGKILL a streaming run and read its spool back.

The tier-1 suite checks crash tolerance deterministically, by cutting a
finished spool at every point a killed writer can leave it
(``tests/test_streaming.py``). This smoke test kills a real writer
process instead, so it races the child against wall-clock time: it
takes about half a minute and skips when the host finishes the run
before two epochs land. It runs in CI only (the ``stream-gate`` job):

    PYTHONPATH=src python -m pytest -q tests_ci/test_spool_kill.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.analysis import reconcile_stream
from repro.errors import ReproError
from repro.harness.experiment import make_instrumentations
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import SpoolReader, StreamingRecorder
from repro.vm import run_program
from repro.workloads import get_workload

_CHILD_SCRIPT = """
import sys
from repro.harness.experiment import make_instrumentations
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import StreamingRecorder
from repro.vm import run_program
from repro.workloads import get_workload

spool, scale = sys.argv[1], int(sys.argv[2])
program = get_workload("javac").compile(scale)
transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
    program, make_instrumentations(("call-edge",))
)
rec = StreamingRecorder(spool, epoch_events=32)
run_program(transformed, trigger=CounterTrigger(20), recorder=rec)
rec.sync_metrics()
rec.close()
"""


def test_killed_run_reads_back_as_exact_prefix(tmp_path):
    """SIGKILL a streaming child after epochs have landed: the spool
    must read back (possibly truncated), and its records must be a
    bit-equal prefix of the same deterministic run executed to
    completion."""
    scale = 800
    spool = tmp_path / "spool"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(spool), str(scale)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            if child.poll() is not None:
                break
            try:
                if len(SpoolReader(spool).epochs) >= 2:
                    break
            except ReproError:
                pass  # spool not created yet
            time.sleep(0.02)
        killed = child.poll() is None
        if killed:
            child.kill()
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup
            child.kill()
    if not killed:  # pragma: no cover - machine too fast to race
        pytest.skip("child finished before two epochs landed")

    reader = SpoolReader(spool)
    assert not reader.closed
    killed_records = reader.records()
    assert killed_records, "flushed epochs must survive the kill"

    # Deterministic reference: the identical configuration, run to
    # completion in-process. Streamed to its own spool, because the
    # spool is eviction-free where the in-memory ring is not — the full
    # run's early events survive only there.
    program = get_workload("javac").compile(scale)
    transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        program, make_instrumentations(("call-edge",))
    )
    reference = StreamingRecorder(tmp_path / "reference", epoch_events=32)
    stats = run_program(
        transformed, trigger=CounterTrigger(20), recorder=reference
    ).stats
    reference.sync_metrics()
    reference.close()
    full = SpoolReader(tmp_path / "reference")
    # The spool's record stream is ordered by window *completion* (a
    # suppression window still open at the kill appears only in the
    # full run), so the prefix guarantee holds on records.
    full_records = full.records()
    assert len(killed_records) <= len(full_records)
    assert full_records[:len(killed_records)] == list(killed_records)

    # The prefix still merges: every reconstructed snapshot is
    # internally consistent and counters never exceed the full run.
    snapshots = reader.metrics_snapshots()
    assert len(snapshots) == len(reader.epochs)
    final_full = full.final_metrics()
    for key, payload in reader.final_metrics().items():
        if payload.get("type") == "counter" and key in final_full:
            assert payload["value"] <= final_full[key]["value"]

    # A truncated read-back reconciles once flagged as such.
    verdict = reconcile_stream(stats, reader.records(), truncated=True)
    assert verdict.ok and verdict.truncated
