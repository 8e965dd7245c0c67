"""Stream a long profiled run and read its spool back.

With a profiler attached, a streamed cell's spool carries the
profiler's snapshots as keyframes and deltas (``diff_snapshot`` in
``repro.profiling.profiler``). Tier-1's streamed cells are short and
each cell of the end-to-end ``observed`` workload fits in one epoch, so
neither reaches the delta path with a profiler. This test streams javac
at scale 500 on the compiled engine, long enough for several epochs
(about 20 s), and checks that the spool rebuilds the run's final
profile and metrics exactly. It runs in CI only (the ``stream-gate``
job):

    PYTHONPATH=src python -m pytest -q tests_ci/test_profiled_spool.py
"""

from __future__ import annotations

from repro.harness import ExperimentRunner, RunSpec
from repro.sampling import Strategy
from repro.telemetry import SpoolReader


def test_long_profiled_spool_reads_back_exactly(tmp_path):
    runner = ExperimentRunner(
        cache=False, engine="compiled", profile=True, stream=tmp_path
    )
    result = runner.run(
        RunSpec("javac", Strategy.FULL_DUPLICATION, ("call-edge",),
                trigger="counter", interval=1000, scale=500)
    )
    reader = SpoolReader(result.spool)
    assert reader.closed and not reader.truncated
    assert len(reader.epochs) >= 2
    assert reader.final_profile() == result.profile["snapshot"]
    assert reader.final_metrics() == result.manifest.metrics
