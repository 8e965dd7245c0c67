"""Golden spools: the bytes a streamed run writes, pinned.

Each case streams one workload through a :class:`StreamingRecorder`
with short epochs and compares every segment file of the spool with
``tests/golden/spools/<case>/`` byte for byte. No profiler is attached,
because profile snapshots carry wall time; the one wall-clock field
left, each epoch's ``stamp.wall``, is masked on both sides.

The cases cover a static workload (compress) and the two dynamic-code
workloads (dynload, osr). The compress spool spans more than 16 epochs,
so its metrics stream holds a second keyframe.

Regenerate the golden files with::

    PYTHONPATH=src python tests/test_spool_golden.py
"""

from __future__ import annotations

import pathlib
import re
import sys
import tempfile
from typing import Dict, Tuple

import pytest

from repro.harness.experiment import make_instrumentations
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import StreamingRecorder
from repro.vm import run_program
from repro.workloads import get_workload

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "spools"

#: case -> (sample interval, events per epoch)
CASES: Dict[str, Tuple[int, int]] = {
    "compress": (100, 24),
    "dynload": (50, 16),
    "osr": (50, 16),
}

_WALL = re.compile(r'("stamp":\{"wall":)[-+.0-9eE]+')


def mask(text: str) -> str:
    return _WALL.sub(r'\1"<wall>"', text)


def stream(workload: str, spool: pathlib.Path) -> Dict[str, str]:
    """Stream *workload* to *spool*; segment name -> masked text."""
    interval, epoch_events = CASES[workload]
    program = get_workload(workload).compile(None)
    transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        program, make_instrumentations(("call-edge",))
    )
    recorder = StreamingRecorder(spool, epoch_events=epoch_events)
    run_program(
        transformed, trigger=CounterTrigger(interval), recorder=recorder
    )
    recorder.sync_metrics()
    recorder.close()
    return {
        path.name: mask(path.read_text(encoding="utf-8"))
        for path in sorted(spool.glob("segment-*.jsonl"))
    }


@pytest.mark.parametrize("workload", sorted(CASES))
def test_spool_segments_match_golden(tmp_path, workload):
    golden = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((GOLDEN_DIR / workload).glob("segment-*.jsonl"))
    }
    assert golden, f"no golden segments for {workload}"
    assert stream(workload, tmp_path / "spool") == golden


def regenerate() -> None:
    for workload in sorted(CASES):
        target = GOLDEN_DIR / workload
        target.mkdir(parents=True, exist_ok=True)
        for path in target.glob("segment-*.jsonl"):
            path.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            segments = stream(workload, pathlib.Path(tmp) / "spool")
        for name, text in segments.items():
            (target / name).write_text(text, encoding="utf-8")
            print(f"wrote {workload}/{name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
