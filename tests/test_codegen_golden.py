"""Golden digest of the source the compiled tier generates.

Every suite workload is transformed under Full-, Partial- and
No-Duplication with call-edge instrumentation, and run on the compiled
engine in three observer configurations:

* no observer;
* an ``OverheadProfiler(interval=16, cct=True)`` together with a
  ``TelemetryRecorder(suppress=True, context=True)``;
* ``record_opcode_counts=True``.

Running each cell (not only building its engine) lowers the functions
that dynload and osr load mid-run, too. The process-wide code caches
start empty, so every region and outlined leaf source the cells need is
compiled once; one SHA-256 over those sources, sorted and without
duplicates, must equal ``tests/golden/codegen.txt``.

Regenerate the golden file with::

    PYTHONPATH=src python tests/test_codegen_golden.py
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
from typing import Dict, Set

from repro.harness.experiment import make_instrumentations
from repro.profiling import OverheadProfiler
from repro.sampling import SamplingFramework, Strategy
from repro.telemetry import TelemetryRecorder
from repro.vm import VM
from repro.vm import compiler
from repro.vm import engine as fast_tier
from repro.workloads import get_workload, workload_names

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "codegen.txt"

STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)

#: Compiled-tier code objects carry one of these file names.
LOWERED = ("<region>", "<leaf>")


def observers() -> Dict[str, dict]:
    """Fresh VM keyword arguments for each observer configuration."""
    return {
        "none": {},
        "observed": dict(
            profiler=OverheadProfiler(interval=16, cct=True),
            recorder=TelemetryRecorder(suppress=True, context=True),
        ),
        "opcode-counts": dict(record_opcode_counts=True),
    }


def lowered_sources() -> Set[str]:
    """Every region and leaf source the compiled tier compiles for the
    cells, with the process-wide caches emptied first."""
    sources: Set[str] = set()
    saved = (
        compiler._LOWER_CACHE.copy(),
        compiler._LEAF_CACHE.copy(),
        compiler._REGION_CODE_CACHE.copy(),
    )

    def recording_compile(src, filename, mode):
        if filename in LOWERED:
            sources.add(src)
        return compile(src, filename, mode)

    compiler._LOWER_CACHE.clear()
    compiler._LEAF_CACHE.clear()
    compiler._REGION_CODE_CACHE.clear()
    fast_tier.compile = recording_compile
    try:
        for workload in workload_names():
            program = get_workload(workload).compile(None)
            for strategy in STRATEGIES:
                transformed = SamplingFramework(strategy).transform(
                    program, make_instrumentations(("call-edge",))
                )
                for kwargs in observers().values():
                    VM(transformed, engine="compiled", **kwargs).run()
    finally:
        del fast_tier.compile
        for cache, entries in zip(
            (
                compiler._LOWER_CACHE,
                compiler._LEAF_CACHE,
                compiler._REGION_CODE_CACHE,
            ),
            saved,
        ):
            cache.clear()
            cache.update(entries)
    return sources


def digest(sources: Set[str]) -> str:
    h = hashlib.sha256()
    for src in sorted(sources):
        h.update(src.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_lowered_sources_match_golden():
    sources = lowered_sources()
    assert sources
    expected = GOLDEN.read_text(encoding="utf-8").split()
    assert [str(len(sources)), digest(sources)] == expected


def regenerate() -> None:
    sources = lowered_sources()
    GOLDEN.write_text(
        f"{len(sources)} {digest(sources)}\n", encoding="utf-8"
    )
    print(
        f"wrote the digest of {len(sources)} sources to {GOLDEN}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    regenerate()
