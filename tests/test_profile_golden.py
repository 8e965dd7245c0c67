"""Golden digests of what the observers see on the fast and compiled tiers.

Each case transforms one suite workload under one duplication strategy
with call-edge instrumentation, and runs it on one engine with a
counter trigger at 100, an ``OverheadProfiler(interval=16, cct=True)``
and a ``TelemetryRecorder(suppress=True, context=True)`` attached. The
case's digest hashes:

* the profiler's ``boundaries``, ``samples`` and ``sample_counts``;
* its ``heat`` and ``op_heat`` tables, and the sample counts of its
  ``stacks`` and ``cct`` tables (wall times are excluded);
* the recorder's records, as stored.

The digests must equal ``tests/golden/profiles.txt``. The two tiers
report the same observer boundaries, so once the compiled tier's
``compiled`` component is folded into ``dispatch`` the fast and
compiled profiles and records of a cell must be equal, too.

Regenerate the golden file with::

    PYTHONPATH=src python tests/test_profile_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, Tuple

import pytest

from repro.harness.experiment import make_instrumentations
from repro.profiling import OverheadProfiler
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import TelemetryRecorder
from repro.telemetry.compaction import record_as_dict
from repro.vm import VM
from repro.workloads import get_workload, workload_names

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "profiles.txt"

STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)

ENGINES = ("fast", "compiled")

_PROGRAMS: Dict[Tuple[str, Strategy], Any] = {}


def transformed(workload: str, strategy: Strategy):
    key = (workload, strategy)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = SamplingFramework(strategy).transform(
            get_workload(workload).compile(None),
            make_instrumentations(("call-edge",)),
        )
    return _PROGRAMS[key]


def observe(workload: str, strategy: Strategy, engine: str) -> Dict[str, Any]:
    """The counts the profiler and the recorder saw in one run."""
    profiler = OverheadProfiler(interval=16, cct=True)
    recorder = TelemetryRecorder(suppress=True, context=True)
    VM(
        transformed(workload, strategy),
        trigger=CounterTrigger(100),
        engine=engine,
        recorder=recorder,
        profiler=profiler,
    ).run()
    snap = profiler.snapshot()
    return {
        "boundaries": snap["boundaries"],
        "samples": snap["samples"],
        "sample_counts": snap["sample_counts"],
        "heat": snap["heat"],
        "op_heat": snap["op_heat"],
        "stacks": {key: cell[0] for key, cell in snap["stacks"].items()},
        "cct": {
            key: {comp: slot[0] for comp, slot in cell.items()}
            for key, cell in snap["cct"].items()
        },
        "records": [record_as_dict(r) for r in recorder.records()],
    }


def digest(observed: Dict[str, Any]) -> str:
    text = json.dumps(observed, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def folded(observed: Dict[str, Any]) -> Dict[str, Any]:
    """*observed* with the ``compiled`` component counted as
    ``dispatch``: plain execution, whichever tier ran it."""
    out = dict(observed)
    counts = dict(observed["sample_counts"])
    counts["dispatch"] += counts.pop("compiled")
    out["sample_counts"] = counts
    cct = {}
    for key, cell in observed["cct"].items():
        cell = dict(cell)
        if "compiled" in cell:
            cell["dispatch"] = cell.get("dispatch", 0) + cell.pop("compiled")
        cct[key] = cell
    out["cct"] = cct
    return out


def case_name(workload: str, strategy: Strategy, engine: str) -> str:
    return f"{workload}/{strategy.value}/{engine}"


def golden() -> Dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ") for line in lines)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("workload", workload_names())
def test_profiles_match_golden_and_agree_across_tiers(workload, strategy):
    expected = golden()
    runs = {engine: observe(workload, strategy, engine) for engine in ENGINES}
    for engine, observed in runs.items():
        name = case_name(workload, strategy, engine)
        assert digest(observed) == expected[name], name
    assert runs["fast"]["sample_counts"]["compiled"] == 0
    assert folded(runs["compiled"]) == folded(runs["fast"])


def test_every_golden_case_is_in_the_matrix():
    assert set(golden()) == {
        case_name(workload, strategy, engine)
        for workload in workload_names()
        for strategy in STRATEGIES
        for engine in ENGINES
    }


def regenerate() -> None:
    lines = [
        f"{case_name(workload, strategy, engine)} "
        + digest(observe(workload, strategy, engine))
        for workload in workload_names()
        for strategy in STRATEGIES
        for engine in ENGINES
    ]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
