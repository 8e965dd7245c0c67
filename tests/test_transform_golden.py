"""Golden digests of the whole-program transforms.

Each case transforms one suite workload and hashes the result's
disassembly together with every function's ``notes``; the digests must
equal ``tests/golden/transforms.txt``. Per workload the cases are:

* the six strategies under three instrumentation sets;
* the yieldpoint optimization under both duplication strategies;
* counted backedges (Full-Duplication, four iterations per sample);
* the planned transform of the workload's default ``plan_program`` plan;
* a mixed plan (:func:`mixed_assignments`) with No-Duplication as the
  default, and with Full-Duplication as the default under the
  yieldpoint optimization.

For the dynamic-code workloads (dynload, osr) the transformed program is
also run, under Full-, Partial- and No-Duplication and under both plans,
and the program the VM ends with is hashed: that pins what the load
hook installs mid-run. The mixed plan makes a load take its strategy
from the install name in dynload (``plug_mix`` replaced by
``plug_mix_v2``), from the template name in osr (``kernel`` replaced by
``kernel_v2``), and from the default elsewhere.

Regenerate the golden file with::

    PYTHONPATH=src python tests/test_transform_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, Iterator, Tuple

import pytest

from repro.analysis import plan_program
from repro.bytecode.disassembler import disassemble_program
from repro.bytecode.program import Program
from repro.harness.experiment import make_instrumentations
from repro.sampling import (
    CounterTrigger,
    SamplingFramework,
    Strategy,
    transform_planned,
)
from repro.vm import VM
from repro.workloads import get_workload, workload_names

GOLDEN = (
    pathlib.Path(__file__).resolve().parent / "golden" / "transforms.txt"
)

INSTRUMENTATION_SETS: Tuple[Tuple[str, ...], ...] = (
    ("call-edge",),
    ("block-count", "field-access"),
    ("edge-profile", "param-value", "cct"),
)

DUPLICATING = (Strategy.FULL_DUPLICATION, Strategy.PARTIAL_DUPLICATION)

RUN_STRATEGIES = DUPLICATING + (Strategy.NO_DUPLICATION,)


def digest(program: Program) -> str:
    """Hash of *program*'s disassembly and its functions' notes."""
    notes = {
        name: program.functions[name].notes
        for name in program.function_names()
    }
    text = disassemble_program(program) + json.dumps(
        notes, sort_keys=True, default=str
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def mixed_assignments(program: Program) -> Dict[str, str]:
    """Loadable templates take the three strategies in turn, and so does
    every other static function; the rest fall to the default."""
    cycle = [strategy.value for strategy in RUN_STRATEGIES]
    out = {
        name: cycle[i % 3] for i, name in enumerate(sorted(program.loadables))
    }
    out.update(
        (name, cycle[i % 3])
        for i, name in enumerate(program.function_names())
        if i % 2
    )
    return out


def final_program(transformed: Program) -> Program:
    vm = VM(transformed, trigger=CounterTrigger(50))
    vm.run()
    return vm.program


def cases(workload: str) -> Iterator[Tuple[str, Program]]:
    """(case name, program) for every transform of *workload*."""
    program = get_workload(workload).compile(None)
    for strategy in Strategy:
        for kinds in INSTRUMENTATION_SETS:
            yield (
                f"{workload}/{strategy.value}/{'+'.join(kinds)}",
                SamplingFramework(strategy).transform(
                    program, make_instrumentations(kinds)
                ),
            )
    for strategy in DUPLICATING:
        yield (
            f"{workload}/{strategy.value}/yieldpoint-opt",
            SamplingFramework(strategy, yieldpoint_opt=True).transform(
                program, make_instrumentations(("call-edge",))
            ),
        )
    yield (
        f"{workload}/full-duplication/iterations=4",
        SamplingFramework(
            Strategy.FULL_DUPLICATION, sample_iterations=4
        ).transform(program, make_instrumentations(("call-edge",))),
    )
    plan = plan_program(program, interval=1000, label=workload)
    planned = transform_planned(
        program, make_instrumentations(("call-edge",)), plan.assignments()
    )
    yield f"{workload}/planned", planned
    mixed = transform_planned(
        program,
        make_instrumentations(("call-edge",)),
        mixed_assignments(program),
        default=Strategy.NO_DUPLICATION,
    )
    yield f"{workload}/mixed", mixed
    yield (
        f"{workload}/mixed/yieldpoint-opt",
        transform_planned(
            program,
            make_instrumentations(("call-edge",)),
            mixed_assignments(program),
            yieldpoint_opt=True,
        ),
    )
    if not program.is_dynamic():
        return
    for strategy in RUN_STRATEGIES:
        transformed = SamplingFramework(strategy).transform(
            program, make_instrumentations(("call-edge",))
        )
        yield f"{workload}/run/{strategy.value}", final_program(transformed)
    yield f"{workload}/run/planned", final_program(planned)
    yield f"{workload}/run/mixed", final_program(mixed)


def digests(workload: str) -> Dict[str, str]:
    return {name: digest(program) for name, program in cases(workload)}


def golden() -> Dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ") for line in lines)


@pytest.mark.parametrize("workload", workload_names())
def test_transforms_match_golden(workload):
    expected = {
        name: value
        for name, value in golden().items()
        if name.split("/")[0] == workload
    }
    assert digests(workload) == expected


def test_every_golden_case_belongs_to_a_workload():
    names = set(workload_names())
    assert {name.split("/")[0] for name in golden()} == names


def regenerate() -> None:
    lines = []
    for workload in workload_names():
        lines.extend(
            f"{name} {value}" for name, value in digests(workload).items()
        )
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
