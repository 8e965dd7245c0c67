"""Golden outputs that every benchmark operation is checked against.

* ``golden/tables.txt`` -- stdout of ``repro tables all``, with Table 2's
  ``xform ms`` column masked: that column is host wall time, the only
  field that differs between runs and engines.
* ``golden/cells.json`` -- value, cycles and guest instructions of every
  cell the benchmark can run, and the guest instructions one
  ``repro tables`` run executes, for each selection the benchmark runs
  (``TABLES``).

Regenerate both with ``PYTHONPATH=src python -m benchmarks.e2e.golden``.
Outputs are deterministic, so regenerating is legitimate only in a
change that alters the cycle model.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import sys
from contextlib import redirect_stdout
from typing import Dict, List, Optional

from benchmarks.e2e.cells import COLD_CELLS, ROUNDS

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: The ``repro tables`` selections the benchmark runs: ``all`` in the
#: ``tables`` workload, ``table3`` in the smoke test.
TABLES = ("all", "table3")

_MASK = "<ms>"


def mask_tables(text: str) -> str:
    """Replace the last column of Table 2's data rows with a fixed mask."""
    lines = []
    in_table2 = False
    for line in text.splitlines():
        if line.startswith("Table 2:"):
            in_table2 = True
        elif not line.strip():
            in_table2 = False
        elif in_table2 and not line.startswith(("benchmark", "---", "  note")):
            line = re.sub(r"\s+\S+$", "  " + _MASK, line)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _blocks(text: str) -> List[str]:
    return text.strip("\n").split("\n\n")


class Golden:
    """The golden files of one directory, and the checks against them."""

    def __init__(self, directory: pathlib.Path = GOLDEN_DIR):
        self.directory = pathlib.Path(directory)
        self.tables = (self.directory / "tables.txt").read_text(encoding="utf-8")
        data = json.loads((self.directory / "cells.json").read_text(encoding="utf-8"))
        self.cells: Dict[str, dict] = data["cells"]
        self.tables_instructions: Dict[str, int] = data["tables_instructions"]

    def check_tables(self, stdout: str, which: str) -> Optional[str]:
        """None when *stdout* of ``repro tables WHICH`` (one of
        ``TABLES``) matches its golden blocks."""
        want = _blocks(self.tables)
        if which == "table3":
            want = [block for block in want if block.startswith("Table 3:")]
        if _blocks(mask_tables(stdout)) == want:
            return None
        return f"tables {which}: output differs from golden"

    def check_cell(self, key: str, value: int, cycles: int) -> Optional[str]:
        """None when the cell computed its golden value and cycles."""
        want = self.cells.get(key)
        if want is None:
            return f"{key}: no golden entry"
        if (value, cycles) != (want["value"], want["cycles"]):
            return (
                f"{key}: value/cycles {value}/{cycles}, golden "
                f"{want['value']}/{want['cycles']}"
            )
        return None


def _tables_output(which: str, counts) -> tuple:
    import repro.cli

    before = counts["vm.execute.instructions"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = repro.cli.main(["tables", which, "--jobs", "1", "--no-cache"])
    if code != 0:
        raise SystemExit(f"repro tables {which} exited {code}")
    return out.getvalue(), counts["vm.execute.instructions"] - before


def regenerate(directory: pathlib.Path = GOLDEN_DIR) -> None:
    import repro.cli  # noqa: F401  (the tracer wraps only imported modules)
    from repro.harness.experiment import ExperimentRunner

    from benchmarks.e2e.child import run_spec
    from benchmarks.e2e.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    cells = {}
    for cell in COLD_CELLS + tuple(c for group in ROUNDS.values() for c in group):
        runner = ExperimentRunner(cache=False)
        result = runner.run(run_spec(cell))
        baseline = runner.baseline(cell.workload, cell.scale)[1]
        cells[cell.key] = {
            "value": result.value,
            "cycles": result.cycles,
            "instructions": result.stats.instructions
            + baseline.stats.instructions,
        }
    instructions = {}
    for which in TABLES:
        text, instructions[which] = _tables_output(which, tracer.counts)
        if which == "all":
            tables = mask_tables(text)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "tables.txt").write_text(tables, encoding="utf-8")
    (directory / "cells.json").write_text(
        json.dumps(
            {"cells": cells, "tables_instructions": instructions},
            indent=1, sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {directory}/tables.txt and cells.json ({len(cells)} cells)")


if __name__ == "__main__":
    regenerate(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
