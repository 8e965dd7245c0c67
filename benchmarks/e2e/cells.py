"""The experiment cells the benchmark runs, as plain data.

Stdlib only: the driver and every child process import this module, and
the driver must not import ``repro``. Children turn a :class:`Cell` into
a ``RunSpec`` with :func:`benchmarks.e2e.child.run_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The suite's workloads at the time the benchmark was defined (the ten
#: paper analogs, then the two dynamic-code workloads). Fixed here so a
#: later change to the suite cannot silently change the benchmark.
WORKLOADS: Tuple[str, ...] = (
    "compress", "jess", "db", "javac", "mpegaudio", "mtrt",
    "jack", "optcompiler", "pbob", "volano", "dynload", "osr",
)

#: The three code-duplication strategies of the paper's Section 3.
STRATEGIES: Tuple[str, ...] = (
    "full-duplication", "partial-duplication", "no-duplication",
)


@dataclass(frozen=True)
class Cell:
    """One experiment cell, always on the counter trigger."""

    workload: str
    strategy: str
    instrumentation: Tuple[str, ...] = ("call-edge",)
    interval: int = 1000
    scale: Optional[int] = None

    @property
    def key(self) -> str:
        """Stable name, used as the key of ``golden/cells.json``."""
        scale = "" if self.scale is None else f"@{self.scale}"
        return (
            f"{self.workload}{scale}/{self.strategy}/"
            f"{'+'.join(self.instrumentation)}/counter@{self.interval}"
        )


#: ``cold_cell`` candidates: every workload under each duplication
#: strategy, call-edge instrumentation sampled every 1000 checks.
COLD_CELLS: Tuple[Cell, ...] = tuple(
    Cell(workload, strategy) for workload in WORKLOADS for strategy in STRATEGIES
)

#: One ``long_run`` round: three scaled-up workloads whose VM runs are
#: over 90% of the round's wall time (about 27M guest instructions).
LONG_RUN: Tuple[Cell, ...] = tuple(
    Cell(workload, "full-duplication", ("call-edge", "field-access"), 1000, scale)
    for workload, scale in (("compress", 5), ("db", 50), ("javac", 50))
)

#: One ``observed`` round: every workload with the streaming recorder
#: and the self-profiler attached, sampling every 100 checks.
OBSERVED: Tuple[Cell, ...] = tuple(
    Cell(workload, "full-duplication", ("call-edge",), 100)
    for workload in WORKLOADS
)

#: Cells of each warm-process workload's round.
ROUNDS = {"long_run": LONG_RUN, "observed": OBSERVED}
