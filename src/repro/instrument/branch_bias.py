"""Branch-bias profiling: taken/not-taken counts per conditional.

The classic client for intraprocedural edge profiles ([10, 11] in the
paper): superblock formation and code layout want to know which way
each branch usually goes. Implemented with the edge-splitting helper,
so under the sampling framework the counters ride along in duplicated
code like any other instrumentation.

Keys are ``(function, branch block id, "taken" | "fallthrough")``; the
block id is minted from the pre-transform CFG and therefore stable
across baseline / exhaustive / sampled variants.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bytecode.program import Program
from repro.cfg.basic_block import CondBranch
from repro.cfg.graph import CFG
from repro.instrument.base import Instrumentation
from repro.instrument.block_profile import CountAction


class BranchBiasInstrumentation(Instrumentation):
    """Count taken vs fallthrough executions of every conditional."""

    kind = "branch-bias"

    def __init__(self, action_cost: int = 6):
        super().__init__()
        self.action_cost = action_cost

    def instrument_cfg(self, cfg: CFG, program: Program) -> None:
        # Snapshot conditionals first: splitting adds blocks.
        conditionals: List[Tuple[int, int, int]] = [
            (bid, block.terminator.taken, block.terminator.fallthrough)
            for bid, block in sorted(cfg.blocks.items())
            if isinstance(block.terminator, CondBranch)
        ]
        for bid, taken, fallthrough in conditionals:
            if taken == fallthrough:
                # Degenerate conditional: both arms identical, a single
                # splittable edge — bias is meaningless, count it once.
                self.insert_on_edge(
                    cfg, bid, taken,
                    CountAction(
                        (cfg.name, bid, "taken"), self.profile,
                        self.action_cost,
                    ),
                )
                continue
            self.insert_on_edge(
                cfg, bid, taken,
                CountAction(
                    (cfg.name, bid, "taken"), self.profile, self.action_cost
                ),
            )
            self.insert_on_edge(
                cfg, bid, fallthrough,
                CountAction(
                    (cfg.name, bid, "fallthrough"), self.profile,
                    self.action_cost,
                ),
            )
