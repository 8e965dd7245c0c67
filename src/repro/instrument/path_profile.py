"""Ball–Larus intraprocedural path profiling (paper reference [11]).

Path profiling is the paper's example of instrumentation whose *design*
predates the framework but whose cost (their citation reports up to
~30-50% overhead) kept it offline. The encoding:

* Remove backedges to get the function's DAG.
* ``numpaths(v)`` = 1 for DAG sinks, else the sum over successors; each
  DAG edge ``v -> w`` gets the increment that makes every v-to-sink
  path sum unique in ``[0, numpaths(v))``.
* A per-frame *path register* (a dedicated local slot allocated by the
  instrumentation) is reset at every DAG source (function entry and
  loop headers), incremented on nonzero-value edges, and recorded at
  every DAG sink (returns and backedge sources).

This reset/record placement is deliberately per-iteration, which makes
the profile *sampling-compatible*: a sample that enters duplicated code
at a loop-header check observes complete header-to-backedge paths — the
§2 "monitoring N consecutive loop iterations" discussion specialized to
N = 1.

Path keys are ``(function, start block id, path number)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.bytecode.program import Program
from repro.cfg.basic_block import Halt, Return
from repro.cfg.graph import CFG
from repro.cfg.loops import sampling_backedges
from repro.errors import TransformError
from repro.instrument.base import Instrumentation, InstrumentationAction
from repro.profiles.profile import Profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.frame import Frame
    from repro.vm.interpreter import VM

_START_SHIFT = 32
_PATH_MASK = (1 << _START_SHIFT) - 1


class PathResetAction(InstrumentationAction):
    """Path register := (start block id << 32)."""

    cost = 1

    def __init__(self, slot: int, start_bid: int):
        self.slot = slot
        self.start_value = start_bid << _START_SHIFT

    def execute(self, vm: "VM", frame: "Frame") -> None:
        frame.locals[self.slot] = self.start_value

    def describe(self) -> str:
        return f"path-reset r{self.slot} start=B{self.start_value >> _START_SHIFT}"


class PathIncAction(InstrumentationAction):
    """Path register += edge increment."""

    cost = 1

    def __init__(self, slot: int, increment: int):
        self.slot = slot
        self.increment = increment

    def execute(self, vm: "VM", frame: "Frame") -> None:
        frame.locals[self.slot] += self.increment

    def describe(self) -> str:
        return f"path-inc r{self.slot} += {self.increment}"


class PathRecordAction(InstrumentationAction):
    """Record (function, start, path number) from the path register."""

    cost = 8

    def __init__(self, slot: int, function_name: str, profile: Profile):
        self.slot = slot
        self.function_name = function_name
        self.profile = profile

    def execute(self, vm: "VM", frame: "Frame") -> None:
        register = frame.locals[self.slot]
        if not isinstance(register, int):
            return
        self.profile.record(
            (
                self.function_name,
                register >> _START_SHIFT,
                register & _PATH_MASK,
            )
        )

    def describe(self) -> str:
        return f"path-record r{self.slot}"


def _topological_order(
    nodes: Set[int], dag_succs: Dict[int, List[int]]
) -> List[int]:
    """Kahn's algorithm; raises TransformError on a cycle (irreducible
    flow survived backedge removal)."""
    indegree = {bid: 0 for bid in nodes}
    for src in nodes:
        for dst in dag_succs.get(src, ()):
            indegree[dst] += 1
    ready = sorted(bid for bid, deg in indegree.items() if deg == 0)
    order: List[int] = []
    while ready:
        bid = ready.pop()
        order.append(bid)
        for dst in dag_succs.get(bid, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    if len(order) != len(nodes):
        raise TransformError("path profiling requires a reducible CFG")
    return order


class PathProfileInstrumentation(Instrumentation):
    """Ball–Larus path profiling over every instrumented function."""

    kind = "path-profile"
    #: the path register lives across actions
    stateful_actions = True

    def __init__(self, record_cost: int = 8):
        super().__init__()
        self.record_cost = record_cost
        #: per-function numpaths at entry, for tests/diagnostics
        self.num_paths: Dict[str, int] = {}

    def instrument_cfg(self, cfg: CFG, program: Program) -> None:
        nodes = cfg.reachable()
        back = set(sampling_backedges(cfg))
        dag_succs: Dict[int, List[int]] = {bid: [] for bid in nodes}
        dag_edges: List[Tuple[int, int]] = []
        for src in nodes:
            for dst in cfg.block(src).successors():
                if (src, dst) in back:
                    continue
                if dst in dag_succs[src]:
                    # A conditional with both arms equal is one edge.
                    continue
                dag_succs[src].append(dst)
                dag_edges.append((src, dst))

        order = _topological_order(nodes, dag_succs)
        numpaths: Dict[int, int] = {}
        edge_value: Dict[Tuple[int, int], int] = {}
        for bid in reversed(order):
            succs = dag_succs[bid]
            if not succs:
                numpaths[bid] = 1
                continue
            acc = 0
            for dst in succs:
                edge_value[(bid, dst)] = acc
                acc += numpaths[dst]
            numpaths[bid] = acc
        self.num_paths[cfg.name] = numpaths.get(cfg.entry, 1)

        # Allocate the path register.
        slot = cfg.num_locals
        cfg.num_locals += 1

        headers = sorted({dst for _, dst in back})
        starts = [cfg.entry] + [h for h in headers if h != cfg.entry]

        # Resets at every DAG source (entry + loop headers).
        for start in starts:
            self.insert_before(cfg, start, 0, PathResetAction(slot, start))

        # Records at returns/halts...
        for bid in sorted(nodes):
            block = cfg.block(bid)
            if isinstance(block.terminator, (Return, Halt)):
                record = PathRecordAction(slot, cfg.name, self.profile)
                record.cost = self.record_cost
                self.insert_at_block_end(cfg, bid, record)
        # ...and on backedges (split so only the looping arm records).
        for src, dst in sorted(back):
            record = PathRecordAction(slot, cfg.name, self.profile)
            record.cost = self.record_cost
            self.insert_on_edge(cfg, src, dst, record)

        # Increments on nonzero-value DAG edges. Zero-increment edges
        # need no instrumentation — the Ball–Larus trick that makes the
        # common path free.
        for (src, dst), value in sorted(edge_value.items()):
            if value == 0:
                continue
            if len(dag_succs[src]) == 1:
                # Only successor: increment can live at the block end.
                self.insert_at_block_end(
                    cfg, src, PathIncAction(slot, value)
                )
            else:
                self.insert_on_edge(
                    cfg, src, dst, PathIncAction(slot, value)
                )
    # NOTE: header resets must run after a backedge's record; that holds
    # because the record lives on the (split) backedge itself and the
    # reset at the header's index 0 executes on re-entry.
