"""Full-Duplication: the paper's primary transform (§2, Figure 2).

Input: a CFG that has been *exhaustively* instrumented (INSTR
operations inserted by :mod:`repro.instrument`). Output: the same CFG
rewritten so that

* the original blocks become the **checking code** — instrumentation
  stripped, a :class:`CheckBranch` on the method entry and on every
  backedge;
* a clone of every block becomes the **duplicated code** — it keeps all
  instrumentation, and every backedge inside it is redirected to the
  *check* guarding the corresponding checking-code backedge, bounding
  the work done per sample while ensuring every backedge traversal
  polls exactly one check (so interval 1 keeps all execution in
  duplicated code, the paper's perfect-profile configuration);
* a taken check at the entry transfers to the duplicated entry; a taken
  check on a backedge transfers to the duplicate of the loop header.

Property 1 (checks executed ≤ method entries + backedges executed)
holds by construction: exactly one check sits at the entry and one on
each backedge, and no checks exist anywhere else.

The Jalapeño-specific yieldpoint optimization (§4.5) is the
``yieldpoint_opt`` flag: yieldpoints are stripped from the checking
code (the checks subsume their scheduling role — a thread switch then
happens via the duplicated code, whose yieldpoints survive), so the
checking code's per-event cost is a check *instead of* a yieldpoint
rather than a check *plus* a yieldpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import Op
from repro.cfg.basic_block import CheckBranch, CondBranch, Goto
from repro.cfg.graph import CFG
from repro.cfg.loops import sampling_backedges
from repro.errors import TransformError


@dataclass
class DuplicationResult:
    """Bookkeeping from a duplication transform, consumed by
    Partial-Duplication and the linearizer (cold placement of
    duplicated code)."""

    cfg: CFG
    #: original (checking) block id -> duplicated block id
    dup_map: Dict[int, int] = field(default_factory=dict)
    #: backedges of the pre-transform CFG, as (source, header) pairs
    backedges: List[Tuple[int, int]] = field(default_factory=list)
    #: trampoline block ids holding the backedge checks
    trampolines: List[int] = field(default_factory=list)
    #: the entry-check block id (new CFG entry)
    entry_check: int = -1
    #: id of the checking-code entry (the pre-transform entry block)
    checking_entry: int = -1
    #: auxiliary duplicated-side blocks (burst reset/decrement blocks
    #: from the counted-backedge refinement); cold like the dup code
    aux_dup: List[int] = field(default_factory=list)
    #: the N of sample_iterations this result was built with
    sample_iterations: int = 1

    @property
    def checking_bids(self) -> Set[int]:
        return set(self.dup_map.keys())

    @property
    def dup_bids(self) -> Set[int]:
        return set(self.dup_map.values())

    def cold_blocks(self) -> Set[int]:
        """Blocks the linearizer should place out of the hot path."""
        cold = {bid for bid in self.dup_bids if bid in self.cfg.blocks}
        cold.update(
            bid for bid in self.aux_dup if bid in self.cfg.blocks
        )
        return cold

    def static_check_count(self) -> int:
        return sum(
            1
            for block in self.cfg.blocks.values()
            if isinstance(block.terminator, CheckBranch)
        )


def strip_ops(cfg: CFG, bids, ops) -> int:
    """Remove instructions with opcode in *ops* from the given blocks;
    returns how many were removed."""
    ops = set(ops)
    removed = 0
    for bid in bids:
        block = cfg.block(bid)
        kept = [ins for ins in block.instructions if ins.op not in ops]
        removed += len(block.instructions) - len(kept)
        block.instructions = kept
    return removed


def full_duplicate(
    cfg: CFG,
    yieldpoint_opt: bool = False,
    sample_iterations: int = 1,
) -> DuplicationResult:
    """Apply Full-Duplication to an instrumented CFG, in place.

    ``sample_iterations=N`` enables the paper's §2 *counted backedge*
    refinement: a fired sample profiles N consecutive loop iterations
    before control returns to the checking code, which is how
    instrumentation that observes inter-iteration behaviour is sampled
    meaningfully. N=1 is the paper's base design.
    """
    if sample_iterations < 1:
        raise TransformError("sample_iterations must be >= 1")
    cfg.remove_unreachable()
    original_bids = sorted(cfg.blocks)
    # Dedupe: a conditional with both arms on the loop header yields the
    # same (src, header) pair twice but is a single splittable edge.
    back = list(dict.fromkeys(sampling_backedges(cfg)))

    dup_map = cfg.clone_subgraph(original_bids)

    # The checking code loses its instrumentation (and, under the
    # Jalapeño-specific optimization, its yieldpoints).
    to_strip = [Op.INSTR, Op.GUARDED_INSTR]
    if yieldpoint_opt:
        to_strip.append(Op.YIELDPOINT)
    strip_ops(cfg, original_bids, to_strip)

    # Checking-code backedges get a check: split the edge and test the
    # sample condition; taken -> the duplicate of the header.
    trampolines: List[int] = []
    trampoline_of: Dict[Tuple[int, int], int] = {}
    for src, header in back:
        trampoline = cfg.split_edge(src, header)
        trampoline.terminator = CheckBranch(dup_map[header], header)
        trampolines.append(trampoline.bid)
        trampoline_of[(src, header)] = trampoline.bid

    # Duplicated-code backedges return to the checking code *at the
    # check* guarding the corresponding backedge: only a bounded amount
    # of execution happens per sample, and every backedge traversal —
    # whichever copy it runs in — passes exactly one check. This is
    # what makes interval 1 keep all execution in duplicated code (the
    # paper's perfect-profile configuration): the re-entered check
    # fires immediately and control bounces straight back into the
    # duplicated header.
    for src, header in back:
        dup_src = cfg.block(dup_map[src])
        dup_src.terminator.retarget(
            dup_map[header], trampoline_of[(src, header)]
        )

    # Method-entry check.
    checking_entry = cfg.entry
    entry_check = cfg.new_block(
        terminator=CheckBranch(dup_map[checking_entry], checking_entry)
    )
    cfg.entry = entry_check.bid

    extra_dup: List[int] = []
    if sample_iterations > 1:
        extra_dup = _add_counted_backedges(
            cfg, back, dup_map, trampoline_of, entry_check.bid,
            sample_iterations,
        )

    return DuplicationResult(
        cfg=cfg,
        dup_map=dup_map,
        backedges=back,
        trampolines=trampolines,
        entry_check=entry_check.bid,
        checking_entry=checking_entry,
        aux_dup=extra_dup,
        sample_iterations=sample_iterations,
    )


def _add_counted_backedges(
    cfg: CFG,
    back: List[Tuple[int, int]],
    dup_map: Dict[int, int],
    trampoline_of: Dict[Tuple[int, int], int],
    entry_check_bid: int,
    n: int,
) -> List[int]:
    """Rewire the duplicated code so each sample covers N iterations.

    A per-frame *burst counter* (a fresh local slot) is set to N-1 on
    every check-taken edge; each duplicated backedge then tests it —
    nonzero: decrement and loop back into the duplicated header (no
    check executed); zero: transfer to the checking-side trampoline as
    in the base design. Execution per sample stays bounded by N times
    the loop body, preserving the framework's bounded-progress
    guarantee as long as N is finite (the paper's §2 wording).
    """
    burst_slot = cfg.num_locals
    cfg.num_locals += 1
    new_blocks: List[int] = []

    # Reset the burst counter on every entry into duplicated code.
    check_bids = [entry_check_bid] + [trampoline_of[edge] for edge in back]
    for bid in check_bids:
        term = cfg.block(bid).terminator
        assert isinstance(term, CheckBranch)
        taken = term.taken
        reset = cfg.new_block(
            [
                Instruction(Op.PUSH, n - 1),
                Instruction(Op.STORE, burst_slot),
            ],
            Goto(taken),
        )
        term.retarget(taken, reset.bid)
        new_blocks.append(reset.bid)

    # Counted backedges inside the duplicated code.
    for src, header in back:
        dup_src = cfg.block(dup_map[src])
        trampoline = trampoline_of[(src, header)]
        decrement = cfg.new_block(
            [
                Instruction(Op.LOAD, burst_slot),
                Instruction(Op.PUSH, 1),
                Instruction(Op.SUB),
                Instruction(Op.STORE, burst_slot),
            ],
            Goto(dup_map[header]),
        )
        test = cfg.new_block(
            [Instruction(Op.LOAD, burst_slot)],
            CondBranch(Op.JZ, trampoline, decrement.bid),
        )
        dup_src.terminator.retarget(trampoline, test.bid)
        new_blocks.extend([test.bid, decrement.bid])
    return new_blocks


def dup_dag_edges(result: DuplicationResult) -> List[Tuple[int, int]]:
    """Edges internal to the duplicated code.

    After :func:`full_duplicate` these form a DAG (the paper's
    "duplicated code DAG"): backedges were redirected into checking
    code, so any cycle here would be a transform bug.
    """
    dup = result.dup_bids
    edges = [
        (src, dst)
        for src in sorted(dup)
        if src in result.cfg.blocks
        for dst in result.cfg.block(src).successors()
        if dst in dup
    ]
    _assert_acyclic(dup & set(result.cfg.blocks), edges)
    return edges


def _assert_acyclic(nodes: Set[int], edges: List[Tuple[int, int]]) -> None:
    succs: Dict[int, List[int]] = {bid: [] for bid in nodes}
    indegree: Dict[int, int] = {bid: 0 for bid in nodes}
    for src, dst in edges:
        succs[src].append(dst)
        indegree[dst] += 1
    ready = [bid for bid, deg in indegree.items() if deg == 0]
    visited = 0
    while ready:
        bid = ready.pop()
        visited += 1
        for dst in succs[bid]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    if visited != len(nodes):
        raise TransformError(
            "duplicated code contains a cycle — backedge redirection failed"
        )
