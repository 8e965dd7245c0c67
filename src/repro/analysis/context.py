"""Shared static facts about one transformed function.

Every auditor rule and the cost-bound analysis read the same
:class:`AuditContext`: the decoded CFG, the checking/duplicated-code
partition, the *checking projection* (the CFG with every check edge
forced to its not-taken side), and the classification of each check as
entry-, backedge-, or residual-placed.

Two facts about CFGs decoded from linear bytecode make the analysis
exact rather than heuristic:

* ``CFG.from_function`` assigns block ids in ascending pc order, so
  "``dst <= src``" on block ids is precisely the VM's notion of a
  *backward jump* (the runtime counter Property 1 charges against).
* ``CHECK`` lowers to ``CHECK taken_pc`` followed by the fallthrough
  continuation, so a check's not-taken path is the block chain that
  physically follows it.

The classification mirrors the paper's charging argument (§2): a check
is *entry-chargeable* when it is the function's entry block (each
execution is paid for by a counted CALL/SPAWN), and *backedge-chargeable*
when its not-taken continuation transfers backward before executing
anything else (each not-taken execution is paid for by a counted
backward jump; a taken execution is paid for by ``checks_taken``).
Checks that are neither — Partial-Duplication's re-entry checks from
removed top-nodes — are *residual*; they stay within the Full-
Duplication bound by the paper's §3.1 argument (the removed→kept
boundary is crossed at most once per entry or iteration).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bytecode.function import Function
from repro.cfg.basic_block import BasicBlock, CheckBranch, Goto
from repro.cfg.graph import CFG
from repro.cfg.loops import NaturalLoop, natural_loops, sampling_backedges

#: Strategy note values (mirrors ``Strategy.value`` without importing
#: :mod:`repro.sampling`, keeping the analysis layer free of it).
EXHAUSTIVE = "exhaustive"
FULL_DUPLICATION = "full-duplication"
PARTIAL_DUPLICATION = "partial-duplication"
NO_DUPLICATION = "no-duplication"
CHECKS_ONLY_ENTRY = "checks-only-entry"
CHECKS_ONLY_BACKEDGE = "checks-only-backedge"

#: Strategies whose output carries CHECK-based sampling structure.
CHECKED_STRATEGIES = frozenset(
    {
        FULL_DUPLICATION,
        PARTIAL_DUPLICATION,
        CHECKS_ONLY_ENTRY,
        CHECKS_ONLY_BACKEDGE,
    }
)

#: Strategies that duplicate code (and must keep the duplicate acyclic).
DUPLICATING_STRATEGIES = frozenset({FULL_DUPLICATION, PARTIAL_DUPLICATION})


def checking_projection(cfg: CFG) -> CFG:
    """The CFG with every :class:`CheckBranch` forced not-taken.

    Blocks keep their ids and share instruction lists with *cfg* (the
    projection is read-only); every check terminator becomes
    ``Goto(fallthrough)``. Reachability in the projection *is* the
    checking code: the blocks execution can touch when no sample ever
    fires.
    """
    proj = CFG(cfg.name, cfg.num_params, cfg.num_locals)
    for bid, block in cfg.blocks.items():
        term = block.terminator
        if isinstance(term, CheckBranch):
            new_term = Goto(term.fallthrough)
        else:
            new_term = term.copy()
        proj.blocks[bid] = BasicBlock(bid, block.instructions, new_term)
    proj.entry = cfg.entry
    proj._next_bid = cfg._next_bid
    return proj


class CheckKind:
    ENTRY = "entry"
    BACKEDGE = "backedge"
    RESIDUAL = "residual"


class AuditContext:
    """Lazily computed static facts for one function under audit."""

    def __init__(self, fn: Function, strategy: Optional[str] = None):
        self.fn = fn
        self.strategy: str = (
            strategy
            if strategy is not None
            else str(fn.notes.get("sampling", EXHAUSTIVE))
        )
        self.sample_iterations = int(fn.notes.get("sample_iterations", 1))
        self._cfg: Optional[CFG] = None
        self._proj: Optional[CFG] = None
        self._checking: Optional[FrozenSet[int]] = None
        self._reachable: Optional[FrozenSet[int]] = None
        self._preds: Optional[Dict[int, List[int]]] = None
        self._classification: Optional[Dict[int, str]] = None
        self._charged_edges: Optional[Dict[int, Tuple[int, int]]] = None
        self._chain_edges: Optional[Dict[int, List[Tuple[int, int]]]] = None
        self._proj_loops: Optional[List[NaturalLoop]] = None
        self._proj_backedges: Optional[List[Tuple[int, int]]] = None

    # -- graphs ----------------------------------------------------------

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = CFG.from_function(self.fn)
        return self._cfg

    @property
    def projection(self) -> CFG:
        if self._proj is None:
            self._proj = checking_projection(self.cfg)
        return self._proj

    @property
    def reachable(self) -> FrozenSet[int]:
        if self._reachable is None:
            self._reachable = frozenset(self.cfg.reachable())
        return self._reachable

    @property
    def checking(self) -> FrozenSet[int]:
        """Checking-code block ids (projection reachability)."""
        if self._checking is None:
            self._checking = frozenset(self.projection.reachable())
        return self._checking

    @property
    def duplicated(self) -> FrozenSet[int]:
        """Duplicated-code block ids (reachable but not checking)."""
        return self.reachable - self.checking

    @property
    def predecessors(self) -> Dict[int, List[int]]:
        if self._preds is None:
            self._preds = self.cfg.predecessors_map()
        return self._preds

    # -- checks ----------------------------------------------------------

    @property
    def check_bids(self) -> List[int]:
        """Reachable blocks ending in a check, ascending."""
        return [
            bid
            for bid in sorted(self.reachable)
            if isinstance(self.cfg.block(bid).terminator, CheckBranch)
        ]

    @property
    def checking_check_bids(self) -> List[int]:
        """Checks that sit inside the checking code."""
        return [bid for bid in self.check_bids if bid in self.checking]

    @property
    def classification(self) -> Dict[int, str]:
        """Check block id -> :class:`CheckKind` constant."""
        if self._classification is None:
            self._classify()
        return self._classification

    @property
    def charged_edges(self) -> Dict[int, Tuple[int, int]]:
        """Backedge-chargeable check -> the backward edge that pays it."""
        if self._charged_edges is None:
            self._classify()
        return self._charged_edges

    def _classify(self) -> None:
        classification: Dict[int, str] = {}
        charged: Dict[int, Tuple[int, int]] = {}
        for bid in self.check_bids:
            block = self.cfg.block(bid)
            if (
                bid == self.cfg.entry
                and not block.instructions
                and not self.predecessors.get(bid)
            ):
                classification[bid] = CheckKind.ENTRY
                continue
            edge = self._backward_continuation(bid)
            if edge is not None:
                classification[bid] = CheckKind.BACKEDGE
                charged[bid] = edge
            else:
                classification[bid] = CheckKind.RESIDUAL
        self._classification = classification
        self._charged_edges = charged

    def _backward_continuation(
        self, check_bid: int
    ) -> Optional[Tuple[int, int]]:
        """The first backward (pc-decreasing) hop on the check's
        not-taken continuation, provided nothing executes before it.

        Follows the fallthrough through empty ``Goto`` blocks; returns
        the backward edge ``(src, dst)`` or None if the continuation
        runs an instruction, branches, or only moves forward. When this
        returns an edge, every not-taken execution of the check is
        immediately followed by a counted backward jump.
        """
        prev = check_bid
        cur = self.cfg.block(check_bid).terminator.fallthrough
        seen: Set[int] = set()
        while True:
            if cur <= prev:
                return (prev, cur)
            if cur in seen:
                return None
            seen.add(cur)
            block = self.cfg.block(cur)
            if block.instructions or not isinstance(block.terminator, Goto):
                return None
            prev, cur = cur, block.terminator.target

    @property
    def check_chain_edges(self) -> Dict[int, List[Tuple[int, int]]]:
        """Check block id -> every edge on its not-taken free chain.

        The chain is the maximal run of empty ``Goto`` blocks the
        not-taken continuation traverses without executing anything
        (the same walk :meth:`_backward_continuation` charges from,
        but continued past the first backward hop). A backedge whose
        edge appears on some check's chain is guarded: the check fires
        on every traversal of that edge.
        """
        if self._chain_edges is None:
            chains: Dict[int, List[Tuple[int, int]]] = {}
            for bid in self.check_bids:
                edges: List[Tuple[int, int]] = []
                prev = bid
                cur = self.cfg.block(bid).terminator.fallthrough
                seen: Set[int] = set()
                while True:
                    edges.append((prev, cur))
                    if cur in seen:
                        break
                    seen.add(cur)
                    block = self.cfg.block(cur)
                    if block.instructions or not isinstance(
                        block.terminator, Goto
                    ):
                        break
                    prev, cur = cur, block.terminator.target
                chains[bid] = edges
            self._chain_edges = chains
        return self._chain_edges

    # -- projection structure --------------------------------------------

    @property
    def projection_backward_edges(self) -> List[Tuple[int, int]]:
        """Backward (pc-order retreating) edges of the checking code.

        ``dst <= src`` on block ids is exactly the VM's backward-jump
        accounting, so these are the edges whose traversals Property 1
        counts as backedge opportunities. A superset of
        :attr:`projection_sampling_backedges`: the linearizer also lays
        loop-free forward control flow (shared ``||`` arms, merged
        continues) at retreating pcs, and those traversals *add*
        opportunities without requiring checks.
        """
        proj = self.projection
        return sorted(
            (src, dst)
            for src in self.checking
            for dst in proj.block(src).successors()
            if dst <= src
        )

    @property
    def projection_sampling_backedges(self) -> List[Tuple[int, int]]:
        """Loop backedges of the checking code — the edges the strategy
        promises to guard (natural-loop backedges plus irreducible
        retreating edges, the same notion the transforms place
        trampolines on)."""
        if self._proj_backedges is None:
            self._proj_backedges = sampling_backedges(self.projection)
        return self._proj_backedges

    @property
    def projection_loops(self) -> List[NaturalLoop]:
        if self._proj_loops is None:
            self._proj_loops = natural_loops(self.projection)
        return self._proj_loops

    # -- instrumentation --------------------------------------------------

    def instrumented_checking_blocks(self) -> List[int]:
        return [
            bid
            for bid in sorted(self.checking)
            if self.cfg.block(bid).has_instrumentation()
        ]
