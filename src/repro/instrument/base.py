"""Instrumentation interface.

An :class:`Instrumentation` inserts ``INSTR`` instructions (each
carrying an :class:`InstrumentationAction`) into a function's CFG. That
is *exhaustive* instrumentation — exactly what a profiling author would
write without the sampling framework. The framework
(:mod:`repro.sampling`) then transforms the instrumented CFG so the
INSTR operations execute only during samples, **without the
instrumentation needing modification** — the paper's central usability
claim.

Actions are duck-typed by the VM: anything with an integer ``cost`` and
an ``execute(vm, frame)`` method works, so downstream users can write
new instrumentation kinds against this module only (see
``examples/custom_instrumentation.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import Op
from repro.cfg.graph import CFG
from repro.profiles.profile import Profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bytecode.program import Program
    from repro.vm.frame import Frame
    from repro.vm.interpreter import VM


class InstrumentationAction:
    """One instrumentation operation, executed by INSTR/GUARDED_INSTR.

    Subclasses set ``cost`` (simulated cycles per execution) and
    implement :meth:`execute`. Actions are shared between the checking
    and duplicated copies of a function, so they must be stateless
    except for the profile they record into.
    """

    cost: int = 1

    def execute(self, vm: "VM", frame: "Frame") -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class Instrumentation:
    """Base class for instrumentation kinds.

    Subclasses implement :meth:`instrument_cfg`, inserting INSTR
    instructions via the helpers below. Each instance owns the
    :class:`Profile` its actions record into; reuse an instance across
    runs only after calling :meth:`reset`.
    """

    #: human-readable kind name (used for profile and report labels)
    kind: str = "instrumentation"

    #: whether the actions carry state from one action to the next (a
    #: register kept in a guest local): guarded one at a time, as
    #: No-Duplication runs them, what a sample records then depends on
    #: the polls before it, so its cells cannot be derived from other
    #: cells (:mod:`repro.harness.derive`)
    stateful_actions: bool = False

    def __init__(self, name: Optional[str] = None):
        self.profile = Profile(name or self.kind)

    def reset(self) -> None:
        """Clear recorded profile data (between experiment runs)."""
        self.profile.clear()

    def instrument_cfg(self, cfg: CFG, program: "Program") -> None:
        """Insert INSTR instructions into *cfg* (exhaustively)."""
        raise NotImplementedError

    # -- insertion helpers -------------------------------------------------

    @staticmethod
    def insert_at_entry(cfg: CFG, action: InstrumentationAction) -> None:
        """Place an action at the very start of the function."""
        entry = cfg.entry_block()
        entry.instructions.insert(0, Instruction(Op.INSTR, action))

    @staticmethod
    def insert_before(
        cfg: CFG, bid: int, index: int, action: InstrumentationAction
    ) -> None:
        """Place an action immediately before instruction *index* of
        block *bid*."""
        cfg.block(bid).instructions.insert(index, Instruction(Op.INSTR, action))

    @staticmethod
    def insert_at_block_end(
        cfg: CFG, bid: int, action: InstrumentationAction
    ) -> None:
        """Place an action after every body instruction of *bid* (just
        before its terminator)."""
        cfg.block(bid).instructions.append(Instruction(Op.INSTR, action))

    @staticmethod
    def insert_on_edge(
        cfg: CFG, src: int, dst: int, action: InstrumentationAction
    ) -> int:
        """Split the edge ``src -> dst`` and place the action on it.

        Returns the id of the new edge block. Splitting happens *before*
        the sampling transform runs, so an action on a backedge ends up
        attached to the duplicated-to-checking transfer edge, exactly as
        §2's "instrumentation can be attached to the edge transferring
        control from the duplicated code to the checking code".
        """
        mid = cfg.split_edge(src, dst)
        mid.instructions.append(Instruction(Op.INSTR, action))
        return mid.bid


class EmptyInstrumentation(Instrumentation):
    """Inserts nothing.

    Used to measure pure framework overhead (the paper's Table 2 /
    Figure 8(A) configuration: code duplicated, checks inserted, "no
    instrumentation was inserted in the duplicated code").
    """

    kind = "none"

    def instrument_cfg(self, cfg: CFG, program: "Program") -> None:
        return None


class CombinedInstrumentation(Instrumentation):
    """Apply several instrumentation kinds in one pass.

    The paper highlights that multiple instrumentations can share one
    duplicated body and one set of checks ("recompiling the method only
    once"); combining at instrument time is how that is realized here.
    The combined profile is unused — read each part's own profile.
    """

    kind = "combined"

    def __init__(self, parts: Iterable[Instrumentation]):
        super().__init__()
        self.parts: List[Instrumentation] = list(parts)
        if not self.parts:
            raise ValueError("CombinedInstrumentation needs at least one part")

    def reset(self) -> None:
        for part in self.parts:
            part.reset()

    def instrument_cfg(self, cfg: CFG, program: "Program") -> None:
        for part in self.parts:
            part.instrument_cfg(cfg, program)


def count_instr_ops(cfg: CFG) -> int:
    """Static count of INSTR/GUARDED_INSTR operations in a CFG."""
    return sum(
        1
        for block in cfg.blocks.values()
        for ins in block.instructions
        if ins.op in (Op.INSTR, Op.GUARDED_INSTR)
    )
