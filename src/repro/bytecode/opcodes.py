"""The repro stack-machine instruction set.

The ISA is a small JVM-flavoured stack machine: operands live on a
per-frame operand stack, locals in numbered slots, objects on a heap keyed
by class, arrays as first-class references. Four *pseudo-ops* (``CHECK``,
``GUARDED_INSTR``, ``INSTR``, ``YIELDPOINT``) exist only so the sampling
framework and thread scheduler have explicit, costed instructions to
insert; a source compiler never emits ``CHECK``/``INSTR`` directly.

Opcodes are plain ``IntEnum`` members so the interpreter can dispatch on
small integers.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple


class Op(enum.IntEnum):
    """Every opcode understood by the verifier, linearizer and VM."""

    # -- constants / stack shuffling ------------------------------------
    PUSH = enum.auto()      # arg: int constant         [] -> [v]
    POP = enum.auto()       #                           [v] -> []
    DUP = enum.auto()       #                           [v] -> [v, v]
    SWAP = enum.auto()      #                           [a, b] -> [b, a]

    # -- locals ----------------------------------------------------------
    LOAD = enum.auto()      # arg: slot                 [] -> [v]
    STORE = enum.auto()     # arg: slot                 [v] -> []

    # -- integer arithmetic (two operands popped, result pushed) ---------
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()       # traps on divide-by-zero
    MOD = enum.auto()       # traps on divide-by-zero
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()

    # -- unary -----------------------------------------------------------
    NEG = enum.auto()       #                           [v] -> [-v]
    NOT = enum.auto()       # logical not               [v] -> [v == 0]

    # -- comparisons (push 1 or 0) ----------------------------------------
    LT = enum.auto()
    LE = enum.auto()
    GT = enum.auto()
    GE = enum.auto()
    EQ = enum.auto()
    NE = enum.auto()

    # -- control flow ------------------------------------------------------
    JUMP = enum.auto()      # arg: target pc / Label
    JZ = enum.auto()        # arg: target; pops v, jumps if v == 0
    JNZ = enum.auto()       # arg: target; pops v, jumps if v != 0
    CALL = enum.auto()      # arg: function name; pops argc args, pushes result
    RETURN = enum.auto()    # pops return value, leaves frame
    HALT = enum.auto()      # stops the current thread

    # -- objects -----------------------------------------------------------
    NEW = enum.auto()       # arg: class name           [] -> [ref]
    GETFIELD = enum.auto()  # arg: (class, field)       [ref] -> [v]
    PUTFIELD = enum.auto()  # arg: (class, field)       [ref, v] -> []

    # -- arrays --------------------------------------------------------------
    NEWARRAY = enum.auto()  #                           [len] -> [ref]
    ALOAD = enum.auto()     #                           [ref, idx] -> [v]
    ASTORE = enum.auto()    #                           [ref, idx, v] -> []
    ALEN = enum.auto()      #                           [ref] -> [len]

    # -- environment -----------------------------------------------------------
    PRINT = enum.auto()     # pops v, appends to the VM output log
    IO = enum.auto()        # arg: latency class; pushes a pseudo-input int
    SPAWN = enum.auto()     # arg: function name; pops argc args, starts thread
    NOP = enum.auto()

    # -- framework pseudo-ops ----------------------------------------------
    YIELDPOINT = enum.auto()      # thread-scheduler poll point
    CHECK = enum.auto()           # arg: target; maybe-jump on sample trigger
    INSTR = enum.auto()           # arg: InstrumentationAction; always runs it
    GUARDED_INSTR = enum.auto()   # arg: action; runs it only on sample trigger

    # -- dynamic code / exceptions (appended: opcode numbers are stable) ----
    LOADFN = enum.auto()     # arg: loadable name        [] -> [loaded?]
    REPLACEFN = enum.auto()  # arg: (target, template)   [] -> [replaced?]
    OSRPOINT = enum.auto()   # arg: osr id; frame remap point    [] -> []
    TRY = enum.auto()        # arg: handler target; pushes a handler record
    ENDTRY = enum.auto()     # pops the innermost handler record
    THROW = enum.auto()      # pops v, unwinds to the innermost handler


#: Opcodes whose ``arg`` is a branch target (a ``Label`` before
#: linearization, an absolute pc afterwards). TRY's target is its
#: handler entry: never *jumped* to directly, but resolved, retargeted
#: and relocated exactly like a branch target.
BRANCH_OPS: FrozenSet[Op] = frozenset(
    {Op.JUMP, Op.JZ, Op.JNZ, Op.CHECK, Op.TRY}
)

#: Branches that fall through when not taken (everything but JUMP).
CONDITIONAL_BRANCH_OPS: FrozenSet[Op] = frozenset({Op.JZ, Op.JNZ, Op.CHECK})

#: Opcodes that terminate a basic block.
BLOCK_TERMINATORS: FrozenSet[Op] = frozenset(
    {Op.JUMP, Op.JZ, Op.JNZ, Op.RETURN, Op.HALT, Op.CHECK, Op.TRY, Op.THROW}
)

#: Opcodes that never fall through to the next instruction.
UNCONDITIONAL_EXITS: FrozenSet[Op] = frozenset(
    {Op.JUMP, Op.RETURN, Op.HALT, Op.THROW}
)

#: Opcodes that reference a function by name in ``arg``.
FUNCTION_REF_OPS: FrozenSet[Op] = frozenset({Op.CALL, Op.SPAWN})

#: Opcodes that load or replace guest code at runtime. A program
#: containing any of these has an *open* function table: engines must
#: resolve callees by name and compile lazily (see docs/VM_PERF.md).
DYNAMIC_CODE_OPS: FrozenSet[Op] = frozenset(
    {Op.LOADFN, Op.REPLACEFN, Op.OSRPOINT}
)

#: Guest exception-handling opcodes.
EXCEPTION_OPS: FrozenSet[Op] = frozenset({Op.TRY, Op.ENDTRY, Op.THROW})

#: Opcodes that reference ``(class, field)`` in ``arg``.
FIELD_REF_OPS: FrozenSet[Op] = frozenset({Op.GETFIELD, Op.PUTFIELD})

#: Framework pseudo-ops (inserted by transforms, not by source compilers).
PSEUDO_OPS: FrozenSet[Op] = frozenset(
    {Op.YIELDPOINT, Op.CHECK, Op.INSTR, Op.GUARDED_INSTR}
)

_BINARY_OPS: FrozenSet[Op] = frozenset(
    {
        Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
        Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
        Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE,
    }
)

#: ``(pops, pushes)`` for every opcode with a fixed stack effect.
#: CALL/SPAWN/RETURN are data-dependent and handled specially by the
#: verifier (their pop count depends on the callee's arity).
STACK_EFFECTS: Dict[Op, Tuple[int, int]] = {
    Op.PUSH: (0, 1),
    Op.POP: (1, 0),
    Op.DUP: (1, 2),
    Op.SWAP: (2, 2),
    Op.LOAD: (0, 1),
    Op.STORE: (1, 0),
    Op.NEG: (1, 1),
    Op.NOT: (1, 1),
    Op.JUMP: (0, 0),
    Op.JZ: (1, 0),
    Op.JNZ: (1, 0),
    Op.HALT: (0, 0),
    Op.NEW: (0, 1),
    Op.GETFIELD: (1, 1),
    Op.PUTFIELD: (2, 0),
    Op.NEWARRAY: (1, 1),
    Op.ALOAD: (2, 1),
    Op.ASTORE: (3, 0),
    Op.ALEN: (1, 1),
    Op.PRINT: (1, 0),
    Op.IO: (0, 1),
    Op.NOP: (0, 0),
    Op.YIELDPOINT: (0, 0),
    Op.CHECK: (0, 0),
    Op.INSTR: (0, 0),
    Op.GUARDED_INSTR: (0, 0),
    Op.LOADFN: (0, 1),
    Op.REPLACEFN: (0, 1),
    Op.OSRPOINT: (0, 0),
    Op.TRY: (0, 0),
    Op.ENDTRY: (0, 0),
    Op.THROW: (1, 0),
}
STACK_EFFECTS.update({op: (2, 1) for op in _BINARY_OPS})


def stack_effect(op: Op) -> Tuple[int, int]:
    """Return ``(pops, pushes)`` for *op*.

    Raises ``KeyError`` for CALL/SPAWN/RETURN, whose effect depends on the
    callee; the verifier computes those from the program.
    """
    return STACK_EFFECTS[op]


def is_binary(op: Op) -> bool:
    """True if *op* pops two integers and pushes one."""
    return op in _BINARY_OPS
