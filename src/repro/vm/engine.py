"""Segment-threaded fast execution engine.

A second VM engine that pre-compiles each verified :class:`Function`
into a direct-threaded list of Python callables — one per *segment* of
instructions — and dispatches with ``i = handlers[i](stack, locals_)``
instead of the reference interpreter's per-step opcode ladder.  Three
load-time optimizations carry the speedup:

1. **Whole-segment superinstructions.**  Every segment of plain ops —
   single-op segments included — is compiled into ONE generated Python
   function (:func:`_gen_segment_src`): the operand stack is simulated
   at compile time, so ``LOAD x; LOAD y; ADD; STORE z`` becomes
   ``locals_[z] = locals_[x] + locals_[y]`` — intermediate values never
   touch the stack list, comparisons feed branches directly, and CALL
   builds the callee's argument list from expressions.  The plain ops
   are spelled once, by :func:`_plain_emitter`, which the compiled tier
   (:mod:`repro.vm.compiler`) shares.  Only the breakers below get a
   hand-written closure each.

2. **Segment-level cycle accounting.**  Static instruction/cycle costs
   are charged once at *segment* entry instead of per instruction.  A
   segment is a run of instructions guaranteed to execute atomically
   with no externally observable cycle boundary inside it; every op
   whose behaviour *observes* the cycle counter — CHECK and
   GUARDED_INSTR (trigger polls), YIELDPOINT (threadswitch bit), IO
   (latency charge), NEW/NEWARRAY (GC-pause attribution), INSTR and
   SPAWN — sits alone in its own segment, and calls/returns/branches
   end segments.  Cumulative cycles at every observation point are
   therefore *identical* to the reference interpreter's, which keeps
   virtual-timer tick placement, trigger firings, thread switches and
   GC pauses bit-exact (ticks are a monotone function of cumulative
   cycles, and only observer ops can see them).

3. **Monomorphic inline caches.**  Every GETFIELD/PUTFIELD site caches
   the last receiver class and resolved slot index in a cell, skipping
   the ``Klass.slot_of`` dict lookup on the (overwhelmingly common)
   monomorphic hit path.

The engine produces bit-identical ``ExecStats``, cycles, output and
profiles to :mod:`repro.vm.interpreter` on every run that completes.
The two documented divergences are *abnormal* exits only: on a VMTrap
or fuel exhaustion the fast engine's ``stats.cycles``/``instructions``
may overshoot by up to one segment (costs were pre-charged at segment
entry), and the fuel check fires at segment granularity (every loop
passes a segment head, so runaway programs still trip it).  Trap
messages, functions and pcs are identical.

Engine selection: ``VM(engine="fast"|"reference"|"compiled")``, the
CLI ``--engine`` flag, or the ``REPRO_ENGINE`` environment variable;
the process-wide default is "fast".  The "compiled" tier
(:mod:`repro.vm.compiler`) subclasses this engine and lowers whole
functions into single generated Python regions.  See docs/VM_PERF.md.
"""

from __future__ import annotations

import builtins
import os
from hashlib import blake2b
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional

from repro.bytecode.function import Function
from repro.bytecode.opcodes import Op
from repro.errors import (
    BytecodeError,
    FuelExhaustedError,
    ReproError,
    StackOverflowError,
    VerificationError,
    VMTrap,
)
from repro.vm.frame import Frame
from repro.vm.values import RArray, RObject

#: Environment variable consulted when no engine is passed explicitly.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid engine names.
ENGINES = ("fast", "reference", "compiled")

#: Process-wide default when neither argument nor environment chooses.
DEFAULT_ENGINE = "fast"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine name: explicit argument > $REPRO_ENGINE > default."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ReproError(
            f"unknown engine {engine!r}: expected one of {', '.join(ENGINES)}"
        )
    return engine


# --------------------------------------------------------------------------
# opcode ints (module-local copies; the enum lookups stay out of hot paths)

_PUSH = int(Op.PUSH)
_POP = int(Op.POP)
_DUP = int(Op.DUP)
_SWAP = int(Op.SWAP)
_LOAD = int(Op.LOAD)
_STORE = int(Op.STORE)
_ADD = int(Op.ADD)
_SUB = int(Op.SUB)
_MUL = int(Op.MUL)
_DIV = int(Op.DIV)
_MOD = int(Op.MOD)
_AND = int(Op.AND)
_OR = int(Op.OR)
_XOR = int(Op.XOR)
_SHL = int(Op.SHL)
_SHR = int(Op.SHR)
_NEG = int(Op.NEG)
_NOT = int(Op.NOT)
_LT = int(Op.LT)
_LE = int(Op.LE)
_GT = int(Op.GT)
_GE = int(Op.GE)
_EQ = int(Op.EQ)
_NE = int(Op.NE)
_JUMP = int(Op.JUMP)
_JZ = int(Op.JZ)
_JNZ = int(Op.JNZ)
_CALL = int(Op.CALL)
_RETURN = int(Op.RETURN)
_HALT = int(Op.HALT)
_NEW = int(Op.NEW)
_GETFIELD = int(Op.GETFIELD)
_PUTFIELD = int(Op.PUTFIELD)
_NEWARRAY = int(Op.NEWARRAY)
_ALOAD = int(Op.ALOAD)
_ASTORE = int(Op.ASTORE)
_ALEN = int(Op.ALEN)
_PRINT = int(Op.PRINT)
_IO = int(Op.IO)
_SPAWN = int(Op.SPAWN)
_NOP = int(Op.NOP)
_YIELDPOINT = int(Op.YIELDPOINT)
_CHECK = int(Op.CHECK)
_INSTR = int(Op.INSTR)
_GUARDED_INSTR = int(Op.GUARDED_INSTR)
_LOADFN = int(Op.LOADFN)
_REPLACEFN = int(Op.REPLACEFN)
_OSRPOINT = int(Op.OSRPOINT)
_TRY = int(Op.TRY)
_ENDTRY = int(Op.ENDTRY)
_THROW = int(Op.THROW)

#: Ops that must sit alone in their own segment because they observe or
#: perturb the cycle counter / scheduler / heap clock mid-stream.  The
#: dynamic-code and exception ops join the set: LOADFN/REPLACEFN mutate
#: the function table, OSRPOINT can remap the running frame, THROW can
#: unwind it, and TRY/ENDTRY touch the handler stack that THROW reads —
#: singleton segments keep every such transition on a dispatch boundary
#: with reference-identical cycle accounting.
_BREAKERS = frozenset(
    {
        _CHECK,
        _GUARDED_INSTR,
        _INSTR,
        _YIELDPOINT,
        _IO,
        _NEW,
        _NEWARRAY,
        _SPAWN,
        _LOADFN,
        _REPLACEFN,
        _OSRPOINT,
        _TRY,
        _ENDTRY,
        _THROW,
    }
)

#: Ops that end a segment (control leaves the straight line after them).
_TERMINATORS = frozenset({_JUMP, _JZ, _JNZ, _CALL, _RETURN, _HALT})

#: Ops whose ``arg`` is a branch-target pc after linearization.  TRY's
#: arg is its handler pc: the handler must start a segment so THROW can
#: land on a handler-list slot.
_BRANCHES = frozenset({_JUMP, _JZ, _JNZ, _CHECK, _TRY})

# Dispatch sentinels returned by handlers instead of a handler index.
_REBIND = -2   # frame stack changed (call/return): rebind and continue
_DONE = -3     # thread finished
_YIELD = -5    # thread yielded to the scheduler


# --------------------------------------------------------------------------
# whole-segment source compilation
#
# Every segment that is not a breaker is emitted as ONE generated Python
# function, simulating the operand stack at compile time so intermediate
# values become Python expressions/locals instead of list pushes and
# pops.  The generated function charges the segment's static cost in its
# prologue and ends in the terminator's control transfer, so the
# accounting model — and therefore every observable stat — matches the
# reference.
#
# A segment's source is position-independent: every value that depends
# on where the segment sits (pcs, handler slots, costs, per-pc globals)
# is a placeholder (see ``_Lift``).  Each distinct source is compiled
# once per process into a *template*; each segment is an instance of its
# template with the placeholders replaced in ``co_consts``/``co_names``,
# so positional values stay ``LOAD_CONST`` operands.  Instances belong to
# their engine's handler lists and die with it.

_CMP_SYM = {_LT: "<", _LE: "<=", _GT: ">", _GE: ">=", _EQ: "==", _NE: "!="}
_CMP_NSYM = {_LT: ">=", _LE: ">", _GT: "<=", _GE: "<", _EQ: "!=", _NE: "=="}
_ARITH_SYM = {_ADD: "+", _SUB: "-", _MUL: "*", _AND: "&", _OR: "|",
              _XOR: "^"}

#: Guest constants of exactly these types are spelled as literals in a
#: segment; any other PUSH operand is bound by name.  Constant folding
#: over them never yields a complex number, so the complex constants of
#: a segment template are exactly its placeholders.
_LITERAL_TYPES = frozenset({int, bool, str})

#: source digest -> ``(code, const slots, name slots)`` segment template
#: (process-wide: every segment of one shape, in any function of any
#: program, is an instance of one template).
_CODE_CACHE: Dict[bytes, tuple] = {}


def _digest(src: str) -> bytes:
    """The 16-byte cache key of a generated source: no source text
    outlives its compilation."""
    return blake2b(src.encode(), digest_size=16).digest()


def _code(src: str, filename: str, cache: Dict[bytes, object]):
    """The code object of *src*, compiled at most once per process and
    cached in *cache* under its digest (compiled-tier regions and
    leaves, whose sources spell their positions literally)."""
    key = _digest(src)
    co = cache.get(key)
    if co is None:
        co = cache[key] = compile(src, filename, "exec")
    return co


class _Lift:
    """The positional values of one fast-tier segment, lifted out of its
    source.  ``const`` spells the k-th value as the placeholder ``{k}j``
    (no other complex constant can reach a segment, see
    ``_LITERAL_TYPES``); ``name`` spells the per-pc global
    ``{prefix}{pc}`` as the template name ``{prefix}_{k}``."""

    __slots__ = ("consts", "names")

    def __init__(self):
        self.consts: List[object] = []
        #: template name -> the per-pc global it stands for
        self.names: Dict[str, str] = {}

    def const(self, value) -> str:
        self.consts.append(value)
        return f"{len(self.consts)}j"

    def name(self, prefix: str, pc: int) -> str:
        tname = f"{prefix}_{len(self.names)}"
        self.names[tname] = f"{prefix}{pc}"
        return tname

    def instance(self, src: str) -> CodeType:
        """The code of the segment whose source is *src*: its template,
        compiled at most once per process, with the lifted values in
        place of the placeholders."""
        key = _digest(src)
        entry = _CODE_CACHE.get(key)
        if entry is None:
            module = compile(src, "<segment>", "exec")
            co = next(c for c in module.co_consts if type(c) is CodeType)
            consts = []
            for i, c in enumerate(co.co_consts):
                if type(c) is complex:
                    k = int(c.imag)
                    if c != complex(0, k) or not 1 <= k <= len(self.consts):
                        raise AssertionError(
                            f"segment constant {c!r} is not a placeholder"
                        )
                    consts.append((i, k - 1))
            names = tuple(
                (i, n) for i, n in enumerate(co.co_names) if n in self.names
            )
            entry = _CODE_CACHE[key] = (co, tuple(consts), names)
        co, const_slots, name_slots = entry
        consts = list(co.co_consts)
        for i, k in const_slots:
            consts[i] = self.consts[k]
        if not name_slots:
            return co.replace(co_consts=tuple(consts))
        names = list(co.co_names)
        for i, tname in name_slots:
            names[i] = self.names[tname]
        return co.replace(co_consts=tuple(consts), co_names=tuple(names))


def _profile_src(component, fn_name, pc, op, frames):
    """Source lines of one profiler boundary, shared by fast-tier
    segments and compiled-tier regions: the paper's compiled-in check
    (decrement the counter, compare, branch), with the sample itself
    out of line in ``OverheadProfiler.sample``.  *pc* and *op* are
    spelled by the caller (a segment lifts them); *frames* is the
    expression of the live frame list."""
    return [
        "_prof.countdown -= 1",
        "if _prof.countdown <= 0:",
        f"    _prof.sample({component!r}, {fn_name!r}, {pc}, {op},"
        f" {frames}, _eng.thread.tid)",
    ]


def _count_src(ops, s, e):
    """Source lines bumping the opcode counts of segment ``[s, e)``
    once, so fused code still reports exact per-opcode counts."""
    counts: Dict[int, int] = {}
    for p in range(s, e):
        counts[ops[p]] = counts.get(ops[p], 0) + 1
    return [
        f"_oc[{o}] = _oc.get({o}, 0) + {k}" for o, k in sorted(counts.items())
    ]


class _VEntry:
    """One compile-time operand-stack entry: a pure Python expression,
    the locals slots it reads (for STORE invalidation), whether it is
    atomic (re-usable without a temp), and — when it is a comparison —
    the operands, so a following JZ/JNZ can branch on the comparison
    directly instead of materializing 1/0."""

    __slots__ = ("expr", "slots", "atom", "cmp")

    def __init__(self, expr, slots=frozenset(), atom=False, cmp=None):
        self.expr = expr
        self.slots = slots
        self.atom = atom
        self.cmp = cmp


def _plain_emitter(fn_name, local, extras, vstack, vpop, atomize,
                   invalidate, newtmp, emit, trap, lift=None):
    """Return ``plain(op, arg, p) -> bool``: the stack-simulating
    spelling of every plain op, shared by fast-tier segments and
    compiled-tier regions and leaves.

    The caller owns the compile-time stack (``vstack`` and its
    ``vpop``/``atomize``/``invalidate``/``newtmp`` helpers) and the
    output (``emit(line)``).  The tier-specific parts are passed in:
    ``local``, the format of a guest local slot (``"locals_[{}]"`` in a
    segment, ``"l{}"`` in a region); ``trap(raise_line)``, which emits a
    trap raise one indent deeper than ``emit`` (bare in a segment; after
    sync, write-back and spill in a region); and ``lift``, a segment's
    :class:`_Lift`, which spells trap pcs and per-pc globals as
    placeholders (None: literally, as regions do).  Inline cache cells
    are registered in ``extras`` as ``("cell",)`` specs.  ``plain``
    emits nothing and returns False for any other op.
    """
    if lift is None:
        def pos(p):
            return p

        def glob(prefix, p):
            return f"{prefix}{p}"
    else:
        pos = lift.const
        glob = lift.name

    def plain(op, arg, p):
        if op == _LOAD:
            vstack.append(
                _VEntry(local.format(arg), frozenset((arg,)), atom=True)
            )
        elif op == _PUSH:
            if lift is None or type(arg) in _LITERAL_TYPES:
                # Parenthesized so attribute access parses:
                # ``(1).__class__``.
                vstack.append(_VEntry(f"({arg!r})", atom=True))
            else:
                extras[f"_k{p}"] = ("arg", p)
                vstack.append(_VEntry(glob("_k", p), atom=True))
        elif op == _STORE:
            ent = vpop()
            invalidate(arg)
            emit(f"{local.format(arg)} = {ent.expr}")
        elif op in _ARITH_SYM:
            b = vpop()
            a = vpop()
            vstack.append(
                _VEntry(
                    f"({a.expr} {_ARITH_SYM[op]} {b.expr})",
                    a.slots | b.slots,
                )
            )
        elif op in _CMP_SYM:
            b = vpop()
            a = vpop()
            vstack.append(
                _VEntry(
                    f"(1 if {a.expr} {_CMP_SYM[op]} {b.expr} else 0)",
                    a.slots | b.slots,
                    cmp=(op, a.expr, b.expr),
                )
            )
        elif op == _SHL or op == _SHR:
            b = vpop()
            a = vpop()
            sym = "<<" if op == _SHL else ">>"
            vstack.append(
                _VEntry(
                    f"({a.expr} {sym} ({b.expr} & 63))",
                    a.slots | b.slots,
                )
            )
        elif op == _DIV or op == _MOD:
            b = atomize(vpop())
            msg = "division by zero" if op == _DIV else "modulo by zero"
            emit(f"if {b.expr} == 0:")
            trap(f"raise _VMTrap({msg!r}, {fn_name!r}, {pos(p)})")
            a = vpop()
            sym = "//" if op == _DIV else "%"
            vstack.append(
                _VEntry(f"({a.expr} {sym} {b.expr})", a.slots | b.slots)
            )
        elif op == _NEG:
            a = vpop()
            vstack.append(_VEntry(f"(-{a.expr})", a.slots))
        elif op == _NOT:
            a = vpop()
            vstack.append(_VEntry(f"(1 if {a.expr} == 0 else 0)", a.slots))
        elif op == _DUP:
            ent = atomize(vpop())
            vstack.append(ent)
            vstack.append(_VEntry(ent.expr, ent.slots, atom=True))
        elif op == _POP:
            vpop()
        elif op == _SWAP:
            x1 = vpop()
            x2 = vpop()
            vstack.append(x1)
            vstack.append(x2)
        elif op == _NOP:
            pass
        elif op == _GETFIELD:
            extras[f"_c{p}"] = ("cell",)
            cell = glob("_c", p)
            r = atomize(vpop())
            t = newtmp()
            emit(f"if {r.expr}.__class__ is _RObject:")
            emit(f"    _k = {r.expr}.klass")
            emit(f"    if _k is {cell}[0]:")
            emit(f"        {t} = {r.expr}.slots[{cell}[1]]")
            emit("    else:")
            emit(f"        _sl = _k.slot_of({arg[1]!r})")
            emit(f"        {cell}[0] = _k")
            emit(f"        {cell}[1] = _sl")
            emit(f"        {t} = {r.expr}.slots[_sl]")
            emit("else:")
            trap(
                f"raise _VMTrap('GETFIELD on non-object %r'"
                f" % ({r.expr},), {fn_name!r}, {pos(p)})"
            )
            vstack.append(_VEntry(t, atom=True))
        elif op == _PUTFIELD:
            extras[f"_c{p}"] = ("cell",)
            cell = glob("_c", p)
            v = vpop()
            r = atomize(vpop())
            emit(f"if {r.expr}.__class__ is _RObject:")
            emit(f"    _k = {r.expr}.klass")
            emit(f"    if _k is {cell}[0]:")
            emit(f"        {r.expr}.slots[{cell}[1]] = {v.expr}")
            emit("    else:")
            emit(f"        _sl = _k.slot_of({arg[1]!r})")
            emit(f"        {cell}[0] = _k")
            emit(f"        {cell}[1] = _sl")
            emit(f"        {r.expr}.slots[_sl] = {v.expr}")
            emit("else:")
            trap(
                f"raise _VMTrap('PUTFIELD on non-object %r'"
                f" % ({r.expr},), {fn_name!r}, {pos(p)})"
            )
        elif op == _ALOAD or op == _ASTORE:
            v = vpop() if op == _ASTORE else None
            i = atomize(vpop())
            r = atomize(vpop())
            name = "ALOAD" if v is None else "ASTORE"
            at = pos(p)
            emit(f"if {r.expr}.__class__ is not _RArray:")
            trap(
                f"raise _VMTrap('{name} on non-array %r'"
                f" % ({r.expr},), {fn_name!r}, {at})"
            )
            emit("try:")
            if v is None:
                t = newtmp()
                emit(f"    {t} = {r.expr}.slots[{i.expr}]")
            else:
                emit(f"    {r.expr}.slots[{i.expr}] = {v.expr}")
            emit("except IndexError:")
            trap(
                f"raise _VMTrap('array index %s out of range"
                f" [0, %s)' % ({i.expr}, len({r.expr})),"
                f" {fn_name!r}, {at}) from None"
            )
            if v is None:
                vstack.append(_VEntry(t, atom=True))
        elif op == _ALEN:
            r = atomize(vpop())
            emit(f"if {r.expr}.__class__ is not _RArray:")
            trap(
                f"raise _VMTrap('ALEN on non-array %r'"
                f" % ({r.expr},), {fn_name!r}, {pos(p)})"
            )
            # Reach past RArray.__len__ straight to the list.
            vstack.append(_VEntry(f"len({r.expr}.slots)", r.slots))
        elif op == _PRINT:
            ent = vpop()
            emit(f"_out.append({ent.expr})")
        else:
            return False
        return True

    return plain


def _gen_segment_src(code, ops, s, e, head_index, nxt, fn_name, functions,
                     dynamic, extras, lift):
    """Emit the body of segment ``[s, e)``, which holds no breaker, as
    one handler function.

    The caller formats the accounting prologue; this emits the body
    statements and the final control transfer, and registers in
    *extras* the specs of the globals the source expects (inline-cache
    cells, static callees; see ``FastEngine._namespace``).  Every
    positional value — handler slots, pcs, per-pc globals — is spelled
    through *lift*, so the text depends only on the segment's shape.
    """
    lines: List[str] = []
    vstack: List[_VEntry] = []
    ntmp = 0

    def emit(line):
        lines.append("    " + line)

    def newtmp():
        nonlocal ntmp
        t = f"t{ntmp}"
        ntmp += 1
        return t

    def vpop():
        if vstack:
            return vstack.pop()
        t = newtmp()
        emit(f"{t} = stack.pop()")
        return _VEntry(t, atom=True)

    def atomize(ent):
        """Return an entry safe to mention more than once."""
        if ent.atom:
            return ent
        t = newtmp()
        emit(f"{t} = {ent.expr}")
        return _VEntry(t, atom=True)

    def invalidate(slot):
        """Materialize pending exprs that read locals_[slot] before a
        STORE to it changes their value."""
        for i, ent in enumerate(vstack):
            if slot in ent.slots:
                t = newtmp()
                emit(f"{t} = {ent.expr}")
                vstack[i] = _VEntry(t, atom=True)

    def flush():
        for ent in vstack:
            emit(f"stack.append({ent.expr})")
        vstack.clear()

    def bump_if_backward(target, branch_pc, indent):
        if target < branch_pc + 1:
            lines.append(indent + "_stats.backward_jumps += 1")

    plain = _plain_emitter(
        fn_name, "locals_[{}]", extras, vstack, vpop, atomize, invalidate,
        newtmp, emit, lambda line: emit("    " + line), lift,
    )
    const = lift.const
    for p in range(s, e):
        op = ops[p]
        arg = code[p].arg
        if plain(op, arg, p):
            continue
        # A terminator: always the segment's last op.
        if op == _JUMP:
            flush()
            bump_if_backward(arg, p, "    ")
            emit(f"return {const(head_index[arg])}")
        elif op == _JZ or op == _JNZ:
            ent = vpop()
            flush()
            if ent.cmp is not None:
                cop, a, b = ent.cmp
                sym = _CMP_SYM[cop] if op == _JNZ else _CMP_NSYM[cop]
                emit(f"if {a} {sym} {b}:")
            else:
                sym = "!=" if op == _JNZ else "=="
                emit(f"if {ent.expr} {sym} 0:")
            bump_if_backward(arg, p, "        ")
            emit(f"    return {const(head_index[arg])}")
            emit(f"return {const(nxt)}")
        elif op == _CALL:
            if dynamic:
                # Late-bound: the function table can change under
                # compiled code, so the callee and its arity are looked
                # up when the call runs.
                flush()
                emit(f"_callee = _functions.get({arg!r})")
                emit("if _callee is None:")
                msg = f"call to unloaded function {arg!r}"
                emit(f"    raise _VMTrap({msg!r}, {fn_name!r}, {const(p)})")
                callee_ref = "_callee"
                callee_name = "_callee.name"
                nargs = "_callee.num_params"
                arglist = None
            else:
                callee = functions[arg]
                nargs = callee.num_params
                extras[f"_fn{p}"] = ("callee", p)
                callee_ref = lift.name("_fn", p)
                callee_name = repr(callee.name)
                if len(vstack) >= nargs:
                    args_ent = vstack[len(vstack) - nargs:]
                    del vstack[len(vstack) - nargs:]
                    flush()
                    arglist = (
                        "[" + ", ".join(a.expr for a in args_ent) + "]"
                    )
                else:
                    flush()
                    arglist = None
            emit("_stats.calls += 1")
            emit("_fs = _eng.frames")
            emit("if len(_fs) >= _md:")
            emit(
                f"    raise _SO('call depth %d in %s'"
                f" % (len(_fs), {callee_name}))"
            )
            if arglist is None:
                emit(f"_n = len(stack) - {nargs}")
                emit("_args = stack[_n:]")
                emit("del stack[_n:]")
                arglist = "_args"
            emit("_fr = _fs[-1]")
            emit(f"_fr.pc = {const(p + 1)}")
            emit(f"_fr.fast_pc = {const(nxt)}")
            emit(f"_fs.append(_Frame({callee_ref}, {arglist}))")
            emit(f"return {_REBIND}")
        elif op == _RETURN:
            r = atomize(vpop())
            emit("_stats.returns += 1")
            emit("_fs = _eng.frames")
            emit("_fs.pop()")
            emit("if not _fs:")
            emit("    _th = _eng.thread")
            emit("    _th.done = True")
            emit(f"    _th.result = {r.expr}")
            emit(f"    return {_DONE}")
            emit(f"_fs[-1].stack.append({r.expr})")
            emit(f"return {_REBIND}")
        elif op == _HALT:
            emit("_th = _eng.thread")
            emit("_th.done = True")
            emit("_th.result = 0")
            emit(f"return {_DONE}")
        else:  # pragma: no cover - breakers never reach the generator
            raise AssertionError(f"op {op} not generatable")
        return "\n".join(lines)
    flush()
    emit(f"return {const(nxt)}")
    return "\n".join(lines)


class FastEngine:
    """Compiled execution state for one VM run.

    Built lazily by :meth:`repro.vm.interpreter.VM.run`; compiles every
    function of the program once, then runs threads over the compiled
    handler lists.  All mutable run state (stats, trigger, threads,
    heap clock) lives on the owning VM — the engine only adds the
    compiled code and the virtual-timer horizon.
    """

    def __init__(self, vm):
        self.vm = vm
        self.thread = None
        self.frames = None
        self.next_tick = 0
        self._codes: Dict[Function, List[Callable]] = {}
        #: Per-function map of segment-start pc -> handler slot; THROW
        #: (handler targets) and OSRPOINT (landing pcs) translate
        #: original pcs through it when they redirect a live frame.
        self._heads: Dict[Function, Dict[int, int]] = {}
        #: Dynamic programs (loadables / LOADFN / REPLACEFN / OSRPOINT)
        #: resolve CALL and SPAWN callees by name at run time, because
        #: the function table can change under compiled code.  Functions
        #: installed mid-run are compiled on first entry; retired
        #: Function objects keep their compiled handlers (live frames
        #: still run them), and all per-function derived state —
        #: superinstructions, inline caches, head maps, OSR-landing
        #: caches — is keyed by Function object, so replacement
        #: invalidates it wholesale: the new Function simply compiles
        #: fresh.  Static programs keep the compile-time callee binding
        #: and pay nothing for any of this.
        self._dynamic = vm.program.is_dynamic()
        for fn in vm.program.functions.values():
            self._code_for(fn)

    def _code_for(self, fn: Function) -> List[Callable]:
        """The compiled handler list for *fn*, compiling on first use
        (functions registered at run time arrive here lazily)."""
        handlers = self._codes.get(fn)
        if handlers is None:
            handlers = self._compile(fn)
            self._codes[fn] = handlers
        return handlers

    def release(self) -> None:
        """Drop the run's handlers when the run is over.  Generated code
        and breaker closures refer back to the engine, so the handler
        lists sit in reference cycles; emptying them frees the segment
        instances now instead of at the next cycle collection.  The
        keys of ``_codes`` stay: the functions the run compiled."""
        for handlers in self._codes.values():
            handlers.clear()

    # -- thread execution ---------------------------------------------------

    def run_thread(self, thread) -> bool:
        """Run *thread* until it finishes or yields; mirrors
        ``VM._run_thread`` (True = yielded, False = finished)."""
        vm = self.vm
        vm.current_thread = thread
        vm.trigger.notify_thread(thread.tid)
        stats = vm.stats
        timer_period = vm.timer_period
        self.next_tick = (
            stats.cycles // timer_period + 1
        ) * timer_period
        self.thread = thread
        frames = thread.frames
        self.frames = frames
        # Handler lists are looked up directly; only a function loaded
        # mid-run and not yet entered misses and compiles.
        codes = self._codes

        frame = frames[-1]
        handlers = codes.get(frame.function)
        if handlers is None:
            handlers = self._code_for(frame.function)
        i = frame.fast_pc
        stack = frame.stack
        locals_ = frame.locals
        while True:
            while i >= 0:
                i = handlers[i](stack, locals_)
            if i == _REBIND:
                frame = frames[-1]
                handlers = codes.get(frame.function)
                if handlers is None:
                    handlers = self._code_for(frame.function)
                i = frame.fast_pc
                stack = frame.stack
                locals_ = frame.locals
                continue
            return i == _YIELD

    # -- slow-path helpers (rare; kept out of the handlers) -----------------

    def _ticks(self) -> None:
        """Process virtual-timer ticks after cycles crossed the horizon."""
        vm = self.vm
        stats = vm.stats
        cycles = stats.cycles
        next_tick = self.next_tick
        timer_period = vm.timer_period
        notify = vm.trigger.notify_timer_tick
        rec = vm.recorder
        tid = self.thread.tid
        while cycles >= next_tick:
            stats.timer_ticks += 1
            if rec is not None:
                # Boundary cycles, matching the reference engine: the
                # two engines detect crossings at different instruction
                # granularities, but k * timer_period is shared.
                rec.timer_tick(next_tick, stats.timer_ticks, tid)
            next_tick += timer_period
            notify()
        self.next_tick = next_tick
        vm._threadswitch_bit = True

    def _fuel_trap(self, pc: int) -> None:
        frame = self.frames[-1]
        raise FuelExhaustedError(
            f"instruction budget of {self.vm.fuel} exhausted in "
            f"{frame.function.name}@{pc}"
        )

    def _throw(self, value, fn_name: str, pc: int) -> int:
        """Guest THROW, shared by the THROW closure and compiled
        regions: unwind to the innermost handler record and return the
        rebind sentinel, or raise the uncaught-exception trap."""
        stats = self.vm.stats
        stats.throws += 1
        frames = self.frames
        fr = frames[-1]
        while True:
            if fr.handlers:
                target, depth = fr.handlers.pop()
                del fr.stack[depth:]
                fr.stack.append(value)
                # Handler targets are branch targets, so they always
                # lead a segment.
                fr.fast_pc = self._heads[fr.function][target]
                return _REBIND
            frames.pop()
            stats.frames_unwound += 1
            if not frames:
                raise VMTrap(
                    f"uncaught guest exception {value!r}", fn_name, pc
                )
            fr = frames[-1]

    # -- compilation --------------------------------------------------------

    def _segments(self, code, ops):
        """Split a function into accounting segments.

        A segment is ``(start, end)`` over original pcs such that
        control entering at ``start`` executes every instruction up to
        the segment's exit with no observable cycle boundary inside:
        breakers get singleton segments, terminators end a segment
        inclusively, and every branch/CHECK target starts one.
        """
        n = len(code)
        leaders = {0}
        for ins, op in zip(code, ops):
            if op in _BRANCHES:
                leaders.add(ins.arg)
        segments = []
        i = 0
        while i < n:
            if ops[i] in _BREAKERS:
                segments.append((i, i + 1))
                i += 1
                continue
            j = i
            while True:
                op = ops[j]
                j += 1
                if op in _TERMINATORS or j >= n:
                    break
                if j in leaders or ops[j] in _BREAKERS:
                    break
            segments.append((i, j))
            i = j
        return segments

    def _namespace(self, fn: Function, spec: Dict[str, tuple]) -> dict:
        """The globals of *fn*'s generated code — fast segments,
        compiled regions and outlined leaves alike: the run's shared
        objects plus *fn*'s extras specs bound to live objects.  Hooks
        exist only when their observer is attached, like every other
        observability decision."""
        vm = self.vm
        ns: Dict[str, object] = {
            # Segments are bound with ``FunctionType``, not ``exec``,
            # so the namespace names its builtins itself.
            "__builtins__": builtins.__dict__,
            "_stats": vm.stats,
            "_eng": self,
            "_vm": vm,
            "_out": vm.output,
            "_poll": vm.trigger.poll,
            "_functions": vm.program.functions,
            "_fuel": vm.fuel,
            "_md": vm.max_stack_depth,
            "_Frame": Frame,
            "_FNew": object.__new__,
            "_VMTrap": VMTrap,
            "_RObject": RObject,
            "_RArray": RArray,
            "_SO": StackOverflowError,
            "_BErr": BytecodeError,
            "_VErr": VerificationError,
            "_FuelErr": FuelExhaustedError,
        }
        if vm.recorder is not None:
            ns["_rec"] = vm.recorder
        if vm.stats.opcode_counts is not None:
            ns["_oc"] = vm.stats.opcode_counts
        prof = vm.profiler
        if prof is not None and prof.enabled:
            ns["_prof"] = prof
            ns["_pdup"] = prof.dup
        program = vm.program
        code = fn.code
        for name, s in spec.items():
            kind = s[0]
            if kind == "cell":
                ns[name] = [None, 0]
            elif kind == "dcell":
                ns[name] = [None]
            elif kind == "arg":
                ns[name] = code[s[1]].arg
            elif kind == "callee":
                ns[name] = program.functions[code[s[1]].arg]
            elif kind == "leaf":  # compiled regions only
                ns[name] = self._leaf_entry(
                    program.functions[code[s[1]].arg]
                )
            elif kind == "class":
                ns[name] = program.classes[s[1]]
            else:  # "self"
                ns[name] = fn
        return ns

    def _compile(self, fn: Function) -> List[Callable]:
        """Compile *fn* into its direct-threaded handler list: one slot
        per segment, a generated function for every plain segment and a
        closure for every breaker."""
        vm = self.vm
        eng = self
        stats = vm.stats
        fuel = vm.fuel
        poll = vm.trigger.poll
        functions = vm.program.functions
        classes = vm.program.classes
        cost = vm.cost_model.cost_table()
        penalty = vm.cost_model.sample_transfer_penalty
        gc_every = vm.cost_model.gc_every_allocs
        gc_pause = vm.cost_model.gc_pause_cycles
        io_base = vm.cost_model.io_base_cost
        fn_name = fn.name
        # Observers are a compile-time decision: with no recorder, no
        # enabled profiler and no opcode counts, the closures below are
        # built without a single hook branch and the generated segments
        # without a hook line, so the null path costs nothing
        # (docs/OBSERVABILITY.md).  An enabled profiler's counter check
        # is written into every handler itself (docs/PROFILING.md): a
        # boundary costs a decrement and a compare, and only a sample
        # makes a call.
        rec = vm.recorder
        prof = vm.profiler
        if prof is not None and not prof.enabled:
            prof = None
        dup = prof.dup if prof is not None else None
        oc = stats.opcode_counts
        dynamic = self._dynamic

        code = fn.code
        ops = [int(ins.op) for ins in code]
        segments = self._segments(code, ops)
        # One handler slot per segment, laid out in code order: branch
        # targets (always segment starts) resolve to segment ordinals,
        # and falling off a segment lands on the next one's slot.
        head_index = {s: i for i, (s, _e) in enumerate(segments)}
        self._heads[fn] = head_index

        def wrap_head(body, SC, PC, comp):
            """Prepend segment accounting to a cold breaker body.

            With a profiler the boundary of component *comp* is counted
            first (*comp* None: the body counts its own, after the
            fact); with opcode counting the breaker's op is counted.
            """
            if prof is None and oc is None:
                def h(stack, locals_):
                    ni = stats.instructions
                    if ni >= fuel:
                        eng._fuel_trap(PC)
                    stats.instructions = ni + 1
                    c = stats.cycles + SC
                    stats.cycles = c
                    if c >= eng.next_tick:
                        eng._ticks()
                    return body(stack, locals_)
                return h
            OP = ops[PC]
            if prof is None:
                comp = None
            def h(stack, locals_):
                if comp is not None:
                    prof.countdown -= 1
                    if prof.countdown <= 0:
                        prof.sample(
                            comp, fn_name, PC, OP, eng.frames, eng.thread.tid
                        )
                if oc is not None:
                    oc[OP] = oc.get(OP, 0) + 1
                ni = stats.instructions
                if ni >= fuel:
                    eng._fuel_trap(PC)
                stats.instructions = ni + 1
                c = stats.cycles + SC
                stats.cycles = c
                if c >= eng.next_tick:
                    eng._ticks()
                return body(stack, locals_)
            return h

        def build_breaker(pc_, NXT, SC):
            """Build the closure for one breaker, alone in its segment.

            The hot ones (YIELDPOINT, CHECK) inline the segment
            accounting and their observer hooks; the cold ones build a
            body for ``wrap_head``.
            """
            op = ops[pc_]
            arg = code[pc_].arg
            PCP1 = pc_ + 1

            # --- hot breakers: segment accounting inlined ----------------
            if op == _YIELDPOINT:
                if prof is None and oc is None:
                    def h(stack, locals_):
                        ni = stats.instructions
                        if ni >= fuel:
                            eng._fuel_trap(pc_)
                        stats.instructions = ni + 1
                        c = stats.cycles + SC
                        stats.cycles = c
                        if c >= eng.next_tick:
                            eng._ticks()
                        stats.yieldpoints_executed += 1
                        if vm._threadswitch_bit:
                            vm._threadswitch_bit = False
                            th = eng.thread
                            for t in vm.threads:
                                if t is not th and not t.done:
                                    fr = eng.frames[-1]
                                    fr.pc = PCP1
                                    fr.fast_pc = NXT
                                    return _YIELD
                        return NXT
                    return h
                def h(stack, locals_):
                    if prof is not None:
                        prof.countdown -= 1
                        if prof.countdown <= 0:
                            prof.sample(
                                "poll", fn_name, pc_, _YIELDPOINT,
                                eng.frames, eng.thread.tid,
                            )
                    if oc is not None:
                        oc[_YIELDPOINT] = oc.get(_YIELDPOINT, 0) + 1
                    ni = stats.instructions
                    if ni >= fuel:
                        eng._fuel_trap(pc_)
                    stats.instructions = ni + 1
                    c = stats.cycles + SC
                    stats.cycles = c
                    if c >= eng.next_tick:
                        eng._ticks()
                    stats.yieldpoints_executed += 1
                    if vm._threadswitch_bit:
                        vm._threadswitch_bit = False
                        th = eng.thread
                        for t in vm.threads:
                            if t is not th and not t.done:
                                fr = eng.frames[-1]
                                fr.pc = PCP1
                                fr.fast_pc = NXT
                                return _YIELD
                    return NXT
                return h
            if op == _CHECK:
                T = head_index[arg]
                if rec is None and prof is None and oc is None:
                    def h(stack, locals_):
                        ni = stats.instructions
                        if ni >= fuel:
                            eng._fuel_trap(pc_)
                        stats.instructions = ni + 1
                        c = stats.cycles + SC
                        stats.cycles = c
                        if c >= eng.next_tick:
                            eng._ticks()
                        stats.checks_executed += 1
                        if poll():
                            stats.checks_taken += 1
                            stats.cycles += penalty
                            return T
                        return NXT
                    return h
                # The recorder hears every executed CHECK; the profiler
                # counts the boundary after it, once residency in
                # duplicated code is settled: every CHECK ends a
                # resident span and a fired one begins one.
                target = arg
                def h(stack, locals_):
                    if oc is not None:
                        oc[_CHECK] = oc.get(_CHECK, 0) + 1
                    ni = stats.instructions
                    if ni >= fuel:
                        eng._fuel_trap(pc_)
                    stats.instructions = ni + 1
                    c = stats.cycles + SC
                    stats.cycles = c
                    if c >= eng.next_tick:
                        eng._ticks()
                    stats.checks_executed += 1
                    if poll():
                        stats.checks_taken += 1
                        c = stats.cycles + penalty
                        stats.cycles = c
                        if rec is not None:
                            rec.check(
                                c, eng.thread.tid, fn_name, pc_,
                                True, target, eng.frames,
                            )
                        if prof is not None:
                            dup.add(eng.thread.tid)
                            prof.countdown -= 1
                            if prof.countdown <= 0:
                                prof.sample(
                                    "trampoline", fn_name, pc_, _CHECK,
                                    eng.frames, eng.thread.tid,
                                )
                        return T
                    if rec is not None:
                        rec.check(
                            stats.cycles, eng.thread.tid, fn_name, pc_,
                            False, None, eng.frames,
                        )
                    if prof is not None:
                        if dup:
                            dup.discard(eng.thread.tid)
                        prof.countdown -= 1
                        if prof.countdown <= 0:
                            prof.sample(
                                "check", fn_name, pc_, _CHECK,
                                eng.frames, eng.thread.tid,
                            )
                    return NXT
                return h

            # --- cold breakers: body + wrap_head -------------------------
            comp = "dispatch"
            if op == _GUARDED_INSTR:
                action = arg
                comp = None
                if rec is None and prof is None:
                    def body(stack, locals_):
                        stats.guarded_checks_executed += 1
                        if poll():
                            stats.guarded_checks_taken += 1
                            stats.cycles += action.cost
                            stats.instr_ops_executed += 1
                            fr = eng.frames[-1]
                            fr.pc = PCP1
                            action.execute(vm, fr)
                        return NXT
                else:
                    def body(stack, locals_):
                        stats.guarded_checks_executed += 1
                        if poll():
                            stats.guarded_checks_taken += 1
                            c = stats.cycles + action.cost
                            stats.cycles = c
                            stats.instr_ops_executed += 1
                            if rec is not None:
                                rec.guarded_fired(
                                    c, eng.thread.tid, fn_name, pc_,
                                    eng.frames,
                                )
                            fr = eng.frames[-1]
                            fr.pc = PCP1
                            action.execute(vm, fr)
                            component = "payload"
                        else:
                            component = "check"
                        if prof is not None:
                            prof.countdown -= 1
                            if prof.countdown <= 0:
                                prof.sample(
                                    component, fn_name, pc_, _GUARDED_INSTR,
                                    eng.frames, eng.thread.tid,
                                )
                        return NXT
            elif op == _INSTR:
                action = arg
                comp = "payload"
                def body(stack, locals_):
                    stats.cycles += action.cost
                    stats.instr_ops_executed += 1
                    fr = eng.frames[-1]
                    fr.pc = PCP1
                    action.execute(vm, fr)
                    return NXT
            elif op == _NEW:
                klass = classes[arg]
                if rec is not None:
                    def body(stack, locals_):
                        vm._alloc_count += 1
                        if vm._alloc_count % gc_every == 0:
                            c = stats.cycles + gc_pause
                            stats.cycles = c
                            stats.gc_pauses += 1
                            rec.gc_pause(
                                c, eng.thread.tid, fn_name, pc_,
                                gc_pause, vm._alloc_count, eng.frames,
                            )
                        stack.append(RObject(klass))
                        return NXT
                else:
                    def body(stack, locals_):
                        vm._alloc_count += 1
                        if vm._alloc_count % gc_every == 0:
                            stats.cycles += gc_pause
                            stats.gc_pauses += 1
                        stack.append(RObject(klass))
                        return NXT
            elif op == _NEWARRAY:
                if rec is not None:
                    def body(stack, locals_):
                        length = stack.pop()
                        if not isinstance(length, int) or length < 0:
                            raise VMTrap(
                                f"bad array length {length!r}", fn_name, pc_
                            )
                        vm._alloc_count += 1
                        if vm._alloc_count % gc_every == 0:
                            c = stats.cycles + gc_pause
                            stats.cycles = c
                            stats.gc_pauses += 1
                            rec.gc_pause(
                                c, eng.thread.tid, fn_name, pc_,
                                gc_pause, vm._alloc_count, eng.frames,
                            )
                        stack.append(RArray(length))
                        return NXT
                else:
                    def body(stack, locals_):
                        length = stack.pop()
                        if not isinstance(length, int) or length < 0:
                            raise VMTrap(
                                f"bad array length {length!r}", fn_name, pc_
                            )
                        vm._alloc_count += 1
                        if vm._alloc_count % gc_every == 0:
                            stats.cycles += gc_pause
                            stats.gc_pauses += 1
                        stack.append(RArray(length))
                        return NXT
            elif op == _IO:
                charge = io_base * arg
                def body(stack, locals_):
                    stats.cycles += charge
                    stats.io_ops += 1
                    stack.append(vm._io_value(eng.thread))
                    return NXT
            elif op == _SPAWN:
                if dynamic:
                    def body(stack, locals_):
                        callee = functions.get(arg)
                        if callee is None:
                            raise VMTrap(
                                f"call to unloaded function {arg!r}",
                                fn_name,
                                pc_,
                            )
                        nargs = callee.num_params
                        if nargs:
                            args = stack[-nargs:]
                            del stack[-nargs:]
                        else:
                            args = []
                        child = vm._spawn_thread(callee, args)
                        stack.append(child.tid)
                        return NXT
                else:
                    callee = functions[arg]
                    nargs = callee.num_params
                    def body(stack, locals_):
                        if nargs:
                            args = stack[-nargs:]
                            del stack[-nargs:]
                        else:
                            args = []
                        child = vm._spawn_thread(callee, args)
                        stack.append(child.tid)
                        return NXT
            elif op == _TRY:
                target = arg
                def body(stack, locals_):
                    eng.frames[-1].handlers.append((target, len(stack)))
                    return NXT
            elif op == _ENDTRY:
                def body(stack, locals_):
                    fr = eng.frames[-1]
                    if not fr.handlers:
                        raise VMTrap(
                            "ENDTRY without matching TRY", fn_name, pc_
                        )
                    fr.handlers.pop()
                    return NXT
            elif op == _THROW:
                def body(stack, locals_):
                    return eng._throw(stack.pop(), fn_name, pc_)
            elif op == _LOADFN:
                template_name = arg
                def body(stack, locals_):
                    try:
                        loaded = vm._dyn_load(template_name)
                    except (BytecodeError, VerificationError) as exc:
                        raise VMTrap(
                            f"LOADFN failed: {exc}", fn_name, pc_
                        ) from None
                    stack.append(loaded)
                    return NXT
            elif op == _REPLACEFN:
                target_name, template_name = arg
                def body(stack, locals_):
                    try:
                        replaced = vm._dyn_replace(
                            target_name, template_name
                        )
                    except (BytecodeError, VerificationError) as exc:
                        raise VMTrap(
                            f"REPLACEFN failed: {exc}", fn_name, pc_
                        ) from None
                    stack.append(replaced)
                    return NXT
            else:  # _OSRPOINT, the last breaker
                osr_id = arg
                def body(stack, locals_):
                    current = functions.get(fn_name)
                    if current is None or current is fn:
                        return NXT
                    landing = vm._osr_landing(current, osr_id)
                    if landing is None:
                        raise VMTrap(
                            f"no OSR point {osr_id!r} in replacement of "
                            f"{fn_name}",
                            fn_name,
                            pc_,
                        )
                    stats.osr_remaps += 1
                    # Remap the live frame onto the new body (see the
                    # reference ladder): pad/truncate locals in place,
                    # drop handler records, and resume just past the
                    # matching OSR point — a breaker singleton there, so
                    # the landing pc always leads a segment.
                    num_locals = current.num_locals
                    if len(locals_) < num_locals:
                        locals_.extend([0] * (num_locals - len(locals_)))
                    elif len(locals_) > num_locals:
                        del locals_[num_locals:]
                    fr = eng.frames[-1]
                    fr.handlers.clear()
                    fr.function = current
                    eng._code_for(current)
                    fr.fast_pc = eng._heads[current][landing]
                    return _REBIND
            return wrap_head(body, SC, pc_, comp)

        # Plain segments are generated first (each registers the extras
        # specs its source names) and then bound to one namespace per
        # function: ``_c{pc}``, ``_fn{pc}`` and ``_k{pc}`` are unique per
        # pc.  The observer hooks open the source, ahead of the
        # accounting.
        handlers: List[Callable] = []
        generated = []
        spec: Dict[str, tuple] = {}
        for i, (s, e) in enumerate(segments):
            seg_cost = 0
            for p in range(s, e):
                seg_cost += cost[ops[p]]
            if ops[s] in _BREAKERS:
                handlers.append(build_breaker(s, i + 1, seg_cost))
                continue
            lift = _Lift()
            body = _gen_segment_src(
                code, ops, s, e, head_index, i + 1, fn_name, functions,
                dynamic, spec, lift,
            )
            hooks: List[str] = []
            if prof is not None:
                hooks += _profile_src(
                    "dispatch", fn_name, lift.const(s), lift.const(ops[s]),
                    "_eng.frames",
                )
            if oc is not None:
                hooks += _count_src(ops, s, e)
            src = (
                "def _h(stack, locals_):\n"
                + "".join(f"    {line}\n" for line in hooks)
                + "    ni = _stats.instructions\n"
                "    if ni >= _fuel:\n"
                f"        _eng._fuel_trap({lift.const(s)})\n"
                f"    _stats.instructions = ni + {lift.const(e - s)}\n"
                f"    _cy = _stats.cycles + {lift.const(seg_cost)}\n"
                "    _stats.cycles = _cy\n"
                "    if _cy >= _eng.next_tick:\n"
                "        _eng._ticks()\n" + body + "\n"
            )
            generated.append((i, lift.instance(src)))
            handlers.append(None)
        ns = self._namespace(fn, spec)
        for i, co in generated:
            handlers[i] = FunctionType(co, ns)
        return handlers
