"""Segment-threaded fast execution engine.

A second VM engine that pre-compiles each verified :class:`Function`
into a direct-threaded list of Python callables — one per *segment* of
instructions — and dispatches with ``i = handlers[i](stack, locals_)``
instead of the reference interpreter's per-step opcode ladder.  Three
load-time optimizations carry the speedup:

1. **Whole-segment superinstructions.**  Every segment — single-op
   segments and the breakers below included — is compiled into ONE
   generated Python function
   (:meth:`_SegmentEmitter._gen_segment_src`): the operand stack is
   simulated at compile time, so ``LOAD x; LOAD y; ADD; STORE z``
   becomes ``locals_[z] = locals_[x] + locals_[y]`` — intermediate
   values never touch the stack list, comparisons feed branches
   directly, and CALL builds the callee's argument list from
   expressions.  Every op but the control transfers is spelled once,
   by the emitter the compiled tier (:mod:`repro.vm.compiler`) shares:
   the plain ops by :meth:`_Emitter._plain`, the breakers by
   :meth:`_Emitter._breaker`.

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
# Every segment is emitted as ONE generated Python function, simulating
# the operand stack at compile time so intermediate values become Python
# expressions/locals instead of list pushes and pops.  The generated
# function charges the segment's static cost in its prologue and ends in
# the terminator's control transfer, so the accounting model — and
# therefore every observable stat — matches the reference.
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

#: Guest constants of exactly these types are spelled as literals, in
#: both tiers; any other PUSH operand is bound by name (a float's or a
#: complex number's repr need not parse back: ``inf``).  Constant
#: folding over them never yields a complex number, so the complex
#: constants of a segment template are exactly its placeholders.
_LITERAL_TYPES = frozenset({int, bool, str})

#: The profiler component of a segment head, by the op that opens the
#: segment; any other head reports its tier's own component (see
#: ``_Emitter.head_component``).  None: the op counts its boundary
#: itself, after the fact (CHECK and GUARDED_INSTR, once their poll is
#: settled).
_HEAD_COMPONENT = {
    _INSTR: "payload",
    _YIELDPOINT: "poll",
    _CHECK: None,
    _GUARDED_INSTR: None,
}

_I4 = "    "

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


def _canonical(depth):
    """A compile-time stack of *depth* canonical entries ``s0..``."""
    return [_VEntry(f"s{i}", atom=True) for i in range(depth)]


class _Emitter:
    """The code generator the two fast tiers share: one function's ops
    spelled as Python source, one walk (a segment or a region arm) at a
    time.

    The plain ops are spelled by :meth:`_plain` and the breakers by
    :meth:`_breaker`, once each.  What differs between the
    tiers, a subclass says:

    * ``frames``, ``cycles`` and ``local``: how the live frame list,
      the cycle count and a guest local are spelled;
    * ``pos`` and ``glob``: how a position and a per-pc global are
      spelled (placeholders in a segment, literals in a region);
    * ``_vpop``: what popping an empty compile-time stack means;
    * ``_mat``, ``_writeback``, ``_spill``, ``_sync`` and ``_reload``:
      what an environment barrier writes;
    * ``_transfer``, ``_slot``, ``_depth`` and ``_arity``: how control
      reaches a branch target, which slot a suspended frame resumes at,
      how the operand-stack depth is spelled, and a call site's arity
      (None: looked up when the call runs).

    The barrier defaults write nothing, as in a fast-tier segment: its
    stats, locals and stack are the frame's own, and a breaker opens
    its own segment, so the compile-time stack is empty at every
    barrier.  A compiled-tier region overrides them all
    (``repro.vm.compiler._Lowerer``).
    """

    frames = "_eng.frames"
    cycles = "_stats.cycles"
    local = "locals_[{}]"
    #: The profiler component of a head that no op of
    #: ``_HEAD_COMPONENT`` opens.
    head_component = "dispatch"

    def __init__(self, eng, fn: Function):
        vm = eng.vm
        self.eng = eng
        self.vm = vm
        self.fn = fn
        self.fn_name = fn.name
        self.code = fn.code
        self.ops = [int(ins.op) for ins in fn.code]
        #: global name -> spec of what ``FastEngine._namespace`` binds
        self.extras: Dict[str, tuple] = {}
        self.dynamic = eng._dynamic
        # Observers are a compile-time decision: a hook line is written
        # only when its observer is attached, so the null path costs
        # nothing (docs/OBSERVABILITY.md).  Context-tracking recorders
        # also get the live frame list, as a trailing argument.
        rec = vm.recorder
        self.rec_on = rec is not None
        self.ctx_on = self.rec_on and getattr(rec, "wants_context", False)
        self.ctx = f", {self.frames}" if self.ctx_on else ""
        prof = vm.profiler
        self.prof_on = prof is not None and prof.enabled
        self.oc_on = vm.stats.opcode_counts is not None
        cost_model = vm.cost_model
        self.penalty = cost_model.sample_transfer_penalty
        self.gc_every = cost_model.gc_every_allocs
        self.gc_pause = cost_model.gc_pause_cycles
        self.io_base = cost_model.io_base_cost
        # The current walk: its compile-time stack (one list, refilled
        # by each _begin), output lines, indentation and temp counter.
        self.vstack: List[_VEntry] = []
        self.out: List[str] = []
        self.ind = ""
        self.ntmp = 0

    # -- the compile-time stack -----------------------------------------------

    def _begin(self, out: List[str], ind: str, depth: int) -> None:
        """Start a walk that writes to *out* at indent *ind*, with
        *depth* canonical entries on the compile-time stack and temps
        counted from ``t0``.  Nothing of the previous walk survives: the
        walk it ended may have left entries behind (RETURN and HALT
        need not empty the stack)."""
        self.vstack[:] = _canonical(depth)
        self.out = out
        self.ind = ind
        self.ntmp = 0

    def _emit(self, line: str) -> None:
        self.out.append(self.ind + line)

    def _newtmp(self) -> str:
        t = f"t{self.ntmp}"
        self.ntmp += 1
        return t

    def _atomize(self, ent: _VEntry) -> _VEntry:
        """Return an entry safe to mention more than once."""
        if ent.atom:
            return ent
        t = self._newtmp()
        self._emit(f"{t} = {ent.expr}")
        return _VEntry(t, atom=True)

    def _invalidate(self, slot: int) -> None:
        """Materialize pending exprs that read guest local *slot* before
        a STORE to it changes their value."""
        vstack = self.vstack
        for i, ent in enumerate(vstack):
            if slot in ent.slots:
                t = self._newtmp()
                self._emit(f"{t} = {ent.expr}")
                vstack[i] = _VEntry(t, atom=True)

    def _take(self, n: int) -> List[_VEntry]:
        """Pop the top *n* entries, in stack order."""
        ents = [self._vpop() for _ in range(n)]
        ents.reverse()
        return ents

    # -- the plain ops --------------------------------------------------------

    def _plain(self, op: int, arg, p: int) -> bool:
        """Emit plain op *op* at pc *p*: the stack-simulating spelling
        both tiers share.  Inline cache cells and bound guest constants
        are registered in :attr:`extras` as ``("cell",)`` and
        ``("arg", pc)`` specs.  Emit nothing and return False for any
        other op."""
        E = self._emit
        vstack = self.vstack
        fn_name = self.fn_name
        pos = self.pos
        if op == _LOAD:
            vstack.append(
                _VEntry(self.local.format(arg), frozenset((arg,)), atom=True)
            )
        elif op == _PUSH:
            if type(arg) in _LITERAL_TYPES:
                # Parenthesized so attribute access parses:
                # ``(1).__class__``.
                vstack.append(_VEntry(f"({arg!r})", atom=True))
            else:
                self.extras[f"_k{p}"] = ("arg", p)
                vstack.append(_VEntry(self.glob("_k", p), atom=True))
        elif op == _STORE:
            ent = self._vpop()
            self._invalidate(arg)
            E(f"{self.local.format(arg)} = {ent.expr}")
        elif op in _ARITH_SYM:
            b = self._vpop()
            a = self._vpop()
            vstack.append(
                _VEntry(
                    f"({a.expr} {_ARITH_SYM[op]} {b.expr})",
                    a.slots | b.slots,
                )
            )
        elif op in _CMP_SYM:
            b = self._vpop()
            a = self._vpop()
            vstack.append(
                _VEntry(
                    f"(1 if {a.expr} {_CMP_SYM[op]} {b.expr} else 0)",
                    a.slots | b.slots,
                    cmp=(op, a.expr, b.expr),
                )
            )
        elif op == _SHL or op == _SHR:
            b = self._vpop()
            a = self._vpop()
            sym = "<<" if op == _SHL else ">>"
            vstack.append(
                _VEntry(
                    f"({a.expr} {sym} ({b.expr} & 63))",
                    a.slots | b.slots,
                )
            )
        elif op == _DIV or op == _MOD:
            b = self._atomize(self._vpop())
            msg = "division by zero" if op == _DIV else "modulo by zero"
            E(f"if {b.expr} == 0:")
            self._trap(f"raise _VMTrap({msg!r}, {fn_name!r}, {pos(p)})")
            a = self._vpop()
            sym = "//" if op == _DIV else "%"
            vstack.append(
                _VEntry(f"({a.expr} {sym} {b.expr})", a.slots | b.slots)
            )
        elif op == _NEG:
            a = self._vpop()
            vstack.append(_VEntry(f"(-{a.expr})", a.slots))
        elif op == _NOT:
            a = self._vpop()
            vstack.append(_VEntry(f"(1 if {a.expr} == 0 else 0)", a.slots))
        elif op == _DUP:
            ent = self._atomize(self._vpop())
            vstack.append(ent)
            vstack.append(_VEntry(ent.expr, ent.slots, atom=True))
        elif op == _POP:
            self._vpop()
        elif op == _SWAP:
            x1 = self._vpop()
            x2 = self._vpop()
            vstack.append(x1)
            vstack.append(x2)
        elif op == _NOP:
            pass
        elif op == _GETFIELD:
            self.extras[f"_c{p}"] = ("cell",)
            cell = self.glob("_c", p)
            r = self._atomize(self._vpop())
            t = self._newtmp()
            E(f"if {r.expr}.__class__ is _RObject:")
            E(f"    _k = {r.expr}.klass")
            E(f"    if _k is {cell}[0]:")
            E(f"        {t} = {r.expr}.slots[{cell}[1]]")
            E("    else:")
            E(f"        _sl = _k.slot_of({arg[1]!r})")
            E(f"        {cell}[0] = _k")
            E(f"        {cell}[1] = _sl")
            E(f"        {t} = {r.expr}.slots[_sl]")
            E("else:")
            self._trap(
                f"raise _VMTrap('GETFIELD on non-object %r'"
                f" % ({r.expr},), {fn_name!r}, {pos(p)})"
            )
            vstack.append(_VEntry(t, atom=True))
        elif op == _PUTFIELD:
            self.extras[f"_c{p}"] = ("cell",)
            cell = self.glob("_c", p)
            v = self._vpop()
            r = self._atomize(self._vpop())
            E(f"if {r.expr}.__class__ is _RObject:")
            E(f"    _k = {r.expr}.klass")
            E(f"    if _k is {cell}[0]:")
            E(f"        {r.expr}.slots[{cell}[1]] = {v.expr}")
            E("    else:")
            E(f"        _sl = _k.slot_of({arg[1]!r})")
            E(f"        {cell}[0] = _k")
            E(f"        {cell}[1] = _sl")
            E(f"        {r.expr}.slots[_sl] = {v.expr}")
            E("else:")
            self._trap(
                f"raise _VMTrap('PUTFIELD on non-object %r'"
                f" % ({r.expr},), {fn_name!r}, {pos(p)})"
            )
        elif op == _ALOAD or op == _ASTORE:
            v = self._vpop() if op == _ASTORE else None
            i = self._atomize(self._vpop())
            r = self._atomize(self._vpop())
            name = "ALOAD" if v is None else "ASTORE"
            at = pos(p)
            E(f"if {r.expr}.__class__ is not _RArray:")
            self._trap(
                f"raise _VMTrap('{name} on non-array %r'"
                f" % ({r.expr},), {fn_name!r}, {at})"
            )
            E("try:")
            if v is None:
                t = self._newtmp()
                E(f"    {t} = {r.expr}.slots[{i.expr}]")
            else:
                E(f"    {r.expr}.slots[{i.expr}] = {v.expr}")
            E("except IndexError:")
            self._trap(
                f"raise _VMTrap('array index %s out of range"
                f" [0, %s)' % ({i.expr}, len({r.expr})),"
                f" {fn_name!r}, {at}) from None"
            )
            if v is None:
                vstack.append(_VEntry(t, atom=True))
        elif op == _ALEN:
            r = self._atomize(self._vpop())
            E(f"if {r.expr}.__class__ is not _RArray:")
            self._trap(
                f"raise _VMTrap('ALEN on non-array %r'"
                f" % ({r.expr},), {fn_name!r}, {pos(p)})"
            )
            # Reach past RArray.__len__ straight to the list.
            vstack.append(_VEntry(f"len({r.expr}.slots)", r.slots))
        elif op == _PRINT:
            ent = self._vpop()
            E(f"_out.append({ent.expr})")
        else:
            return False
        return True

    # -- environment barriers -------------------------------------------------

    def _mat(self, ind: str, vstack: List[_VEntry]) -> List[str]:
        return []

    def _writeback(self, ind: str) -> List[str]:
        return []

    def _spill(self, ind: str, vstack: List[_VEntry]) -> List[str]:
        return []

    def _sync(self, ind: str) -> List[str]:
        return []

    def _reload(self, ind: str, depth: int) -> List[str]:
        return []

    def _save(self, ind: str) -> List[str]:
        """Barrier entry: locals written back, the compile-time stack
        spilled, mirrors synced."""
        return (
            self._writeback(ind)
            + self._spill(ind, self.vstack)
            + self._sync(ind)
        )

    def _canon(self) -> None:
        """Bring the compile-time stack into its canonical form."""
        vstack = self.vstack
        self.out.extend(self._mat(self.ind, vstack))
        vstack[:] = _canonical(len(vstack))

    def _trap(self, raise_line: str, popped=(), depth: int = 1) -> None:
        """Emit a trap raise *depth* indents deeper than ``_emit``: sync
        the mirrors and restore the frame (its locals, and its stack
        with the *popped* entries — call arguments — back on it) first,
        so the post-mortem state matches the other engines."""
        ind = self.ind + _I4 * depth
        out = self.out
        out.extend(self._sync(ind))
        out.extend(self._writeback(ind))
        out.extend(self._spill(ind, self.vstack + list(popped)))
        out.append(ind + raise_line)

    # -- observer hooks -------------------------------------------------------

    def _profile(self, ind: str, component: str, pc: int) -> List[str]:
        """One profiler boundary at *pc*: the paper's compiled-in check
        (decrement the counter, compare, branch), with the sample itself
        out of line in ``OverheadProfiler.sample``."""
        return [
            ind + "_prof.countdown -= 1",
            ind + "if _prof.countdown <= 0:",
            ind + f"    _prof.sample({component!r}, {self.fn_name!r},"
            f" {self.pos(pc)}, {self.pos(self.ops[pc])}, {self.frames},"
            " _eng.thread.tid)",
        ]

    def _hooks(self, ind: str, s: int, e: int) -> List[str]:
        """The observer lines of the head of segment ``[s, e)``, in the
        order both tiers keep: the profiler boundary, then the opcode
        counts (the accounting and the op follow)."""
        out: List[str] = []
        comp = _HEAD_COMPONENT.get(self.ops[s], self.head_component)
        if self.prof_on and comp is not None:
            out += self._profile(ind, comp, s)
        if self.oc_on:
            out += [ind + ln for ln in _count_src(self.ops, s, e)]
        return out

    # -- the breakers ---------------------------------------------------------

    def _action(self, p: int) -> str:
        """The global naming the instrumentation action at *p*."""
        self.extras[f"_ac{p}"] = ("arg", p)
        return self.glob("_ac", p)

    def _execute(self, act: str, p: int, ind: str) -> None:
        """Run action *act* at *p* behind an environment barrier."""
        out = self.out
        out.extend(self._save(ind))
        out.append(ind + f"_fr = {self.frames}[-1]")
        out.append(ind + f"_fr.pc = {self.pos(p + 1)}")
        out.append(ind + f"{act}.execute(_vm, _fr)")
        out.extend(self._reload(ind, len(self.vstack)))

    def _switch_poll(self) -> str:
        """Emit a yieldpoint's poll: count it, and enter the suspend
        path when a thread switch is due and another thread can run.
        Return the indent of that path, which ends in a return."""
        E = self._emit
        E("_stats.yieldpoints_executed += 1")
        E("if _vm._threadswitch_bit:")
        E("    _vm._threadswitch_bit = False")
        E("    _th = _eng.thread")
        E("    for _t in _vm.threads:")
        E("        if _t is not _th and not _t.done:")
        return self.ind + _I4 * 3

    def _alloc(self, p: int) -> None:
        """Tick the allocation clock: every ``gc_every``-th allocation
        charges a GC pause."""
        E = self._emit
        E("_vm._alloc_count += 1")
        E(f"if _vm._alloc_count % {self.gc_every} == 0:")
        E(f"    {self.cycles} += {self.gc_pause}")
        E("    _stats.gc_pauses += 1")
        if self.rec_on:
            E(
                f"    _rec.gc_pause({self.cycles}, _eng.thread.tid,"
                f" {self.fn_name!r}, {self.pos(p)}, {self.gc_pause},"
                f" _vm._alloc_count{self.ctx})"
            )

    def _breaker(self, op: int, arg, p: int) -> bool:
        """Emit breaker *op* at pc *p*.  Return False when control
        cannot fall through it (THROW)."""
        E = self._emit
        out = self.out
        ind = self.ind
        vstack = self.vstack
        fn_name = self.fn_name
        pos = self.pos
        fs = self.frames
        cy = self.cycles
        ctx = self.ctx
        if op == _CHECK:
            E("_stats.checks_executed += 1")
            E("if _poll():")
            E("    _stats.checks_taken += 1")
            E(f"    {cy} += {self.penalty}")
            if self.rec_on:
                E(
                    f"    _rec.check({cy}, _eng.thread.tid,"
                    f" {fn_name!r}, {pos(p)}, True, {pos(arg)}{ctx})"
                )
            if self.prof_on:
                # Every CHECK ends a resident span in duplicated code; a
                # fired one begins one.
                E("    _pdup.add(_eng.thread.tid)")
                out.extend(self._profile(ind + _I4, "trampoline", p))
            self._transfer(arg, [], ind + _I4)
            if self.rec_on:
                E(
                    f"_rec.check({cy}, _eng.thread.tid,"
                    f" {fn_name!r}, {pos(p)}, False"
                    + (f", None{ctx})" if ctx else ")")
                )
            if self.prof_on:
                E("if _pdup:")
                E("    _pdup.discard(_eng.thread.tid)")
                out.extend(self._profile(ind, "check", p))
        elif op == _GUARDED_INSTR:
            act = self._action(p)
            # Canonicalize up front so both poll outcomes agree on the
            # compile-time stack shape.
            self._canon()
            E("_stats.guarded_checks_executed += 1")
            E("if _poll():")
            E("    _stats.guarded_checks_taken += 1")
            E(f"    {cy} += {act}.cost")
            E("    _stats.instr_ops_executed += 1")
            if self.rec_on:
                E(
                    f"    _rec.guarded_fired({cy}, _eng.thread.tid,"
                    f" {fn_name!r}, {pos(p)}{ctx})"
                )
            self._execute(act, p, ind + _I4)
            if self.prof_on:
                out.extend(self._profile(ind + _I4, "payload", p))
                E("else:")
                out.extend(self._profile(ind + _I4, "check", p))
        elif op == _INSTR:
            act = self._action(p)
            E(f"{cy} += {act}.cost")
            E("_stats.instr_ops_executed += 1")
            self._canon()
            self._execute(act, p, ind)
        elif op == _YIELDPOINT:
            yind = self._switch_poll()
            out.extend(self._mat(yind, vstack))
            out.extend(self._writeback(yind))
            out.extend(self._spill(yind, _canonical(len(vstack))))
            out.extend(self._sync(yind))
            out.append(yind + f"_fr = {fs}[-1]")
            out.append(yind + f"_fr.pc = {pos(p + 1)}")
            out.append(yind + f"_fr.fast_pc = {self._slot(p + 1)}")
            out.append(yind + f"return {_YIELD}")
        elif op == _NEW:
            self.extras[f"_kl{p}"] = ("class", arg)
            kl = self.glob("_kl", p)
            self._alloc(p)
            t = self._newtmp()
            # Inline allocation: the field count is a compile-time
            # constant (part of the lowering key), so the ctor call and
            # the num_fields() lookup both disappear.
            nf = self.vm.program.classes[arg].num_fields()
            E(f"{t} = _FNew(_RObject)")
            E(f"{t}.klass = {kl}")
            E(f"{t}.slots = [0] * {nf}")
            vstack.append(_VEntry(t, atom=True))
        elif op == _NEWARRAY:
            ln = self._atomize(self._vpop())
            E(f"if not isinstance({ln.expr}, int) or {ln.expr} < 0:")
            self._trap(
                f"raise _VMTrap('bad array length %r'"
                f" % ({ln.expr},), {fn_name!r}, {pos(p)})"
            )
            self._alloc(p)
            t = self._newtmp()
            E(f"{t} = _FNew(_RArray)")
            E(f"{t}.slots = [0] * {ln.expr}")
            vstack.append(_VEntry(t, atom=True))
        elif op == _IO:
            E(f"{cy} += {self.io_base * arg}")
            E("_stats.io_ops += 1")
            t = self._newtmp()
            E(f"{t} = _vm._io_value(_eng.thread)")
            vstack.append(_VEntry(t, atom=True))
        elif op == _SPAWN:
            nargs = self._arity(p)
            msg = f"call to unloaded function {arg!r}"
            if nargs is None:
                # Late-bound callee and arity: the arguments are still
                # on the frame's stack.
                E(f"_callee = _functions.get({arg!r})")
                E("if _callee is None:")
                self._trap(f"raise _VMTrap({msg!r}, {fn_name!r}, {pos(p)})")
                E("_n = len(stack) - _callee.num_params")
                E("_args = stack[_n:]")
                E("del stack[_n:]")
                callee_ref, arglist = "_callee", "_args"
            else:
                args_ent = self._take(nargs)
                if self.dynamic:
                    callee_ref = "_callee"
                    E(f"_callee = _functions.get({arg!r})")
                    E("if _callee is None:")
                    self._trap(
                        f"raise _VMTrap({msg!r}, {fn_name!r}, {pos(p)})",
                        args_ent,
                    )
                else:
                    self.extras[f"_sp{p}"] = ("callee", p)
                    callee_ref = self.glob("_sp", p)
                arglist = "[" + ", ".join(a.expr for a in args_ent) + "]"
            t = self._newtmp()
            E(f"{t} = _vm._spawn_thread({callee_ref}, {arglist}).tid")
            vstack.append(_VEntry(t, atom=True))
        elif op == _TRY:
            E(f"{fs}[-1].handlers.append(({pos(arg)}, {self._depth()}))")
        elif op == _ENDTRY:
            E(f"_fr = {fs}[-1]")
            E("if not _fr.handlers:")
            self._trap(
                f"raise _VMTrap('ENDTRY without matching TRY',"
                f" {fn_name!r}, {pos(p)})"
            )
            E("_fr.handlers.pop()")
        elif op == _THROW:
            val = self._atomize(self._vpop())
            out.extend(self._save(ind))
            E(f"return _eng._throw({val.expr}, {fn_name!r}, {pos(p)})")
            return False
        elif op == _LOADFN or op == _REPLACEFN:
            self._canon()
            out.extend(self._save(ind))
            t = self._newtmp()
            E("try:")
            if op == _LOADFN:
                E(f"    {t} = _vm._dyn_load({arg!r})")
                fail = "LOADFN failed: %s"
            else:
                E(f"    {t} = _vm._dyn_replace({arg[0]!r}, {arg[1]!r})")
                fail = "REPLACEFN failed: %s"
            E("except (_BErr, _VErr) as _exc:")
            E(
                f"    raise _VMTrap({fail!r} % (_exc,),"
                f" {fn_name!r}, {pos(p)}) from None"
            )
            out.extend(self._reload(ind, len(vstack)))
            vstack.append(_VEntry(t, atom=True))
        else:  # _OSRPOINT, the last breaker
            # Remap the live frame onto the new body (see the reference
            # ladder): pad/truncate locals in place, drop handler
            # records, and resume just past the matching OSR point — a
            # breaker, so the landing pc always leads a segment.
            self.extras["_fnself"] = ("self",)
            E(f"_cur = _functions.get({fn_name!r})")
            E("if _cur is not None and _cur is not _fnself:")
            E(f"    _landing = _vm._osr_landing(_cur, {arg!r})")
            E("    if _landing is None:")
            msg = f"no OSR point {arg!r} in replacement of {fn_name}"
            self._trap(
                f"raise _VMTrap({msg!r}, {fn_name!r}, {pos(p)})", depth=2
            )
            E("    _stats.osr_remaps += 1")
            out.extend(self._writeback(ind + _I4))
            E("    _nl = _cur.num_locals")
            E("    if len(locals_) < _nl:")
            E("        locals_.extend([0] * (_nl - len(locals_)))")
            E("    elif len(locals_) > _nl:")
            E("        del locals_[_nl:]")
            E(f"    _fr = {fs}[-1]")
            E("    _fr.handlers.clear()")
            E("    _fr.function = _cur")
            E("    _eng._code_for(_cur)")
            out.extend(self._sync(ind + _I4))
            E("    _fr.fast_pc = _eng._heads[_cur][_landing]")
            E(f"    return {_REBIND}")
        return True


class _SegmentEmitter(_Emitter):
    """Generates the segments of one function for the fast tier.

    Each segment is one handler function: its compile-time stack spills
    to the frame's real stack, and every positional value — handler
    slots, pcs, per-pc globals — is spelled through the segment's
    :class:`_Lift`, so the text depends only on the segment's shape.
    """

    def __init__(self, eng, fn: Function):
        super().__init__(eng, fn)
        #: segment-start pc -> handler slot (set once the function is
        #: split into segments)
        self.head_index: Dict[int, int] = {}
        self.lift = _Lift()

    def pos(self, value) -> str:
        return self.lift.const(value)

    def glob(self, prefix: str, pc: int) -> str:
        return self.lift.name(prefix, pc)

    def _vpop(self) -> _VEntry:
        if self.vstack:
            return self.vstack.pop()
        t = self._newtmp()
        self._emit(f"{t} = stack.pop()")
        return _VEntry(t, atom=True)

    def _flush(self) -> None:
        for ent in self.vstack:
            self._emit(f"stack.append({ent.expr})")
        self.vstack.clear()

    def _transfer(self, target: int, pre: List[str], ind: str) -> None:
        self.out.extend(pre)
        self.out.append(ind + f"return {self._slot(target)}")

    def _slot(self, pc: int) -> str:
        return self.lift.const(self.head_index[pc])

    def _depth(self) -> str:
        return "len(stack)"

    def _arity(self, p: int) -> Optional[int]:
        # Dynamic programs bind callees late: the function table can
        # change under compiled code.
        if self.dynamic:
            return None
        return self.vm.program.functions[self.code[p].arg].num_params

    def _gen_segment_src(self, s: int, e: int, nxt: int, cost: int) -> str:
        """The source of segment ``[s, e)``, whose handler slot is
        ``nxt - 1`` and whose ops cost *cost* cycles, with a fresh
        :attr:`lift` of its positional values.

        The observer hooks open the source, then the accounting
        prologue; the body ends in the segment's control transfer, and
        registers in :attr:`extras` the specs of the globals it names.
        """
        self.lift = lift = _Lift()
        self._begin([], _I4, 0)
        self._body(s, e, nxt)
        hooks = self._hooks("", s, e)
        const = lift.const
        return (
            "def _h(stack, locals_):\n"
            + "".join(f"    {line}\n" for line in hooks)
            + "    ni = _stats.instructions\n"
            "    if ni >= _fuel:\n"
            f"        _eng._fuel_trap({const(s)})\n"
            f"    _stats.instructions = ni + {const(e - s)}\n"
            f"    _cy = _stats.cycles + {const(cost)}\n"
            "    _stats.cycles = _cy\n"
            "    if _cy >= _eng.next_tick:\n"
            "        _eng._ticks()\n" + "\n".join(self.out) + "\n"
        )

    def _body(self, s: int, e: int, nxt: int) -> None:
        code = self.code
        ops = self.ops
        fn_name = self.fn_name
        emit = self._emit
        vstack = self.vstack
        const = self.lift.const
        plain = self._plain
        for p in range(s, e):
            op = ops[p]
            arg = code[p].arg
            if plain(op, arg, p):
                continue
            if op in _BREAKERS:
                # Alone in its segment; control falls through it to
                # the next segment unless it throws.
                if self._breaker(op, arg, p):
                    continue
                return
            # A terminator: always the segment's last op.
            if op == _JUMP:
                self._flush()
                self._transfer(arg, self._backward(arg, p, _I4), _I4)
            elif op == _JZ or op == _JNZ:
                ent = self._vpop()
                self._flush()
                if ent.cmp is not None:
                    cop, a, b = ent.cmp
                    sym = _CMP_SYM[cop] if op == _JNZ else _CMP_NSYM[cop]
                    emit(f"if {a} {sym} {b}:")
                else:
                    sym = "!=" if op == _JNZ else "=="
                    emit(f"if {ent.expr} {sym} 0:")
                self._transfer(arg, self._backward(arg, p, _I4 * 2), _I4 * 2)
                emit(f"return {const(nxt)}")
            elif op == _CALL:
                if self.dynamic:
                    # Late-bound: the function table can change under
                    # compiled code, so the callee and its arity are
                    # looked up when the call runs.
                    self._flush()
                    emit(f"_callee = _functions.get({arg!r})")
                    emit("if _callee is None:")
                    msg = f"call to unloaded function {arg!r}"
                    emit(
                        f"    raise _VMTrap({msg!r}, {fn_name!r}, {const(p)})"
                    )
                    callee_ref = "_callee"
                    callee_name = "_callee.name"
                    nargs = "_callee.num_params"
                    arglist = None
                else:
                    callee = self.vm.program.functions[arg]
                    nargs = callee.num_params
                    self.extras[f"_fn{p}"] = ("callee", p)
                    callee_ref = self.glob("_fn", p)
                    callee_name = repr(callee.name)
                    if len(vstack) >= nargs:
                        args_ent = vstack[len(vstack) - nargs:]
                        del vstack[len(vstack) - nargs:]
                        self._flush()
                        arglist = (
                            "[" + ", ".join(a.expr for a in args_ent) + "]"
                        )
                    else:
                        self._flush()
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
                r = self._atomize(self._vpop())
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
            else:  # pragma: no cover - the ISA has no other op
                raise AssertionError(f"op {op} not generatable")
            return
        self._flush()
        emit(f"return {const(nxt)}")

    @staticmethod
    def _backward(target: int, branch_pc: int, ind: str) -> List[str]:
        if target < branch_pc + 1:
            return [ind + "_stats.backward_jumps += 1"]
        return []


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
        refers back to the engine through its namespace, so the handler
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
        """Guest THROW, shared by both tiers' generated code: unwind to
        the innermost handler record and return the rebind sentinel, or
        raise the uncaught-exception trap."""
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
        per segment, each an instance of a generated segment template.

        The segments are generated first (each registers the extras
        specs its source names) and then bound to one namespace per
        function: ``_c{pc}``, ``_fn{pc}``, ``_k{pc}`` and the other
        per-pc globals are unique per pc."""
        em = _SegmentEmitter(self, fn)
        ops = em.ops
        segments = self._segments(fn.code, ops)
        # One handler slot per segment, laid out in code order: branch
        # targets (always segment starts) resolve to segment ordinals,
        # and falling off a segment lands on the next one's slot.
        em.head_index = self._heads[fn] = {
            s: i for i, (s, _e) in enumerate(segments)
        }
        cost = self.vm.cost_model.cost_table()
        generated = []
        for i, (s, e) in enumerate(segments):
            seg_cost = 0
            for p in range(s, e):
                seg_cost += cost[ops[p]]
            src = em._gen_segment_src(s, e, i + 1, seg_cost)
            generated.append(em.lift.instance(src))
        ns = self._namespace(fn, em.extras)
        return [FunctionType(co, ns) for co in generated]
