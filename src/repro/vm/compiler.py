"""Compiled-tier engine: whole-function transpilation to Python source.

The third (and fastest) execution tier.  Where the fast engine
(:mod:`repro.vm.engine`) compiles each *segment* into one generated
function and dispatches through a handler list, this tier lowers an
entire verified :class:`Function` into ONE generated Python function —
a *region* — and dispatches between its extended basic blocks with a
plain integer label and a balanced comparison tree, never returning to
the driver loop for in-region control flow:

* **Guest locals become real Python locals.**  ``LOAD 3`` compiles to a
  mention of the Python local ``l3``; ``STORE 3`` to ``l3 = <expr>``.
  The frame's ``locals`` list is written back only at *environment
  barriers* — points where the rest of the VM can observe the frame:
  instrumentation actions, calls, yields, throws, OSR remaps, dynamic
  code loads, and trap raises.

* **The operand stack is flattened into SSA-style temporaries.**  The
  verifier (:func:`repro.bytecode.verifier.verify_function`) proves a
  single consistent stack depth for every reachable pc, so each block
  entry binds the stack to position-named Python locals ``s0..s{d-1}``
  and straight-line code simulates pushes and pops at compile time,
  exactly like the fast engine's segments — but across whole blocks,
  branches included.  Every op but the control transfers is spelled
  by the emitter the two tiers share (:class:`repro.vm.engine._Emitter`:
  the plain ops and the breakers), with ``l{k}`` locals, the ``_cy``
  cycle mirror, literal positions, and barriers and traps that write
  the frame back first.  The frame's real ``stack`` list is empty
  while the region runs and is refilled at the same environment
  barriers.

* **Eligible leaf callees are outlined framelessly.**  A static CALL
  whose callee is a *leaf* — an entry YIELDPOINT followed only by
  frameless-safe ops (no calls, no instrumentation, no dynamic code,
  no TRY) — compiles to a direct invocation of a generated helper
  ``_lf(cycles, instrs, next_tick, args...)`` that runs the whole
  callee without materializing a guest frame.  The call site performs
  the callee's entry-segment accounting (opcode counts, fuel check,
  charge, tick check, yieldpoint bump) itself; only when the hoisted
  thread-switch test actually fires does it build the two real frames
  and suspend through the driver.  Leaves are disabled under a live
  profiler (samples walk ``vm.frames``) and in dynamic mode (REPLACEFN
  could swap the callee between executions of the site).

* **The observable contract is unchanged.**  Segment boundaries (and
  therefore cycle accounting, virtual-timer tick placement, fuel
  checks, trigger polls, GC-pause attribution and thread switches) are
  computed by the *same* ``FastEngine._segments`` split; telemetry
  events carry the same cycles and pcs; ``OverheadProfiler`` boundaries
  fire at the same observer ops (plain segment heads attribute to the
  ``compiled`` component instead of ``dispatch``); TRY/ENDTRY/THROW
  share the frame handler-record representation and the one unwinder
  (``FastEngine._throw``), and
  LOADFN/REPLACEFN/OSRPOINT retirement works exactly as in the fast
  engine because compiled code is keyed per Function object —
  replacement simply compiles the new Function fresh.

**Fallback.**  Any function the lowerer cannot prove equivalent — an
op outside the lowerable set, unreachable branch targets (no verified
stack depth), an unresolvable dynamic callee arity, oversized code, or
pathological duplication blowup — raises :class:`_Bailout` and the
function is compiled by the inherited fast-engine path instead.  The
two tiers interoperate freely within one run: frames carry resume
slots, and ``_heads`` translates original pcs for THROW and OSR in both
directions.  Fallback counts are recorded in
:attr:`CompiledEngine.compile_counts` and in the telemetry metrics
registry (``vm.compiled.*``).

The documented divergences are the fast engine's: on a VMTrap or fuel
exhaustion, ``stats.cycles``/``instructions`` may overshoot the
reference by up to one segment.  Everything else — ExecStats, output,
events, profiles — is bit-identical, enforced by the 3-way differential
suites.  Regions containing instrumentation actions that *push or pop*
the operand stack are outside the proven contract (in-repo actions only
read ``frame.stack`` and read/write ``frame.locals``, both of which are
spilled and reloaded around every action).

Engine selection: ``VM(engine="compiled")``, ``--engine compiled`` on
the CLI, or ``REPRO_ENGINE=compiled``.  See docs/VM_PERF.md.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bytecode.function import Function
from repro.bytecode.verifier import verify_function
from repro.errors import BytecodeError, VerificationError
from repro.vm.engine import (
    FastEngine,
    _Emitter,
    _VEntry,
    _code,
    _count_src,
    _CMP_SYM,
    _CMP_NSYM,
    _BRANCHES,
    _BREAKERS,
    _I4,
    _REBIND,
    _DONE,
    _YIELD,
    _PUSH, _POP, _DUP, _SWAP, _LOAD, _STORE,
    _ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SHL, _SHR,
    _NEG, _NOT, _LT, _LE, _GT, _GE, _EQ, _NE,
    _JUMP, _JZ, _JNZ, _CALL, _RETURN, _HALT,
    _NEW, _GETFIELD, _PUTFIELD, _NEWARRAY, _ALOAD, _ASTORE, _ALEN,
    _PRINT, _IO, _SPAWN, _NOP, _YIELDPOINT, _CHECK, _INSTR,
    _GUARDED_INSTR, _LOADFN, _REPLACEFN, _OSRPOINT, _TRY, _ENDTRY,
    _THROW,
)

#: Functions longer than this fall back (compile time, not correctness).
_MAX_CODE_LEN = 4000

#: Total lowered-instruction budget, as a multiple of the code length.
#: Entry arms duplicate block tails (a resume point mid-block lowers
#: the remainder inline), which is linear for real code; pathological
#: chains of resume points could go quadratic, so we bail instead.
_EXPANSION_FACTOR = 3

#: Dispatch-tree leaves hold at most this many linear arms.
_LEAF_ARMS = 4

#: Guest-frame depth up to which a static CALL between two compiled
#: regions invokes the callee's region directly on the Python stack
#: instead of bouncing through the driver loop.  Each nested guest
#: call holds one Python frame, so this must sit far below the
#: interpreter recursion limit (default 1000) with room for the test
#: harness; past the cap (or into fast-tier fallback code) the call
#: takes the sentinel path and the driver rebinds as before.
_DIRECT_DEPTH = 150

#: source digest -> compiled code object, process-wide.  Unlike the fast
#: tier's position-independent segment templates, region sources spell
#: their pcs, costs and names as literals; those are deterministic, so
#: every VM over the same program hits this cache.
_REGION_CODE_CACHE: Dict[bytes, object] = {}

#: lowering key -> (code, extras_spec, entry_sorted), or None for a
#: remembered bailout.  The key captures everything source generation
#: reads: the function's name and code shape, per-call-site arities,
#: and the engine's codegen flags (see ``CompiledEngine._lower_key``).
#: Function objects can't anchor the cache directly (``__slots__``
#: without ``__weakref__``), and keying by content is strictly better
#: anyway: REPLACEFN bodies that oscillate between the same templates
#: re-lower for free, and every VM over the same program shares one
#: lowering.  Extras are stored as *specs* — ``("callee", pc)``,
#: ``("arg", pc)``, ``("class", name)``, ``("cell",)``, ``("self",)``
#: — and rebound to live objects per engine by
#: ``FastEngine._namespace``.
_LOWER_CACHE: Dict[tuple, Optional[Tuple[object, Dict[str, tuple], List[int]]]] = {}

#: Every op the lowerer can express.  This is the full current ISA; the
#: set exists so future opcodes degrade to fast-engine fallback instead
#: of miscompiling.
_LOWERABLE = frozenset(
    {
        _PUSH, _POP, _DUP, _SWAP, _LOAD, _STORE,
        _ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SHL, _SHR,
        _NEG, _NOT, _LT, _LE, _GT, _GE, _EQ, _NE,
        _JUMP, _JZ, _JNZ, _CALL, _RETURN, _HALT,
        _NEW, _GETFIELD, _PUTFIELD, _NEWARRAY, _ALOAD, _ASTORE, _ALEN,
        _PRINT, _IO, _SPAWN, _NOP, _YIELDPOINT, _CHECK, _INSTR,
        _GUARDED_INSTR, _LOADFN, _REPLACEFN, _OSRPOINT, _TRY, _ENDTRY,
        _THROW,
    }
)

#: Ops a *leaf-outlined* callee may contain (past its entry
#: YIELDPOINT).  Everything here runs without a guest frame: locals are
#: Python parameters, traps raise directly with the callee's name, and
#: ticks/fuel/GC/IO touch only the engine and stats — never
#: ``frames``.  Excluded on purpose: calls and spawns (need frames),
#: instrumentation and checks (observe frames / poll), TRY/THROW
#: (handler records live on frames), dynamic-code and OSR ops, HALT,
#: and any mid-body YIELDPOINT (a fired switch must suspend a real
#: frame).
_LEAF_SAFE = frozenset(
    {
        _PUSH, _POP, _DUP, _SWAP, _LOAD, _STORE,
        _ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SHL, _SHR,
        _NEG, _NOT, _LT, _LE, _GT, _GE, _EQ, _NE,
        _JUMP, _JZ, _JNZ, _RETURN,
        _NEW, _GETFIELD, _PUTFIELD, _NEWARRAY, _ALOAD, _ASTORE, _ALEN,
        _PRINT, _IO, _NOP,
    }
)

#: leaf lowering key -> (code, extras_spec), or None for a remembered
#: bailout.  Same contract as ``_LOWER_CACHE``: the key (see
#: ``CompiledEngine._leaf_key``) covers everything leaf codegen reads.
_LEAF_CACHE: Dict[tuple, Optional[Tuple[object, Dict[str, tuple]]]] = {}


def _render_dispatch(
    src: List[str], arm_lines: List[List[str]], hot_zero: bool
) -> None:
    """Append the body of a region's or leaf's ``while True:`` loop: a
    balanced comparison tree over the label ``_L`` whose leaves hold
    up to ``_LEAF_ARMS`` linear arms.  With *hot_zero*, arm 0 is tested
    first instead of sitting at the end of the tree's leftmost path."""

    def render(lo: int, hi: int, ind: str) -> None:
        if hi - lo == 1:
            for ln in arm_lines[lo]:
                src.append(ind + ln)
            return
        if hi - lo <= _LEAF_ARMS:
            for k in range(lo, hi):
                if k == lo:
                    src.append(ind + f"if _L == {k}:")
                elif k == hi - 1:
                    src.append(ind + "else:")
                else:
                    src.append(ind + f"elif _L == {k}:")
                for ln in arm_lines[k]:
                    src.append(ind + _I4 + ln)
            return
        mid = (lo + hi) // 2
        src.append(ind + f"if _L < {mid}:")
        render(lo, mid, ind + _I4)
        src.append(ind + "else:")
        render(mid, hi, ind + _I4)

    if hot_zero and len(arm_lines) > 1:
        src.append("        if _L == 0:")
        for ln in arm_lines[0]:
            src.append("            " + ln)
        src.append("        else:")
        render(1, len(arm_lines), "            ")
    else:
        render(0, len(arm_lines), "        ")


class _Bailout(Exception):
    """Raised by the lowerer when a function cannot be proven
    equivalent under region compilation; the engine falls back to the
    fast tier for that function."""


class _Lowerer(_Emitter):
    """Lowers one verified function to region source.

    Produces ``(src, extras_spec, entry_sorted)`` where ``src`` defines
    ``_r(stack, locals_, _L=0)`` plus one ``_e<slot>`` thunk per
    non-zero entry slot, ``extras_spec`` maps per-site global names
    (callees, classes, actions, inline-cache cells) to rebindable
    specs (see ``FastEngine._namespace``), and ``entry_sorted``
    lists entry pcs in slot order (pc 0 first).  The whole triple is
    deterministic in the lowering key, which is what makes
    ``_LOWER_CACHE`` sound.

    The ops other than control transfers are spelled by the emitter
    the fast tier shares (:class:`repro.vm.engine._Emitter`); this
    class says how a region spells what differs: guest locals are the
    Python locals ``l{k}``, the cycle and instruction counts live in
    the mirrors ``_cy``/``_ni``, the frame list in ``_fs``, positions
    are literals, and environment barriers write the frame back.
    """

    frames = "_fs"
    cycles = "_cy"
    local = "l{}"
    head_component = "compiled"

    def __init__(self, eng: "CompiledEngine", fn: Function):
        super().__init__(eng, fn)
        self._budget = 0
        #: True in _LeafLowerer: frameless codegen (no writeback/spill,
        #: RETURN yields the (value, mirrors...) tuple, traps raise
        #: directly).
        self.leaf_mode = False

    # -- analysis -----------------------------------------------------------

    def _analyze(self) -> None:
        vm = self.vm
        code = self.code
        ops = self.ops
        n = len(code)
        if n == 0 or n > _MAX_CODE_LEN:
            raise _Bailout(f"{self.fn_name}: code length {n}")
        for op in ops:
            if op not in _LOWERABLE:
                raise _Bailout(f"{self.fn_name}: op {op} not lowerable")
        try:
            self.depth_at = verify_function(self.fn, vm.program)
        except (VerificationError, BytecodeError) as exc:
            raise _Bailout(f"{self.fn_name}: {exc}") from None

        # Static arity for CALL/SPAWN.  Safe even in dynamic mode:
        # Program.define_at_runtime rejects replacements that change
        # num_params, and loadable templates carry their arity.
        self.arity: Dict[int, int] = {}
        self.callees: Dict[int, Function] = {}
        dynamic = self.eng._dynamic
        for p, (ins, op) in enumerate(zip(code, ops)):
            if op == _CALL or op == _SPAWN:
                try:
                    callee = vm.program.resolve_callable(ins.arg)
                except Exception as exc:
                    raise _Bailout(
                        f"{self.fn_name}: callee {ins.arg!r}: {exc}"
                    ) from None
                self.arity[p] = callee.num_params
                if not dynamic:
                    self.callees[p] = vm.program.functions[ins.arg]

        # Segment split — same boundaries as the fast engine, so the
        # accounting (fuel, ticks, cycle placement) is shared verbatim.
        cost = vm.cost_model.cost_table()
        segments = self.eng._segments(code, ops)
        self.seg_info: Dict[int, Tuple[int, int]] = {}
        self.seg_end: Dict[int, int] = {}
        for (s, e) in segments:
            self.seg_info[s] = (e - s, sum(cost[ops[p]] for p in range(s, e)))
            self.seg_end[s] = e

        # Arm pcs: block pcs are in-region branch targets; entry pcs
        # are reachable from outside the region (driver resume slots).
        self.block_pcs = set()
        for ins, op in zip(code, ops):
            if op in _BRANCHES:
                self.block_pcs.add(ins.arg)
        self.entry_pcs = {0}
        for p, op in enumerate(ops):
            if op in (_CALL, _YIELDPOINT, _OSRPOINT):
                if p + 1 >= n:
                    raise _Bailout(f"{self.fn_name}: fallthrough off end")
                self.entry_pcs.add(p + 1)
            elif op == _TRY:
                self.entry_pcs.add(code[p].arg)
        for pc in self.block_pcs | self.entry_pcs:
            if pc not in self.depth_at:
                raise _Bailout(f"{self.fn_name}: unreachable arm pc {pc}")

        # Guest-local usage: l-vars exist for every slot touched by
        # LOAD/STORE; STOREd slots are the write-back set.
        used = set()
        written = set()
        for ins, op in zip(code, ops):
            if op == _LOAD:
                used.add(ins.arg)
            elif op == _STORE:
                used.add(ins.arg)
                written.add(ins.arg)
        self.used_sorted = sorted(used)
        self.written_sorted = sorted(written)

        # Label assignment, in pc order.  An entry+block pc gets an
        # entry arm (reload) chaining to a canonical arm; an entry-only
        # pc merges both; a block-only pc gets a canonical arm.
        self.labels: Dict[Tuple[str, int], int] = {}
        self.order: List[Tuple[str, int]] = []
        for pc in sorted(self.block_pcs | self.entry_pcs):
            if pc in self.entry_pcs:
                self.labels[("e", pc)] = len(self.order)
                self.order.append(("e", pc))
            if pc in self.block_pcs:
                self.labels[("c", pc)] = len(self.order)
                self.order.append(("c", pc))

        self.entry_sorted = sorted(self.entry_pcs)
        self.slot_of = {pc: i for i, pc in enumerate(self.entry_sorted)}

        self.max_depth = vm.max_stack_depth
        self.fuel = vm.fuel

        # Leaf-outlined call sites: static CALLs to a frameless-safe
        # callee compile to a direct invocation of an outlined helper
        # (see _LeafLowerer), skipping frame construction, spill and
        # reload entirely on the hot path.  Disabled under the profiler
        # (its boundaries sample the frame list) and in dynamic mode
        # (REPLACEFN could swap the callee body out from under the
        # caller's inlined assumptions); both flags are in the lowering
        # key, so each configuration gets its own proven codegen.
        # Context-tracking recorders also disable leaves: a frameless
        # callee is absent from `_eng.frames`, so a gc_pause fired
        # inside one would record the wrong calling context (and `_fs`
        # is not even bound in the leaf namespace).
        self.leafs: Dict[int, Function] = {}
        if not dynamic and not self.prof_on and not self.ctx_on:
            eng = self.eng
            for p, callee in self.callees.items():
                if (
                    ops[p] == _CALL
                    and eng._leaf_eligible(callee)
                    and eng._leaf_lowering(callee) is not None
                ):
                    self.leafs[p] = callee

    # -- the tier's spellings (see _Emitter) ---------------------------------

    def pos(self, value) -> int:
        return value

    def glob(self, prefix: str, pc: int) -> str:
        return f"{prefix}{pc}"

    def _vpop(self) -> _VEntry:
        if not self.vstack:
            # In-region the real stack is empty; an underflow here is a
            # lowerer bug, never a program property (the verifier
            # proved depths).
            raise _Bailout(f"{self.fn_name}: vstack underflow")
        return self.vstack.pop()

    def _transfer(self, target: int, pre: List[str], ind: str) -> None:
        """Emit a transfer to *target*'s block arm at indent *ind*:
        materialize to canonical, run *pre* extra lines, jump."""
        if len(self.vstack) != self.depth_at[target]:
            raise _Bailout(f"{self.fn_name}: depth mismatch at {target}")
        out = self.out
        out.extend(self._mat(ind, self.vstack))
        out.extend(pre)
        out.append(ind + f"_L = {self.labels[('c', target)]}")
        out.append(ind + "continue")

    def _slot(self, pc: int) -> int:
        return self.slot_of[pc]

    def _depth(self) -> int:
        # In-region the frame's real stack is empty.
        return len(self.vstack)

    def _arity(self, p: int) -> int:
        return self.arity[p]

    def _sync(self, ind: str) -> List[str]:
        return [ind + "_stats.cycles = _cy", ind + "_stats.instructions = _ni"]

    def _writeback(self, ind: str) -> List[str]:
        w = self.written_sorted
        if not w:
            return []
        if len(w) == 1:
            return [ind + f"locals_[{w[0]}] = l{w[0]}"]
        lhs = ", ".join(f"locals_[{k}]" for k in w)
        rhs = ", ".join(f"l{k}" for k in w)
        return [ind + f"{lhs} = {rhs}"]

    def _spill(self, ind: str, vstack: List[_VEntry]) -> List[str]:
        if not vstack:
            return []
        if len(vstack) == 1:
            return [ind + f"stack.append({vstack[0].expr})"]
        exprs = ", ".join(ent.expr for ent in vstack)
        return [ind + f"stack += ({exprs})"]

    def _reload(self, ind: str, depth: int) -> List[str]:
        out: List[str] = []
        u = self.used_sorted
        if u:
            lhs = ", ".join(f"l{k}" for k in u)
            if len(u) == 1:
                lhs += ","
            if u == list(range(self.fn.num_locals)):
                # The frame's locals list always holds exactly
                # num_locals values, so a straight unpack is safe (and
                # one C-level operation instead of N subscripts).
                out.append(ind + f"{lhs} = locals_")
            elif len(u) == 1:
                out.append(ind + f"l{u[0]} = locals_[{u[0]}]")
            else:
                rhs = ", ".join(f"locals_[{k}]" for k in u)
                out.append(ind + f"{lhs} = {rhs}")
        if depth:
            # At every reload point the real stack holds exactly
            # *depth* values (the verifier's depth, maintained by the
            # spill discipline), so unpack rather than index.
            lhs = ", ".join(f"s{i}" for i in range(depth))
            if depth == 1:
                lhs += ","
            out.append(ind + f"{lhs} = stack")
        out.append(ind + "del stack[:]")
        return out

    def _mat(self, ind: str, vstack: List[_VEntry]) -> List[str]:
        """Materialize the compile-time stack into canonical s-vars.

        Parallel (tuple) assignment, because entries may permute the
        canonical names (SWAP leaves ``[s1, s0]``)."""
        pairs = [
            (f"s{i}", ent.expr)
            for i, ent in enumerate(vstack)
            if ent.expr != f"s{i}"
        ]
        if not pairs:
            return []
        if len(pairs) == 1:
            return [ind + f"{pairs[0][0]} = {pairs[0][1]}"]
        lhs = ", ".join(p[0] for p in pairs)
        rhs = ", ".join(p[1] for p in pairs)
        return [ind + f"{lhs} = {rhs}"]

    def _head(self, ind: str, s: int) -> List[str]:
        """The per-segment observer/accounting block, in the fast
        engine's order: profiler boundary, opcode counts, then fuel
        check / charge / tick check.  CHECK and GUARDED_INSTR count
        their profiler boundary after the op instead."""
        out = self._hooks(ind, s, self.seg_end[s])
        SL, SC = self.seg_info[s]
        out.append(ind + f"if _ni >= {self.fuel}:")
        out += self._sync(ind + _I4)
        out += self._writeback(ind + _I4)
        out.append(ind + _I4 + f"_eng._fuel_trap({s})")
        out.append(ind + f"_ni += {SL}")
        if SC:
            out.append(ind + f"_cy += {SC}")
        # The tick check runs even for zero-cost segments: penalties,
        # action costs, GC pauses and IO charges accrued since the last
        # head must surface a tick here, exactly as in the fast engine.
        out.append(ind + "if _cy >= _nt:")
        out.append(ind + _I4 + "_stats.cycles = _cy")
        out.append(ind + _I4 + "_stats.instructions = _ni")
        out.append(ind + _I4 + "_eng._ticks()")
        out.append(ind + _I4 + "_nt = _eng.next_tick")
        return out

    # -- the walk -----------------------------------------------------------

    def _walk(self, start: int, out: List[str], ind: str) -> None:
        """Lower straight-line flow from *start* until control leaves
        the arm: a transfer to a block arm, a region exit, or a raise.
        Forward-only; breaker singletons are crossed inline (their
        segment head block is emitted mid-walk)."""
        fn_name = self.fn_name
        code = self.code
        ops = self.ops
        depth_at = self.depth_at
        self._begin(out, ind, depth_at[start])
        vstack = self.vstack
        E = self._emit
        plain = self._plain

        p = start
        first = True
        while True:
            if not first and p in self.block_pcs:
                self._transfer(p, [], ind)
                return
            first = False
            if p >= len(code):
                raise _Bailout(f"{fn_name}: walked off code end")
            if p in self.seg_info:
                out.extend(self._head(ind, p))
            self._budget += 1
            if self._budget > _EXPANSION_FACTOR * len(code) + 64:
                raise _Bailout(f"{fn_name}: expansion budget exceeded")

            ins = code[p]
            op = ops[p]
            arg = ins.arg

            if plain(op, arg, p):
                p += 1
                continue
            if op in _BREAKERS:
                # What a region cannot resume from, the fast tier
                # (which has no tier to fall back to) runs anyway.
                if op == _YIELDPOINT and len(vstack) != depth_at[p + 1]:
                    raise _Bailout(f"{fn_name}: depth mismatch at yield {p}")
                if op == _OSRPOINT and vstack:
                    raise _Bailout(f"{fn_name}: OSRPOINT at depth != 0")
                if not self._breaker(op, arg, p):
                    return
                p += 1
                continue

            # ---- control transfers ---------------------------------
            if op == _JUMP:
                pre = []
                if arg < p + 1:
                    pre = [ind + "_stats.backward_jumps += 1"]
                self._transfer(arg, pre, ind)
                return
            elif op == _JZ or op == _JNZ:
                ent = self._vpop()
                if ent.cmp is not None:
                    cop, ca, cb = ent.cmp
                    sym = _CMP_SYM[cop] if op == _JNZ else _CMP_NSYM[cop]
                    E(f"if {ca} {sym} {cb}:")
                else:
                    sym = "!=" if op == _JNZ else "=="
                    E(f"if {ent.expr} {sym} 0:")
                pre = []
                if arg < p + 1:
                    pre = [ind + _I4 + "_stats.backward_jumps += 1"]
                self._transfer(arg, pre, ind + _I4)
                # fallthrough continues inline with the lazy stack
            elif op == _CALL:
                nargs = self.arity[p]
                args_ent = self._take(nargs)
                if p in self.leafs:
                    # Leaf-outlined call: the callee runs as a plain
                    # Python function with no guest frame.  The caller
                    # performs the callee's entry-segment accounting
                    # (the segment is exactly the entry YIELDPOINT) and
                    # evaluates the yieldpoint itself — if a thread
                    # switch is due, nothing has executed yet, so the
                    # cold path materializes both frames and suspends
                    # exactly as a framed call would.  On the hot path
                    # the caller's locals, pending stack and mirrors
                    # all stay in Python locals across the call, and
                    # the walk continues inline at p + 1 (which remains
                    # an entry arm for the cold path's resume).
                    callee = self.leafs[p]
                    cname = callee.name
                    self.extras[f"_fn{p}"] = ("callee", p)
                    self.extras[f"_lf{p}"] = ("leaf", p)
                    E("_stats.calls += 1")
                    E(f"if len(_fs) >= {self.max_depth}:")
                    self._trap(
                        f"raise _SO('call depth %d in %s'"
                        f" % (len(_fs), {cname!r}))",
                        args_ent,
                    )
                    # Callee entry-segment head (fuel / charge / tick),
                    # with the fuel trap raised directly: the reference
                    # message names the callee, which is a compile-time
                    # literal here, so no frame is needed.
                    lops = [int(i.op) for i in callee.code]
                    cs, ce = self.eng._segments(callee.code, lops)[0]
                    lcost = self.vm.cost_model.cost_table()
                    SC0 = sum(lcost[lops[q]] for q in range(cs, ce))
                    SL0 = ce - cs
                    if self.oc_on:
                        for ln in _count_src(lops, cs, ce):
                            E(ln)
                    fuel_msg = (
                        f"instruction budget of {self.fuel}"
                        f" exhausted in {cname}@0"
                    )
                    E(f"if _ni >= {self.fuel}:")
                    out.extend(self._sync(ind + _I4))
                    E(f"    raise _FuelErr({fuel_msg!r})")
                    E(f"_ni += {SL0}")
                    if SC0:
                        E(f"_cy += {SC0}")
                    E("if _cy >= _nt:")
                    E("    _stats.cycles = _cy")
                    E("    _stats.instructions = _ni")
                    E("    _eng._ticks()")
                    E("    _nt = _eng.next_tick")
                    yind = self._switch_poll()
                    out.extend(self._save(yind))
                    out.append(yind + "_fr = _fs[-1]")
                    out.append(yind + f"_fr.pc = {p + 1}")
                    out.append(
                        yind + f"_fr.fast_pc = {self.slot_of[p + 1]}"
                    )
                    pad = callee.num_locals - nargs
                    loc = (
                        "["
                        + ", ".join(
                            [a.expr for a in args_ent] + ["0"] * pad
                        )
                        + "]"
                    )
                    out.append(yind + "_nf = _FNew(_Frame)")
                    out.append(yind + f"_nf.function = _fn{p}")
                    out.append(yind + "_nf.pc = 1")
                    # The callee's entry pcs are exactly {0, 1} (its
                    # only breaker successor is the entry yieldpoint's),
                    # and the fast tier's segment split agrees, so slot
                    # 1 resumes at pc 1 under either fallback tier.
                    out.append(yind + "_nf.fast_pc = 1")
                    out.append(yind + f"_nf.locals = {loc}")
                    out.append(yind + "_nf.stack = []")
                    out.append(yind + "_nf.handlers = []")
                    out.append(yind + "_fs.append(_nf)")
                    out.append(yind + f"return {_YIELD}")
                    t = self._newtmp()
                    argtail = "".join(", " + a.expr for a in args_ent)
                    E(
                        f"{t}, _cy, _ni, _nt ="
                        f" _lf{p}(_cy, _ni, _nt{argtail})"
                    )
                    vstack.append(_VEntry(t, atom=True))
                    p += 1
                    continue
                if p in self.callees:
                    callee_ref = f"_fn{p}"
                    self.extras[callee_ref] = ("callee", p)
                    depth_msg = (
                        f"raise _SO('call depth %d in %s'"
                        f" % (len(_fs), {self.callees[p].name!r}))"
                    )
                else:
                    callee_ref = "_callee"
                    E(f"_callee = _functions.get({arg!r})")
                    E("if _callee is None:")
                    msg = f"call to unloaded function {arg!r}"
                    self._trap(
                        f"raise _VMTrap({msg!r}, {fn_name!r}, {p})",
                        args_ent,
                    )
                    depth_msg = (
                        "raise _SO('call depth %d in %s'"
                        " % (len(_fs), _callee.name))"
                    )
                E("_stats.calls += 1")
                E("_d = len(_fs)")
                E(f"if _d >= {self.max_depth}:")
                self._trap(depth_msg, args_ent)
                out.extend(self._save(ind))
                E("_fr = _fs[-1]")
                E(f"_fr.pc = {p + 1}")
                E(f"_fr.fast_pc = {self.slot_of[p + 1]}")
                arglist = "[" + ", ".join(a.expr for a in args_ent) + "]"
                if p in self.callees:
                    # Direct-call fast path: invoke the callee's region
                    # on the Python stack.  On a normal return the
                    # callee has popped its frame and pushed the result
                    # on ours, and our resume slot is untouched — so
                    # resume inline through the entry arm (which
                    # reloads from the frame, exactly as the driver
                    # would).  The slot test also admits a THROW that
                    # unwound to a handler in this frame at this very
                    # slot; the entry-arm reload is correct for that
                    # path too.  Anything else (yield, halt, deeper
                    # rebind, our slot changed) propagates to the
                    # driver.  Mirrors must be re-read: the callee
                    # advanced the shared ExecStats.
                    hc = f"_hc{p}"
                    self.extras[hc] = ("dcell",)
                    pad = self.callees[p].num_locals - nargs
                    if pad >= 0:
                        # Inline frame construction: the callee's local
                        # count is a compile-time constant (and part of
                        # the lowering key), so the padded locals list
                        # is one literal and the ctor call disappears.
                        loc = (
                            "["
                            + ", ".join(
                                [a.expr for a in args_ent] + ["0"] * pad
                            )
                            + "]"
                        )
                        E("_nf = _FNew(_Frame)")
                        E(f"_nf.function = {callee_ref}")
                        E("_nf.pc = 0")
                        E("_nf.fast_pc = 0")
                        E(f"_nf.locals = {loc}")
                        E("_nf.stack = []")
                        E("_nf.handlers = []")
                        if self.ctx_on:
                            E("_nf.ctx = None")
                    else:  # pragma: no cover - verifier rejects this
                        E(f"_nf = _Frame({callee_ref}, {arglist})")
                    E("_fs.append(_nf)")
                    E(f"_h = {hc}[0]")
                    E("if _h is None:")
                    E(f"    _h = {hc}[0] = _eng._direct_entry({callee_ref})")
                    E(f"if _h is not False and _d < {_DIRECT_DEPTH - 1}:")
                    E("    _rv = _h(_nf.stack, _nf.locals)")
                    E(
                        f"    if _rv == {_REBIND} and _fs[-1] is _fr"
                        f" and _fr.fast_pc == {self.slot_of[p + 1]}:"
                    )
                    E("        _cy = _stats.cycles")
                    E("        _ni = _stats.instructions")
                    E("        _nt = _eng.next_tick")
                    E(f"        _L = {self.labels[('e', p + 1)]}")
                    E("        continue")
                    E("    return _rv")
                else:
                    E(f"_fs.append(_Frame({callee_ref}, {arglist}))")
                E(f"return {_REBIND}")
                return
            elif op == _RETURN:
                if self.leaf_mode:
                    # Hand the updated mirrors back to the caller's
                    # region; counters went straight to _stats.  The
                    # value expression is used exactly once, so no
                    # atomization is needed.
                    r = self._vpop()
                    E("_stats.returns += 1")
                    E(f"return ({r.expr}, _cy, _ni, _nt)")
                    return
                r = self._atomize(self._vpop())
                E("_stats.returns += 1")
                out.extend(self._sync(ind))
                E("_fs.pop()")
                E("if not _fs:")
                E("    _th = _eng.thread")
                E("    _th.done = True")
                E(f"    _th.result = {r.expr}")
                E(f"    return {_DONE}")
                E(f"_fs[-1].stack.append({r.expr})")
                E(f"return {_REBIND}")
                return
            elif op == _HALT:
                out.extend(self._sync(ind))
                E("_th = _eng.thread")
                E("_th.done = True")
                E("_th.result = 0")
                E(f"return {_DONE}")
                return
            else:  # pragma: no cover - guarded by _LOWERABLE
                raise _Bailout(f"{fn_name}: unhandled op {op}")
            p += 1

    # -- arm and module assembly --------------------------------------------

    def _loopify(self, body: List[str], self_label: int) -> List[str]:
        """Turn an arm that transfers back to its own head into a real
        Python loop.

        Hot inner loops compile to canonical arms whose back-edge is a
        transfer to themselves; without this pass every iteration pays
        a full dispatch-tree descent.  Wrapping the arm in ``while
        True:`` rewrites self-transfers (``_L = k; continue``) into a
        bare ``continue`` of the inner loop and every *other* transfer's
        ``continue`` into ``break`` (falling out to the outer dispatch
        loop, which re-reads ``_L``).  Accounting is untouched: the
        arm's segment head — fuel, charge, tick check, observer
        boundaries — is part of the loop body and reruns on every
        iteration exactly as the dispatched form did.  Safe because the
        only ``continue`` statements a canonical arm emits are
        transfers, and the loops the walk itself generates (the
        YIELDPOINT thread scan, and the same scan hoisted to an
        outlined leaf's call site) exit by ``return``, never ``break``.
        """
        tag = f"_L = {self_label}"
        if not any(ln.lstrip() == tag for ln in body):
            return body
        out = ["while True:"]
        i = 0
        while i < len(body):
            ln = body[i]
            ind = ln[: len(ln) - len(ln.lstrip())]
            stripped = ln.lstrip()
            if (
                stripped == tag
                and i + 1 < len(body)
                and body[i + 1] == ind + "continue"
            ):
                out.append(_I4 + ind + "continue")
                i += 2
            elif stripped == "continue":
                out.append(_I4 + ind + "break")
                i += 1
            else:
                out.append(_I4 + ln)
                i += 1
        return out

    def lower(self) -> Tuple[str, Dict[str, tuple], List[int]]:
        self._analyze()
        arm_lines: List[List[str]] = []
        for kind, pc in self.order:
            body: List[str] = []
            if kind == "e":
                body.extend(self._reload("", self.depth_at[pc]))
                if ("c", pc) in self.labels:
                    body.append(f"_L = {self.labels[('c', pc)]}")
                    body.append("continue")
                else:
                    self._walk(pc, body, "")
            else:
                self._walk(pc, body, "")
                body = self._loopify(body, self.labels[("c", pc)])
            arm_lines.append(body)

        src: List[str] = [
            "def _r(stack, locals_, _L=0):",
            "    _cy = _stats.cycles",
            "    _ni = _stats.instructions",
            "    _nt = _eng.next_tick",
            "    _fs = _eng.frames",
            "    while True:",
        ]

        # Arm 0 is the function-entry arm — the target of every call —
        # so it is tested first.
        _render_dispatch(src, arm_lines, True)
        for pc in self.entry_sorted[1:]:
            slot = self.slot_of[pc]
            lab = self.labels[("e", pc)]
            src.append(f"def _e{slot}(stack, locals_):")
            src.append(f"    return _r(stack, locals_, {lab})")
        return "\n".join(src) + "\n", self.extras, self.entry_sorted


class _LeafLowerer(_Lowerer):
    """Lowers an eligible leaf callee to an *outlined* frameless helper:

    ``_lf(_cy, _ni, _nt, l0, .., l{np-1}) -> (value, _cy, _ni, _nt)``

    Guest locals are Python parameters (plus zero-initialized extras),
    the operand stack is entirely virtual, and no :class:`Frame` ever
    exists: caller regions invoke the helper directly after performing
    the callee's entry-segment accounting themselves (see the leaf
    branch of ``_Lowerer._walk``).  Eligibility
    (``CompiledEngine._leaf_eligible``) restricts the body to
    ``_LEAF_SAFE`` ops past the entry YIELDPOINT, all of which observe
    only ``_stats``/``_eng``/``_vm`` — never the frame list — so traps
    and fuel exhaustion raise directly with the callee's name and the
    suspended-frame protocol is never needed.  Accounting (segment
    heads, ticks, GC pauses, IO charges, opcode counts, telemetry
    events) is emitted by the inherited walk and is bit-identical to
    the framed lowering.
    """

    def __init__(self, eng: "CompiledEngine", fn: Function):
        super().__init__(eng, fn)
        self.leaf_mode = True

    # Frameless: the frame's locals/stack don't exist, so environment
    # barriers degrade to mirror syncs (the only barrier-ish paths a
    # leaf can reach are trap raises).
    def _writeback(self, ind: str) -> List[str]:
        return []

    def _spill(self, ind: str, vstack: List[_VEntry]) -> List[str]:
        return []

    def _reload(self, ind: str, depth: int) -> List[str]:  # pragma: no cover
        raise _Bailout(f"{self.fn_name}: reload in leaf codegen")

    def _head(self, ind: str, s: int) -> List[str]:
        # Same head as a region, but the fuel trap raises directly:
        # the reference message names the executing function, a
        # compile-time literal here.
        out = super()._head(ind, s)
        trap = ind + _I4 + f"_eng._fuel_trap({s})"
        msg = (
            f"instruction budget of {self.fuel}"
            f" exhausted in {self.fn_name}@{s}"
        )
        return [
            ind + _I4 + f"raise _FuelErr({msg!r})" if ln == trap else ln
            for ln in out
        ]

    def lower_leaf(self) -> Tuple[str, Dict[str, tuple]]:
        self._analyze()
        ops = self.ops
        if self.prof_on or self.ctx_on or self.eng._dynamic:
            raise _Bailout(
                f"{self.fn_name}: leaf under profiler/context/dynamic"
            )
        if not ops or ops[0] != _YIELDPOINT:
            raise _Bailout(f"{self.fn_name}: leaf without entry yieldpoint")
        for op in ops[1:]:
            if op not in _LEAF_SAFE:
                raise _Bailout(f"{self.fn_name}: op {op} not leaf-safe")

        # Arms: a start arm walking from pc 1 (the entry yieldpoint is
        # consumed by the caller) plus one canonical arm per branch
        # target.  No entry arms — a leaf is never resumed.
        self.labels = {}
        self.order = []
        if 1 not in self.block_pcs:
            self.labels[("x", 1)] = 0
            self.order.append(("x", 1))
        for pc in sorted(self.block_pcs):
            self.labels[("c", pc)] = len(self.order)
            self.order.append(("c", pc))

        arm_lines: List[List[str]] = []
        for kind, pc in self.order:
            body: List[str] = []
            self._walk(pc, body, "")
            if kind == "c":
                body = self._loopify(body, self.labels[("c", pc)])
            arm_lines.append(body)

        np = self.fn.num_params
        params = "".join(f", l{k}" for k in range(np))
        src: List[str] = [f"def _lf(_cy, _ni, _nt{params}):"]
        zero = [f"l{k}" for k in self.used_sorted if k >= np]
        if zero:
            src.append("    " + " = ".join(zero) + " = 0")
        if len(arm_lines) == 1:
            # Straight-line leaf: no dispatch loop at all.
            for ln in arm_lines[0]:
                src.append("    " + ln)
        else:
            start = (
                0 if ("x", 1) in self.labels else self.labels[("c", 1)]
            )
            src.append(f"    _L = {start}")
            src.append("    while True:")
            _render_dispatch(src, arm_lines, self.order[0] == ("x", 1))
        return "\n".join(src) + "\n", self.extras


class CompiledEngine(FastEngine):
    """Region-compiling engine: whole functions lowered to generated
    Python, with per-function fallback to the inherited fast tier.

    Shares the fast engine's driver loop, tick/fuel helpers, segment
    model, head maps and dynamic-code discipline; only ``_compile`` is
    replaced.  Construction eagerly compiles every function in the
    program (dynamic functions arrive lazily through ``_code_for``).
    """

    def __init__(self, vm):
        #: regions / fallbacks / cache_hits / invalidations / leafs for
        #: this run.  All but cache_hits are mirrored into the telemetry
        #: metrics registry (when one is attached) as ``vm.compiled.*``
        #: counters; a cache hit depends on the process's history, not
        #: on the run.
        self.compile_counts: Dict[str, int] = {
            "regions": 0,
            "fallbacks": 0,
            "cache_hits": 0,
            "invalidations": 0,
            "leafs": 0,
        }
        self._fn_by_name: Dict[str, Function] = {}
        #: Function -> outlined leaf helper bound to this engine.
        self._leaf_fns: Dict[Function, Callable] = {}
        #: Functions whose handlers are region entry points (vs
        #: fast-tier fallback handlers); only these may be invoked
        #: directly by the in-region call fast path.
        self._region_fns: set = set()
        super().__init__(vm)

    # -- compilation --------------------------------------------------------

    def _compile(self, fn: Function) -> List[Callable]:
        name = fn.name
        prev = self._fn_by_name.get(name)
        if prev is not None and prev is not fn:
            # REPLACEFN/OSR retirement: derived state is keyed by
            # Function object, so the new body compiles fresh and the
            # retired region dies with its last live frame.
            self.compile_counts["invalidations"] += 1
            self._note_metric("invalidations", name)
        self._fn_by_name[name] = fn
        try:
            handlers = self._lower(fn)
        except _Bailout:
            self.compile_counts["fallbacks"] += 1
            self._note_metric("fallbacks", name)
            return FastEngine._compile(self, fn)
        self.compile_counts["regions"] += 1
        self._region_fns.add(fn)
        self._note_metric("regions", name)
        return handlers

    def release(self) -> None:
        super().release()
        self._leaf_fns.clear()

    def _direct_entry(self, fn: Function):
        """The callee's slot-0 region handler for the direct-call fast
        path, or ``False`` when the callee fell back to the fast tier
        (whose per-segment handlers speak the index protocol and must
        go through the driver)."""
        handlers = self._code_for(fn)
        return handlers[0] if fn in self._region_fns else False

    # -- leaf outlining -----------------------------------------------------

    def _leaf_eligible(self, fn: Function) -> bool:
        """Cheap shape test for leaf outlining: an entry YIELDPOINT
        followed exclusively by frameless-safe ops (see _LEAF_SAFE).
        The shape guarantees the callee's entry pcs are exactly
        ``{0, 1}``, which the caller's cold suspend path relies on."""
        code = fn.code
        if not code or len(code) > _MAX_CODE_LEN:
            return False
        if int(code[0].op) != _YIELDPOINT:
            return False
        if fn.num_locals < fn.num_params:  # pragma: no cover - verifier
            return False
        return all(int(ins.op) in _LEAF_SAFE for ins in code[1:])

    def _leaf_key(self, fn: Function) -> tuple:
        return ("leaf",) + self._lower_key(fn)

    def _leaf_lowering(self, fn: Function) -> Optional[Tuple[object, Dict[str, tuple]]]:
        """The cached ``(code, extras_spec)`` for *fn*'s outlined leaf
        helper, or None if leaf lowering bails (callers then emit the
        ordinary framed call for that site)."""
        key = self._leaf_key(fn)
        if key in _LEAF_CACHE:
            return _LEAF_CACHE[key]
        try:
            src, spec = _LeafLowerer(self, fn).lower_leaf()
        except _Bailout:
            lowered = None
        else:
            lowered = (_code(src, "<leaf>", _REGION_CODE_CACHE), spec)
        _LEAF_CACHE[key] = lowered
        return lowered

    def _leaf_entry(self, fn: Function) -> Callable:
        """The outlined leaf helper for *fn*, bound to this engine's
        stats/recorder/extras.  Only reached through an extras spec
        emitted for a proven-eligible site, so the lowering is always
        present in the cache."""
        cached = self._leaf_fns.get(fn)
        if cached is not None:
            return cached
        co, spec = self._leaf_lowering(fn)
        ns = self._namespace(fn, spec)
        exec(co, ns)
        leaf = ns["_lf"]
        self._leaf_fns[fn] = leaf
        self.compile_counts["leafs"] += 1
        self._note_metric("leafs", fn.name)
        return leaf

    def _lower_key(self, fn: Function) -> tuple:
        """A hashable key that determines the lowering output exactly.

        Covers the function's name (embedded in trap messages), code
        shape (ops plus every immediate argument the generated text
        can mention — opaque action objects are keyed by a placeholder
        because the source only ever references them through an extras
        global), per-call-site arity (two programs may bind the same
        callee name to different signatures), and the engine's codegen
        flags and cost constants.
        """
        vm = self.vm

        def norm(a: object) -> object:
            # Exact-class checks: bool and float are normalized with a
            # type tag so PUSH True and PUSH 1 (whose reprs differ in
            # the generated text) can never share a key.
            cls = a.__class__
            if a is None or cls is int or cls is str:
                return a
            if cls is bool or cls is float:
                return (cls.__name__, a)
            return None

        sig: List[tuple] = []
        for p, ins in enumerate(fn.code):
            arg = ins.arg
            op = int(ins.op)
            if op == _INSTR or op == _GUARDED_INSTR:
                # The action object is opaque to the generated source —
                # it is only ever reached through an extras global.
                karg: object = "<action>"
            elif isinstance(arg, tuple):
                karg = tuple(norm(a) for a in arg)
                if any(k is None and a is not None for k, a in zip(karg, arg)):
                    karg = ("<opaque>", p, id(arg))
            else:
                karg = norm(arg)
                if karg is None and arg is not None:
                    # Unknown immediate: the source may embed its repr,
                    # so key by identity — never shared, never wrong.
                    karg = ("<opaque>", p, id(arg))
            if op == _CALL or op == _SPAWN:
                # Arity shapes the argument split and the inlined
                # frame's locals pad, so both callee facts are part of
                # the key.  A leaf-eligible callee goes further: the
                # caller's source embeds the callee's entry-segment
                # cost and invokes its outlined body, so the whole
                # callee lowering key joins the site's entry.
                try:
                    callee = vm.program.resolve_callable(arg)
                    arity: object = (callee.num_params, callee.num_locals)
                except Exception:
                    arity = ("<unresolvable>", p)
                else:
                    leaf_fn = (
                        None
                        if self._dynamic or op != _CALL
                        else vm.program.functions.get(arg)
                    )
                    if leaf_fn is not None and self._leaf_eligible(leaf_fn):
                        arity = arity + self._leaf_key(leaf_fn)
                sig.append((op, karg, arity))
            elif op == _NEW:
                # The inlined allocation embeds the field count.
                try:
                    nf: object = vm.program.classes[arg].num_fields()
                except Exception:
                    nf = ("<noclass>", p)
                sig.append((op, karg, nf))
            else:
                sig.append((op, karg))
        return (fn.name, fn.num_params, fn.num_locals, tuple(sig)) + self._flags_key()

    def _flags_key(self) -> tuple:
        key = self.__dict__.get("_flags_key_cached")
        if key is None:
            vm = self.vm
            cost = vm.cost_model.cost_table()
            cost_key = (
                tuple(cost)
                if not isinstance(cost, dict)
                else tuple(sorted(cost.items()))
            )
            prof = vm.profiler
            key = (
                self._dynamic,
                vm.recorder is not None,
                # Context-tracking recorders change the emitted hook
                # calls *and* the leaf-outlining decision, so they must
                # not share lowered code with plain recorders.
                vm.recorder is not None
                and getattr(vm.recorder, "wants_context", False),
                vm.stats.opcode_counts is not None,
                prof is not None and prof.enabled,
                vm.fuel,
                vm.max_stack_depth,
                vm.cost_model.sample_transfer_penalty,
                vm.cost_model.gc_every_allocs,
                vm.cost_model.gc_pause_cycles,
                vm.cost_model.io_base_cost,
                cost_key,
            )
            self._flags_key_cached = key
        return key

    def _lower(self, fn: Function) -> List[Callable]:
        key = self._lower_key(fn)
        if key in _LOWER_CACHE:
            cached = _LOWER_CACHE[key]
            if cached is None:
                raise _Bailout(f"{fn.name}: remembered bailout")
            co, spec, entry_sorted = cached
            # A hit depends on what the process lowered before, so it
            # stays out of the run's metrics (and its manifest).
            self.compile_counts["cache_hits"] += 1
        else:
            try:
                src, spec, entry_sorted = _Lowerer(self, fn).lower()
            except _Bailout:
                _LOWER_CACHE[key] = None
                raise
            co = _code(src, "<region>", _REGION_CODE_CACHE)
            _LOWER_CACHE[key] = (co, spec, entry_sorted)
        ns = self._namespace(fn, spec)
        exec(co, ns)
        handlers: List[Callable] = [ns["_r"]]
        for i in range(1, len(entry_sorted)):
            handlers.append(ns[f"_e{i}"])
        self._heads[fn] = {pc: i for i, pc in enumerate(entry_sorted)}
        return handlers

    def _note_metric(self, which: str, fn_name: str) -> None:
        rec = self.vm.recorder
        metrics = getattr(rec, "metrics", None) if rec is not None else None
        if metrics is None:
            return
        metrics.counter(f"vm.compiled.{which}").inc()
        metrics.counter(
            f"vm.compiled.{which}.by_function", {"function": fn_name}
        ).inc()
