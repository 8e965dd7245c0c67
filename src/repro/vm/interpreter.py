"""The bytecode interpreter.

Executes a verified :class:`Program` under a :class:`CostModel`,
accumulating deterministic cycle counts (:class:`ExecStats`). The
sampling framework's pseudo-ops are first-class here:

* ``CHECK target`` — polls the VM's trigger; on fire, control transfers
  to *target* (duplicated code) and the sample-transfer penalty is
  charged.
* ``GUARDED_INSTR action`` — polls the trigger; on fire, the
  instrumentation action runs (No-Duplication's guarded operations).
* ``INSTR action`` — always runs the action (exhaustive instrumentation
  and duplicated-code bodies).
* ``YIELDPOINT`` — green-thread scheduling poll; a virtual timer sets
  the threadswitch bit every ``timer_period`` cycles.

Dispatch is a plain if/elif ladder over opcode ints ordered by dynamic
frequency.  This module is the *reference* engine: the behavioural
contract every other engine must match bit-for-bit.  Production runs
default to the segment-threaded fast engine (:mod:`repro.vm.engine`);
the compiled tier (:mod:`repro.vm.compiler`) is the third engine.  Both
are selected via ``VM(engine=...)`` or ``$REPRO_ENGINE``; the
scheduler, threads, stats and heap model here are shared by all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bytecode.opcodes import Op
from repro.bytecode.program import Program
from repro.errors import (
    BytecodeError,
    FuelExhaustedError,
    ReproError,
    StackOverflowError,
    VerificationError,
    VMTrap,
)
from repro.sampling.triggers import NeverTrigger, Trigger
# Opcode ints hoisted for the dispatch ladder: one table, the fast
# engine's.
from repro.vm.engine import (
    FastEngine,
    resolve_engine,
    _PUSH, _POP, _DUP, _SWAP, _LOAD, _STORE, _ADD, _SUB, _MUL, _DIV, _MOD,
    _AND, _OR, _XOR, _SHL, _SHR, _NEG, _NOT, _LT, _LE, _GT, _GE, _EQ, _NE,
    _JUMP, _JZ, _JNZ, _CALL, _RETURN, _HALT, _NEW, _GETFIELD, _PUTFIELD,
    _NEWARRAY, _ALOAD, _ASTORE, _ALEN, _PRINT, _IO, _SPAWN, _NOP,
    _YIELDPOINT, _CHECK, _INSTR, _GUARDED_INSTR, _LOADFN, _REPLACEFN,
    _OSRPOINT, _TRY, _ENDTRY, _THROW,
)
from repro.vm.cost_model import CostModel
from repro.vm.frame import Frame, GreenThread
from repro.vm.tracing import ExecStats
from repro.vm.values import RArray, RObject, Value

#: Ops with their own profiler boundary classification; everything else
#: reports a generic "dispatch" boundary (see repro.profiling).
_PROF_SPECIAL = frozenset({_CHECK, _GUARDED_INSTR, _INSTR, _YIELDPOINT})

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass
class VMResult:
    """Outcome of one VM run."""

    value: Value
    output: List[Value] = field(default_factory=list)
    stats: ExecStats = field(default_factory=ExecStats)
    trigger: Optional[Trigger] = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class VM:
    """A virtual machine instance (one per run; holds all mutable state).

    Args:
        program: verified program to execute.
        cost_model: cycle costs (default :class:`CostModel`).
        trigger: sample trigger polled by CHECK/GUARDED_INSTR
            (default :class:`NeverTrigger` — checks cost cycles but never
            fire).
        timer_period: simulated cycles between virtual timer interrupts
            (sets the threadswitch bit and notifies the trigger).
        fuel: maximum instructions to execute before raising
            :class:`FuelExhaustedError` (infinite-loop guard).
        max_stack_depth: frame-stack limit per thread.
        record_opcode_counts: collect per-opcode execution counts
            (slower; used by calibration tooling).
        engine: ``"fast"`` (segment-threaded generated code, the
            default), ``"compiled"`` (whole functions lowered to one
            generated region each) or ``"reference"`` (this module's
            opcode ladder).  ``None`` consults ``$REPRO_ENGINE`` and
            falls back to "fast".  All three produce bit-identical
            stats/cycles/output/profiles on every run that completes;
            see :mod:`repro.vm.engine`, :mod:`repro.vm.compiler` and
            docs/VM_PERF.md.
        recorder: telemetry recorder whose hooks fire at observer
            boundaries (see :mod:`repro.telemetry.recorder` and
            docs/OBSERVABILITY.md).  ``None`` (the default) compiles /
            dispatches with no telemetry branches at all; all three
            engines emit identical event streams for the same
            program+trigger.
        profiler: a :class:`repro.profiling.OverheadProfiler` sampling
            the *host* interpreter at the same observer boundaries
            (docs/PROFILING.md).  ``None`` or a disabled profiler is a
            compile-time decision exactly like ``recorder=None``: the
            fast tiers generate hook-free code, so the disabled path
            costs nothing.  Profiling reads VM state but never writes
            it — ExecStats/events/profiles are bit-identical with or
            without a profiler attached.
        ledger: a window ledger (:class:`repro.harness.derive.
            WindowLedger`) that the fast tier's generated code logs each
            window boundary into — CHECK and fired GUARDED_INSTR polls,
            RETURN, HALT and THROW unwinds — so that a cell family's
            counter cells can be derived instead of run.  Like the
            recorder and profiler it is a compile-time decision: with no
            ledger the generated code has no ledger lines.  The fast
            engine is the only one that keeps a ledger.
    """

    def __init__(
        self,
        program: Program,
        cost_model: Optional[CostModel] = None,
        trigger: Optional[Trigger] = None,
        timer_period: int = 100_000,
        fuel: int = 500_000_000,
        max_stack_depth: int = 4000,
        record_opcode_counts: bool = False,
        engine: Optional[str] = None,
        recorder=None,
        profiler=None,
        ledger=None,
    ):
        # Dynamic programs mutate their own function table as they run
        # (LOADFN/REPLACEFN install functions); execute a private copy
        # so the caller's program — possibly cached or about to be
        # transformed — is left untouched. Static programs are shared:
        # running them never writes to them.
        self.program = program.copy() if program.is_dynamic() else program
        self.engine = resolve_engine(engine)
        self.cost_model = cost_model or CostModel()
        self.trigger = trigger or NeverTrigger()
        self.timer_period = timer_period
        self.fuel = fuel
        self.max_stack_depth = max_stack_depth
        self.recorder = recorder
        self.profiler = profiler
        if ledger is not None and self.engine != "fast":
            raise ReproError(
                f"the window ledger is compiled into the fast engine "
                f"only, not {self.engine!r}"
            )
        self.ledger = ledger
        self.stats = ExecStats(record_opcode_counts)
        self.output: List[Value] = []
        self.threads: List[GreenThread] = []
        self.current_thread: Optional[GreenThread] = None
        self._next_tid = 0
        self._threadswitch_bit = False
        self._alloc_count = 0
        self._op_tables: dict = {}
        self._osr_landings: dict = {}
        #: Optional observer called as ``(kind, name, template, fn)``
        #: after every effective LOADFN ("load") / REPLACEFN ("replace")
        #: — the incremental certifier's subscription point. Both
        #: engines notify through the shared :meth:`_dyn_load` /
        #: :meth:`_dyn_replace` helpers, so the event stream is
        #: engine-identical.
        self.on_code_event = None

    # -- public API ---------------------------------------------------------

    def run(self) -> VMResult:
        """Execute the program's entry function to completion.

        Spawned threads are run to completion as well (the scheduler
        round-robins at yieldpoints); the result is the entry thread's
        return value.
        """
        entry = self.program.entry_function()
        # The entry thread counts as one method entry (threads_spawned
        # feeds the Property-1 opportunity count).
        main_thread = self._spawn_thread(entry, [])
        prof = self.profiler
        if prof is not None and not prof.enabled:
            prof = None
        if prof is not None:
            # The profiled span opens before engine construction so
            # fast-engine compilation is inside it: every wall second of
            # run() is attributed to some component (docs/PROFILING.md).
            prof.start()
        engine = None
        try:
            if self.engine == "fast":
                engine = FastEngine(self)
            elif self.engine == "compiled":
                from repro.vm.compiler import CompiledEngine

                engine = CompiledEngine(self)
            run_one = self._run_thread if engine is None else engine.run_thread
            rec = self.recorder
            index = 0
            while True:
                runnable = [t for t in self.threads if not t.done]
                if not runnable:
                    break
                index %= len(runnable)
                thread = runnable[index]
                switched = run_one(thread)
                if thread.done or not switched:
                    # Thread finished (or ran dry): move on without
                    # charging a switch.
                    index += 1
                else:
                    self.stats.thread_switches += 1
                    self.stats.cycles += self.cost_model.thread_switch_cost
                    if rec is not None:
                        # This scheduler loop is shared by both engines,
                        # so the event is engine-identical by
                        # construction.
                        rec.thread_switch(self.stats.cycles, thread.tid)
                    index += 1
        finally:
            if prof is not None:
                prof.stop()
            if engine is not None:
                engine.release()
        return VMResult(
            value=main_thread.result if main_thread.result is not None else 0,
            output=self.output,
            stats=self.stats,
            trigger=self.trigger,
        )

    # -- internals --------------------------------------------------------------

    def _spawn_thread(self, fn, args: List[Value]) -> GreenThread:
        thread = GreenThread(self._next_tid, fn, args)
        self._next_tid += 1
        self.threads.append(thread)
        self.stats.threads_spawned += 1
        return thread

    def _io_value(self, thread: GreenThread) -> int:
        thread.io_state = (thread.io_state * _LCG_A + _LCG_C) & _LCG_MASK
        return (thread.io_state >> 33) & 0xFFFF

    def _op_table(self, fn) -> List[int]:
        """Per-function opcode-int table, computed once per VM.

        Hoists the per-instruction ``int(ins.op)`` enum conversion out
        of the dispatch loop — the single hottest attribute lookup in
        the reference engine.
        """
        table = self._op_tables.get(fn)
        if table is None:
            table = [int(ins.op) for ins in fn.code]
            self._op_tables[fn] = table
        return table

    # -- dynamic code (shared by both engines) ------------------------------

    def _dyn_load(self, template_name) -> int:
        """Execute LOADFN: materialize the template (instrument-at-load
        via the program's loader). Returns 1 if newly installed, 0 if a
        repeat load (idempotent)."""
        fn, changed = self.program.define_at_runtime(template_name)
        if changed:
            self.stats.functions_loaded += 1
            if self.on_code_event is not None:
                self.on_code_event("load", fn.name, template_name, fn)
        return 1 if changed else 0

    def _dyn_replace(self, target, template_name) -> int:
        """Execute REPLACEFN: swap *target*'s body for the template.
        Returns 1 on an effective swap, 0 when the template was already
        installed. Live frames keep the retired Function object until
        they reach an OSR point."""
        fn, changed = self.program.define_at_runtime(
            template_name, target=target
        )
        if changed:
            self.stats.functions_replaced += 1
            if self.on_code_event is not None:
                self.on_code_event("replace", fn.name, template_name, fn)
        return 1 if changed else 0

    def _osr_landing(self, fn, osr_id) -> Optional[int]:
        """The pc just past the first OSRPOINT with id *osr_id* in *fn*
        (the checking copy: duplicated code is laid out last), or None.
        Cached per (function, id) — replacement creates new Function
        objects, so stale entries cannot be observed."""
        key = (fn, osr_id)
        if key in self._osr_landings:
            return self._osr_landings[key]
        landing = None
        for idx, ins in enumerate(fn.code):
            if ins.op is Op.OSRPOINT and ins.arg == osr_id:
                landing = idx + 1
                break
        self._osr_landings[key] = landing
        return landing

    def _run_thread(self, thread: GreenThread) -> bool:
        """Run *thread* until it finishes or yields to the scheduler.

        Returns True if the thread yielded (a switch should be charged),
        False if it finished.
        """
        self.current_thread = thread
        self.trigger.notify_thread(thread.tid)
        program_functions = self.program.functions
        classes = self.program.classes
        cost = self.cost_model.cost_table()
        io_base = self.cost_model.io_base_cost
        penalty = self.cost_model.sample_transfer_penalty
        gc_every = self.cost_model.gc_every_allocs
        gc_pause = self.cost_model.gc_pause_cycles
        trigger = self.trigger
        poll = trigger.poll
        notify_tick = trigger.notify_timer_tick
        stats = self.stats
        output = self.output
        rec = self.recorder
        # Self-profiling hooks are hoisted like the recorder's: one
        # predictable branch per instruction when disabled, classified
        # boundary reports when enabled (repro.profiling). Hooks only
        # *read* VM state, so stats/events stay bit-identical either
        # way. This ladder reports every instruction, while the fast and
        # compiled engines report one boundary per segment (and agree
        # with each other), so this ladder's profiler sample counts
        # compare only with its own.
        prof = self.profiler
        if prof is not None and not prof.enabled:
            prof = None
        tid = thread.tid
        fuel = self.fuel
        max_depth = self.max_stack_depth
        timer_period = self.timer_period
        next_tick = (stats.cycles // timer_period + 1) * timer_period
        opcode_counts = stats.opcode_counts
        make_frame = Frame

        frames = thread.frames
        frame = frames[-1]
        code = frame.function.code
        optab = self._op_table(frame.function)
        pc = frame.pc
        stack = frame.stack
        locals_ = frame.locals

        cycles = stats.cycles
        executed = stats.instructions

        while True:
            if executed >= fuel:
                stats.cycles = cycles
                stats.instructions = executed
                raise FuelExhaustedError(
                    f"instruction budget of {fuel} exhausted in "
                    f"{frame.function.name}@{pc}"
                )
            ins = code[pc]
            op = optab[pc]
            executed += 1
            cycles += cost[op]
            if cycles >= next_tick:
                while cycles >= next_tick:
                    stats.timer_ticks += 1
                    if rec is not None:
                        # The boundary (k * timer_period), not the
                        # detection cycle: detection granularity differs
                        # between engines, the boundary does not.
                        rec.timer_tick(next_tick, stats.timer_ticks, tid)
                    next_tick += timer_period
                    notify_tick()
                self._threadswitch_bit = True
            if opcode_counts is not None:
                opcode_counts[op] = opcode_counts.get(op, 0) + 1
            if prof is not None and op not in _PROF_SPECIAL:
                prof.boundary(
                    "dispatch", frame.function.name, pc, op, frames, tid
                )
            pc += 1

            if op == _LOAD:
                stack.append(locals_[ins.arg])
            elif op == _PUSH:
                stack.append(ins.arg)
            elif op == _STORE:
                locals_[ins.arg] = stack.pop()
            elif op == _JUMP:
                target = ins.arg
                if target < pc:
                    stats.backward_jumps += 1
                pc = target
            elif op == _JZ:
                if stack.pop() == 0:
                    target = ins.arg
                    if target < pc:
                        stats.backward_jumps += 1
                    pc = target
            elif op == _JNZ:
                if stack.pop() != 0:
                    target = ins.arg
                    if target < pc:
                        stats.backward_jumps += 1
                    pc = target
            elif op == _ADD:
                b = stack.pop()
                stack[-1] = stack[-1] + b
            elif op == _SUB:
                b = stack.pop()
                stack[-1] = stack[-1] - b
            elif op == _LT:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] < b else 0
            elif op == _LE:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] <= b else 0
            elif op == _GT:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] > b else 0
            elif op == _GE:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] >= b else 0
            elif op == _EQ:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] == b else 0
            elif op == _NE:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] != b else 0
            elif op == _MUL:
                b = stack.pop()
                stack[-1] = stack[-1] * b
            elif op == _DIV:
                b = stack.pop()
                if b == 0:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        "division by zero", frame.function.name, pc - 1
                    )
                stack[-1] = stack[-1] // b
            elif op == _MOD:
                b = stack.pop()
                if b == 0:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap("modulo by zero", frame.function.name, pc - 1)
                stack[-1] = stack[-1] % b
            elif op == _AND:
                b = stack.pop()
                stack[-1] = stack[-1] & b
            elif op == _OR:
                b = stack.pop()
                stack[-1] = stack[-1] | b
            elif op == _XOR:
                b = stack.pop()
                stack[-1] = stack[-1] ^ b
            elif op == _SHL:
                b = stack.pop()
                stack[-1] = stack[-1] << (b & 63)
            elif op == _SHR:
                b = stack.pop()
                stack[-1] = stack[-1] >> (b & 63)
            elif op == _NEG:
                stack[-1] = -stack[-1]
            elif op == _NOT:
                stack[-1] = 1 if stack[-1] == 0 else 0
            elif op == _CHECK:
                stats.checks_executed += 1
                if poll():
                    stats.checks_taken += 1
                    cycles += penalty
                    if rec is not None:
                        rec.check(
                            cycles, tid, frame.function.name, pc - 1,
                            True, ins.arg, frames,
                        )
                    if prof is not None:
                        prof.check_boundary(
                            True, frame.function.name, pc - 1, frames, tid
                        )
                    pc = ins.arg
                else:
                    if rec is not None:
                        # Unfired checks are still observer boundaries:
                        # the recorder uses them to close
                        # duplicated-code spans.
                        rec.check(
                            cycles, tid, frame.function.name, pc - 1, False,
                            None, frames,
                        )
                    if prof is not None:
                        prof.check_boundary(
                            False, frame.function.name, pc - 1, frames, tid
                        )
            elif op == _YIELDPOINT:
                stats.yieldpoints_executed += 1
                if prof is not None:
                    prof.boundary(
                        "poll", frame.function.name, pc - 1, op, frames, tid
                    )
                if self._threadswitch_bit:
                    self._threadswitch_bit = False
                    if any(
                        t is not thread and not t.done for t in self.threads
                    ):
                        frame.pc = pc
                        stats.cycles = cycles
                        stats.instructions = executed
                        return True
            elif op == _INSTR:
                action = ins.arg
                cycles += action.cost
                stats.instr_ops_executed += 1
                if prof is not None:
                    prof.boundary(
                        "payload", frame.function.name, pc - 1, op,
                        frames, tid,
                    )
                frame.pc = pc
                action.execute(self, frame)
            elif op == _GUARDED_INSTR:
                stats.guarded_checks_executed += 1
                if poll():
                    stats.guarded_checks_taken += 1
                    action = ins.arg
                    cycles += action.cost
                    stats.instr_ops_executed += 1
                    if rec is not None:
                        rec.guarded_fired(
                            cycles, tid, frame.function.name, pc - 1, frames
                        )
                    if prof is not None:
                        prof.guarded_boundary(
                            True, frame.function.name, pc - 1, frames, tid
                        )
                    frame.pc = pc
                    action.execute(self, frame)
                elif prof is not None:
                    prof.guarded_boundary(
                        False, frame.function.name, pc - 1, frames, tid
                    )
            elif op == _CALL:
                callee = program_functions.get(ins.arg)
                if callee is None:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"call to unloaded function {ins.arg!r}",
                        frame.function.name,
                        pc - 1,
                    )
                stats.calls += 1
                if len(frames) >= max_depth:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise StackOverflowError(
                        f"call depth {len(frames)} in {callee.name}"
                    )
                nargs = callee.num_params
                if nargs:
                    args = stack[-nargs:]
                    del stack[-nargs:]
                else:
                    args = []
                frame.pc = pc
                frame = make_frame(callee, args)
                frames.append(frame)
                code = callee.code
                optab = self._op_table(callee)
                pc = 0
                stack = frame.stack
                locals_ = frame.locals
            elif op == _RETURN:
                stats.returns += 1
                result = stack.pop()
                frames.pop()
                if not frames:
                    thread.done = True
                    thread.result = result
                    stats.cycles = cycles
                    stats.instructions = executed
                    return False
                frame = frames[-1]
                code = frame.function.code
                optab = self._op_table(frame.function)
                pc = frame.pc
                stack = frame.stack
                locals_ = frame.locals
                stack.append(result)
            elif op == _GETFIELD:
                ref = stack[-1]
                if not isinstance(ref, RObject):
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"GETFIELD on non-object {ref!r}",
                        frame.function.name,
                        pc - 1,
                    )
                stack[-1] = ref.slots[ref.klass.slot_of(ins.arg[1])]
            elif op == _PUTFIELD:
                value = stack.pop()
                ref = stack.pop()
                if not isinstance(ref, RObject):
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"PUTFIELD on non-object {ref!r}",
                        frame.function.name,
                        pc - 1,
                    )
                ref.slots[ref.klass.slot_of(ins.arg[1])] = value
            elif op == _NEW:
                self._alloc_count += 1
                if self._alloc_count % gc_every == 0:
                    cycles += gc_pause
                    stats.gc_pauses += 1
                    if rec is not None:
                        rec.gc_pause(
                            cycles, tid, frame.function.name, pc - 1,
                            gc_pause, self._alloc_count, frames,
                        )
                stack.append(RObject(classes[ins.arg]))
            elif op == _NEWARRAY:
                length = stack.pop()
                if not isinstance(length, int) or length < 0:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"bad array length {length!r}",
                        frame.function.name,
                        pc - 1,
                    )
                self._alloc_count += 1
                if self._alloc_count % gc_every == 0:
                    cycles += gc_pause
                    stats.gc_pauses += 1
                    if rec is not None:
                        rec.gc_pause(
                            cycles, tid, frame.function.name, pc - 1,
                            gc_pause, self._alloc_count, frames,
                        )
                stack.append(RArray(length))
            elif op == _ALOAD:
                idx = stack.pop()
                ref = stack[-1]
                if not isinstance(ref, RArray):
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"ALOAD on non-array {ref!r}",
                        frame.function.name,
                        pc - 1,
                    )
                try:
                    stack[-1] = ref.slots[idx]
                except IndexError:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"array index {idx} out of range [0, {len(ref)})",
                        frame.function.name,
                        pc - 1,
                    ) from None
            elif op == _ASTORE:
                value = stack.pop()
                idx = stack.pop()
                ref = stack.pop()
                if not isinstance(ref, RArray):
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"ASTORE on non-array {ref!r}",
                        frame.function.name,
                        pc - 1,
                    )
                try:
                    ref.slots[idx] = value
                except IndexError:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"array index {idx} out of range [0, {len(ref)})",
                        frame.function.name,
                        pc - 1,
                    ) from None
            elif op == _ALEN:
                ref = stack[-1]
                if not isinstance(ref, RArray):
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"ALEN on non-array {ref!r}",
                        frame.function.name,
                        pc - 1,
                    )
                stack[-1] = len(ref)
            elif op == _DUP:
                stack.append(stack[-1])
            elif op == _POP:
                stack.pop()
            elif op == _SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op == _PRINT:
                output.append(stack.pop())
            elif op == _IO:
                cycles += io_base * ins.arg
                stats.io_ops += 1
                stack.append(self._io_value(thread))
            elif op == _SPAWN:
                callee = program_functions.get(ins.arg)
                if callee is None:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"call to unloaded function {ins.arg!r}",
                        frame.function.name,
                        pc - 1,
                    )
                nargs = callee.num_params
                if nargs:
                    args = stack[-nargs:]
                    del stack[-nargs:]
                else:
                    args = []
                child = self._spawn_thread(callee, args)
                stack.append(child.tid)
            elif op == _NOP:
                pass
            elif op == _TRY:
                frame.handlers.append((ins.arg, len(stack)))
            elif op == _ENDTRY:
                if not frame.handlers:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        "ENDTRY without matching TRY",
                        frame.function.name,
                        pc - 1,
                    )
                frame.handlers.pop()
            elif op == _THROW:
                value = stack.pop()
                stats.throws += 1
                throw_fn = frame.function.name
                throw_pc = pc - 1
                caught = False
                while True:
                    if frame.handlers:
                        target, depth = frame.handlers.pop()
                        del stack[depth:]
                        stack.append(value)
                        pc = target
                        caught = True
                        break
                    frames.pop()
                    stats.frames_unwound += 1
                    if not frames:
                        break
                    frame = frames[-1]
                    code = frame.function.code
                    optab = self._op_table(frame.function)
                    pc = frame.pc
                    stack = frame.stack
                    locals_ = frame.locals
                if not caught:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"uncaught guest exception {value!r}",
                        throw_fn,
                        throw_pc,
                    )
            elif op == _LOADFN:
                try:
                    stack.append(self._dyn_load(ins.arg))
                except (BytecodeError, VerificationError) as exc:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"LOADFN failed: {exc}", frame.function.name, pc - 1
                    ) from None
            elif op == _REPLACEFN:
                try:
                    stack.append(self._dyn_replace(ins.arg[0], ins.arg[1]))
                except (BytecodeError, VerificationError) as exc:
                    stats.cycles = cycles
                    stats.instructions = executed
                    raise VMTrap(
                        f"REPLACEFN failed: {exc}",
                        frame.function.name,
                        pc - 1,
                    ) from None
            elif op == _OSRPOINT:
                current = program_functions.get(frame.function.name)
                if current is not None and current is not frame.function:
                    landing = self._osr_landing(current, ins.arg)
                    if landing is None:
                        stats.cycles = cycles
                        stats.instructions = executed
                        raise VMTrap(
                            f"no OSR point {ins.arg!r} in replacement of "
                            f"{frame.function.name}",
                            frame.function.name,
                            pc - 1,
                        )
                    stats.osr_remaps += 1
                    # Remap the live frame onto the new body: pad or
                    # truncate locals to the new shape, drop handler
                    # records (OSR points sit outside TRY regions by
                    # construction; the verifier keeps the stack empty
                    # here), and resume past the matching OSR point in
                    # the new code.
                    num_locals = current.num_locals
                    if len(locals_) < num_locals:
                        locals_.extend([0] * (num_locals - len(locals_)))
                    elif len(locals_) > num_locals:
                        del locals_[num_locals:]
                    frame.handlers.clear()
                    frame.function = current
                    code = current.code
                    optab = self._op_table(current)
                    pc = landing
            elif op == _HALT:
                thread.done = True
                thread.result = 0
                stats.cycles = cycles
                stats.instructions = executed
                return False
            else:
                stats.cycles = cycles
                stats.instructions = executed
                raise VMTrap(
                    f"unimplemented opcode {ins.op.name}",
                    frame.function.name,
                    pc - 1,
                )


def run_program(
    program: Program,
    cost_model: Optional[CostModel] = None,
    trigger: Optional[Trigger] = None,
    **kwargs,
) -> VMResult:
    """Convenience wrapper: build a VM and run it."""
    return VM(program, cost_model=cost_model, trigger=trigger, **kwargs).run()
