"""Unit tests for the fast execution engine and engine selection.

The differential fuzz suite (tests/test_engine_differential.py) sweeps
whole programs; this file pins the engine-specific mechanics that a
statistical sweep could silently miss:

* engine selection precedence (explicit arg > $REPRO_ENGINE > default)
  and rejection of unknown names,
* opcode counting over fused superinstructions — a generated segment
  must report its *constituent* opcodes, indistinguishable from the
  reference interpreter's per-instruction dispatch,
* lowering: every segment, breakers included, runs generated code, and
  an observer's hooks are written in only when it is attached,
* segment templates: segments that differ only in where they sit share
  one compiled template, and placeholders never meet guest data; a
  guest constant whose repr is no Python literal agrees on all three
  engines, and no operand left behind by RETURN or HALT leaks into the
  next segment,
* trap parity on all three engines: identical message, function, and
  pc for every trap kind, whether the fault sits mid-segment or alone
  in its segment,
* inline-cache correctness on polymorphic GETFIELD/PUTFIELD sites
  (the monomorphic cache must miss-and-recover, never read a stale
  slot),
* thread scheduling and timer-tick parity,
* interval-1 sampling equals exhaustive instrumentation under the
  fast engine specifically (the paper's anchor identity).
"""

from __future__ import annotations

import pytest

from repro.bytecode import BytecodeBuilder, Klass, Op, Program
from repro.errors import FuelExhaustedError, ReproError, VMTrap
from repro.instrument import BlockCountInstrumentation, CallEdgeInstrumentation
from repro.profiling import OverheadProfiler
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import TelemetryRecorder
from repro.vm import ENGINE_ENV, VM, resolve_engine, run_program
from repro.vm.engine import _BREAKERS, _CHECK, _INSTR, FastEngine
from repro.workloads import get_workload
from tests.generators import nested_loop_program


ENGINES = ("reference", "fast", "compiled")


def run_main(build, classes=(), functions=(), **kwargs):
    b = BytecodeBuilder("main")
    build(b)
    prog = Program([b.build(), *functions], classes=list(classes))
    return run_program(prog, **kwargs)


class TestEngineSelection:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine(None) == "fast"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine(None) == "reference"

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine("fast") == "fast"

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ReproError, match="unknown engine"):
            resolve_engine("turbo")
        monkeypatch.setenv(ENGINE_ENV, "warp")
        with pytest.raises(ReproError, match="unknown engine"):
            resolve_engine(None)

    def test_vm_records_resolved_engine(self):
        prog = nested_loop_program()
        assert VM(prog, engine="reference").engine == "reference"
        assert VM(prog, engine="fast").engine == "fast"


class TestOpcodeCounts:
    def test_fused_segment_reports_constituent_opcodes(self):
        """One straight-line segment fuses into a single generated
        handler on the fast engine, yet the opcode multiset must match
        the reference interpreter's per-instruction count exactly."""

        def build(b):
            slot = b.new_local()
            b.push(2).push(3).emit(Op.ADD).store(slot)
            b.load(slot).push(4).emit(Op.MUL).ret()

        expected = {
            int(Op.PUSH): 3,
            int(Op.ADD): 1,
            int(Op.STORE): 1,
            int(Op.LOAD): 1,
            int(Op.MUL): 1,
            int(Op.RETURN): 1,
        }
        for engine in ("reference", "fast"):
            result = run_main(
                build, engine=engine, record_opcode_counts=True
            )
            assert result.value == 20
            assert result.stats.opcode_counts == expected, engine

    def test_counts_identical_on_control_flow(self):
        prog = nested_loop_program()
        ref = VM(prog, engine="reference", record_opcode_counts=True).run()
        fast = VM(prog, engine="fast", record_opcode_counts=True).run()
        assert fast.stats.opcode_counts == ref.stats.opcode_counts


#: Every trapping plain op: (name, setup pushing the faulting operands,
#: the faulting op, a tail that returns).
_FAULTS = [
    ("div_zero", lambda b: b.push(1).push(0),
     lambda b: b.emit(Op.DIV), lambda b: b.ret()),
    ("mod_zero", lambda b: b.push(1).push(0),
     lambda b: b.emit(Op.MOD), lambda b: b.ret()),
    ("getfield_non_object", lambda b: b.push(5),
     lambda b: b.getfield("C", "x"), lambda b: b.ret()),
    ("putfield_non_object", lambda b: b.push(5).push(1),
     lambda b: b.putfield("C", "x"), lambda b: b.ret_const(0)),
    ("aload_non_array", lambda b: b.push(5).push(0),
     lambda b: b.emit(Op.ALOAD), lambda b: b.ret()),
    ("astore_non_array", lambda b: b.push(5).push(0).push(1),
     lambda b: b.emit(Op.ASTORE), lambda b: b.ret_const(0)),
    ("alen_non_array", lambda b: b.push(5),
     lambda b: b.emit(Op.ALEN), lambda b: b.ret()),
    ("index_out_of_range", lambda b: b.push(2).emit(Op.NEWARRAY).push(7),
     lambda b: b.emit(Op.ALOAD), lambda b: b.ret()),
]


def _fused(setup, fault, tail):
    """The fault mid-segment, between its operands and the return."""
    def build(b):
        setup(b)
        fault(b)
        tail(b)
    return build


def _after_breaker(setup, fault, tail):
    """The fault alone in its segment: a breaker on either side."""
    def build(b):
        setup(b).emit(Op.YIELDPOINT)
        fault(b).emit(Op.YIELDPOINT)
        tail(b)
    return build


def _after_nops(setup, fault, tail):
    """The fused shape behind three NOPs: every pc moves, and the
    segment is an instance of the fused case's template."""
    def build(b):
        b.emit(Op.NOP).emit(Op.NOP).emit(Op.NOP)
        setup(b)
        fault(b)
        tail(b)
    return build


def _at_branch_target(setup, fault, tail):
    """The fault alone in its segment: a branch target, then a breaker."""
    def build(b):
        target = b.new_label()
        setup(b).jump(target)
        b.label(target)
        fault(b).emit(Op.YIELDPOINT)
        tail(b)
    return build


TRAP_CASES = [
    (f"{name}{suffix}", shape(setup, fault, tail))
    for suffix, shape in (
        ("", _fused),
        ("_after_breaker", _after_breaker),
        ("_at_branch_target", _at_branch_target),
        ("_after_nops", _after_nops),
    )
    for name, setup, fault, tail in _FAULTS
]


class TestTrapParity:
    """Every engine faults with the same message, function and pc."""

    @pytest.mark.parametrize(
        "name,build", TRAP_CASES, ids=[c[0] for c in TRAP_CASES]
    )
    def test_trap_identical(self, name, build):
        classes = [Klass("C", ["x"])]
        faults = {}
        for engine in ENGINES:
            with pytest.raises(VMTrap) as excinfo:
                run_main(build, classes=classes, engine=engine)
            exc = excinfo.value
            faults[engine] = (str(exc), exc.function, exc.pc)
        assert faults["fast"] == faults["reference"]
        assert faults["compiled"] == faults["reference"]

    def test_fuel_exhaustion_all_engines(self):
        prog = nested_loop_program()
        for engine in ENGINES:
            with pytest.raises(FuelExhaustedError):
                VM(prog, engine=engine, fuel=50).run()


class TestLowering:
    @pytest.mark.parametrize(
        "workload, observed",
        [
            pytest.param(workload, observed, id=workload + suffix)
            for workload in ("compress", "dynload")
            for observed, suffix in ((False, ""), (True, "-observed"))
        ],
    )
    def test_every_handler_is_generated(self, workload, observed):
        """Every segment runs generated code — breakers, single-op
        segments and dynamic-mode CALLs included. Observers add no
        handler of their own, and their hooks are written in only when
        they are attached: with none, no handler names a hook (the
        null path of docs/OBSERVABILITY.md); with a profiler and a
        recorder, every CHECK names both."""
        program = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            get_workload(workload).compile(1), BlockCountInstrumentation()
        )
        observers = (
            dict(
                profiler=OverheadProfiler(),
                recorder=TelemetryRecorder(suppress=True, context=True),
            )
            if observed
            else {}
        )
        engine = FastEngine(VM(program, engine="fast", **observers))
        hooks = {"_rec", "_prof", "_pdup", "_oc"}
        checks = 0
        for fn, handlers in engine._codes.items():
            ops = [int(ins.op) for ins in fn.code]
            segments = engine._segments(fn.code, ops)
            assert len(handlers) == len(segments)
            for (s, _e), handler in zip(segments, handlers):
                co = handler.__code__
                assert co.co_filename == "<segment>", (fn.name, s)
                named = hooks.intersection(co.co_names)
                if not observed:
                    assert not named, (fn.name, s)
                elif ops[s] == _CHECK:
                    checks += 1
                    assert {"_rec", "_prof"} <= named, (fn.name, s)
        if observed:
            assert checks

    @pytest.mark.parametrize("engine", ["fast", "compiled"])
    def test_second_vm_compiles_nothing_new(self, engine, monkeypatch):
        """Generated code is cached process-wide under 16-byte digests
        of its source: a second VM over the same program compiles
        nothing, and no cache keeps source text."""
        from repro.vm import compiler
        from repro.vm import engine as fast_tier

        program = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            get_workload("jess").compile(1), BlockCountInstrumentation()
        )

        def build():
            VM(
                program, engine=engine, profiler=OverheadProfiler()
            ).run()

        build()
        compiled = []

        def counting_compile(src, filename, mode):
            compiled.append(filename)
            return compile(src, filename, mode)

        monkeypatch.setattr(
            fast_tier, "compile", counting_compile, raising=False
        )
        build()
        assert compiled == []
        used = (
            fast_tier._CODE_CACHE
            if engine == "fast"
            else compiler._REGION_CODE_CACHE
        )
        assert used
        for cache in (fast_tier._CODE_CACHE, compiler._REGION_CODE_CACHE):
            assert all(
                type(key) is bytes and len(key) == 16 for key in cache
            )
        for cache in (compiler._LOWER_CACHE, compiler._LEAF_CACHE):
            assert not any(
                isinstance(part, str)
                for entry in cache.values()
                if entry is not None
                for part in entry
            )


def _shape_program(pad=0):
    """main calls f, whose segments lift every kind of positional value:
    trap pcs (DIV, GETFIELD, PUTFIELD), inline-cache cells, a static
    callee with its resume pc, and branch slots.  *pad* leading NOPs
    shift every pc of f."""
    f = BytecodeBuilder("f", num_params=2)
    done = f.new_label()
    for _ in range(pad):
        f.emit(Op.NOP)
    f.load(1).push(7).emit(Op.DIV).load(0).getfield("C", "x")
    f.emit(Op.ADD).store(1)
    f.load(0).load(1).putfield("C", "x")
    f.load(1).jz(done)
    f.load(1).push(1).call("g").store(1)
    f.label(done)
    f.load(1).ret()
    g = BytecodeBuilder("g", num_params=2)
    g.load(0).load(1).emit(Op.SUB).ret()
    main = BytecodeBuilder("main")
    obj = main.new_local()
    main.new("C").store(obj)
    main.load(obj).push(5).putfield("C", "x")
    main.load(obj).push(100).call("f").ret()
    return Program(
        [main.build(), f.build(), g.build()], classes=[Klass("C", ["x"])]
    )


class TestSegmentTemplates:
    """Fast-tier segments are instances of position-independent
    templates, compiled once per shape."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The template cache starts empty, and each ``compile`` of a
        segment template is logged as the op that opens the segment."""
        from repro.vm import engine as fast_tier

        log = []
        opening = []
        generate = fast_tier._SegmentEmitter._gen_segment_src

        def logging_generate(em, s, *args):
            opening[:] = [em.ops[s]]
            return generate(em, s, *args)

        def counting_compile(src, filename, mode):
            log.append(opening[0])
            return compile(src, filename, mode)

        monkeypatch.setattr(fast_tier, "_CODE_CACHE", {})
        monkeypatch.setattr(
            fast_tier._SegmentEmitter, "_gen_segment_src", logging_generate
        )
        monkeypatch.setattr(
            fast_tier, "compile", counting_compile, raising=False
        )
        return log

    def test_nop_shifted_copy_compiles_no_new_template(self, compiled):
        FastEngine(VM(_shape_program(), engine="fast"))
        assert compiled
        del compiled[:]
        shifted = _shape_program(pad=3)
        FastEngine(VM(shifted, engine="fast"))
        assert compiled == []
        ref = VM(shifted, engine="reference").run()
        fast = VM(shifted, engine="fast").run()
        assert fast.value == ref.value
        assert fast.stats.as_dict() == ref.stats.as_dict()

    def test_full_duplication_shares_templates(self, compiled):
        """The duplicated body of a Full-Duplication transform is a
        copy of the checking code at other pcs: it doubles the plain
        segments and compiles no plain template of its own. The only
        templates it compiles are those of the CHECK and INSTR breakers
        it inserts, one per kind."""
        program = _shape_program()
        FastEngine(VM(program, engine="fast"))
        templates = sum(op not in _BREAKERS for op in compiled)
        assert templates
        del compiled[:]
        transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            program, CallEdgeInstrumentation()
        )
        engine = FastEngine(VM(transformed, engine="fast"))
        assert sorted(compiled) == sorted({_CHECK, _INSTR})
        plain = 0
        for fn, handlers in engine._codes.items():
            ops = [int(ins.op) for ins in fn.code]
            segments = engine._segments(fn.code, ops)
            plain += sum(ops[s] not in _BREAKERS for s, _e in segments)
        assert plain >= 2 * templates

    def test_guest_constant_equal_to_a_placeholder(self):
        """Placeholders are complex literals; a guest complex constant
        equal to one is bound by name in a segment, so all three
        engines agree."""
        def build(b):
            slot = b.new_local()
            done = b.new_label()
            b.push("1j").emit(Op.PRINT)
            b.push(1j).push(2).emit(Op.MUL).push(3j).emit(Op.ADD)
            b.store(slot)
            b.load(slot).push(5j).emit(Op.EQ).jz(done)
            b.load(slot).push(1j).emit(Op.SUB).store(slot)
            b.label(done)
            b.load(slot).ret()

        runs = {
            engine: run_main(build, engine=engine) for engine in ENGINES
        }
        ref = runs["reference"]
        assert ref.value == 4j
        for engine in ("fast", "compiled"):
            assert runs[engine].value == ref.value
            assert runs[engine].output == ref.output == ["1j"]
            assert runs[engine].stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), 0.5], ids=repr
    )
    def test_guest_float_constant(self, value):
        """A guest constant is spelled literally only when it is an
        int, bool or str; any other (``inf`` has no literal) is bound
        by name, in both tiers, so all three engines agree."""
        def build(b):
            b.push(value).push(1).emit(Op.ADD).ret()

        runs = {
            engine: run_main(build, engine=engine) for engine in ENGINES
        }
        ref = runs["reference"]
        assert ref.value == value + 1
        for engine in ("fast", "compiled"):
            assert runs[engine].value == ref.value
            assert runs[engine].stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize(
        "exit_op", [Op.RETURN, Op.HALT], ids=lambda op: op.name
    )
    def test_segment_starts_from_an_empty_stack(self, exit_op):
        """RETURN and HALT may leave operands on the stack. The segment
        after them in code order, here a branch target they never
        reach, still starts from an empty compile-time stack, so all
        three engines agree."""
        def build(b):
            target = b.new_label()
            b.push(3).push(1).jnz(target)
            b.push(9).push(8).emit(exit_op)
            b.label(target)
            b.push(1).emit(Op.ADD).ret()

        runs = {
            engine: run_main(build, engine=engine) for engine in ENGINES
        }
        ref = runs["reference"]
        assert ref.value == 4
        for engine in ("fast", "compiled"):
            assert runs[engine].value == ref.value
            assert runs[engine].stats.as_dict() == ref.stats.as_dict()


class TestInlineCaches:
    def test_polymorphic_field_site_stays_correct(self):
        """The same GETFIELD site sees receivers of two classes whose
        shared field name lives at *different* slots; the monomorphic
        cache must miss on the class change and re-resolve."""
        peek = BytecodeBuilder("peek", num_params=1)
        peek.load(0).getfield("C", "x").ret()

        def build(b):
            c_slot, d_slot = b.new_local(), b.new_local()
            b.new("C").store(c_slot)
            b.new("D").store(d_slot)
            b.load(c_slot).push(7).putfield("C", "x")
            b.load(d_slot).push(9).putfield("D", "x")
            b.load(c_slot).call("peek")
            b.load(d_slot).call("peek")
            b.emit(Op.ADD).ret()

        classes = [Klass("C", ["x", "y"]), Klass("D", ["y", "x"])]
        for engine in ("reference", "fast"):
            result = run_main(
                build, classes=classes, functions=[peek.build()],
                engine=engine,
            )
            assert result.value == 16, engine

    def test_repeated_monomorphic_hits(self):
        """A hot loop hammering one receiver class — the cache's happy
        path — must agree with the reference on value and cycles."""
        def build(b):
            obj, i = b.new_local(), b.new_local()
            loop, done = b.new_label(), b.new_label()
            b.new("C").store(obj)
            b.push(100).store(i)
            b.label(loop)
            b.load(i).jz(done)
            b.load(obj).load(obj).getfield("C", "x").push(1).emit(
                Op.ADD
            ).putfield("C", "x")
            b.load(i).push(1).emit(Op.SUB).store(i)
            b.jump(loop)
            b.label(done)
            b.load(obj).getfield("C", "x").ret()

        classes = [Klass("C", ["x"])]
        ref = run_main(build, classes=classes, engine="reference")
        fast = run_main(build, classes=classes, engine="fast")
        assert fast.value == ref.value == 100
        assert fast.stats.as_dict() == ref.stats.as_dict()


class TestThreadsAndTicks:
    def make_threaded_program(self):
        worker = BytecodeBuilder("worker", num_params=1)
        loop, done = worker.new_label(), worker.new_label()
        worker.label(loop)
        worker.load(0).jz(done)
        worker.emit(Op.YIELDPOINT)
        worker.load(0).push(1).emit(Op.SUB).store(0)
        worker.jump(loop)
        worker.label(done)
        worker.push(0).ret()

        main = BytecodeBuilder("main")
        main.push(25).emit(Op.SPAWN, "worker").emit(Op.POP)
        main.push(40).emit(Op.SPAWN, "worker").emit(Op.POP)
        loop2, done2 = main.new_label(), main.new_label()
        slot = main.new_local()
        main.push(30).store(slot)
        main.label(loop2)
        main.load(slot).jz(done2)
        main.emit(Op.YIELDPOINT)
        main.load(slot).push(1).emit(Op.SUB).store(slot)
        main.jump(loop2)
        main.label(done2)
        main.push(99).ret()
        return Program([main.build(), worker.build()])

    def test_thread_schedule_identical(self):
        prog = self.make_threaded_program()
        ref = VM(prog, engine="reference", timer_period=50).run()
        fast = VM(prog, engine="fast", timer_period=50).run()
        assert fast.value == ref.value == 99
        assert fast.stats.as_dict() == ref.stats.as_dict()
        assert fast.stats.thread_switches > 0
        assert fast.stats.timer_ticks > 0


class TestSamplingAnchor:
    def test_interval_one_equals_exhaustive_on_fast_engine(self):
        """Full-duplication at interval 1 must reproduce the exhaustive
        profile exactly when executed by the fast engine."""
        program = nested_loop_program()

        exhaustive = BlockCountInstrumentation()
        transformed = SamplingFramework(Strategy.EXHAUSTIVE).transform(
            program, exhaustive
        )
        VM(transformed, engine="fast").run()

        sampled = BlockCountInstrumentation()
        transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            program, sampled
        )
        VM(transformed, trigger=CounterTrigger(1), engine="fast").run()

        assert dict(sampled.profile.counts) == dict(
            exhaustive.profile.counts
        )
