"""Semantics of the dynamic-code opcodes, on every engine.

LOADFN / REPLACEFN / OSRPOINT grow and rewrite the function table while
the program runs; TRY / ENDTRY / THROW give guest code its own
exception control flow. Every behavioural claim here is asserted on the
reference interpreter, the fast engine and the compiled tier —
including trap messages and the counters the incremental certifier
reconciles against.

Also home to the verifier regression tests for the re-entrant
(open-function-table) verification the dynamic opcodes require.
"""

from __future__ import annotations

import pytest

from repro.bytecode import BytecodeBuilder, Op, Program
from repro.bytecode.verifier import verify_function, verify_program
from repro.errors import BytecodeError, VerificationError, VMTrap
from repro.vm import VM

ENGINES = ("reference", "fast", "compiled")


def _helper(name: str, multiplier: int):
    b = BytecodeBuilder(name, num_params=1)
    b.load(0).push(multiplier).emit(Op.MUL).ret()
    return b.build()


def _const_main(value: int = 0):
    b = BytecodeBuilder("main", num_params=0)
    b.push(value).ret()
    return b.build()


def _run(program, engine, **kwargs):
    vm = VM(program, engine=engine, **kwargs)
    result = vm.run()
    return result, vm


def _run_all(build, **kwargs):
    """Build + run on every engine; assert bit-identity; return the
    reference (result, vm) pair."""
    outcomes = {}
    for engine in ENGINES:
        result, vm = _run(build(), engine, **kwargs)
        outcomes[engine] = (result.value, result.output, vm.stats.as_dict())
    for engine in ENGINES[1:]:
        assert outcomes[engine] == outcomes["reference"], engine
    result, vm = _run(build(), "reference", **kwargs)
    return result, vm


def _trap_all(build, match):
    for engine in ENGINES:
        with pytest.raises(VMTrap, match=match):
            _run(build(), engine)


class TestLoadfn:
    def test_load_installs_and_is_idempotent(self):
        def build():
            m = BytecodeBuilder("main", num_params=0)
            m.loadfn("h")            # 1: installed now
            m.loadfn("h")            # 0: already installed
            m.emit(Op.ADD)
            m.push(6).call("h")      # 6 * 7
            m.emit(Op.ADD)
            m.ret()
            program = Program(
                [m.build()], entry="main", loadables=[_helper("h", 7)]
            )
            verify_program(program)
            return program

        result, vm = _run_all(build)
        assert result.value == 43
        assert vm.stats.functions_loaded == 1
        assert vm.program.installed_template("h") == "h"

    def test_call_before_load_traps(self):
        def build():
            m = BytecodeBuilder("main", num_params=0)
            m.push(3).call("h").ret()
            program = Program(
                [m.build()], entry="main", loadables=[_helper("h", 7)]
            )
            verify_program(program)
            return program

        _trap_all(build, "call to unloaded function 'h'")

    def test_run_does_not_mutate_callers_program(self):
        m = BytecodeBuilder("main", num_params=0)
        m.loadfn("h").ret()
        program = Program(
            [m.build()], entry="main", loadables=[_helper("h", 7)]
        )
        verify_program(program)
        for engine in ENGINES:
            _, vm = _run(program, engine)
            assert "h" in vm.program.functions
            assert "h" not in program.functions


class TestReplacefn:
    def _program(self):
        m = BytecodeBuilder("main", num_params=0)
        m.push(5).call("f")                        # 5 * 2 = 10
        m.replacefn("f", "f_v2").emit(Op.ADD)      # + 1
        m.replacefn("f", "f_v2").emit(Op.ADD)      # + 0 (idempotent)
        m.push(5).call("f").emit(Op.ADD)           # + 5 * 9 = 45
        m.ret()
        program = Program(
            [m.build(), _helper("f", 2)],
            entry="main",
            loadables=[_helper("f_v2", 9)],
        )
        verify_program(program)
        return program

    def test_replace_swaps_body_idempotently(self):
        result, vm = _run_all(self._program)
        assert result.value == 56
        assert vm.stats.functions_replaced == 1
        assert vm.program.installed_template("f") == "f_v2"

    def test_old_function_object_is_retired_not_mutated(self):
        # replacement installs a NEW Function object (the fast engine's
        # compiled handlers and inline caches are keyed by object, so
        # they die with the old one); the caller's table is untouched
        program = self._program()
        old = program.function("f")
        _, vm = _run(program, "fast")
        assert program.function("f") is old
        assert vm.program.functions["f"] is not old
        assert vm.program.installed_template("f") == "f_v2"

    def test_replace_unloaded_target_traps(self):
        def build():
            m = BytecodeBuilder("main", num_params=0)
            # "g" is a known loadable but was never LOADFN'd: the
            # replace fails at runtime, not verification time
            m.replacefn("g", "g_v2").ret()
            program = Program(
                [m.build()],
                entry="main",
                loadables=[_helper("g", 3), _helper("g_v2", 5)],
            )
            verify_program(program)
            return program

        _trap_all(build, "REPLACEFN failed: .*'g' is not loaded")


class TestOsr:
    @staticmethod
    def _kernel(name: str, step: int, with_osr: bool = True,
                extra_locals: int = 0):
        """kernel(n): sums `step * i`, self-replacing at i == 2."""
        b = BytecodeBuilder(name, num_params=1)
        i = b.new_local()
        acc = b.new_local()
        for _ in range(extra_locals):
            b.new_local()
        loop, done, cold = b.new_label(), b.new_label(), b.new_label()
        b.push(0).store(i).push(0).store(acc)
        b.label(loop)
        if with_osr:
            b.osrpoint(1)
        b.load(i).load(0).emit(Op.LT).jz(done)
        b.load(i).push(2).emit(Op.NE).jnz(cold)
        b.replacefn("kernel", "kernel_v2").emit(Op.POP)
        b.label(cold)
        b.load(acc).load(i).push(step).emit(Op.MUL).emit(Op.ADD).store(acc)
        b.load(i).push(1).emit(Op.ADD).store(i)
        b.jump(loop)
        b.label(done)
        b.load(acc).ret()
        return b.build()

    def _program(self, v2_osr: bool = True, extra_locals: int = 0):
        m = BytecodeBuilder("main", num_params=0)
        m.push(6).call("kernel").ret()
        program = Program(
            [m.build(), self._kernel("kernel", 1)],
            entry="main",
            loadables=[
                self._kernel(
                    "kernel_v2", 10, with_osr=v2_osr,
                    extra_locals=extra_locals,
                )
            ],
        )
        verify_program(program)
        return program

    def test_live_frame_migrates_at_osr_point(self):
        # v1 sums i for i=0,1,2 (0+1+2=3), replaces itself at i=2,
        # migrates at the next loop head, v2 sums 10i for i=3,4,5
        result, vm = _run_all(self._program)
        assert result.value == 3 + 30 + 40 + 50
        assert vm.stats.osr_remaps == 1
        assert vm.stats.functions_replaced == 1

    def test_osr_pads_new_locals(self):
        # the replacement declares more locals than the live frame has:
        # the remap must extend them (zero-filled), not crash
        result, vm = _run_all(lambda: self._program(extra_locals=3))
        assert result.value == 123
        assert vm.stats.osr_remaps == 1

    def test_missing_osr_point_in_replacement_traps(self):
        _trap_all(
            lambda: self._program(v2_osr=False),
            "no OSR point 1 in replacement of kernel",
        )

    def test_osr_noop_when_function_unchanged(self):
        def build():
            b = BytecodeBuilder("main", num_params=0)
            loop, done = b.new_label(), b.new_label()
            count = b.new_local()
            b.push(3).store(count)
            b.label(loop)
            b.osrpoint(9)
            b.load(count).jz(done)
            b.load(count).push(1).emit(Op.SUB).store(count)
            b.jump(loop)
            b.label(done)
            b.push(77).ret()
            program = Program([b.build()], entry="main")
            verify_program(program)
            return program

        result, vm = _run_all(build)
        assert result.value == 77
        assert vm.stats.osr_remaps == 0


class TestGuestExceptions:
    def test_throw_caught_in_same_frame(self):
        def build():
            b = BytecodeBuilder("main", num_params=0)
            handler, end = b.new_label(), b.new_label()
            b.try_(handler)
            b.push(41).throw()
            b.label(handler)
            b.push(1).emit(Op.ADD)
            b.label(end)
            b.ret()
            program = Program([b.build()], entry="main")
            verify_program(program)
            return program

        result, vm = _run_all(build)
        assert result.value == 42
        assert vm.stats.throws == 1
        assert vm.stats.frames_unwound == 0

    def test_throw_unwinds_callee_frames(self):
        def build():
            deep = BytecodeBuilder("deep", num_params=1)
            deep.load(0).push(100).emit(Op.ADD).throw()
            mid = BytecodeBuilder("mid", num_params=1)
            mid.load(0).call("deep").ret()
            m = BytecodeBuilder("main", num_params=0)
            handler = m.new_label()
            m.try_(handler)
            m.push(7).call("mid")
            m.endtry()
            m.ret()
            m.label(handler)
            m.ret()
            program = Program(
                [m.build(), mid.build(), deep.build()], entry="main"
            )
            verify_program(program)
            return program

        result, vm = _run_all(build)
        assert result.value == 107
        assert vm.stats.throws == 1
        assert vm.stats.frames_unwound == 2

    def test_throw_truncates_operand_stack(self):
        def build():
            b = BytecodeBuilder("main", num_params=0)
            handler = b.new_label()
            b.push(1000)              # below the handler's depth mark
            b.try_(handler)
            b.push(2).push(3)         # junk above the mark
            b.push(5).throw()
            b.label(handler)
            b.emit(Op.ADD)            # 1000 + caught 5
            b.ret()
            program = Program([b.build()], entry="main")
            verify_program(program)
            return program

        result, _ = _run_all(build)
        assert result.value == 1005

    def test_nested_handlers_pop_lifo(self):
        def build():
            b = BytecodeBuilder("main", num_params=0)
            outer, inner, end = b.new_label(), b.new_label(), b.new_label()
            b.try_(outer)
            b.try_(inner)
            b.push(5).throw()
            b.label(inner)
            b.push(10).emit(Op.ADD).throw()     # rethrow 15 to outer
            b.label(outer)
            b.push(100).emit(Op.ADD)
            b.label(end)
            b.ret()
            program = Program([b.build()], entry="main")
            verify_program(program)
            return program

        result, vm = _run_all(build)
        assert result.value == 115
        assert vm.stats.throws == 2

    def test_endtry_pops_handler(self):
        def build():
            b = BytecodeBuilder("main", num_params=0)
            handler = b.new_label()
            b.try_(handler)
            b.endtry()
            b.push(9).throw()         # handler already popped: uncaught
            b.label(handler)
            b.ret()                   # would return the caught value
            program = Program([b.build()], entry="main")
            verify_program(program)
            return program

        _trap_all(build, "uncaught guest exception 9")

    def test_uncaught_throw_traps(self):
        def build():
            b = BytecodeBuilder("main", num_params=0)
            b.push(13).throw()
            program = Program([b.build()], entry="main")
            verify_program(program)
            return program

        _trap_all(build, "uncaught guest exception 13")

    def test_endtry_without_try_traps(self):
        # passes depth verification (ENDTRY has no stack effect) but
        # must trap at runtime on both engines
        def build():
            b = BytecodeBuilder("main", num_params=0)
            b.endtry()
            b.push(0).ret()
            return Program([b.build()], entry="main")

        _trap_all(build, "ENDTRY without matching TRY")


class TestVerifierReentrancy:
    """Regression tests: the verifier must not assume a closed function
    table — functions registered after program construction (loadables,
    runtime installs) verify against the open table."""

    def test_template_calling_unmaterialized_template_verifies(self):
        a = BytecodeBuilder("a", num_params=1)
        a.load(0).call("b").ret()
        program = Program(
            [_const_main()],
            entry="main",
            loadables=[a.build(), _helper("b", 3)],
        )
        # 'a' calls 'b'; neither is installed — resolution must fall
        # through to the loadable table
        verify_program(program)
        verify_function(program.loadables["a"], program)

    def test_function_registered_post_construction_verifies(self):
        program = Program([_const_main()], entry="main")
        verify_program(program)
        # 'aux' joins the table after construction; a later function
        # calling it must verify against the *current* table, and one
        # calling a still-unknown name must be rejected re-entrantly
        program.add_function(_helper("aux", 3))
        good = BytecodeBuilder("late", num_params=1)
        good.load(0).call("aux").ret()
        fn = good.build()
        verify_function(fn, program)
        program.add_function(fn)
        bad = BytecodeBuilder("bad", num_params=1)
        bad.load(0).call("ghost").ret()
        with pytest.raises(
            VerificationError, match="call to unknown function 'ghost'"
        ):
            verify_function(bad.build(), program)

    def test_runtime_install_verifies_against_open_table(self):
        a = BytecodeBuilder("a", num_params=1)
        a.load(0).call("b").ret()
        program = Program(
            [_const_main()],
            entry="main",
            loadables=[a.build(), _helper("b", 3)],
        )
        verify_program(program)
        # installing 'a' verifies it while 'b' is still a template
        fn, changed = program.define_at_runtime("a")
        assert changed and program.functions["a"] is fn

    def test_loadfn_of_unknown_loadable_rejected(self):
        m = BytecodeBuilder("main", num_params=0)
        m.loadfn("ghost").ret()
        program = Program([m.build()], entry="main")
        with pytest.raises(BytecodeError, match="unknown loadable 'ghost'"):
            verify_program(program)

    def test_replacefn_arity_mismatch_rejected(self):
        two = BytecodeBuilder("f_v2", num_params=2)
        two.load(0).load(1).emit(Op.ADD).ret()
        m = BytecodeBuilder("main", num_params=0)
        m.replacefn("f", "f_v2").ret()
        program = Program(
            [m.build(), _helper("f", 2)],
            entry="main",
            loadables=[two.build()],
        )
        with pytest.raises(BytecodeError, match="arity mismatch"):
            verify_program(program)

    def test_osrpoint_requires_empty_stack(self):
        b = BytecodeBuilder("main", num_params=0)
        b.push(1).osrpoint(1).ret()
        program = Program([b.build()], entry="main")
        with pytest.raises(VerificationError, match="OSRPOINT requires"):
            verify_program(program)


class TestCodeEventStream:
    def test_event_stream_is_engine_identical(self):
        def build():
            m = BytecodeBuilder("main", num_params=0)
            m.loadfn("h").emit(Op.POP)
            m.loadfn("h2").emit(Op.POP)
            m.replacefn("h", "h2").emit(Op.POP)
            m.push(4).call("h").ret()
            program = Program(
                [m.build()],
                entry="main",
                loadables=[_helper("h", 7), _helper("h2", 11)],
            )
            verify_program(program)
            return program

        streams = {}
        for engine in ENGINES:
            events = []
            vm = VM(build(), engine=engine)
            vm.on_code_event = lambda kind, name, template, fn, _e=events: (
                _e.append((kind, name, template, fn.name))
            )
            result = vm.run()
            assert result.value == 44
            streams[engine] = events
        for engine in ENGINES[1:]:
            assert streams[engine] == streams["reference"], engine
        assert streams["reference"] == [
            ("load", "h", "h", "h"),
            ("load", "h2", "h2", "h2"),
            ("replace", "h", "h2", "h"),
        ]
