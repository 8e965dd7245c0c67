"""Unit tests for the compiled-tier transpiler (``repro.vm.compiler``).

The 3-way differential suite (tests/test_engine_differential.py) sweeps
whole programs; this file pins the compiled-tier mechanics a
statistical sweep could silently miss:

* region-vs-fallback decisions and their ``compile_counts`` /
  ``vm.compiled.*`` metrics mirror,
* REPLACEFN invalidation (a retired ``Function`` object must never
  serve a stale region),
* the direct-call fast path past its rebind depth,
* leaf outlining: eligibility shape, frameless fuel/trap parity,
  yield-fired suspension mid-call, and the profiler/dynamic gates,
* the overhead profiler's ``compiled`` component attribution.
"""

from __future__ import annotations

import pytest

from repro.bytecode import BytecodeBuilder, Op, Program
from repro.errors import FuelExhaustedError, VMTrap
from repro.profiling.profiler import OverheadProfiler
from repro.telemetry import TelemetryRecorder
from repro.vm import VM
from repro.vm.compiler import CompiledEngine
from repro.workloads import get_workload


def _identical(program, **kwargs):
    """Run on reference and compiled; assert bit-identity; return the
    reference result."""
    ref = VM(program, engine="reference", **kwargs).run()
    comp = VM(program, engine="compiled", **kwargs).run()
    assert comp.value == ref.value
    assert comp.output == ref.output
    assert comp.stats.as_dict() == ref.stats.as_dict()
    return ref


def _leaf_program(leaf_body=None, arg=5, name="leaf"):
    """main calls a one-parameter leaf; the leaf's body is an entry
    YIELDPOINT followed by *leaf_body* (default: ``arg * 3``)."""
    leaf = BytecodeBuilder(name, num_params=1)
    leaf.emit(Op.YIELDPOINT)
    if leaf_body is None:
        leaf.load(0).push(3).emit(Op.MUL).ret()
    else:
        leaf_body(leaf)
    m = BytecodeBuilder("main")
    m.push(arg).call(name).ret()
    return Program([m.build(), leaf.build()])


class TestRegionCompilation:
    @pytest.mark.parametrize("name", ["compress", "jess"])
    def test_workload_compiles_without_fallback(self, name):
        program = get_workload(name).compile(1)
        eng = CompiledEngine(VM(program, engine="compiled"))
        assert eng.compile_counts["fallbacks"] == 0
        assert eng.compile_counts["regions"] == len(program.functions)

    def test_oversized_function_falls_back(self):
        """A function past the code-length ceiling must fall back to the
        fast tier — and still run bit-identically."""
        b = BytecodeBuilder("main")
        for _ in range(2100):
            b.push(1).emit(Op.POP)
        b.push(7).ret()
        program = Program([b.build()])
        eng = CompiledEngine(VM(program, engine="compiled"))
        assert eng.compile_counts["fallbacks"] == 1
        assert eng.compile_counts["regions"] == 0
        assert _identical(program).value == 7

    def test_compile_counts_mirrored_into_metrics(self):
        program = get_workload("compress").compile(1)
        recorder = TelemetryRecorder()
        VM(program, engine="compiled", recorder=recorder).run()
        snapshot = recorder.metrics.snapshot()
        assert snapshot["vm.compiled.regions"]["value"] == len(
            program.functions
        )
        per_fn = [
            k for k in snapshot if k.startswith("vm.compiled.regions.by_")
        ]
        assert len(per_fn) == len(program.functions)

    def test_run_metrics_do_not_depend_on_earlier_runs(self):
        """The second VM over a program hits the process-wide lowering
        cache for every function. That is counted in compile_counts
        only, so both runs record the same metrics."""
        program = get_workload("compress").compile(1)
        snapshots = []
        for _ in range(2):
            recorder = TelemetryRecorder()
            VM(program, engine="compiled", recorder=recorder).run()
            snapshots.append(recorder.metrics.snapshot())
        assert snapshots[0] == snapshots[1]
        assert not any(
            key.startswith("vm.compiled.cache_hits") for key in snapshots[1]
        )
        eng = CompiledEngine(
            VM(program, engine="compiled", recorder=TelemetryRecorder())
        )
        assert eng.compile_counts["cache_hits"] == len(program.functions)


class TestInvalidation:
    def test_replacefn_recompiles_replacement(self):
        f = BytecodeBuilder("f")
        f.push(1).ret()
        f2 = BytecodeBuilder("f_v2")
        f2.push(2).ret()
        m = BytecodeBuilder("main")
        m.call("f")                       # 1 (old body)
        m.replacefn("f", "f_v2")          # pushes 1 (replaced)
        m.emit(Op.ADD)                    # 2
        m.call("f")                       # + 2 (new body)
        m.emit(Op.ADD).ret()              # 4
        program = Program(
            [m.build(), f.build()], loadables=[f2.build()]
        )
        recorder = TelemetryRecorder()
        result = VM(program, engine="compiled", recorder=recorder).run()
        assert result.value == 4
        snapshot = recorder.metrics.snapshot()
        assert snapshot["vm.compiled.invalidations"]["value"] == 1
        _identical(program)


class TestDirectCalls:
    def test_recursion_past_direct_depth(self):
        """Recursion deeper than the direct-call budget must rebind
        through the driver and still account identically."""
        f = BytecodeBuilder("down", num_params=1)
        done = f.new_label()
        f.load(0).jz(done)
        f.load(0).push(1).emit(Op.SUB)
        f.call("down").push(1).emit(Op.ADD).ret()
        f.label(done)
        f.push(0).ret()
        m = BytecodeBuilder("main")
        m.push(400).call("down").ret()
        program = Program([m.build(), f.build()])
        assert _identical(program).value == 400


class TestLeafOutlining:
    def test_eligible_leaf_is_outlined(self):
        program = _leaf_program()
        vm = VM(program, engine="compiled")
        eng = CompiledEngine(vm)
        assert eng._leaf_eligible(program.functions["leaf"])
        assert eng.compile_counts["leafs"] == 1
        assert _identical(program).value == 15

    def test_leaf_without_entry_yieldpoint_not_outlined(self):
        leaf = BytecodeBuilder("leaf", num_params=1)
        leaf.load(0).push(3).emit(Op.MUL).ret()
        m = BytecodeBuilder("main")
        m.push(5).call("leaf").ret()
        program = Program([m.build(), leaf.build()])
        eng = CompiledEngine(VM(program, engine="compiled"))
        assert not eng._leaf_eligible(program.functions["leaf"])
        assert eng.compile_counts["leafs"] == 0
        assert _identical(program).value == 15

    def test_leaf_with_call_not_outlined(self):
        def body(leaf):
            leaf.load(0).call("other").ret()

        other = BytecodeBuilder("other", num_params=1)
        other.load(0).ret()
        leaf = BytecodeBuilder("leaf", num_params=1)
        leaf.emit(Op.YIELDPOINT)
        body(leaf)
        m = BytecodeBuilder("main")
        m.push(5).call("leaf").ret()
        program = Program([m.build(), leaf.build(), other.build()])
        eng = CompiledEngine(VM(program, engine="compiled"))
        assert not eng._leaf_eligible(program.functions["leaf"])
        assert _identical(program).value == 5

    def test_leaf_disabled_under_profiler(self):
        """Profiler boundaries sample frames; frameless helpers would
        hide them, so outlining must be off with a profiler attached."""
        program = _leaf_program()
        vm = VM(program, engine="compiled", profiler=OverheadProfiler())
        eng = CompiledEngine(vm)
        assert eng.compile_counts["leafs"] == 0

    @pytest.mark.parametrize("fuel", [2, 3, 5, 8, 13, 21, 34])
    def test_leaf_fuel_trap_parity(self, fuel):
        """Fuel exhaustion at or inside an outlined leaf must raise the
        exact fast-tier message (function@pc), frame or no frame. The
        fast tier is the oracle here, not reference: fuel is checked at
        segment heads, so mid-segment exhaustion reports the next head
        — the documented segment-granularity divergence both compiled
        tiers inherit (docs/VM_PERF.md)."""
        program = _leaf_program()
        outcomes = {}
        for engine in ("fast", "compiled"):
            try:
                result = VM(program, engine=engine, fuel=fuel).run()
                outcomes[engine] = ("ok", result.value)
            except FuelExhaustedError as exc:
                outcomes[engine] = ("fuel", str(exc))
        assert outcomes["compiled"] == outcomes["fast"]

    def test_leaf_trap_parity(self):
        def body(leaf):
            leaf.load(0).push(0).emit(Op.DIV).ret()

        program = _leaf_program(leaf_body=body, arg=4)
        faults = {}
        for engine in ("reference", "compiled"):
            with pytest.raises(VMTrap) as excinfo:
                VM(program, engine=engine).run()
            exc = excinfo.value
            faults[engine] = (str(exc), exc.function, exc.pc)
        assert faults["compiled"] == faults["reference"]

    def test_leaf_yield_fired_suspension(self):
        """A timer tick whose thread switch lands on a leaf call's
        entry yieldpoint must materialize both frames and resume at the
        callee's first post-yield instruction."""
        leaf = BytecodeBuilder("work", num_params=1)
        leaf.emit(Op.YIELDPOINT)
        leaf.load(0).push(7).emit(Op.MUL).push(3).emit(Op.MOD).ret()
        worker = BytecodeBuilder("worker", num_params=1)
        loop, done = worker.new_label(), worker.new_label()
        worker.label(loop)
        worker.load(0).jz(done)
        worker.load(0).call("work").emit(Op.POP)
        worker.load(0).push(1).emit(Op.SUB).store(0)
        worker.jump(loop)
        worker.label(done)
        worker.push(0).ret()
        m = BytecodeBuilder("main")
        m.push(60).emit(Op.SPAWN, "worker").emit(Op.POP)
        m.push(45).emit(Op.SPAWN, "worker").emit(Op.POP)
        m.push(30).call("worker").ret()
        program = Program([m.build(), worker.build(), leaf.build()])
        ref = _identical(program, timer_period=50)
        assert ref.stats.thread_switches > 0


class TestProfilerAttribution:
    def test_compiled_component_sampled(self):
        """Generated regions must attribute to ``compiled``, never
        ``dispatch``, and the sample bound must hold."""
        program = get_workload("compress").compile(1)
        profiler = OverheadProfiler(interval=16)
        VM(program, engine="compiled", profiler=profiler).run()
        assert profiler.sample_counts["compiled"] > 0
        assert profiler.sample_counts["dispatch"] == 0
        assert profiler.bound_holds()
