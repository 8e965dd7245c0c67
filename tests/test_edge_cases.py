"""Edge-case tests filling coverage gaps across the stack."""

import pytest

from repro.bytecode import (
    BytecodeBuilder,
    Klass,
    Op,
    Program,
)
from repro.errors import VMTrap
from repro.vm import CostModel, run_program


def run_main(build, classes=(), **kwargs):
    b = BytecodeBuilder("main")
    build(b)
    prog = Program([b.build()], classes=classes)
    return run_program(prog, **kwargs)


class TestInterpreterEdges:
    def test_putfield_on_int_traps(self):
        def build(b):
            b.push(1).push(2).putfield("C", "x").ret_const(0)

        with pytest.raises(VMTrap, match="PUTFIELD"):
            run_main(build, classes=[Klass("C", ["x"])])

    def test_astore_on_int_traps(self):
        def build(b):
            b.push(1).push(0).push(9).emit(Op.ASTORE).ret_const(0)

        with pytest.raises(VMTrap, match="non-array"):
            run_main(build)

    def test_alen_on_object_traps(self):
        def build(b):
            b.new("C").emit(Op.ALEN).ret()

        with pytest.raises(VMTrap, match="non-array"):
            run_main(build, classes=[Klass("C", [])])

    def test_astore_out_of_range_traps(self):
        def build(b):
            b.push(2).emit(Op.NEWARRAY).push(5).push(1).emit(Op.ASTORE)
            b.ret_const(0)

        with pytest.raises(VMTrap, match="out of range"):
            run_main(build)

    def test_swap_semantics(self):
        def build(b):
            b.push(1).push(2).emit(Op.SWAP).emit(Op.SUB).ret()

        # stack [1, 2] -> [2, 1]; SUB = 2 - 1
        assert run_main(build).value == 1

    def test_shift_mask(self):
        def build(b):
            b.push(1).push(64).emit(Op.SHL).ret()

        assert run_main(build).value == 1  # 64 & 63 == 0

    def test_nop_costs_a_cycle(self):
        def with_nops(n):
            def build(b):
                for _ in range(n):
                    b.emit(Op.NOP)
                b.ret_const(0)

            return run_main(build).stats.cycles

        assert with_nops(10) == with_nops(0) + 10

    def test_io_latency_class_scales_cost(self):
        def cost(k):
            def build(b):
                b.emit(Op.IO, k).emit(Op.POP).ret_const(0)

            return run_main(
                build, cost_model=CostModel(io_base_cost=100)
            ).stats.cycles

        assert cost(3) == cost(1) + 200

    def test_objects_compare_by_identity_semantics(self):
        def build(b):
            slot = b.new_local()
            b.new("C").store(slot)
            b.load(slot).load(slot).emit(Op.EQ).ret()

        assert run_main(build, classes=[Klass("C", [])]).value == 1

    def test_distinct_objects_not_equal(self):
        def build(b):
            b.new("C").new("C").emit(Op.EQ).ret()

        assert run_main(build, classes=[Klass("C", [])]).value == 0


class TestConstFoldEdges:
    def test_shift_folding(self):
        from repro.cfg import CFG
        from repro.opt import fold_cfg

        b = BytecodeBuilder("f")
        b.push(1).push(70).emit(Op.SHL).ret()
        cfg = CFG.from_function(b.build())
        fold_cfg(cfg)
        # 70 & 63 == 6 -> 64
        assert cfg.entry_block().instructions[0].arg == 64

    def test_comparison_folding(self):
        from repro.cfg import CFG
        from repro.opt import fold_cfg

        b = BytecodeBuilder("f")
        b.push(3).push(4).emit(Op.LE).ret()
        cfg = CFG.from_function(b.build())
        fold_cfg(cfg)
        assert cfg.entry_block().instructions[0].arg == 1


class TestFrameworkOnTrivialFunctions:
    def test_loopless_function_gets_only_entry_check(self):
        from repro.frontend import compile_baseline
        from repro.instrument import CallEdgeInstrumentation
        from repro.sampling import SamplingFramework, Strategy

        baseline = compile_baseline(
            "func flat(x) { return x + 1; }\n"
            "func main() { return flat(41); }\n"
        )
        fw = SamplingFramework(Strategy.FULL_DUPLICATION)
        prog = fw.transform(baseline, CallEdgeInstrumentation())
        assert prog.function("flat").count_op(Op.CHECK) == 1

    def test_single_block_program(self):
        from repro.frontend import compile_baseline
        from repro.instrument import BlockCountInstrumentation
        from repro.sampling import (
            CounterTrigger,
            SamplingFramework,
            Strategy,
        )

        baseline = compile_baseline("func main() { return 7; }")
        instr = BlockCountInstrumentation()
        prog = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            baseline, instr
        )
        result = run_program(prog, trigger=CounterTrigger(1))
        assert result.value == 7
        assert instr.profile.total() >= 1
