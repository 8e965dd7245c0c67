"""Tests for yieldpoint insertion and the check-placement rules."""

import pytest

from repro.analysis import AuditContext, run_rules
from repro.analysis.context import FULL_DUPLICATION
from repro.bytecode import Op
from repro.cfg import CFG
from repro.frontend import CompileOptions, compile_source
from repro.sampling import (
    SamplingFramework,
    Strategy,
    count_yieldpoints,
    insert_yieldpoints,
    insert_yieldpoints_cfg,
)
from repro.instrument import CallEdgeInstrumentation
from repro.vm import run_program

SOURCE = """
func spin(n) {
    var acc = 0;
    while (n > 0) {
        acc = acc + n;
        n = n - 1;
    }
    return acc;
}

func main() {
    return spin(25);
}
"""


@pytest.fixture()
def plain_program():
    return compile_source(SOURCE, CompileOptions(opt_level=1))


class TestYieldpointInsertion:
    def test_one_per_entry_and_backedge(self, plain_program):
        with_yp = insert_yieldpoints(plain_program)
        spin = with_yp.function("spin")
        # 1 entry + 1 backedge
        assert spin.count_op(Op.YIELDPOINT) == 2
        main = with_yp.function("main")
        assert main.count_op(Op.YIELDPOINT) == 1

    def test_count_yieldpoints(self, plain_program):
        with_yp = insert_yieldpoints(plain_program)
        assert count_yieldpoints(with_yp) == 3
        assert count_yieldpoints(plain_program) == 0

    def test_semantics_preserved(self, plain_program):
        base = run_program(plain_program)
        with_yp = insert_yieldpoints(plain_program)
        result = run_program(with_yp)
        assert result.value == base.value == 325

    def test_entry_yieldpoint_is_first(self, plain_program):
        with_yp = insert_yieldpoints(plain_program)
        assert with_yp.function("spin").code[0].op is Op.YIELDPOINT

    def test_cfg_level_insertion_returns_count(self, plain_program):
        cfg = CFG.from_function(plain_program.function("spin"))
        assert insert_yieldpoints_cfg(cfg) == 2

    def test_selective(self, plain_program):
        with_yp = insert_yieldpoints(plain_program, functions=["spin"])
        assert with_yp.function("main").count_op(Op.YIELDPOINT) == 0
        assert with_yp.function("spin").count_op(Op.YIELDPOINT) == 2


class TestCheckPlacementVerifier:
    def test_rejects_instrumented_checking_code(self, plain_program):
        # Exhaustive instrumentation has INSTR in the main (checking)
        # path and must fail the duplication-structure check.
        from repro.sampling import Strategy, transform_program

        prog = transform_program(
            insert_yieldpoints(plain_program),
            CallEdgeInstrumentation(),
            Strategy.EXHAUSTIVE,
        )
        ctx = AuditContext(prog.function("spin"), strategy=FULL_DUPLICATION)
        assert run_rules(ctx, rule_ids=("AUD001", "AUD002", "AUD003"))
        assert ctx.instrumented_checking_blocks()

    def test_accepts_well_formed_output(self, plain_program):
        base = insert_yieldpoints(plain_program)
        fw = SamplingFramework(Strategy.FULL_DUPLICATION)
        prog = fw.transform(base, CallEdgeInstrumentation())
        for name in prog.function_names():
            ctx = AuditContext(
                prog.function(name), strategy=FULL_DUPLICATION
            )
            assert not run_rules(ctx, rule_ids=("AUD001", "AUD002", "AUD003"))
            assert ctx.checking_check_bids or name == "main"
