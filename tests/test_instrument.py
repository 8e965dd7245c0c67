"""Tests for the instrumentation kinds (exhaustive application)."""

import pytest

from repro.bytecode import Op
from repro.frontend import compile_baseline
from repro.instrument import (
    BlockCountInstrumentation,
    CallEdgeInstrumentation,
    CombinedInstrumentation,
    EdgeProfileInstrumentation,
    FieldAccessInstrumentation,
    ParameterValueInstrumentation,
    PathProfileInstrumentation,
    assign_call_site_ids,
    count_instr_ops,
)
from repro.instrument.base import EmptyInstrumentation
from repro.sampling import Strategy, transform_program
from repro.vm import run_program

SOURCE = """
class Pair { field left; field right; }

func swapPair(p) {
    var t = p.left;
    p.left = p.right;
    p.right = t;
    return p.left;
}

func looper(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { acc = acc + i; }
        else { acc = acc + 2 * i; }
    }
    return acc;
}

func main() {
    var p = new Pair;
    p.left = 1;
    p.right = 2;
    var total = 0;
    for (var r = 0; r < 6; r = r + 1) {
        total = total + swapPair(p) + looper(r + 4);
    }
    print(total);
    return total;
}
"""


@pytest.fixture(scope="module")
def baseline():
    return compile_baseline(SOURCE)


@pytest.fixture(scope="module")
def base_result(baseline):
    return run_program(baseline)


def run_instrumented(baseline, instr):
    program = transform_program(baseline, instr, Strategy.EXHAUSTIVE)
    return run_program(program)


class TestCallEdge:
    def test_counts_match_dynamic_calls(self, baseline, base_result):
        instr = CallEdgeInstrumentation()
        result = run_instrumented(baseline, instr)
        assert result.value == base_result.value
        # every entry recorded: calls + the root entry of main
        assert instr.profile.total() == base_result.stats.calls + 1

    def test_edges_keyed_by_site(self, baseline):
        instr = CallEdgeInstrumentation()
        run_instrumented(baseline, instr)
        keys = set(instr.profile.counts)
        mains = {k for k in keys if k[0] == "main"}
        assert {k[2] for k in mains} == {"swapPair", "looper"}
        assert ("<root>", 0, "main") in keys

    def test_site_ids_stable_across_copies(self, baseline):
        copied = baseline.copy()
        metas_a = [
            ins.meta for ins in baseline.function("main").code
            if ins.op is Op.CALL
        ]
        metas_b = [
            ins.meta for ins in copied.function("main").code
            if ins.op is Op.CALL
        ]
        assert metas_a == metas_b and all(m is not None for m in metas_a)

    def test_assign_call_site_ids_counts_sites(self, baseline):
        fresh = baseline.copy()
        stamped = assign_call_site_ids(fresh)
        assert stamped == sum(
            fn.count_op(Op.CALL) + fn.count_op(Op.SPAWN)
            for fn in fresh.functions.values()
        )


class TestFieldAccess:
    def test_counts_match_dynamic_accesses(self, baseline, base_result):
        instr = FieldAccessInstrumentation()
        result = run_instrumented(baseline, instr)
        assert result.value == base_result.value
        getfields = sum(
            v for (cls, fld, kind), v in instr.profile.counts.items()
            if kind == "get"
        )
        putfields = sum(
            v for (cls, fld, kind), v in instr.profile.counts.items()
            if kind == "put"
        )
        # swapPair: 2 gets + 2 puts + 1 get per call; main: 2 puts once
        assert getfields == 6 * 3
        assert putfields == 6 * 2 + 2

    def test_keys_include_class_and_field(self, baseline):
        instr = FieldAccessInstrumentation()
        run_instrumented(baseline, instr)
        assert ("Pair", "left", "get") in instr.profile.counts


class TestBlockAndEdge:
    def test_block_counts_proportional_to_execution(self, baseline, base_result):
        instr = BlockCountInstrumentation()
        result = run_instrumented(baseline, instr)
        assert result.value == base_result.value
        # entry block of main executed exactly once
        entries = [
            v for (fn, bid), v in instr.profile.counts.items()
            if fn == "main"
        ]
        assert 1 in entries

    def test_edge_profile_conservation(self, baseline, base_result):
        """Flow conservation: edges into a block sum to its executions."""
        edges = EdgeProfileInstrumentation()
        blocks = BlockCountInstrumentation()
        program = transform_program(
            baseline,
            CombinedInstrumentation([blocks, edges]),
            Strategy.EXHAUSTIVE,
        )
        result = run_program(program)
        assert result.value == base_result.value
        # for looper's loop header: incoming edge counts == block count
        block_counts = {
            key: v for key, v in blocks.profile.counts.items()
            if key[0] == "looper"
        }
        edge_counts = {
            key: v for key, v in edges.profile.counts.items()
            if key[0] == "looper"
        }
        for (fn, bid), count in block_counts.items():
            incoming = sum(
                v for (f, src, dst), v in edge_counts.items() if dst == bid
            )
            if incoming:  # entry block has no incoming edges
                assert incoming == count


class TestValueProfiles:
    def test_parameter_values(self, baseline, base_result):
        instr = ParameterValueInstrumentation()
        result = run_instrumented(baseline, instr)
        assert result.value == base_result.value
        looper_keys = {
            k: v for k, v in instr.profile.counts.items() if k[0] == "looper"
        }
        # looper called with 4..9, once each
        observed = sorted(k[2] for k in looper_keys)
        assert observed == [4, 5, 6, 7, 8, 9]

    def test_value_clamping(self):
        from repro.instrument.value_profile import clamp_value, VALUE_CLAMP

        assert clamp_value(5) == 5
        assert clamp_value(VALUE_CLAMP + 100) == VALUE_CLAMP + 1
        assert clamp_value(-VALUE_CLAMP - 100) == -(VALUE_CLAMP + 1)
        assert clamp_value("ref") == -(VALUE_CLAMP + 2)


class TestPathProfile:
    def test_paths_recorded_and_valid(self, baseline, base_result):
        instr = PathProfileInstrumentation()
        result = run_instrumented(baseline, instr)
        assert result.value == base_result.value
        assert instr.profile.total() > 0
        # every recorded path id must be < numpaths from its start
        assert instr.num_paths["looper"] >= 1

    def test_loop_body_paths_distinguish_branches(self, baseline):
        instr = PathProfileInstrumentation()
        run_instrumented(baseline, instr)
        looper_paths = {
            k for k in instr.profile.counts if k[0] == "looper"
        }
        # the if/else in the loop body yields at least two distinct paths
        assert len(looper_paths) >= 2

    def test_path_counts_match_iterations(self, baseline, base_result):
        instr = PathProfileInstrumentation()
        run_instrumented(baseline, instr)
        # looper runs sum(r+4 for r in 0..5) = 39 iterations; each
        # records one header-to-backedge path; plus exits
        looper_total = sum(
            v for k, v in instr.profile.counts.items() if k[0] == "looper"
        )
        iterations = sum(r + 4 for r in range(6))
        calls = 6
        assert looper_total == iterations + calls  # per-iter + per-exit


class TestInfrastructure:
    def test_empty_instrumentation_adds_nothing(self, baseline):
        program = transform_program(
            baseline, EmptyInstrumentation(), Strategy.EXHAUSTIVE
        )
        assert program.total_instructions() == baseline.total_instructions()

    def test_combined_requires_parts(self):
        with pytest.raises(ValueError):
            CombinedInstrumentation([])

    def test_count_instr_ops(self, baseline):
        from repro.cfg import CFG

        instr = BlockCountInstrumentation()
        program = transform_program(baseline, instr, Strategy.EXHAUSTIVE)
        cfg = CFG.from_function(program.function("looper"))
        assert count_instr_ops(cfg) == len(cfg.blocks)

    def test_reset_clears_profile(self, baseline):
        instr = CallEdgeInstrumentation()
        run_instrumented(baseline, instr)
        assert instr.profile
        instr.reset()
        assert not instr.profile

    def test_exhaustive_transform_leaves_input_untouched(self, baseline):
        before = baseline.total_instructions()
        transform_program(
            baseline, BlockCountInstrumentation(), Strategy.EXHAUSTIVE
        )
        assert baseline.total_instructions() == before

    def test_selective_function_instrumentation(self, baseline, base_result):
        instr = CallEdgeInstrumentation()
        program = transform_program(
            baseline, instr, Strategy.EXHAUSTIVE, functions=["looper"]
        )
        result = run_program(program)
        assert result.value == base_result.value
        assert all(k[2] == "looper" for k in instr.profile.counts)
