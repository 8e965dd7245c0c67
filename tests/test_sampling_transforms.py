"""Tests for the duplication transforms — the paper's core algorithms."""

import pytest

from repro.analysis import AuditContext, property1_vs_baseline, run_rules
from repro.analysis.context import FULL_DUPLICATION
from repro.bytecode import Op
from repro.cfg import CFG, CheckBranch, linearize
from repro.errors import TransformError
from repro.frontend import compile_baseline
from repro.instrument import (
    BlockCountInstrumentation,
    CallEdgeInstrumentation,
    FieldAccessInstrumentation,
)
from repro.sampling import (
    CounterTrigger,
    NeverTrigger,
    SamplingFramework,
    Strategy,
    dup_dag_edges,
    full_duplicate,
    insert_checks_only,
    no_duplicate,
    partial_duplicate,
)
from repro.vm import run_program

SOURCE = """
class S { field sval; }

func leafy(x) {
    return x * 2 + 1;
}

func heavy(s, n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        s.sval = s.sval + leafy(i);
        acc = acc + s.sval % 7;
    }
    return acc;
}

func main() {
    var s = new S;
    var total = 0;
    for (var r = 0; r < 8; r = r + 1) {
        total = (total + heavy(s, r + 2)) % 100003;
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


def placement_findings(fn):
    """The placement invariants (AUD001-AUD003) for *fn*, judged as a
    duplication output whatever its strategy stamp."""
    return run_rules(
        AuditContext(fn, strategy=FULL_DUPLICATION),
        rule_ids=("AUD001", "AUD002", "AUD003"),
    )


def transformed(baseline, strategy, instr=None, yieldpoint_opt=False):
    instr = instr if instr is not None else CallEdgeInstrumentation()
    fw = SamplingFramework(strategy, yieldpoint_opt=yieldpoint_opt)
    return fw.transform(baseline, instr), instr, fw


class TestFullDuplication:
    def test_structure_verifies(self, baseline):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        for name in prog.function_names():
            findings = placement_findings(prog.function(name))
            assert not findings, [f.format() for f in findings]

    def test_code_roughly_doubles(self, baseline):
        prog, _, fw = transformed(baseline, Strategy.FULL_DUPLICATION)
        assert 1.8 <= fw.last_report.code_growth <= 2.6

    def test_checking_code_has_no_instrumentation(self, baseline):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        for name in prog.function_names():
            fn = prog.function(name)
            cfg = CFG.from_function(fn)
            checking = AuditContext(fn).checking
            for bid in checking:
                assert not cfg.block(bid).has_instrumentation()

    def test_duplicated_code_is_a_dag(self, baseline):
        cfg = CFG.from_function(baseline.function("heavy"))
        CallEdgeInstrumentation().instrument_cfg(cfg, baseline)
        result = full_duplicate(cfg)
        dup_dag_edges(result)  # raises on a cycle

    def test_one_check_per_entry_plus_backedge(self, baseline):
        cfg = CFG.from_function(baseline.function("heavy"))
        FieldAccessInstrumentation().instrument_cfg(cfg, baseline)
        result = full_duplicate(cfg)
        assert result.static_check_count() == 1 + len(result.backedges)

    def test_never_trigger_semantics(self, baseline, base_result):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        result = run_program(prog, trigger=NeverTrigger())
        assert result.value == base_result.value
        assert result.output == base_result.output
        assert result.stats.checks_taken == 0
        assert result.stats.instr_ops_executed == 0

    @pytest.mark.parametrize("interval", [1, 3, 7, 50])
    def test_semantics_preserved_at_any_interval(
        self, baseline, base_result, interval
    ):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        result = run_program(prog, trigger=CounterTrigger(interval))
        assert result.value == base_result.value
        assert result.output == base_result.output

    def test_property1_vs_baseline(self, baseline, base_result):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        for interval in (1, 5, 100):
            stats = run_program(prog, trigger=CounterTrigger(interval)).stats
            assert property1_vs_baseline(stats, base_result.stats)
            assert stats.property1_holds()

    def test_interval_one_equals_exhaustive_profile(self, baseline):
        exhaustive = CallEdgeInstrumentation()
        ex_prog, _, _ = transformed(baseline, Strategy.EXHAUSTIVE, exhaustive)
        run_program(ex_prog)

        sampled = CallEdgeInstrumentation()
        fd_prog, _, _ = transformed(
            baseline, Strategy.FULL_DUPLICATION, sampled
        )
        run_program(fd_prog, trigger=CounterTrigger(1))
        assert sampled.profile.counts == exhaustive.profile.counts

    def test_sample_counts_scale_with_interval(self, baseline):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        s_small = run_program(prog, trigger=CounterTrigger(5)).stats
        s_large = run_program(prog, trigger=CounterTrigger(50)).stats
        assert s_small.samples_taken > 5 * s_large.samples_taken

    def test_disable_trigger_keeps_running(self, baseline, base_result):
        prog, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        trig = CounterTrigger(3)
        trig.disable()
        result = run_program(prog, trigger=trig)
        assert result.value == base_result.value
        assert result.stats.checks_taken == 0


class TestYieldpointOptimization:
    def test_checking_code_loses_yieldpoints(self, baseline):
        prog, _, _ = transformed(
            baseline, Strategy.FULL_DUPLICATION, yieldpoint_opt=True
        )
        for name in prog.function_names():
            fn = prog.function(name)
            cfg = CFG.from_function(fn)
            for bid in AuditContext(fn).checking:
                ops = list(cfg.block(bid).iter_ops())
                assert Op.YIELDPOINT not in ops

    def test_duplicated_code_keeps_yieldpoints(self, baseline):
        prog, _, _ = transformed(
            baseline, Strategy.FULL_DUPLICATION, yieldpoint_opt=True
        )
        total_yp = sum(
            fn.count_op(Op.YIELDPOINT) for fn in prog.functions.values()
        )
        assert total_yp > 0

    def test_cheaper_than_plain_full_duplication(self, baseline):
        plain, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        opt, _, _ = transformed(
            baseline, Strategy.FULL_DUPLICATION, yieldpoint_opt=True
        )
        plain_cycles = run_program(plain).stats.cycles
        opt_cycles = run_program(opt).stats.cycles
        assert opt_cycles < plain_cycles

    def test_requires_duplication_strategy(self):
        with pytest.raises(TransformError):
            SamplingFramework(Strategy.NO_DUPLICATION, yieldpoint_opt=True)

    def test_semantics_preserved(self, baseline, base_result):
        prog, _, _ = transformed(
            baseline, Strategy.FULL_DUPLICATION, yieldpoint_opt=True
        )
        result = run_program(prog, trigger=CounterTrigger(13))
        assert result.value == base_result.value


class TestNoDuplication:
    def test_no_code_growth_beyond_guards(self, baseline):
        _, _, fw = transformed(baseline, Strategy.NO_DUPLICATION)
        assert fw.last_report.code_growth < 1.2
        assert fw.last_report.guarded_ops > 0

    def test_instr_becomes_guarded(self, baseline):
        prog, _, _ = transformed(baseline, Strategy.NO_DUPLICATION)
        for fn in prog.functions.values():
            assert fn.count_op(Op.INSTR) == 0

    def test_no_checks_added(self, baseline):
        prog, _, _ = transformed(baseline, Strategy.NO_DUPLICATION)
        for fn in prog.functions.values():
            assert fn.count_op(Op.CHECK) == 0

    @pytest.mark.parametrize("interval", [1, 7, 50])
    def test_semantics_preserved(self, baseline, base_result, interval):
        prog, _, _ = transformed(baseline, Strategy.NO_DUPLICATION)
        result = run_program(prog, trigger=CounterTrigger(interval))
        assert result.value == base_result.value

    def test_interval_one_equals_exhaustive(self, baseline):
        exhaustive = CallEdgeInstrumentation()
        ex_prog, _, _ = transformed(baseline, Strategy.EXHAUSTIVE, exhaustive)
        run_program(ex_prog)

        sampled = CallEdgeInstrumentation()
        nd_prog, _, _ = transformed(
            baseline, Strategy.NO_DUPLICATION, sampled
        )
        run_program(nd_prog, trigger=CounterTrigger(1))
        assert sampled.profile.counts == exhaustive.profile.counts

    def test_guarded_checks_proportional_to_instr_sites(
        self, baseline, base_result
    ):
        instr = CallEdgeInstrumentation()
        prog, _, _ = transformed(baseline, Strategy.NO_DUPLICATION, instr)
        stats = run_program(prog, trigger=NeverTrigger()).stats
        # one guarded poll per method entry
        assert stats.guarded_checks_executed == base_result.stats.calls + 1


class TestPartialDuplication:
    def test_smaller_than_full(self, baseline):
        instr_a = CallEdgeInstrumentation()
        full_prog, _, fw_full = transformed(
            baseline, Strategy.FULL_DUPLICATION, instr_a
        )
        instr_b = CallEdgeInstrumentation()
        part_prog, _, fw_part = transformed(
            baseline, Strategy.PARTIAL_DUPLICATION, instr_b
        )
        assert (
            part_prog.total_instructions() < full_prog.total_instructions()
        )

    def test_structure_verifies(self, baseline):
        prog, _, _ = transformed(baseline, Strategy.PARTIAL_DUPLICATION)
        for name in prog.function_names():
            findings = placement_findings(prog.function(name))
            assert not findings, [f.format() for f in findings]

    @pytest.mark.parametrize("interval", [1, 3, 17])
    def test_semantics_preserved(self, baseline, base_result, interval):
        prog, _, _ = transformed(baseline, Strategy.PARTIAL_DUPLICATION)
        result = run_program(prog, trigger=CounterTrigger(interval))
        assert result.value == base_result.value
        assert result.output == base_result.output

    def test_instrumentation_identical_to_full_at_interval_1(self, baseline):
        """Paper §3.1: 'Instrumentation is performed identically to
        Full-Duplication' — compare complete coverage runs."""
        instr_full = CallEdgeInstrumentation()
        prog_full, _, _ = transformed(
            baseline, Strategy.FULL_DUPLICATION, instr_full
        )
        run_program(prog_full, trigger=CounterTrigger(1))

        instr_part = CallEdgeInstrumentation()
        prog_part, _, _ = transformed(
            baseline, Strategy.PARTIAL_DUPLICATION, instr_part
        )
        run_program(prog_part, trigger=CounterTrigger(1))
        assert instr_part.profile.counts == instr_full.profile.counts

    def test_dynamic_checks_not_more_than_full(self, baseline):
        """Paper §3.1: dynamic checks <= Full-Duplication's."""
        prog_full, _, _ = transformed(baseline, Strategy.FULL_DUPLICATION)
        prog_part, _, _ = transformed(baseline, Strategy.PARTIAL_DUPLICATION)
        full_checks = run_program(
            prog_full, trigger=NeverTrigger()
        ).stats.checks_executed
        part_checks = run_program(
            prog_part, trigger=NeverTrigger()
        ).stats.checks_executed
        assert part_checks <= full_checks

    def test_sparse_instrumentation_prunes_heavily(self, baseline):
        """Call-edge instruments only entries, so most of the duplicated
        body is top/bottom nodes and gets pruned."""
        cfg = CFG.from_function(baseline.function("heavy"))
        CallEdgeInstrumentation().instrument_cfg(cfg, baseline)
        _result, stats = partial_duplicate(cfg)
        assert stats.top_nodes + stats.bottom_nodes > 0
        assert stats.blocks_after < stats.blocks_before

    def test_property1_vs_baseline(self, baseline, base_result):
        prog, _, _ = transformed(baseline, Strategy.PARTIAL_DUPLICATION)
        stats = run_program(prog, trigger=CounterTrigger(5)).stats
        assert property1_vs_baseline(stats, base_result.stats)


class TestChecksOnly:
    def test_insert_checks_only_counts(self, baseline):
        cfg = CFG.from_function(baseline.function("heavy"))
        n = insert_checks_only(cfg)
        from repro.cfg.loops import sampling_backedges

        cfg2 = CFG.from_function(baseline.function("heavy"))
        assert n == 1 + len(set(sampling_backedges(cfg2)))

    def test_checks_only_strategies_preserve_semantics(
        self, baseline, base_result
    ):
        for strategy in (
            Strategy.CHECKS_ONLY_ENTRY,
            Strategy.CHECKS_ONLY_BACKEDGE,
        ):
            fw = SamplingFramework(strategy)
            prog = fw.transform(baseline, None)
            result = run_program(prog)
            assert result.value == base_result.value

    def test_entry_checks_counted_once_per_call(self, baseline, base_result):
        fw = SamplingFramework(Strategy.CHECKS_ONLY_ENTRY)
        prog = fw.transform(baseline, None)
        stats = run_program(prog).stats
        assert stats.checks_executed == base_result.stats.calls + 1

    def test_backedge_checks_counted_once_per_backjump(
        self, baseline, base_result
    ):
        fw = SamplingFramework(Strategy.CHECKS_ONLY_BACKEDGE)
        prog = fw.transform(baseline, None)
        stats = run_program(prog).stats
        assert stats.checks_executed == base_result.stats.backward_jumps


class TestFrameworkFacade:
    def test_multiple_instrumentations_one_transform(
        self, baseline, base_result
    ):
        call = CallEdgeInstrumentation()
        field = FieldAccessInstrumentation()
        fw = SamplingFramework(Strategy.FULL_DUPLICATION)
        prog = fw.transform(baseline, [call, field])
        result = run_program(prog, trigger=CounterTrigger(1))
        assert result.value == base_result.value
        assert call.profile and field.profile

    def test_exhaustive_requires_instrumentation(self, baseline):
        fw = SamplingFramework(Strategy.EXHAUSTIVE)
        with pytest.raises(TransformError):
            fw.transform(baseline, None)

    def test_selective_functions(self, baseline, base_result):
        instr = BlockCountInstrumentation()
        fw = SamplingFramework(Strategy.FULL_DUPLICATION)
        prog = fw.transform(baseline, instr, functions=["heavy"])
        result = run_program(prog, trigger=CounterTrigger(1))
        assert result.value == base_result.value
        assert all(k[0] == "heavy" for k in instr.profile.counts)

    def test_report_counts_functions(self, baseline):
        fw = SamplingFramework(Strategy.FULL_DUPLICATION)
        fw.transform(baseline, CallEdgeInstrumentation())
        assert fw.last_report.functions_transformed == len(
            baseline.functions
        )
        assert fw.last_report.static_checks > 0

    def test_transform_is_pure(self, baseline):
        before = baseline.total_instructions()
        SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            baseline, CallEdgeInstrumentation()
        )
        assert baseline.total_instructions() == before


class TestCountedBackedges:
    """The §2 'N consecutive loop iterations' refinement."""

    def test_semantics_preserved(self, baseline, base_result):
        for n in (2, 5, 16):
            fw = SamplingFramework(
                Strategy.FULL_DUPLICATION, sample_iterations=n
            )
            prog = fw.transform(baseline, CallEdgeInstrumentation())
            for interval in (1, 7):
                result = run_program(prog, trigger=CounterTrigger(interval))
                assert result.value == base_result.value, (n, interval)

    def test_more_instrumentation_per_sample(self, baseline):
        def ops_per_sample(n):
            instr = BlockCountInstrumentation()
            fw = SamplingFramework(
                Strategy.FULL_DUPLICATION, sample_iterations=n
            )
            prog = fw.transform(baseline, instr)
            stats = run_program(prog, trigger=CounterTrigger(13)).stats
            return stats.instr_ops_executed / max(1, stats.samples_taken)

        # loop trip counts here are small (2..9), so bursts often end at
        # the loop's own exit before N iterations; the ratio still must
        # grow clearly
        assert ops_per_sample(8) > 1.8 * ops_per_sample(1)

    def test_fewer_checks_executed(self, baseline):
        def checks(n):
            fw = SamplingFramework(
                Strategy.FULL_DUPLICATION, sample_iterations=n
            )
            prog = fw.transform(baseline, BlockCountInstrumentation())
            return run_program(
                prog, trigger=CounterTrigger(5)
            ).stats.checks_executed

        # burst iterations bypass the backedge checks entirely
        assert checks(8) < checks(1)

    def test_property1_still_holds(self, baseline, base_result):
        fw = SamplingFramework(
            Strategy.FULL_DUPLICATION, sample_iterations=6
        )
        prog = fw.transform(baseline, BlockCountInstrumentation())
        stats = run_program(prog, trigger=CounterTrigger(11)).stats
        assert property1_vs_baseline(stats, base_result.stats)

    def test_requires_full_duplication(self):
        with pytest.raises(TransformError):
            SamplingFramework(
                Strategy.NO_DUPLICATION, sample_iterations=4
            )
        with pytest.raises(TransformError):
            SamplingFramework(
                Strategy.FULL_DUPLICATION, sample_iterations=0
            )

    def test_consecutive_iterations_observed(self, baseline):
        """With N=4, samples record runs of consecutive loop-body
        blocks: the per-sample block coverage of the hot loop should be
        (almost) N times the base design's."""
        def loop_hits(n):
            instr = BlockCountInstrumentation()
            fw = SamplingFramework(
                Strategy.FULL_DUPLICATION, sample_iterations=n
            )
            prog = fw.transform(baseline, instr, functions=["heavy"])
            stats = run_program(prog, trigger=CounterTrigger(13)).stats
            body_hits = sum(
                v for k, v in instr.profile.counts.items()
            )
            return body_hits / max(1, stats.samples_taken)

        assert loop_hits(4) > 2.5 * loop_hits(1)
