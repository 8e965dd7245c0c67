"""Tests for smaller infrastructure: errors, disassembler details,
paper reference data, and the experiment runner's trigger plumbing."""

import pytest

from repro import errors
from repro.bytecode import (
    BytecodeBuilder,
    Op,
    Program,
    disassemble_function,
)
from repro.harness import ExperimentRunner, RunSpec
from repro.harness import paper_data
from repro.sampling import Strategy
from repro.workloads import paper_workload_names, workload_names


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.VerificationError, errors.BytecodeError)
        assert issubclass(errors.BytecodeError, errors.ReproError)
        assert issubclass(errors.LexError, errors.FrontendError)
        assert issubclass(errors.ParseError, errors.FrontendError)
        assert issubclass(errors.TypeCheckError, errors.FrontendError)
        assert issubclass(errors.VMTrap, errors.VMError)
        assert issubclass(errors.VMError, errors.ReproError)

    def test_frontend_error_position_formatting(self):
        err = errors.ParseError("bad", line=3, column=7)
        assert "3:7" in str(err)
        assert err.line == 3 and err.column == 7

    def test_frontend_error_without_position(self):
        assert str(errors.ParseError("bad")) == "bad"

    def test_vmtrap_location(self):
        trap = errors.VMTrap("boom", "f", 12)
        assert "f@12" in str(trap)

    def test_assembler_error_line(self):
        err = errors.AssemblerError("oops", line=9)
        assert "line 9" in str(err)


class TestDisassembler:
    def test_with_pc_mode(self):
        b = BytecodeBuilder("f")
        done = b.new_label()
        b.push(1).jz(done).push(2).emit(Op.POP)
        b.label(done)
        b.push(0).ret()
        text = disassemble_function(b.build(), with_pc=True)
        assert "0:" in text and "jz" in text

    def test_instr_payload_rendered_as_comment(self):
        from repro.instrument.block_profile import CountAction
        from repro.profiles import Profile
        from repro.bytecode import Instruction, Function

        fn = Function(
            "f", 0, 0,
            [
                Instruction(Op.INSTR, CountAction(("f", 0), Profile())),
                Instruction(Op.PUSH, 0),
                Instruction(Op.RETURN),
            ],
        )
        text = disassemble_function(fn)
        assert "# count" in text


class TestPaperData:
    def test_every_workload_has_reference_rows(self):
        # only the paper's ten rows have published reference data; the
        # dynamic-code workloads (dynload, osr) are outside its matrix
        for name in paper_workload_names():
            assert name in paper_data.PAPER_TABLE1
            assert name in paper_data.PAPER_TABLE2
            assert name in paper_data.PAPER_TABLE3
            assert name in paper_data.PAPER_TABLE5
            assert name in paper_data.PAPER_FIGURE8A

    def test_reference_averages_match_rows(self):
        call = sum(v[0] for v in paper_data.PAPER_TABLE1.values()) / 10
        field = sum(v[1] for v in paper_data.PAPER_TABLE1.values()) / 10
        assert call == pytest.approx(paper_data.PAPER_TABLE1_AVG[0], abs=1.0)
        assert field == pytest.approx(paper_data.PAPER_TABLE1_AVG[1], abs=1.5)

    def test_intervals(self):
        assert paper_data.PAPER_INTERVALS == [1, 10, 100, 1000, 10000, 100000]
        assert set(paper_data.PAPER_TABLE4_FULL) == set(
            paper_data.PAPER_INTERVALS
        )

    def test_internal_consistency_table3_equals_table2_entry(self):
        """The paper's own cross-check: Table 3's call-edge column is
        Table 2's entry column (both measure entry checks). It holds for
        9 of 10 rows in the published data — pBOB differs (2.3 vs 0.9),
        presumably measurement noise, so we assert the 9."""
        matches = sum(
            1
            for name in paper_workload_names()
            if paper_data.PAPER_TABLE3[name][0]
            == pytest.approx(paper_data.PAPER_TABLE2[name][2], abs=0.01)
        )
        assert matches == 9
        assert paper_data.PAPER_TABLE3["pbob"][0] != pytest.approx(
            paper_data.PAPER_TABLE2["pbob"][2], abs=0.01
        )


class TestRunnerTriggerPlumbing:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner()

    def test_timer_trigger_path(self, runner):
        result = runner.run(
            RunSpec(
                "db",
                Strategy.FULL_DUPLICATION,
                ("field-access",),
                trigger="timer",
                timer_period=3000,
            )
        )
        assert result.stats.samples_taken > 0

    def test_phase_changes_sample_placement(self, runner):
        a = runner.run(
            RunSpec(
                "db", Strategy.FULL_DUPLICATION, ("call-edge",),
                trigger="counter", interval=40, phase=0,
            )
        )
        b = runner.run(
            RunSpec(
                "db", Strategy.FULL_DUPLICATION, ("call-edge",),
                trigger="counter", interval=40, phase=20,
            )
        )
        # same program, same trigger rate: only the phase differs; the
        # profiles may differ but sample counts are within one
        assert abs(a.stats.samples_taken - b.stats.samples_taken) <= 1
