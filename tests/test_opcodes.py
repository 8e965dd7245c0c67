"""Tests for the opcode tables in repro.bytecode.opcodes."""

import pytest

from repro.bytecode.opcodes import (
    BLOCK_TERMINATORS,
    BRANCH_OPS,
    CONDITIONAL_BRANCH_OPS,
    FIELD_REF_OPS,
    FUNCTION_REF_OPS,
    Op,
    PSEUDO_OPS,
    STACK_EFFECTS,
    UNCONDITIONAL_EXITS,
    is_binary,
    stack_effect,
)


class TestOpcodeTables:
    def test_every_opcode_is_distinct(self):
        values = [int(op) for op in Op]
        assert len(values) == len(set(values))

    def test_branch_ops_are_terminators(self):
        assert BRANCH_OPS <= BLOCK_TERMINATORS

    def test_conditional_branches_subset_of_branches(self):
        assert CONDITIONAL_BRANCH_OPS <= BRANCH_OPS

    def test_jump_is_unconditional_exit(self):
        assert Op.JUMP in UNCONDITIONAL_EXITS
        assert Op.JZ not in UNCONDITIONAL_EXITS

    def test_pseudo_ops(self):
        assert PSEUDO_OPS == {
            Op.YIELDPOINT, Op.CHECK, Op.INSTR, Op.GUARDED_INSTR,
        }

    def test_function_and_field_refs_disjoint(self):
        assert not FUNCTION_REF_OPS & FIELD_REF_OPS


class TestStackEffects:
    @pytest.mark.parametrize(
        "op,expected",
        [
            (Op.PUSH, (0, 1)),
            (Op.POP, (1, 0)),
            (Op.DUP, (1, 2)),
            (Op.SWAP, (2, 2)),
            (Op.ADD, (2, 1)),
            (Op.EQ, (2, 1)),
            (Op.NEG, (1, 1)),
            (Op.GETFIELD, (1, 1)),
            (Op.PUTFIELD, (2, 0)),
            (Op.ASTORE, (3, 0)),
            (Op.IO, (0, 1)),
            (Op.CHECK, (0, 0)),
            (Op.INSTR, (0, 0)),
        ],
    )
    def test_fixed_effects(self, op, expected):
        assert stack_effect(op) == expected

    @pytest.mark.parametrize("op", [Op.CALL, Op.SPAWN, Op.RETURN])
    def test_data_dependent_ops_have_no_fixed_effect(self, op):
        assert op not in STACK_EFFECTS
        with pytest.raises(KeyError):
            stack_effect(op)

    def test_every_other_opcode_has_an_effect(self):
        missing = [
            op for op in Op
            if op not in STACK_EFFECTS
            and op not in (Op.CALL, Op.SPAWN, Op.RETURN)
        ]
        assert missing == []

    def test_is_binary(self):
        assert is_binary(Op.ADD)
        assert is_binary(Op.NE)
        assert not is_binary(Op.NEG)
        assert not is_binary(Op.PUSH)
