"""Disassembler: render functions and programs as readable text.

INSTR actions render as comments, since they carry Python objects.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bytecode.function import Function
from repro.bytecode.instructions import format_arg
from repro.bytecode.opcodes import BRANCH_OPS, Op
from repro.bytecode.program import Program


def branch_targets(fn: Function) -> Dict[int, str]:
    """Map each pc that is a branch target to a synthetic label name."""
    targets = sorted(
        {
            ins.arg
            for ins in fn.code
            if ins.op in BRANCH_OPS and isinstance(ins.arg, int)
        }
    )
    return {pc: f"L{idx}" for idx, pc in enumerate(targets)}


def disassemble_function(fn: Function, with_pc: bool = False) -> str:
    """Render one function. ``with_pc`` adds absolute pcs for debugging."""
    labels = branch_targets(fn)
    extra = fn.num_locals - fn.num_params
    header = f"func {fn.name}({fn.num_params})"
    if extra:
        header += f" locals={extra}"
    lines: List[str] = [header + " {"]
    for pc, ins in enumerate(fn.code):
        if pc in labels:
            lines.append(f"{labels[pc]}:")
        mnemonic = "ret" if ins.op == Op.RETURN else ins.op.name.lower()
        if ins.op in BRANCH_OPS and isinstance(ins.arg, int):
            operand = labels[ins.arg]
        elif ins.op in (Op.INSTR, Op.GUARDED_INSTR):
            operand = f"# {format_arg(ins)}"
        else:
            operand = format_arg(ins)
        text = f"    {mnemonic}" + (f" {operand}" if operand else "")
        if with_pc:
            text = f"{pc:4d}: {text.lstrip()}"
            text = "    " + text
        lines.append(text)
    lines.append("}")
    return "\n".join(lines)


def disassemble_program(program: Program, with_pc: bool = False) -> str:
    """Render every class and function of *program*."""
    parts: List[str] = []
    for name in sorted(program.classes):
        kl = program.classes[name]
        parts.append(f"class {kl.name} {{ {' '.join(kl.fields)} }}")
    for name in program.function_names():
        parts.append(disassemble_function(program.functions[name], with_pc))
    return "\n\n".join(parts) + "\n"
