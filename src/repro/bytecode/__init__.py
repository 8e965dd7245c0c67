"""Stack-machine bytecode: ISA, containers, builder, (dis)assembler, verifier."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "opcodes": ("Op",),
    "instructions": ("Instruction", "Label", "instr"),
    "function": ("Function",),
    "klass": ("Klass",),
    "program": ("Program",),
    "builder": ("BytecodeBuilder",),
    "assembler": ("assemble",),
    "disassembler": ("disassemble_function", "disassemble_program"),
    "verifier": ("verify_function", "verify_program"),
})
