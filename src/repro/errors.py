"""Exception hierarchy shared by every repro subsystem.

Each layer of the toolchain raises its own subclass so callers can catch
precisely the failures they can handle (e.g. a REPL catching
:class:`FrontendError` without masking VM bugs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class BytecodeError(ReproError):
    """Malformed bytecode: bad operands, unknown opcodes, builder misuse."""


class VerificationError(BytecodeError):
    """A function failed stack-shape / reference verification.

    Raised by :mod:`repro.bytecode.verifier` with a message naming the
    function and program counter at fault.
    """


class FrontendError(ReproError):
    """Base class for MiniJ compilation errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Invalid character or malformed token in MiniJ source."""


class ParseError(FrontendError):
    """MiniJ source does not conform to the grammar."""


class TypeCheckError(FrontendError):
    """MiniJ source is grammatical but ill-typed or ill-scoped."""


class CFGError(ReproError):
    """Inconsistent control-flow graph (bad edges, unreachable fixups)."""


class TransformError(ReproError):
    """An instrumentation or sampling transform could not be applied."""


class VMError(ReproError):
    """Base class for runtime faults inside the virtual machine."""


class VMTrap(VMError):
    """A program-level fault: division by zero, bad array index, etc."""

    def __init__(self, message: str, function: str = "?", pc: int = -1):
        self.function = function
        self.pc = pc
        super().__init__(f"{function}@{pc}: {message}")


class StackOverflowError(VMError):
    """The call stack exceeded the VM's configured maximum depth."""


class FuelExhaustedError(VMError):
    """Execution exceeded the configured instruction budget.

    Guards tests and experiments against accidental infinite loops in
    generated code; never raised for well-behaved workloads.
    """


class HarnessError(ReproError):
    """An experiment configuration is inconsistent or unrunnable."""


class AnalysisError(ReproError):
    """The static auditor was misused (unknown rule, bad suppression,
    malformed certificate) — distinct from a *finding*, which reports a
    problem in the audited code rather than in the audit request."""
