"""The MiniJ frontend: lexer, parser, checker, code generator, driver."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "lexer": ("tokenize", "Lexer"),
    "parser": ("parse", "Parser"),
    "checker": ("check", "CheckedProgram"),
    "codegen": ("generate",),
    "compiler": ("compile_source", "compile_baseline", "CompileOptions"),
})
