"""repro — a from-scratch reproduction of Arnold & Ryder,
"A Framework for Reducing the Cost of Instrumented Code" (PLDI 2001).

The package builds the paper's entire stack on a deterministic
simulated machine:

* :mod:`repro.frontend` — the MiniJ language (lexer, parser, checker,
  code generator) standing in for Java source;
* :mod:`repro.bytecode` — a stack bytecode with builder, disassembler,
  and verifier;
* :mod:`repro.cfg` — control-flow graphs, dominators, loops, dataflow,
  re-linearization;
* :mod:`repro.opt` — folding, peephole, DCE, inlining, unrolling;
* :mod:`repro.instrument` — call-edge, field-access, block/edge, value,
  and Ball–Larus path instrumentation;
* :mod:`repro.sampling` — **the paper's contribution**: Full/Partial/
  No-Duplication transforms, counter/timer/randomized triggers,
  yieldpoint optimization, Property-1 verification;
* :mod:`repro.vm` — the interpreter with cycle cost model, green
  threads, virtual timer, GC pauses;
* :mod:`repro.profiles` — profiles and the overlap-percentage metric;
* :mod:`repro.adaptive` — a sampled-profile-driven adaptive optimizer;
* :mod:`repro.workloads` — the twelve workloads: ten analogs of the
  paper's benchmark suite plus two dynamic-code workloads;
* :mod:`repro.harness` — generators for every table and figure;
* :mod:`repro.analysis` — the static auditor: invariant certification,
  check-cost certificates, and static↔dynamic reconciliation.

Quickstart::

    from repro import (
        compile_baseline, SamplingFramework, Strategy,
        CallEdgeInstrumentation, CounterTrigger, run_program,
    )

    program = compile_baseline(open("app.minij").read())
    instr = CallEdgeInstrumentation()
    sampled = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        program, instr
    )
    result = run_program(sampled, trigger=CounterTrigger(interval=1000))
    print(instr.profile.top(10))

Every package exports its public names lazily (:mod:`repro._lazy`):
a name's module loads on first use, so a process loads only the
subsystems it uses.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["__version__"] + lazy_exports(__name__, {
    "frontend.compiler": ("compile_source", "compile_baseline", "CompileOptions"),
    "bytecode.opcodes": ("Op",),
    "bytecode.instructions": ("Instruction",),
    "bytecode.function": ("Function",),
    "bytecode.klass": ("Klass",),
    "bytecode.program": ("Program",),
    "bytecode.builder": ("BytecodeBuilder",),
    "bytecode.disassembler": ("disassemble_function", "disassemble_program"),
    "bytecode.verifier": ("verify_program",),
    "instrument.base": (
        "Instrumentation", "InstrumentationAction", "CombinedInstrumentation",
    ),
    "instrument.call_edge": ("CallEdgeInstrumentation",),
    "instrument.field_access": ("FieldAccessInstrumentation",),
    "instrument.block_profile": (
        "BlockCountInstrumentation", "EdgeProfileInstrumentation",
    ),
    "instrument.value_profile": ("ParameterValueInstrumentation",),
    "instrument.path_profile": ("PathProfileInstrumentation",),
    "sampling.framework": ("SamplingFramework", "Strategy", "transform_program"),
    "sampling.triggers": (
        "CounterTrigger", "TimerTrigger", "RandomizedCounterTrigger",
        "NeverTrigger",
    ),
    "vm.interpreter": ("VM", "VMResult", "run_program"),
    "vm.cost_model": ("CostModel",),
    "profiles.profile": ("Profile",),
    "profiles.overlap": ("overlap_percentage",),
    "adaptive.controller": ("AdaptiveController",),
    "analysis.auditor": ("audit_program",),
    "analysis.reconcile": ("reconcile",),
})
