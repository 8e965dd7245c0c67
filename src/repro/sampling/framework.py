"""The instrumentation-sampling framework facade.

This module is the public entry point of the paper's contribution: give
it a program, an instrumentation, and a strategy, and it returns a
transformed program whose instrumentation executes only during samples.

Typical use::

    from repro.sampling import SamplingFramework, Strategy
    from repro.sampling.triggers import CounterTrigger
    from repro.instrument import CallEdgeInstrumentation

    instr = CallEdgeInstrumentation()
    framework = SamplingFramework(Strategy.FULL_DUPLICATION)
    sampled = framework.transform(program, instr)
    run_program(sampled, trigger=CounterTrigger(interval=1000))
    print(instr.profile.top(10))

Strategies:

* ``EXHAUSTIVE`` — no sampling; instrumentation runs on every event
  (the Table 1 baseline).
* ``FULL_DUPLICATION`` — §2's transform (checks on entry+backedges,
  whole body duplicated).
* ``PARTIAL_DUPLICATION`` — §3.1 (top/bottom-node pruning).
* ``NO_DUPLICATION`` — §3.2 (each operation individually guarded).
* ``CHECKS_ONLY_ENTRY`` / ``CHECKS_ONLY_BACKEDGE`` — measurement-only
  configurations for Table 2's overhead breakdown (checks inserted,
  nothing sampled, instrumentation dropped).

A strategy plan is data for the same transform:
``framework.transform(program, instr, assignments={function: strategy})``
transforms each function it names under that strategy and the rest under
the framework's own, and the :class:`RuntimeLoader` attached to the
result transforms code loaded mid-run by the same rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from repro.bytecode.function import Function
from repro.bytecode.opcodes import Op
from repro.bytecode.program import Program
from repro.bytecode.verifier import verify_function, verify_program
from repro.cfg.graph import CFG
from repro.cfg.linearize import linearize
from repro.errors import TransformError
from repro.instrument.base import CombinedInstrumentation, Instrumentation
from repro.sampling.checks import insert_checks_only
from repro.sampling.duplication import full_duplicate
from repro.sampling.no_duplication import no_duplicate
from repro.sampling.partial_duplication import (
    PartialDuplicationStats,
    partial_duplicate,
)


class Strategy(enum.Enum):
    """How instrumentation cost is controlled."""

    EXHAUSTIVE = "exhaustive"
    FULL_DUPLICATION = "full-duplication"
    PARTIAL_DUPLICATION = "partial-duplication"
    NO_DUPLICATION = "no-duplication"
    CHECKS_ONLY_ENTRY = "checks-only-entry"
    CHECKS_ONLY_BACKEDGE = "checks-only-backedge"


@dataclass
class TransformReport:
    """Per-function accounting from one framework application."""

    strategy: Strategy
    yieldpoint_opt: bool = False
    functions_transformed: int = 0
    instructions_before: int = 0
    instructions_after: int = 0
    static_checks: int = 0
    guarded_ops: int = 0
    partial_stats: Dict[str, PartialDuplicationStats] = field(
        default_factory=dict
    )

    @property
    def code_growth(self) -> float:
        """Instructions-after / instructions-before (>= 1 for
        duplication strategies)."""
        if self.instructions_before == 0:
            return 1.0
        return self.instructions_after / self.instructions_before


#: The strategies that duplicate code, the only ones the yieldpoint
#: optimization applies to.
_DUPLICATING = (Strategy.FULL_DUPLICATION, Strategy.PARTIAL_DUPLICATION)


class RuntimeLoader:
    """Instrument-at-load hook for dynamically arriving code.

    Attached to every transformed program by
    :meth:`SamplingFramework.transform`; when the running program
    executes ``LOADFN``/``REPLACEFN``, :meth:`Program.define_at_runtime`
    hands the raw template here and installs what :meth:`load` returns —
    so functions that arrive mid-run get exactly the same checks,
    duplicated bodies, and instrumentation hooks as the statically
    transformed code, and Property 1 keeps holding over the grown
    program.

    The loader also picks each static function's framework. A function
    takes the strategy that *assignments* (a function→strategy map, as a
    :class:`~repro.analysis.planner.StrategyPlan` gives it) names for its
    install name, else for its template's name (the planner plans
    loadables by template), else the framework's own strategy. One
    framework per strategy is built on first use and shared by the
    static pass and every later load, so static and dynamic code of a
    function are transformed identically. The loader holds only that
    configuration and the shared instrumentation object, so program
    copies can share it.
    """

    def __init__(
        self,
        framework: "SamplingFramework",
        instrumentation: Optional[Instrumentation],
        assignments: Optional[Mapping[str, Union[Strategy, str]]] = None,
    ):
        self.framework = framework
        self.instrumentation = instrumentation
        self.assignments: Dict[str, Strategy] = {
            name: Strategy(value)
            for name, value in (assignments or {}).items()
        }
        self._frameworks = {framework.strategy: framework}

    def framework_for(
        self, name: str, template_name: Optional[str] = None
    ) -> "SamplingFramework":
        """The framework that transforms function *name* (installed from
        *template_name*, for code loaded mid-run)."""
        strategy = self.assignments.get(
            name, self.assignments.get(template_name, self.framework.strategy)
        )
        framework = self._frameworks.get(strategy)
        if framework is None:
            # A plan that mixes strategies keeps the yieldpoint
            # optimization on the duplication strategies only.
            framework = self._frameworks[strategy] = SamplingFramework(
                strategy,
                yieldpoint_opt=(
                    self.framework.yieldpoint_opt and strategy in _DUPLICATING
                ),
                verify=self.framework.verify,
            )
        return framework

    def load(self, template: Function, name: str, program: Program) -> Function:
        framework = self.framework_for(name, template.name)
        transformed = framework.transform_function(
            template.copy(name=name), program, self.instrumentation
        )
        if framework.verify:
            verify_function(transformed, program)
        return transformed


class SamplingFramework:
    """Applies a sampling strategy to instrumented programs.

    Args:
        strategy: cost-control strategy (see :class:`Strategy`).
        yieldpoint_opt: apply the Jalapeño-specific optimization
            (§4.5) — only meaningful for the duplication strategies,
            and only on programs that carry yieldpoints.
        verify: run the bytecode verifier on every transformed program
            (cheap insurance that the rewrite preserved well-formedness).
    """

    def __init__(
        self,
        strategy: Strategy = Strategy.FULL_DUPLICATION,
        yieldpoint_opt: bool = False,
        verify: bool = True,
        sample_iterations: int = 1,
    ):
        if yieldpoint_opt and strategy not in _DUPLICATING:
            raise TransformError(
                "the yieldpoint optimization requires a duplication strategy"
            )
        if sample_iterations < 1:
            raise TransformError("sample_iterations must be >= 1")
        if sample_iterations > 1 and strategy is not Strategy.FULL_DUPLICATION:
            raise TransformError(
                "counted backedges (sample_iterations > 1) require "
                "Full-Duplication"
            )
        self.strategy = strategy
        self.yieldpoint_opt = yieldpoint_opt
        self.verify = verify
        self.sample_iterations = sample_iterations
        self.last_report: Optional[TransformReport] = None

    # -- public API ---------------------------------------------------------

    def transform(
        self,
        program: Program,
        instrumentation: Union[Instrumentation, Sequence[Instrumentation], None],
        functions: Optional[Iterable[str]] = None,
        assignments: Optional[Mapping[str, Union[Strategy, str]]] = None,
    ) -> Program:
        """Return a transformed copy of *program*.

        ``instrumentation`` may be a single kind, a sequence (combined
        into one pass — multiple instrumentations share one set of
        checks and one duplicated body), or None (or an empty sequence)
        for the checks-only strategies.

        ``assignments`` maps function (or loadable-template) names to
        strategies — :class:`Strategy` members or their string values,
        as a ``StrategyPlan`` serializes them; a function it does not
        name is transformed under this framework's strategy. Each
        function is stamped ``fn.notes["sampling"]`` with its own
        strategy, so ``audit_program(strategy=None)`` audits a mix under
        the per-function rules.
        """
        instr = self._normalize_instrumentation(instrumentation)
        # Dynamically loaded code must be transformed the same way the
        # static functions were: the program's load events come back
        # through this loader (instrument-at-load).
        loader = RuntimeLoader(self, instr, assignments)
        report = TransformReport(self.strategy, self.yieldpoint_opt)
        result = program.copy()
        names = (
            list(functions)
            if functions is not None
            else result.function_names()
        )
        for name in names:
            original = result.function(name)
            report.instructions_before += original.instruction_count()
            transformed = loader.framework_for(name).transform_function(
                original, result, instr, report
            )
            report.instructions_after += transformed.instruction_count()
            report.functions_transformed += 1
            result.replace_function(transformed)
        result.loader = loader
        if self.verify:
            verify_program(result)
        self.last_report = report
        return result

    def transform_function(
        self,
        fn: Function,
        program: Program,
        instrumentation: Optional[Instrumentation],
        report: Optional[TransformReport] = None,
    ) -> Function:
        """Transform a single function (used directly by the adaptive
        controller, which instruments one hot method at a time)."""
        report = report if report is not None else TransformReport(self.strategy)
        cfg = CFG.from_function(fn)
        strategy = self.strategy
        cold = None

        if strategy in (Strategy.CHECKS_ONLY_ENTRY, Strategy.CHECKS_ONLY_BACKEDGE):
            insert_checks_only(
                cfg,
                entries=strategy is Strategy.CHECKS_ONLY_ENTRY,
                backedges=strategy is Strategy.CHECKS_ONLY_BACKEDGE,
            )
        else:
            if instrumentation is None:
                raise TransformError(
                    f"strategy {strategy.value} requires an instrumentation"
                )
            instrumentation.instrument_cfg(cfg, program)
            if strategy is Strategy.EXHAUSTIVE:
                pass
            elif strategy is Strategy.FULL_DUPLICATION:
                result = full_duplicate(
                    cfg,
                    yieldpoint_opt=self.yieldpoint_opt,
                    sample_iterations=self.sample_iterations,
                )
                cold = result.cold_blocks()
            elif strategy is Strategy.PARTIAL_DUPLICATION:
                result, pstats = partial_duplicate(
                    cfg, yieldpoint_opt=self.yieldpoint_opt
                )
                cold = result.cold_blocks()
                report.partial_stats[fn.name] = pstats
            elif strategy is Strategy.NO_DUPLICATION:
                report.guarded_ops += no_duplicate(cfg)
            else:  # pragma: no cover - exhaustive enum handling
                raise TransformError(f"unhandled strategy {strategy!r}")

        transformed = linearize(
            cfg,
            cold_blocks=cold,
            notes={
                "sampling": strategy.value,
                "yieldpoint_opt": self.yieldpoint_opt,
                "sample_iterations": self.sample_iterations,
            },
        )
        report.static_checks += transformed.count_op(Op.CHECK)
        return transformed

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _normalize_instrumentation(
        instrumentation: Union[Instrumentation, Sequence[Instrumentation], None],
    ) -> Optional[Instrumentation]:
        if instrumentation is None:
            return None
        if isinstance(instrumentation, Instrumentation):
            return instrumentation
        parts = list(instrumentation)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return CombinedInstrumentation(parts)


def transform_program(
    program: Program,
    instrumentation: Union[Instrumentation, Sequence[Instrumentation], None],
    strategy: Strategy = Strategy.FULL_DUPLICATION,
    functions: Optional[Iterable[str]] = None,
    yieldpoint_opt: bool = False,
    verify: bool = True,
) -> Program:
    """Functional shorthand for one-off transforms."""
    framework = SamplingFramework(strategy, yieldpoint_opt, verify)
    return framework.transform(program, instrumentation, functions)


def transform_planned(
    program: Program,
    instrumentation: Union[Instrumentation, Sequence[Instrumentation], None],
    assignments: Mapping[str, Union[Strategy, str]],
    default: Strategy = Strategy.FULL_DUPLICATION,
    yieldpoint_opt: bool = False,
    verify: bool = True,
) -> Program:
    """Transform *program* under a per-function strategy assignment,
    with *default* for the functions *assignments* does not name (see
    :meth:`SamplingFramework.transform`). *yieldpoint_opt* applies to the
    functions under a duplication strategy, and *default* must be one."""
    framework = SamplingFramework(default, yieldpoint_opt, verify)
    return framework.transform(
        program, instrumentation, assignments=assignments
    )
