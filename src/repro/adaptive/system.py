"""A selective-optimization VM controller (the paper's §1 context).

The paper positions the sampling framework inside an *adaptive* JVM:
methods start at a cheap compilation level, a controller watches cheap
profiles, hot methods get recompiled at a higher level, and — the
paper's contribution — detailed instrumentation can now run online to
guide *how* to optimize, not just *what*.

:class:`AdaptiveVMSimulation` models that lifecycle over epochs:

1. every function is compiled at O0 (cheap compile, slow code);
2. each epoch runs the current program image under Full-Duplication
   call-edge sampling (a few percent overhead) and charges both the run
   and any compilation work to a cumulative cycle budget;
3. between epochs the controller promotes hot methods to O2 and inlines
   hot call sites (feedback-directed optimization), paying a modelled
   compile cost proportional to code size and level;
4. the simulation converges when an epoch makes no new decisions.

The deliverable is the per-epoch cycle trajectory: an initial slow
epoch, compile-cost humps, and a faster steady state — the selective
optimization curve of the paper's [5, 7] citations, with the framework
supplying the profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.adaptive.hotness import HotCallSite, hot_call_sites, method_hotness
from repro.bytecode.program import Program
from repro.bytecode.verifier import verify_program
from repro.cfg.graph import CFG
from repro.cfg.linearize import linearize
from repro.frontend.compiler import CompileOptions, compile_source
from repro.instrument.call_edge import (
    CallEdgeInstrumentation,
    assign_call_site_ids,
)
from repro.opt.inline import inline_function_calls
from repro.opt.pipeline import cleanup_function_cfg
from repro.sampling.duplication import strip_ops
from repro.sampling.framework import SamplingFramework, Strategy
from repro.sampling.triggers import CounterTrigger
from repro.sampling.yieldpoints import insert_yieldpoints_cfg
from repro.vm.cost_model import CostModel
from repro.vm.interpreter import VM
from repro.bytecode.opcodes import Op

#: Modelled compile cost, cycles per emitted instruction, by level.
COMPILE_COST_PER_INSTRUCTION = {0: 15, 2: 120}


@dataclass
class MethodState:
    """Per-method compilation record."""

    name: str
    level: int = 0
    recompiles: int = 0
    compile_cycles: int = 0


@dataclass
class EpochReport:
    """What one epoch ran and decided."""

    index: int
    run_cycles: int = 0
    compile_cycles: int = 0
    samples: int = 0
    promoted: List[str] = field(default_factory=list)
    inlined: List[str] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.run_cycles + self.compile_cycles


@dataclass
class SimulationResult:
    """The full trajectory plus the final program image."""

    epochs: List[EpochReport]
    methods: Dict[str, MethodState]
    final_program: Optional[Program] = None
    baseline_epoch_cycles: int = 0

    @property
    def steady_state_cycles(self) -> int:
        return self.epochs[-1].run_cycles if self.epochs else 0

    @property
    def speedup_pct(self) -> float:
        if not self.baseline_epoch_cycles:
            return 0.0
        return 100.0 * (
            1.0 - self.steady_state_cycles / self.baseline_epoch_cycles
        )

    def summary(self) -> str:
        lines = [
            f"epoch  run-cycles  compile  samples  decisions",
        ]
        for epoch in self.epochs:
            decisions = len(epoch.promoted) + len(epoch.inlined)
            lines.append(
                f"{epoch.index:5d}  {epoch.run_cycles:10d}  "
                f"{epoch.compile_cycles:7d}  {epoch.samples:7d}  "
                f"{decisions}"
            )
        lines.append(
            f"steady state {self.speedup_pct:+.1f}% vs first epoch; "
            f"{sum(m.recompiles for m in self.methods.values())} "
            f"recompilation(s)"
        )
        return lines and "\n".join(lines) or ""


class AdaptiveVMSimulation:
    """Epoch-driven selective optimization over one MiniJ program.

    Args:
        source: MiniJ program text (its ``main`` is one epoch's work).
        interval: sample interval for the profiling runs.
        hot_method_threshold: share of call-edge samples for promotion.
        hot_site_threshold: share for profile-directed inlining.
        max_epochs: stop even if decisions keep appearing.
        cost_model: VM cycle model.
        plan: optional :class:`~repro.analysis.planner.StrategyPlan`
            (or a ``{function: strategy}`` mapping) feeding the static
            planner's per-function strategy choices forward into the
            online system: each epoch's profiling image is transformed
            under the plan's assignments instead of uniform
            Full-Duplication, so cold/unreachable methods skip the
            duplication cost from epoch 0 onward.
    """

    def __init__(
        self,
        source: str,
        interval: int = 101,
        hot_method_threshold: float = 0.10,
        hot_site_threshold: float = 0.05,
        max_epochs: int = 6,
        cost_model: Optional[CostModel] = None,
        plan: Optional[object] = None,
    ):
        self.source = source
        self.interval = interval
        self.hot_method_threshold = hot_method_threshold
        self.hot_site_threshold = hot_site_threshold
        self.max_epochs = max_epochs
        self.cost_model = cost_model or CostModel()
        self.plan_assignments = _plan_assignments(plan)

    # -- compilation model ---------------------------------------------------

    def _initial_program(self) -> Program:
        """O0 image with VM conventions; every method at level 0."""
        program = compile_source(self.source, CompileOptions(opt_level=0))
        program = _with_conventions(program)
        return program

    def _compile_cost(self, program: Program, name: str, level: int) -> int:
        size = program.functions[name].instruction_count()
        return size * COMPILE_COST_PER_INSTRUCTION[level]

    def _promote(
        self,
        program: Program,
        name: str,
        hot_sites: List[HotCallSite],
        methods: Dict[str, MethodState],
        epoch: EpochReport,
    ) -> None:
        """Recompile *name* at O2, inlining its hot call sites."""
        fn = program.functions[name]
        site_keys: Set = {
            (site.caller, site.site) for site in hot_sites
            if site.caller == name
        }

        def heuristic(caller, callee):
            for pc, ins in enumerate(caller.code):
                if (
                    ins.op is Op.CALL
                    and ins.arg == callee.name
                    and ins.meta in site_keys
                ):
                    return True
            return len(callee.code) <= 12

        improved = inline_function_calls(
            fn, program, heuristic, max_result_size=3000
        )
        cfg = CFG.from_function(improved)
        strip_ops(cfg, list(cfg.blocks), [Op.YIELDPOINT])
        cleanup_function_cfg(cfg)
        insert_yieldpoints_cfg(cfg)
        program.replace_function(linearize(cfg))

        state = methods[name]
        state.level = 2
        state.recompiles += 1
        cost = self._compile_cost(program, name, 2)
        state.compile_cycles += cost
        epoch.compile_cycles += cost
        epoch.promoted.append(name)

    def _profiling_image(self, program: Program, instr) -> Program:
        """Transform *program* for one profiling epoch.

        With a feed-forward plan, functions the static planner marked
        cheap (cold, unreachable, loop-light) get their planned
        strategy; methods the plan never saw — e.g. created by later
        recompilation — fall back to Full-Duplication.
        """
        return SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            program, instr, assignments=self.plan_assignments
        )

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        program = self._initial_program()
        methods = {
            name: MethodState(name) for name in program.function_names()
        }
        epochs: List[EpochReport] = []
        # charge the initial O0 compiles
        initial_compile = sum(
            self._compile_cost(program, name, 0)
            for name in program.function_names()
        )

        expected_value = None
        for index in range(self.max_epochs):
            epoch = EpochReport(index)
            if index == 0:
                epoch.compile_cycles += initial_compile

            instr = CallEdgeInstrumentation()
            profiled = self._profiling_image(program, instr)
            run = VM(
                profiled,
                cost_model=self.cost_model,
                trigger=CounterTrigger(self.interval),
            ).run()
            if expected_value is None:
                expected_value = run.value
            elif run.value != expected_value:
                raise AssertionError(
                    "adaptive recompilation changed program semantics"
                )
            epoch.run_cycles = run.stats.cycles
            epoch.samples = run.stats.samples_taken

            hotness = method_hotness(instr.profile)
            sites = hot_call_sites(
                instr.profile, self.hot_site_threshold
            )
            promoted_any = False
            # Promote the hot callees themselves...
            for name, share in sorted(
                hotness.items(), key=lambda item: (-item[1], item[0])
            ):
                if share < self.hot_method_threshold:
                    continue
                state = methods.get(name)
                if state is None or state.level >= 2:
                    continue
                self._promote(program, name, sites, methods, epoch)
                promoted_any = True
            # ...and the *callers* of hot sites, whose recompilation is
            # where the feedback-directed inlining actually lands.
            for caller in sorted({site.caller for site in sites}):
                state = methods.get(caller)
                if state is None or state.level >= 2:
                    continue
                self._promote(program, caller, sites, methods, epoch)
                epoch.inlined.extend(
                    f"{s.caller}@{s.site}->{s.callee}"
                    for s in sites
                    if s.caller == caller
                )
                promoted_any = True
            if promoted_any:
                assign_call_site_ids(program)
                verify_program(program)

            epochs.append(epoch)
            if not promoted_any and index > 0:
                break

        return SimulationResult(
            epochs=epochs,
            methods=methods,
            final_program=program,
            baseline_epoch_cycles=epochs[0].run_cycles if epochs else 0,
        )


def _plan_assignments(plan) -> Dict[str, str]:
    """Normalize a feed-forward plan to ``{function: strategy-value}``."""
    if plan is None:
        return {}
    assignments = getattr(plan, "assignments", None)
    if callable(assignments):
        return dict(assignments())
    return {str(name): str(value) for name, value in dict(plan).items()}


def _with_conventions(program: Program) -> Program:
    """Yieldpoints + call-site ids on a fresh image."""
    from repro.sampling.yieldpoints import insert_yieldpoints

    program = insert_yieldpoints(program)
    assign_call_site_ids(program)
    return program
