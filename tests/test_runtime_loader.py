"""The one whole-program transform and its load hook.

``SamplingFramework.transform`` serves uniform and planned programs
alike. The :class:`RuntimeLoader` it attaches picks each function's
framework — the strategy its install name is assigned, else its
template's, else the framework's own — for the static pass and for code
loaded mid-run; a planned transform fills the same
:class:`TransformReport` a uniform one does; and the harness and the
adaptive system reach it with one call whether or not a plan is set.
"""

from __future__ import annotations

import pytest

from repro.analysis import audit_program, plan_program
from repro.analysis.reconcile import property1_vs_baseline
from repro.bytecode import Op
from repro.bytecode.disassembler import (
    disassemble_function,
    disassemble_program,
)
from repro.errors import HarnessError
from repro.frontend import compile_baseline
from repro.harness.experiment import (
    ExperimentRunner,
    RunSpec,
    make_instrumentations,
)
from repro.instrument import CallEdgeInstrumentation
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.sampling.framework import RuntimeLoader
from repro.vm import VM
from repro.workloads import get_workload, workload_names

SOURCE = """
func leafy(x) {
    return x * 2 + 1;
}

func heavy(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        acc = (acc + leafy(i)) % 65537;
    }
    return acc;
}

func main() {
    var total = 0;
    for (var r = 0; r < 6; r = r + 1) {
        total = (total + heavy(r + 3)) % 100003;
    }
    print(total);
    return total;
}
"""

KINDS = ("call-edge", "block-count")

DUPLICATING = (Strategy.FULL_DUPLICATION, Strategy.PARTIAL_DUPLICATION)

CHECKS_ONLY = (Strategy.CHECKS_ONLY_ENTRY, Strategy.CHECKS_ONLY_BACKEDGE)

FULL = Strategy.FULL_DUPLICATION.value
PARTIAL = Strategy.PARTIAL_DUPLICATION.value
NONE = Strategy.NO_DUPLICATION.value


@pytest.fixture(scope="module")
def baseline():
    return compile_baseline(SOURCE)


def loader_for(
    strategy=Strategy.FULL_DUPLICATION, assignments=None, **kwargs
) -> RuntimeLoader:
    return RuntimeLoader(
        SamplingFramework(strategy, **kwargs),
        CallEdgeInstrumentation(),
        assignments,
    )


def kinds_for(strategy: Strategy):
    """The checks-only strategies run uninstrumented (Table 2)."""
    return () if strategy in CHECKS_ONLY else KINDS


def notes_of(program):
    return {name: fn.notes for name, fn in program.functions.items()}


class TestFrameworkFor:
    def test_unassigned_function_takes_the_framework_itself(self):
        loader = loader_for(assignments={"other": NONE})
        assert loader.framework_for("f") is loader.framework
        assert loader.framework_for("f", "template") is loader.framework

    def test_install_name_wins_over_template_name(self):
        loader = loader_for(assignments={"slot": PARTIAL, "impl_v2": NONE})
        framework = loader.framework_for("slot", "impl_v2")
        assert framework.strategy is Strategy.PARTIAL_DUPLICATION

    def test_template_name_covers_every_install_name(self):
        loader = loader_for(assignments={"impl_v2": NONE})
        for name in ("slot_a", "slot_b", "impl_v2"):
            framework = loader.framework_for(name, "impl_v2")
            assert framework.strategy is Strategy.NO_DUPLICATION

    def test_strategy_values_are_read_as_strategies(self):
        loader = loader_for(
            assignments={"f": NONE, "g": Strategy.EXHAUSTIVE}
        )
        assert loader.assignments == {
            "f": Strategy.NO_DUPLICATION,
            "g": Strategy.EXHAUSTIVE,
        }

    def test_unknown_strategy_value_is_rejected(self):
        with pytest.raises(ValueError, match="quarter-duplication"):
            loader_for(assignments={"f": "quarter-duplication"})

    def test_one_framework_per_strategy(self):
        loader = loader_for(assignments={"f": NONE, "g": NONE, "h": FULL})
        assert loader.framework_for("f") is loader.framework_for("g")
        assert loader.framework_for("h") is loader.framework

    def test_assigned_frameworks_keep_verify(self):
        loader = loader_for(assignments={"f": NONE}, verify=False)
        assert loader.framework_for("f").verify is False

    @pytest.mark.parametrize(
        "strategy", list(Strategy), ids=lambda s: s.value
    )
    def test_yieldpoint_opt_stays_on_duplicating_strategies(self, strategy):
        loader = loader_for(
            Strategy.PARTIAL_DUPLICATION,
            {"f": strategy},
            yieldpoint_opt=True,
        )
        framework = loader.framework_for("f")
        assert framework.strategy is strategy
        assert framework.yieldpoint_opt is (strategy in DUPLICATING)


class TestOneTransform:
    @pytest.mark.parametrize(
        "strategy", list(Strategy), ids=lambda s: s.value
    )
    def test_empty_assignments_are_the_uniform_transform(
        self, baseline, strategy
    ):
        # The harness passes ``assignments={}`` for every cell without
        # a plan; that must be the uniform transform exactly.
        uniform = SamplingFramework(strategy).transform(
            baseline, make_instrumentations(kinds_for(strategy))
        )
        planned = SamplingFramework(strategy).transform(
            baseline,
            make_instrumentations(kinds_for(strategy)),
            assignments={},
        )
        assert disassemble_program(planned) == disassemble_program(uniform)
        assert notes_of(planned) == notes_of(uniform)
        assert isinstance(planned.loader, RuntimeLoader)

    def test_functions_limit_a_planned_transform(self, baseline):
        framework = SamplingFramework(Strategy.FULL_DUPLICATION)
        result = framework.transform(
            baseline,
            make_instrumentations(KINDS),
            functions=["heavy"],
            assignments={"heavy": NONE, "leafy": PARTIAL},
        )
        assert result.functions["heavy"].notes["sampling"] == NONE
        assert "sampling" not in result.functions["leafy"].notes
        assert disassemble_function(
            result.function("leafy")
        ) == disassemble_function(baseline.function("leafy"))
        assert framework.last_report.functions_transformed == 1
        assert not framework.last_report.partial_stats

    def test_planned_transform_leaves_input_untouched(self, baseline):
        before = disassemble_program(baseline)
        SamplingFramework().transform(
            baseline,
            make_instrumentations(KINDS),
            assignments={"leafy": NONE, "heavy": PARTIAL},
        )
        assert disassemble_program(baseline) == before
        assert all("sampling" not in fn.notes
                   for fn in baseline.functions.values())


@pytest.mark.parametrize("workload", workload_names())
def test_planned_report_accounts_for_every_function(workload):
    program = get_workload(workload).compile()
    assignments = plan_program(program, instrumentation=KINDS).assignments()
    framework = SamplingFramework(Strategy.FULL_DUPLICATION)
    result = framework.transform(
        program, make_instrumentations(KINDS), assignments=assignments
    )
    report = framework.last_report
    assert report.strategy is Strategy.FULL_DUPLICATION
    assert report.functions_transformed == len(program.functions)
    assert report.instructions_before == program.total_instructions()
    assert report.instructions_after == result.total_instructions()
    assert report.static_checks == sum(
        fn.count_op(Op.CHECK) for fn in result.functions.values()
    )
    assert set(report.partial_stats) == {
        name
        for name in program.functions
        if assignments.get(name, FULL) == PARTIAL
    }


def _dynload(assignments):
    """dynload, transformed under Full-Duplication and *assignments*."""
    return SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        get_workload("dynload").compile(),
        make_instrumentations(("call-edge",)),
        assignments=assignments,
    )


class TestLoadsUnderAPlan:
    def test_unassigned_load_takes_the_default(self):
        program = _dynload({"plug_risky": NONE})
        fn, changed = program.define_at_runtime("plug_mix")
        assert changed
        assert fn.notes["sampling"] == FULL

    def test_replacement_takes_its_template_strategy(self):
        program = _dynload({"plug_mix_v2": NONE})
        program.define_at_runtime("plug_mix")
        fn, changed = program.define_at_runtime("plug_mix_v2", "plug_mix")
        assert changed
        assert fn.name == "plug_mix"
        assert fn.notes["sampling"] == NONE

    def test_replacement_takes_its_install_name_strategy(self):
        program = _dynload({"plug_mix": PARTIAL, "plug_mix_v2": NONE})
        program.define_at_runtime("plug_mix")
        fn, _ = program.define_at_runtime("plug_mix_v2", "plug_mix")
        assert fn.notes["sampling"] == PARTIAL

    def test_loaded_code_passes_the_audit(self):
        program = _dynload({"plug_risky": PARTIAL, "plug_thrower": NONE})
        for template in sorted(program.loadables):
            program.define_at_runtime(template)
        report = audit_program(program)
        assert report.ok, [f.format() for f in report.findings]


@pytest.mark.parametrize("workload", ["dynload", "osr"])
def test_planned_dynamic_run_follows_the_loader(workload):
    """Every function the VM installs mid-run carries the strategy the
    loader's rule gives it, and the run keeps value and Property 1."""
    program = get_workload(workload).compile()
    cycle = [FULL, PARTIAL, NONE]
    assignments = {
        name: cycle[i % 3] for i, name in enumerate(sorted(program.loadables))
    }
    transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        program, make_instrumentations(("call-edge",)),
        assignments=assignments,
    )
    vm = VM(transformed, trigger=CounterTrigger(50))
    result = vm.run()
    base = VM(program).run()
    assert (result.value, result.output) == (base.value, base.output)
    assert property1_vs_baseline(result.stats, base.stats)
    installed = {
        name: vm.program.installed_template(name)
        for name in vm.program.functions
        if vm.program.installed_template(name) is not None
    }
    assert installed
    for name, template in installed.items():
        expected = assignments.get(name, assignments.get(template, FULL))
        assert vm.program.functions[name].notes["sampling"] == expected


class TestHarnessTransform:
    def _spec(self, strategy=Strategy.FULL_DUPLICATION, plan=None):
        return RunSpec(
            workload="compress",
            strategy=strategy,
            instrumentation=KINDS,
            trigger="counter",
            interval=500,
            plan=plan,
        )

    def test_planned_cell_carries_its_transform_report(self):
        program = get_workload("compress").compile()
        plan = plan_program(program, instrumentation=KINDS)
        result = ExperimentRunner(cache=False).run(
            self._spec(plan=plan.key())
        )
        report = result.transform_report
        assert report is not None
        assert report.functions_transformed == len(program.functions)
        assert report.instructions_after >= report.instructions_before
        assert report.static_checks > 0

    @pytest.mark.parametrize(
        "strategy, plan_strategies, checked",
        [
            (Strategy.FULL_DUPLICATION, None, True),
            (Strategy.NO_DUPLICATION, None, False),
            (Strategy.NO_DUPLICATION, (NONE, FULL), True),
            (Strategy.NO_DUPLICATION, (NONE, NONE), False),
        ],
        ids=["uniform-full", "uniform-none", "planned-full", "planned-none"],
    )
    def test_property1_is_checked_when_any_strategy_duplicates(
        self, monkeypatch, strategy, plan_strategies, checked
    ):
        """A cell is held to Property 1 when its strategy or any
        strategy its plan assigns duplicates code. A check that always
        fails shows which cells are held to it."""
        plan = None
        if plan_strategies is not None:
            names = get_workload("compress").compile().function_names()
            plan = tuple(
                (name, plan_strategies[name == "main"]) for name in names
            )
        monkeypatch.setattr(
            "repro.harness.experiment.property1_vs_baseline",
            lambda transformed, baseline: False,
        )
        runner = ExperimentRunner(cache=False)
        spec = self._spec(strategy, plan)
        if checked:
            with pytest.raises(HarnessError, match="Property 1 violated"):
                runner.run(spec)
        else:
            assert runner.run(spec).value is not None


def test_adaptive_profiling_image_applies_the_plan():
    from repro.adaptive.system import AdaptiveVMSimulation

    source = """
    func helper(x) {
        var acc = x;
        for (var i = 0; i < 40; i = i + 1) {
            acc = (acc + i) % 65536;
        }
        return acc;
    }

    func main() {
        var total = 0;
        for (var round = 0; round < 30; round = round + 1) {
            total = (total + helper(round)) % 100003;
        }
        return total;
    }
    """
    simulation = AdaptiveVMSimulation(source, plan={"helper": NONE})
    program = simulation._initial_program()
    image = simulation._profiling_image(program, CallEdgeInstrumentation())
    # Methods the plan does not name fall back to Full-Duplication.
    assert image.functions["helper"].notes["sampling"] == NONE
    assert image.functions["main"].notes["sampling"] == FULL
    assert isinstance(image.loader, RuntimeLoader)
    assert image.loader.assignments == {"helper": Strategy.NO_DUPLICATION}
