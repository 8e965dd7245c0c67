"""The static strategy planner and the planned-run machinery.

End to end: ``plan_program`` decisions (budgets, unreachable
short-circuits, rationale), the StrategyPlan artifact (JSON round trip,
diff), ``transform_planned`` mixed-strategy programs and their loader,
``reconcile_plan`` per-function validation (including violation paths),
``ExperimentRunner(plan=...)`` wiring, the adaptive feed-forward hook,
and the ``repro plan`` CLI verb.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import (
    StrategyPlan,
    audit_program,
    measured_function_checks,
    plan_program,
    reconcile_plan,
)
from repro.analysis.planner import BUDGETS, CANDIDATE_STRATEGIES
from repro.errors import TransformError
from repro.harness.experiment import (
    ExperimentRunner,
    RunSpec,
    make_instrumentations,
)
from repro.harness.experiment import cell_seed
from repro.sampling import Strategy, transform_planned
from repro.sampling.framework import RuntimeLoader
from repro.sampling.triggers import CounterTrigger
from repro.vm import VM
from repro.workloads import get_workload, workload_names

#: The instrumentation pair that makes strategy choice non-trivial:
#: block-count puts one probe in every block, so duplication placement
#: (and therefore the per-strategy predicted cost) genuinely differs.
KINDS = ("call-edge", "block-count")


def _plan(workload: str, **kwargs):
    program = get_workload(workload).compile()
    kwargs.setdefault("instrumentation", KINDS)
    return program, plan_program(program, **kwargs)


class TestPlanProgram:
    def test_compress_plan_is_mixed(self):
        _, plan = _plan("compress")
        counts = plan.strategy_counts()
        assert set(counts) <= set(CANDIDATE_STRATEGIES)
        assert len(counts) >= 2, counts
        assert "lcgNext" in plan.unreachable

    def test_unreachable_functions_get_no_duplication(self):
        _, plan = _plan("compress")
        entry = plan.entry_for("lcgNext")
        assert entry.strategy == Strategy.NO_DUPLICATION.value
        assert "LNT004" in entry.rules
        assert entry.predicted_cost == 0
        assert "unreachable" in entry.rationale

    def test_every_entry_has_rationale_and_candidates(self):
        _, plan = _plan("db")
        for entry in plan.entries:
            assert entry.rationale
            if entry.function not in plan.unreachable:
                evaluated = {c.strategy for c in entry.candidates}
                assert evaluated == set(CANDIDATE_STRATEGIES)
                best = min(entry.candidates, key=lambda c: c.score)
                assert best.score == min(
                    c.score for c in entry.candidates
                )
                chosen = next(
                    c for c in entry.candidates
                    if c.strategy == entry.strategy
                )
                assert chosen.score <= best.score + 1e-9

    def test_unknown_budget_rejected(self):
        program = get_workload("db").compile()
        with pytest.raises(Exception):
            plan_program(program, budget="lavish")

    def test_all_workloads_plan_cleanly(self):
        for name in workload_names():
            _, plan = _plan(name)
            assert plan.entries, name
            assert set(plan.assignments()) == {
                e.function for e in plan.entries
            }

    def test_budgets_exist(self):
        assert set(BUDGETS) == {"strict", "default", "relaxed"}


class TestStrategyPlanArtifact:
    def test_json_round_trip(self):
        _, plan = _plan("compress", budget="default")
        payload = json.loads(json.dumps(plan.as_dict()))
        restored = StrategyPlan.from_dict(payload)
        assert restored.key() == plan.key()
        assert restored.assignments() == plan.assignments()
        assert restored.budget == plan.budget
        assert restored.unreachable == plan.unreachable

    def test_diff_reports_strategy_changes(self):
        _, plan = _plan("compress")
        assert plan.diff(plan) == []
        other = StrategyPlan.from_dict(plan.as_dict())
        flipped = dict(other.as_dict())
        flipped["functions"] = [
            dict(
                f,
                strategy=(
                    Strategy.FULL_DUPLICATION.value
                    if f["function"] == "main"
                    else f["strategy"]
                ),
            )
            for f in flipped["functions"]
        ]
        changed = plan.diff(StrategyPlan.from_dict(flipped))
        assert [c["function"] for c in changed] == ["main"]
        assert changed[0]["before"] == Strategy.FULL_DUPLICATION.value

    def test_summary_and_explain_render(self):
        _, plan = _plan("jess")
        assert "function(s) planned" in plan.summary()
        explain = plan.explain()
        for entry in plan.entries:
            assert entry.function in explain


class TestTransformPlanned:
    def test_mixed_stamps_and_clean_audit(self):
        program, plan = _plan("compress")
        transformed = transform_planned(
            program, make_instrumentations(KINDS), plan.assignments()
        )
        stamped = {
            name: fn.notes["sampling"]
            for name, fn in transformed.functions.items()
        }
        assert stamped == plan.assignments()
        # stamps are authoritative: no expected-strategy argument
        report = audit_program(transformed)
        assert report.ok, [f.format() for f in report.findings]

    def test_planned_loader_dispatches_dynamic_loads(self):
        program, plan = _plan("dynload")
        transformed = transform_planned(
            program, make_instrumentations(KINDS), plan.assignments()
        )
        loader = transformed.loader
        assert isinstance(loader, RuntimeLoader)
        result = VM(transformed, trigger=CounterTrigger(250)).run()
        baseline = VM(get_workload("dynload").compile()).run()
        assert result.value == baseline.value

    def test_default_strategy_covers_unplanned_functions(self):
        program, plan = _plan("db")
        assignments = dict(plan.assignments())
        dropped = sorted(assignments)[0]
        del assignments[dropped]
        transformed = transform_planned(
            program, make_instrumentations(KINDS), assignments,
            default=Strategy.NO_DUPLICATION,
        )
        stamp = transformed.functions[dropped].notes["sampling"]
        assert stamp == Strategy.NO_DUPLICATION.value

    def test_yieldpoint_opt_needs_a_duplicating_default(self):
        program, plan = _plan("db")
        with pytest.raises(TransformError, match="duplication strategy"):
            transform_planned(
                program, make_instrumentations(KINDS), plan.assignments(),
                default=Strategy.NO_DUPLICATION, yieldpoint_opt=True,
            )


class TestReconcilePlan:
    def _planned_run(self, workload: str):
        program, plan = _plan(workload)
        transformed = transform_planned(
            program, make_instrumentations(KINDS), plan.assignments()
        )
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()
        result = VM(
            transformed, trigger=CounterTrigger(250), recorder=recorder
        ).run()
        certificate = audit_program(transformed).certificate
        return certificate, result, recorder.metrics.snapshot()

    def test_clean_planned_run_reconciles(self):
        certificate, result, metrics = self._planned_run("compress")
        verdict = reconcile_plan(certificate, result.stats, metrics)
        assert verdict.ok, verdict.violations
        assert "per function" in verdict.formula

    def test_measured_function_checks_parses_labels(self):
        _, _, metrics = self._planned_run("compress")
        measured = measured_function_checks(metrics)
        assert measured
        assert all(isinstance(v, int) for v in measured.values())
        total = sum(measured.values())
        assert total > 0

    def test_no_duplication_function_bound_is_zero(self):
        certificate, result, metrics = self._planned_run("compress")
        # forge a measurement: the dead no-duplication function
        # suddenly executed checks
        forged = dict(metrics)
        forged["vm.checks.by_function{function=lcgNext}"] = 3
        verdict = reconcile_plan(certificate, result.stats, forged)
        assert not verdict.ok
        assert any("lcgNext" in v for v in verdict.violations)

    def test_uncovered_function_is_a_violation(self):
        certificate, result, metrics = self._planned_run("compress")
        forged = dict(metrics)
        forged["vm.checks.by_function{function=ghost}"] = 1
        verdict = reconcile_plan(certificate, result.stats, forged)
        assert not verdict.ok
        assert any("ghost" in v for v in verdict.violations)

    def test_without_metrics_only_global_bound_applies(self):
        certificate, result, _ = self._planned_run("compress")
        verdict = reconcile_plan(certificate, result.stats, None)
        assert verdict.ok, verdict.violations


class TestPlannedRunner:
    def test_planned_cell_manifest_and_verdict(self):
        program, plan = _plan("compress")
        runner = ExperimentRunner(telemetry=True, cache=False)
        spec = RunSpec(
            workload="compress",
            strategy=Strategy.FULL_DUPLICATION,
            instrumentation=KINDS,
            trigger="counter",
            interval=500,
            plan=plan.key(),
        )
        result = runner.run(spec)
        manifest = result.manifest
        assert manifest.plan["assignments"] == plan.assignments()
        assert manifest.plan["default"] == (
            Strategy.FULL_DUPLICATION.value
        )
        assert manifest.analysis["verdict"]["ok"] is True
        assert "per function" in manifest.analysis["verdict"]["formula"]

    def test_planned_dynamic_workload_reconciles(self):
        program, plan = _plan("osr")
        runner = ExperimentRunner(telemetry=True, cache=False)
        spec = RunSpec(
            workload="osr",
            strategy=Strategy.FULL_DUPLICATION,
            instrumentation=KINDS,
            trigger="counter",
            interval=500,
            plan=plan.key(),
        )
        result = runner.run(spec)
        assert result.manifest.analysis["verdict"]["ok"] is True

    def test_plan_changes_cell_seed_but_not_planless_seeds(self):
        spec = RunSpec(
            workload="compress",
            strategy=Strategy.FULL_DUPLICATION,
            instrumentation=KINDS,
            trigger="counter",
            interval=500,
        )
        _, plan = _plan("compress")
        planned = RunSpec(
            workload=spec.workload,
            strategy=spec.strategy,
            instrumentation=spec.instrumentation,
            trigger=spec.trigger,
            interval=spec.interval,
            plan=plan.key(),
        )
        assert cell_seed(spec) != cell_seed(planned)

    def test_plan_semantics_match_uniform_run(self):
        _, plan = _plan("compress")
        runner = ExperimentRunner(cache=False)
        spec = RunSpec(
            workload="compress",
            strategy=Strategy.FULL_DUPLICATION,
            instrumentation=KINDS,
            trigger="counter",
            interval=500,
        )
        planned = runner.run(replace(spec, plan=plan.key()))
        uniform = runner.run(spec)
        assert planned.value == uniform.value


class TestAdaptiveFeedForward:
    SOURCE = """
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

    def test_plan_seeds_initial_strategies(self):
        from repro.adaptive.system import (
            AdaptiveVMSimulation,
            _with_conventions,
        )
        from repro.frontend.compiler import CompileOptions, compile_source

        program = _with_conventions(
            compile_source(self.SOURCE, CompileOptions(opt_level=0))
        )
        plan = plan_program(program, instrumentation=("call-edge",))
        base = AdaptiveVMSimulation(
            self.SOURCE, interval=53, max_epochs=1
        ).run()
        planned = AdaptiveVMSimulation(
            self.SOURCE, interval=53, max_epochs=1, plan=plan
        ).run()
        assert planned.epochs[0].run_cycles <= base.epochs[0].run_cycles
        # a plain mapping works too, and produces the same epoch
        mapped = AdaptiveVMSimulation(
            self.SOURCE, interval=53, max_epochs=1,
            plan=plan.assignments(),
        ).run()
        assert (
            mapped.epochs[0].run_cycles == planned.epochs[0].run_cycles
        )


class TestCliPlan:
    def test_text_summary(self, capsys):
        from repro.cli import main

        rc = main(["plan", "--workload", "compress"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compress:" in out
        assert "budget 'default'" in out

    def test_explain_cites_rules(self, capsys):
        from repro.cli import main

        rc = main(["plan", "--workload", "compress", "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lcgNext" in out
        assert "LNT004" in out

    def test_json_document_and_diff(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "plan.json"
        rc = main(["plan", "--workload", "compress",
                   "--out", str(out_path), "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["tool"] == "plan"
        assert doc["ok"] is True
        assert doc["reports"][0]["plan"]["functions"]
        assert out_path.exists()

        rc = main(["plan", "--workload", "compress",
                   "--diff", str(out_path)])
        assert rc == 0
        assert "no strategy changes" in capsys.readouterr().out

    def test_check_executes_and_reconciles(self, capsys):
        from repro.cli import main

        rc = main(["plan", "--workload", "db", "--check",
                   "--interval", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check: ok" in out

    def test_needs_a_target(self, capsys):
        from repro.cli import main

        assert main(["plan"]) == 1
        assert "FILE or --workload" in capsys.readouterr().err
