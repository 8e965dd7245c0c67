"""Ablation: duplication strategy vs instrumentation density.

DESIGN.md §5: which strategy wins depends on how often instrumentation
operations execute relative to entries+backedges (§3.2's closing
advice). Sparse instrumentation (call-edge) favours No-Duplication;
dense instrumentation (field-access, block counts) favours
Full-Duplication; Partial-Duplication tracks Full-Duplication's
dynamic check count while using less space.
"""

from benchmarks.conftest import once
from repro.harness import ExperimentRunner, RunSpec, render_table
from repro.sampling import Strategy

STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def sweep(runner, save):
    # One batch for the whole matrix: fans out over $REPRO_JOBS workers.
    runner.run_many(
        [
            RunSpec(name, strategy, (kind,))
            for name in ("jess", "jack")
            for kind in ("call-edge", "field-access")
            for strategy in STRATEGIES
        ]
    )
    rows = []
    for name in ("jess", "jack"):
        for kind in ("call-edge", "field-access"):
            row = [f"{name}/{kind}"]
            for strategy in STRATEGIES:
                result = runner.run(RunSpec(name, strategy, (kind,)))
                base = runner.baseline_cycles(name)
                row.append(100.0 * (result.cycles / base - 1.0))
            # code-size ratio of partial vs full duplication
            full = runner.run(
                RunSpec(name, Strategy.FULL_DUPLICATION, (kind,))
            ).code_bytes
            partial = runner.run(
                RunSpec(name, Strategy.PARTIAL_DUPLICATION, (kind,))
            ).code_bytes
            row.append(partial / full)
            rows.append(row)
    text = render_table(
        ["config", "full%", "partial%", "no-dup%", "partial/full size"],
        rows,
        title="Ablation: strategy vs instrumentation density "
        "(checking overhead, no samples)",
        decimals=2,
    )
    save("ablation_strategies", text)
    return rows


def test_strategy_density_ablation(benchmark, runner, save):
    rows = once(benchmark, lambda: sweep(runner, save))
    by_config = {row[0]: row for row in rows}
    # sparse (call-edge) instrumentation: No-Duplication wins
    assert by_config["jess/call-edge"][3] < by_config["jess/call-edge"][1]
    # dense (field-access) instrumentation: Full-Duplication wins
    assert by_config["jack/field-access"][1] < by_config["jack/field-access"][3]
    # partial duplication always saves space over full duplication
    for row in rows:
        assert row[4] < 1.0
