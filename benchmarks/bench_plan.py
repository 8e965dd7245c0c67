"""Acceptance: the static strategy planner vs fixed strategies.

ISSUE 9's gate: over the full 12-workload suite, the planned
per-function configuration must beat or tie *every* uniform
fixed-strategy baseline at an equal sample interval on at least 10
workloads. Instrumentation is ``call-edge + block-count`` — dense
enough that duplication placement matters, so the planner has a real
decision to make per function (sparse call-edge alone degenerates to
all-No-Duplication and the comparison is vacuous).

Each planned cell is audited and reconciled like any other cell: the
per-function certificate from the plan's mixed-strategy transform is
checked against the run's counters, so a "win" here is a win under the
same Property-1 gate the fixed baselines face.

Results feed the continuous perf-regression ledger
(``BENCH_history.jsonl``) under ``bench=plan``.
"""

import pathlib

from benchmarks.conftest import once
from repro.analysis import plan_program
from repro.harness import RunSpec, render_table
from repro.profiling import LEDGER_FILENAME, PerfLedger, make_record
from repro.sampling import Strategy
from repro.workloads import get_workload, workload_names

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

KINDS = ("call-edge", "block-count")
INTERVAL = 1000
TRIGGER = "counter"

BASELINES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def _spec(name, strategy, plan_key=None):
    return RunSpec(
        name,
        strategy,
        KINDS,
        trigger=TRIGGER,
        interval=INTERVAL,
        plan=plan_key,
    )


def sweep(runner, save):
    plans = {
        name: plan_program(
            get_workload(name).compile(), instrumentation=KINDS
        )
        for name in workload_names()
    }
    specs = []
    for name, plan in plans.items():
        specs.append(_spec(name, Strategy.FULL_DUPLICATION, plan.key()))
        specs.extend(_spec(name, strategy) for strategy in BASELINES)
    runner.run_many(specs)

    rows = []
    records = []
    wins = 0
    for name, plan in plans.items():
        planned = runner.run(
            _spec(name, Strategy.FULL_DUPLICATION, plan.key())
        )
        fixed = {
            strategy: runner.run(_spec(name, strategy)).cycles
            for strategy in BASELINES
        }
        best_fixed = min(fixed.values())
        won = planned.cycles <= best_fixed
        wins += won
        counts = plan.strategy_counts()
        mix = ",".join(
            f"{value}:{count}" for value, count in sorted(counts.items())
        )
        rows.append(
            [
                name,
                planned.cycles,
                fixed[Strategy.FULL_DUPLICATION],
                fixed[Strategy.PARTIAL_DUPLICATION],
                fixed[Strategy.NO_DUPLICATION],
                "<=" if won else ">",
                mix,
            ]
        )
        records.append(
            make_record(
                bench="plan",
                key=f"{name}/planned",
                metric="cycles",
                value=float(planned.cycles),
                higher_is_better=False,
                meta={
                    "best_fixed": best_fixed,
                    "interval": INTERVAL,
                    "instrumentation": list(KINDS),
                    "strategies": {
                        str(k): v for k, v in sorted(counts.items())
                    },
                },
            )
        )

    text = render_table(
        ["workload", "planned", "full", "partial", "no-dup", "vs best",
         "plan mix"],
        rows,
        title=(
            f"Planned vs fixed strategies "
            f"({'+'.join(KINDS)}, counter@{INTERVAL}); "
            f"planned wins/ties {wins}/{len(rows)}"
        ),
        decimals=0,
    )
    save("plan_acceptance", text)
    PerfLedger(REPO_ROOT / LEDGER_FILENAME).append_many(records)
    return rows


def test_planned_beats_fixed_baselines(benchmark, runner, save):
    rows = once(benchmark, lambda: sweep(runner, save))
    assert len(rows) == 12
    wins = sum(1 for row in rows if row[5] == "<=")
    # The acceptance gate: planned beats/ties every fixed strategy on
    # at least 10 of the 12 workloads.
    assert wins >= 10, f"planner won only {wins}/12 workloads"
    # The planner must actually mix strategies somewhere — an all-one-
    # strategy plan would make this bench a tautology.
    assert any("," in row[6] for row in rows)
