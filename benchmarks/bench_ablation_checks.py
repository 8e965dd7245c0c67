"""Ablation: where the checking overhead comes from.

DESIGN.md §5 (check placement): entry checks vs backedge checks
dominate different workloads — the paper's Table 2 breakdown explains
why tight-loop benchmarks (compress/mpegaudio) pay backedge cost while
call-dense ones (opt-compiler) pay entry cost. This bench also measures
the PowerPC-style fused decrement-and-check (check cost 1, §2.2),
quantifying how much hardware support would recover.
"""

from benchmarks.conftest import once
from repro.harness import ExperimentRunner, RunSpec, render_table
from repro.sampling import Strategy
from repro.vm import CostModel, powerpc_ctr_model


NAMES = ("compress", "jess", "optcompiler", "volano")


def sweep(save):
    rows = []
    default_runner = ExperimentRunner(cost_model=CostModel())
    fused_runner = ExperimentRunner(cost_model=powerpc_ctr_model())
    # Batch each runner's matrix through the pool ($REPRO_JOBS workers).
    default_runner.run_many(
        [
            RunSpec(name, strategy, instr)
            for name in NAMES
            for strategy, instr in (
                (Strategy.CHECKS_ONLY_ENTRY, ()),
                (Strategy.CHECKS_ONLY_BACKEDGE, ()),
                (Strategy.FULL_DUPLICATION, ("none",)),
            )
        ]
    )
    fused_runner.run_many(
        [RunSpec(name, Strategy.FULL_DUPLICATION, ("none",)) for name in NAMES]
    )
    for name in NAMES:
        entry = default_runner.overhead_pct(
            RunSpec(name, Strategy.CHECKS_ONLY_ENTRY, ())
        )
        backedge = default_runner.overhead_pct(
            RunSpec(name, Strategy.CHECKS_ONLY_BACKEDGE, ())
        )
        full = default_runner.overhead_pct(
            RunSpec(name, Strategy.FULL_DUPLICATION, ("none",))
        )
        fused = fused_runner.overhead_pct(
            RunSpec(name, Strategy.FULL_DUPLICATION, ("none",))
        )
        rows.append([name, entry, backedge, full, fused])
    text = render_table(
        ["benchmark", "entry-only%", "backedge-only%", "full%", "fused%"],
        rows,
        title="Ablation: check placement and fused checks",
    )
    save("ablation_checks", text)
    return rows


def test_check_placement_ablation(benchmark, save):
    rows = once(benchmark, lambda: sweep(save))
    by_name = {row[0]: row for row in rows}
    # tight loops pay backedge cost; call storms pay entry cost
    assert by_name["compress"][2] > by_name["compress"][1]
    assert by_name["optcompiler"][1] > by_name["optcompiler"][2]
    # the fused (hardware) check recovers most framework overhead
    for row in rows:
        assert row[4] < row[3]
