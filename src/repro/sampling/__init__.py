"""The instrumentation-sampling framework (the paper's contribution)."""

from repro.sampling.budget import (
    BudgetSelection,
    hotness_from_samples,
    select_functions_within_budget,
)
from repro.sampling.checks import insert_checks_only
from repro.sampling.duplication import (
    DuplicationResult,
    dup_dag_edges,
    full_duplicate,
)
from repro.sampling.framework import (
    PlannedLoader,
    SamplingFramework,
    Strategy,
    TransformReport,
    transform_planned,
    transform_program,
)
from repro.sampling.no_duplication import no_duplicate
from repro.sampling.partial_duplication import (
    PartialDuplicationStats,
    partial_duplicate,
)
from repro.sampling.triggers import (
    BurstTrigger,
    CounterTrigger,
    NeverTrigger,
    PerThreadCounterTrigger,
    RandomizedCounterTrigger,
    TimerTrigger,
    Trigger,
    make_trigger,
)
from repro.sampling.yieldpoints import (
    count_yieldpoints,
    insert_yieldpoints,
    insert_yieldpoints_cfg,
)

__all__ = [
    "SamplingFramework",
    "Strategy",
    "TransformReport",
    "transform_program",
    "transform_planned",
    "PlannedLoader",
    "full_duplicate",
    "partial_duplicate",
    "no_duplicate",
    "DuplicationResult",
    "PartialDuplicationStats",
    "dup_dag_edges",
    "insert_checks_only",
    "BudgetSelection",
    "select_functions_within_budget",
    "hotness_from_samples",
    "Trigger",
    "NeverTrigger",
    "CounterTrigger",
    "BurstTrigger",
    "PerThreadCounterTrigger",
    "TimerTrigger",
    "RandomizedCounterTrigger",
    "make_trigger",
    "insert_yieldpoints",
    "insert_yieldpoints_cfg",
    "count_yieldpoints",
]
