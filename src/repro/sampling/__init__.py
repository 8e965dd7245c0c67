"""The instrumentation-sampling framework (the paper's contribution)."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "framework": (
        "SamplingFramework", "Strategy", "TransformReport", "transform_program",
        "transform_planned", "PlannedLoader",
    ),
    "duplication": ("full_duplicate", "DuplicationResult", "dup_dag_edges"),
    "partial_duplication": ("partial_duplicate", "PartialDuplicationStats"),
    "no_duplication": ("no_duplicate",),
    "checks": ("insert_checks_only",),
    "budget": (
        "BudgetSelection", "select_functions_within_budget",
        "hotness_from_samples",
    ),
    "triggers": (
        "Trigger", "NeverTrigger", "CounterTrigger", "BurstTrigger",
        "PerThreadCounterTrigger", "TimerTrigger", "RandomizedCounterTrigger",
        "make_trigger",
    ),
    "yieldpoints": (
        "insert_yieldpoints", "insert_yieldpoints_cfg", "count_yieldpoints",
    ),
})
