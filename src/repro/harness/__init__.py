"""Experiment harness: runner, table/figure generators, formatting,
parallel sweep execution, and the persistent baseline cache."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "experiment": (
        "ExperimentRunner", "RunSpec", "RunResult", "CellRecord", "cell_seed",
        "make_instrumentations", "overhead_percent",
    ),
    "baseline_cache": (
        "BaselineCache", "baseline_key", "program_fingerprint",
        "cost_model_fingerprint", "default_cache_dir",
    ),
    "parallel": ("effective_jobs", "run_families"),
    "formatting": ("render_table", "mean"),
    "tables": (
        "TableResult", "table1", "table2", "table3", "table4", "table5",
        "figure7", "figure8a", "figure8b",
    ),
    "sweeps": (
        "SweepPoint", "interval_sweep", "pareto_frontier", "operating_range",
        "sweep_table",
    ),
})
