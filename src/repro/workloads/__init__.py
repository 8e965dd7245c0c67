"""The benchmark suite: ten paper benchmark analogs plus the
dynamic-code workloads (``dynload``, ``osr``)."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "suite": (
        "Workload", "register", "get_workload", "paper_workload_names",
        "prepare_baseline", "source_workload", "workload_names",
        "all_workloads",
    ),
})
