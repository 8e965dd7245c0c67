"""The benchmark suite: ten paper benchmark analogs plus the
dynamic-code workloads (``dynload``, ``osr``)."""

from repro.workloads.suite import (
    Workload,
    all_workloads,
    get_workload,
    paper_workload_names,
    prepare_baseline,
    register,
    source_workload,
    workload_names,
)

__all__ = [
    "Workload",
    "register",
    "get_workload",
    "paper_workload_names",
    "prepare_baseline",
    "source_workload",
    "workload_names",
    "all_workloads",
]
