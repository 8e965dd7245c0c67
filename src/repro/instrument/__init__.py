"""Instrumentation kinds and the exhaustive-instrumentation driver."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "base": (
        "Instrumentation", "InstrumentationAction", "CombinedInstrumentation",
        "count_instr_ops",
    ),
    "apply": ("instrument_program",),
    "call_edge": (
        "CallEdgeInstrumentation", "CallEdgeAction", "assign_call_site_ids",
    ),
    "cct": (
        "CCTInstrumentation", "CCTNode", "CCTSampleAction", "build_cct",
        "render_cct",
    ),
    "field_access": ("FieldAccessInstrumentation", "FieldAccessAction"),
    "block_profile": (
        "BlockCountInstrumentation", "EdgeProfileInstrumentation", "CountAction",
    ),
    "branch_bias": (
        "BranchBiasInstrumentation", "branch_biases", "strongly_biased_branches",
    ),
    "value_profile": (
        "ParameterValueInstrumentation", "StoreValueInstrumentation",
    ),
    "path_profile": ("PathProfileInstrumentation",),
})
