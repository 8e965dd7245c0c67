"""Instrumentation kinds."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "base": (
        "Instrumentation", "InstrumentationAction", "CombinedInstrumentation",
        "count_instr_ops",
    ),
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
    "branch_bias": ("BranchBiasInstrumentation",),
    "value_profile": ("ParameterValueInstrumentation",),
    "path_profile": ("PathProfileInstrumentation",),
})
