"""Adaptive optimization: the sampled-profile-driven client system."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "controller": ("AdaptiveController", "AdaptiveOutcome"),
    "hotness": (
        "HotCallSite", "method_hotness", "hot_methods", "hot_call_sites",
    ),
    "recompile": ("profile_directed_inline", "RecompileReport"),
    "system": (
        "AdaptiveVMSimulation", "SimulationResult", "EpochReport",
        "MethodState",
    ),
})
