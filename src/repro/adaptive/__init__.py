"""Adaptive optimization: the sampled-profile-driven client system."""

from repro.adaptive.controller import AdaptiveController, AdaptiveOutcome
from repro.adaptive.hotness import (
    HotCallSite,
    hot_call_sites,
    hot_methods,
    method_hotness,
)
from repro.adaptive.recompile import (
    RecompileReport,
    profile_directed_inline,
)
from repro.adaptive.specialize import (
    SpecializationCandidate,
    specialization_candidates,
    specialize_from_profile,
    specialize_function,
)
from repro.adaptive.system import (
    AdaptiveVMSimulation,
    EpochReport,
    MethodState,
    SimulationResult,
)

__all__ = [
    "AdaptiveController",
    "AdaptiveOutcome",
    "HotCallSite",
    "method_hotness",
    "hot_methods",
    "hot_call_sites",
    "profile_directed_inline",
    "RecompileReport",
    "AdaptiveVMSimulation",
    "SimulationResult",
    "EpochReport",
    "MethodState",
    "SpecializationCandidate",
    "specialization_candidates",
    "specialize_function",
    "specialize_from_profile",
]
