"""The virtual machine: engines, cost model, values, threads, stats."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "interpreter": ("VM", "VMResult", "run_program"),
    "engine": ("FastEngine", "resolve_engine", "ENGINE_ENV", "ENGINES"),
    "compiler": ("CompiledEngine",),
    "cost_model": ("CostModel", "powerpc_ctr_model"),
    "tracing": ("ExecStats",),
    "frame": ("Frame", "GreenThread"),
    "values": ("RObject", "RArray", "Value", "is_reference", "truthy"),
})
