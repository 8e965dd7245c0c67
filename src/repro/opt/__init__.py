"""Classic optimizer passes: folding, peephole, DCE, inlining, unrolling."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "const_fold": ("fold_cfg",),
    "peephole": ("peephole_cfg",),
    "dce": ("dce_cfg", "eliminate_dead_stores", "remove_unreachable_blocks"),
    "inline": (
        "inline_program", "inline_call_site", "inline_function_calls",
        "default_heuristic",
    ),
    "unroll": ("unroll_cfg", "unroll_function", "unroll_program"),
    "pipeline": ("cleanup_program", "optimize_program"),
})
