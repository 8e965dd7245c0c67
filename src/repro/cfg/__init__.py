"""Control-flow graphs: construction, analyses, and re-linearization."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "graph": ("CFG",),
    "basic_block": (
        "BasicBlock", "Terminator", "Goto", "CondBranch", "CheckBranch",
        "TryBranch", "Throw", "Return", "Halt",
    ),
    "dominators": ("DominatorTree", "immediate_dominators"),
    "loops": (
        "backedges", "retreating_edges", "sampling_backedges",
        "natural_loops", "NaturalLoop", "loop_nesting_depth", "is_reducible",
    ),
    "traversal": ("dfs_preorder", "postorder", "reverse_postorder"),
    "dataflow": ("liveness", "LivenessProblem", "solve"),
    "linearize": ("linearize", "roundtrip"),
})
