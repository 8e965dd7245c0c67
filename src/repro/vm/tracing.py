"""Execution statistics collected by the interpreter.

The harness reads these to compute overhead breakdowns (Table 2's
backedge/entry columns), to verify Property 1 dynamically, and to report
sample counts (Table 4's "Num Samples" column).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bytecode.opcodes import Op


#: Every scalar counter, in declaration order. The single source of
#: truth for :meth:`ExecStats.as_dict` / :meth:`ExecStats.merge` /
#: :meth:`ExecStats.from_dict` — add a field here (and to ``__slots__``
#: and ``__init__``) and every serializer/aggregator picks it up.
_SCALAR_FIELDS = (
    "instructions",
    "cycles",
    "calls",
    "returns",
    "backward_jumps",
    "checks_executed",
    "checks_taken",
    "guarded_checks_executed",
    "guarded_checks_taken",
    "instr_ops_executed",
    "yieldpoints_executed",
    "thread_switches",
    "threads_spawned",
    "io_ops",
    "gc_pauses",
    "timer_ticks",
    "functions_loaded",
    "functions_replaced",
    "osr_remaps",
    "throws",
    "frames_unwound",
)


class ExecStats:
    """Counters for one VM run. All values are exact and deterministic."""

    SCALAR_FIELDS = _SCALAR_FIELDS

    __slots__ = (
        "instructions",
        "cycles",
        "calls",
        "returns",
        "backward_jumps",
        "checks_executed",
        "checks_taken",
        "guarded_checks_executed",
        "guarded_checks_taken",
        "instr_ops_executed",
        "yieldpoints_executed",
        "thread_switches",
        "threads_spawned",
        "io_ops",
        "gc_pauses",
        "timer_ticks",
        "functions_loaded",
        "functions_replaced",
        "osr_remaps",
        "throws",
        "frames_unwound",
        "opcode_counts",
    )

    def __init__(self, record_opcode_counts: bool = False):
        self.instructions = 0
        self.cycles = 0
        self.calls = 0
        self.returns = 0
        self.backward_jumps = 0
        self.checks_executed = 0
        self.checks_taken = 0
        self.guarded_checks_executed = 0
        self.guarded_checks_taken = 0
        self.instr_ops_executed = 0
        self.yieldpoints_executed = 0
        self.thread_switches = 0
        self.threads_spawned = 0
        self.io_ops = 0
        self.gc_pauses = 0
        self.timer_ticks = 0
        self.functions_loaded = 0
        self.functions_replaced = 0
        self.osr_remaps = 0
        self.throws = 0
        self.frames_unwound = 0
        self.opcode_counts: Optional[Dict[int, int]] = (
            {} if record_opcode_counts else None
        )

    # -- derived quantities -------------------------------------------------

    @property
    def samples_taken(self) -> int:
        """Samples that transferred into duplicated code plus guarded
        instrumentation firings (the paper's 'Num Samples')."""
        return self.checks_taken + self.guarded_checks_taken

    @property
    def check_opportunities(self) -> int:
        """Method entries + backedge executions: the Property-1 bound on
        how many checks a conforming transform may execute.

        Thread entry functions count as entered once each. Taken checks
        are added back because a fired backedge check *replaces* the
        backward jump it sampled (control jumps forward into duplicated
        code instead), so the raw backward-jump counter undercounts the
        original program's backedge traversals by exactly the number of
        taken checks. This same-run bound therefore matches the paper's
        definition, which is stated over the uninstrumented execution;
        :func:`repro.analysis.reconcile.property1_vs_baseline` gives
        the cross-run variant with no adjustment.
        """
        return (
            self.calls
            + self.threads_spawned
            + self.backward_jumps
            + self.checks_taken
        )

    def property1_holds(self) -> bool:
        """Dynamic Property 1: checks executed <= entries + backedges."""
        return self.checks_executed <= self.check_opportunities

    def opcode_count(self, op: Op) -> int:
        if self.opcode_counts is None:
            raise ValueError(
                "opcode counts were not recorded; construct the VM with "
                "record_opcode_counts=True"
            )
        return self.opcode_counts.get(int(op), 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _SCALAR_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "ExecStats":
        """Rebuild stats from :meth:`as_dict` output (used by the
        persistent baseline cache and the parallel harness)."""
        stats = cls()
        for name in _SCALAR_FIELDS:
            # Missing keys default to 0 so payloads serialized before a
            # counter existed (persistent baseline caches, old ledgers)
            # still deserialize.
            value = payload.get(name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"stat {name!r} must be an int")
            setattr(stats, name, value)
        return stats

    def merge(self, other: "ExecStats") -> "ExecStats":
        """Accumulate *other* into self (all scalar counters add;
        opcode counts add per opcode when both sides recorded them).
        Returns self, so worker results fold with ``reduce``."""
        for name in _SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if self.opcode_counts is not None and other.opcode_counts is not None:
            for op, n in other.opcode_counts.items():
                self.opcode_counts[op] = self.opcode_counts.get(op, 0) + n
        return self

    def __repr__(self) -> str:
        return (
            f"<ExecStats instrs={self.instructions} cycles={self.cycles} "
            f"checks={self.checks_executed} samples={self.samples_taken}>"
        )
