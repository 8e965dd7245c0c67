"""Static cost-bound analysis: machine-checkable check-cost certificates.

For a transformed program the analysis derives, per function, how many
checks each Property-1 opportunity can charge, and emits a JSON
:class:`CostCertificate` the harness later validates against the run's
dynamic :class:`~repro.vm.tracing.ExecStats` (the static↔dynamic
reconciler, :mod:`repro.analysis.reconcile`).

The certified bound is::

    checks_executed <= cpe * (calls + threads_spawned + 1)
                     + cpb * (backward_jumps + checks_taken)

with per-program coefficients ``cpe``/``cpb`` ∈ {0, 1}:

* an *entry* check executes once per activation — every activation is a
  counted CALL or SPAWN, plus one for the program's initial ``main``
  activation (the ``+ 1``);
* a *backedge* check's not-taken continuation immediately takes a
  counted backward jump, and a taken check is itself counted in
  ``checks_taken`` (its jump into duplicated code bypasses the backward
  jump that would otherwise pay for it) — so each execution charges a
  distinct opportunity;
* Partial-Duplication's *residual* checks (re-entry points left by
  top-node removal) charge entries *and* backedges: §3.1 guarantees the
  removed→kept boundary is crossed at most once per activation or
  iteration, keeping the dynamic count ≤ Full-Duplication's. Residuals
  therefore force both coefficients to 1.

No-Duplication and exhaustive output contain no CHECKs: both
coefficients are 0 and the certificate asserts ``checks_executed == 0``
(GUARDED_INSTR polls are §3.2's separate mechanism, reported as
``guarded_sites``).

Each function additionally gets two per-iteration measures: the maximum
number of checks charged per iteration of any checking-code loop
(nesting-aware — inner-loop checks are not charged to the outer loop),
and the *duplicated-code residency* — the longest instruction path one
sample can execute before control must return to checking code (finite
precisely because the duplicated code is acyclic, rule AUD003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.analysis.context import AuditContext, CheckKind
from repro.bytecode.opcodes import Op

CERTIFICATE_VERSION = 1


def _stat(stats: Union[Mapping[str, Any], Any], name: str) -> int:
    if isinstance(stats, Mapping):
        return int(stats.get(name, 0))
    return int(getattr(stats, name))


@dataclass(frozen=True)
class FunctionCostBound:
    """Static check-cost facts for one function."""

    function: str
    strategy: str
    static_checks: int
    entry_checks: int
    backedge_checks: int
    residual_checks: int
    guarded_sites: int
    instr_sites: int
    checking_blocks: int
    dup_blocks: int
    dup_instructions: int
    #: longest instruction path through duplicated code per sample;
    #: None when the duplicate is cyclic (counted backedges trade the
    #: acyclic pass for a burst-counter bound)
    dup_residency: Optional[int]
    loops: int
    max_checks_per_iteration: int

    # -- per-function coefficients (satellite of the plan reconciler) ----

    @property
    def checks_per_entry(self) -> int:
        """This function's own cpe coefficient: 1 iff it carries entry
        or residual checks. Its activations are a subset of the run's
        counted CALL/SPAWN opportunities, so charging the *global*
        entry total against a per-function coefficient stays an upper
        bound."""
        return 1 if self.entry_checks or self.residual_checks else 0

    @property
    def checks_per_backedge(self) -> int:
        return 1 if self.backedge_checks or self.residual_checks else 0

    @property
    def formula(self) -> str:
        return (
            f"checks_executed[{self.function}] <= "
            f"{self.checks_per_entry}*(calls + threads_spawned + 1) + "
            f"{self.checks_per_backedge}*(backward_jumps + checks_taken)"
        )

    def bound_against(self, stats: Union[Mapping[str, Any], Any]) -> int:
        """Evaluate this function's certified bound over one run's
        counters. With both coefficients zero (no-duplication,
        exhaustive, or a check-free body) the bound is exactly 0: the
        function must never execute a CHECK."""
        entries = (
            _stat(stats, "calls") + _stat(stats, "threads_spawned") + 1
        )
        backedges = (
            _stat(stats, "backward_jumps") + _stat(stats, "checks_taken")
        )
        return (
            self.checks_per_entry * entries
            + self.checks_per_backedge * backedges
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "strategy": self.strategy,
            "static_checks": self.static_checks,
            "entry_checks": self.entry_checks,
            "backedge_checks": self.backedge_checks,
            "residual_checks": self.residual_checks,
            "guarded_sites": self.guarded_sites,
            "instr_sites": self.instr_sites,
            "checking_blocks": self.checking_blocks,
            "dup_blocks": self.dup_blocks,
            "dup_instructions": self.dup_instructions,
            "dup_residency": self.dup_residency,
            "loops": self.loops,
            "max_checks_per_iteration": self.max_checks_per_iteration,
            # Derived coefficients ride along so manifests and
            # ``repro plan --diff`` can attribute a miss to a function
            # without re-deriving the transform.
            "checks_per_entry": self.checks_per_entry,
            "checks_per_backedge": self.checks_per_backedge,
        }


@dataclass(frozen=True)
class CostCertificate:
    """Program-level cost certificate (JSON-able, manifest-embeddable)."""

    label: str
    strategy: str
    checks_per_entry: int
    checks_per_backedge: int
    functions: List[FunctionCostBound] = field(default_factory=list)
    version: int = CERTIFICATE_VERSION

    # -- totals ----------------------------------------------------------

    def total(self, field_name: str) -> int:
        return sum(getattr(f, field_name) for f in self.functions)

    @property
    def static_checks(self) -> int:
        return self.total("static_checks")

    @property
    def guarded_sites(self) -> int:
        return self.total("guarded_sites")

    @property
    def max_checks_per_iteration(self) -> int:
        return max(
            (f.max_checks_per_iteration for f in self.functions), default=0
        )

    @property
    def max_dup_residency(self) -> Optional[int]:
        """Largest per-sample duplicated-code residency, or None when
        any function's duplicate is cyclic (no static bound)."""
        worst = 0
        for f in self.functions:
            if f.dup_blocks == 0:
                continue
            if f.dup_residency is None:
                return None
            worst = max(worst, f.dup_residency)
        return worst

    @property
    def formula(self) -> str:
        return (
            f"checks_executed <= {self.checks_per_entry}*(calls + "
            f"threads_spawned + 1) + {self.checks_per_backedge}*"
            f"(backward_jumps + checks_taken)"
        )

    def function_bound(self, name: str) -> Optional[FunctionCostBound]:
        for f in self.functions:
            if f.function == name:
                return f
        return None

    def function_bounds_against(
        self, stats: Union[Mapping[str, Any], Any]
    ) -> Dict[str, int]:
        """Per-function certified bounds over one run's counters —
        the reference the plan reconciler checks measured per-function
        check counts against."""
        return {
            f.function: f.bound_against(stats) for f in self.functions
        }

    # -- dynamic validation ----------------------------------------------

    def bound_against(self, stats: Union[Mapping[str, Any], Any]) -> int:
        """Evaluate the certified upper bound over one run's counters.

        *stats* may be an :class:`~repro.vm.tracing.ExecStats` or its
        ``as_dict()`` form (manifests store the latter).
        """
        entries = (
            _stat(stats, "calls") + _stat(stats, "threads_spawned") + 1
        )
        backedges = (
            _stat(stats, "backward_jumps") + _stat(stats, "checks_taken")
        )
        return (
            self.checks_per_entry * entries
            + self.checks_per_backedge * backedges
        )

    def violations(self, stats: Union[Mapping[str, Any], Any]) -> List[str]:
        """Every way *stats* contradicts this certificate (empty = ok)."""
        problems: List[str] = []
        observed = _stat(stats, "checks_executed")
        bound = self.bound_against(stats)
        if observed > bound:
            problems.append(
                f"checks_executed {observed} exceeds the static bound "
                f"{bound} ({self.formula})"
            )
        if self.guarded_sites == 0:
            guarded = _stat(stats, "guarded_checks_executed")
            if guarded > 0:
                problems.append(
                    f"guarded_checks_executed {guarded} but the "
                    "certificate records no GUARDED_INSTR sites"
                )
        return problems

    # -- serialization ---------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "label": self.label,
            "strategy": self.strategy,
            "checks_per_entry": self.checks_per_entry,
            "checks_per_backedge": self.checks_per_backedge,
            "formula": self.formula,
            "static_checks": self.static_checks,
            "guarded_sites": self.guarded_sites,
            "max_checks_per_iteration": self.max_checks_per_iteration,
            "max_dup_residency": self.max_dup_residency,
            "functions": [f.as_dict() for f in self.functions],
        }


# ---------------------------------------------------------------------------
# derivation


def function_cost_bound(ctx: AuditContext) -> FunctionCostBound:
    """Derive the static cost facts for one audited function."""
    kinds = ctx.classification
    entry_checks = sum(
        1 for k in kinds.values() if k == CheckKind.ENTRY
    )
    backedge_checks = sum(
        1 for k in kinds.values() if k == CheckKind.BACKEDGE
    )
    residual_checks = sum(
        1 for k in kinds.values() if k == CheckKind.RESIDUAL
    )
    guarded = instr = 0
    for bid in ctx.reachable:
        for ins in ctx.cfg.block(bid).instructions:
            if ins.op == Op.GUARDED_INSTR:
                guarded += 1
            elif ins.op == Op.INSTR:
                instr += 1
    return FunctionCostBound(
        function=ctx.fn.name,
        strategy=ctx.strategy,
        static_checks=len(ctx.check_bids),
        entry_checks=entry_checks,
        backedge_checks=backedge_checks,
        residual_checks=residual_checks,
        guarded_sites=guarded,
        instr_sites=instr,
        checking_blocks=len(ctx.checking),
        dup_blocks=len(ctx.duplicated),
        dup_instructions=sum(
            len(ctx.cfg.block(bid).instructions) for bid in ctx.duplicated
        ),
        dup_residency=_dup_residency(ctx),
        loops=len(ctx.projection_loops),
        max_checks_per_iteration=_max_checks_per_iteration(ctx),
    )


def _dup_residency(ctx: AuditContext) -> Optional[int]:
    """Longest instruction-weighted path through the duplicated code.

    A block's weight is its body length plus one for the terminator
    (which the VM also executes). Returns None when the duplicated
    subgraph is cyclic — then no acyclic-pass bound exists and AUD003
    (or the counted-backedges exemption) governs instead.
    """
    dup = ctx.duplicated
    if not dup:
        return 0
    succs: Dict[int, List[int]] = {
        bid: [s for s in ctx.cfg.block(bid).successors() if s in dup]
        for bid in dup
    }
    indegree = {bid: 0 for bid in dup}
    for bid in dup:
        for succ in succs[bid]:
            indegree[succ] += 1
    order: List[int] = []
    ready = sorted(bid for bid, deg in indegree.items() if deg == 0)
    while ready:
        bid = ready.pop()
        order.append(bid)
        for succ in succs[bid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(dup):
        return None  # cyclic
    weight = {
        bid: len(ctx.cfg.block(bid).instructions) + 1 for bid in dup
    }
    longest: Dict[int, int] = {}
    for bid in reversed(order):
        tail = max((longest[s] for s in succs[bid]), default=0)
        longest[bid] = weight[bid] + tail
    return max(longest.values(), default=0)


def _max_checks_per_iteration(ctx: AuditContext) -> int:
    """Max checks charged per iteration of any checking-code loop.

    For each natural loop of the checking projection, count the check
    blocks in its body that are not inside a strictly nested inner
    loop (those charge the inner loop's iterations, not this one's).
    """
    loops = ctx.projection_loops
    if not loops:
        return 0
    check_set = set(ctx.checking_check_bids)
    worst = 0
    for loop in loops:
        inner: set = set()
        for other in loops:
            if other.header != loop.header and other.body <= loop.body:
                inner |= other.body
        count = sum(
            1 for bid in loop.body - inner if bid in check_set
        )
        worst = max(worst, count)
    return worst


def build_certificate(
    label: str, strategy: str, contexts: List[AuditContext]
) -> CostCertificate:
    """Assemble the program-level certificate from per-function facts."""
    functions = [function_cost_bound(ctx) for ctx in contexts]
    has_entry = any(
        f.entry_checks > 0 or f.residual_checks > 0 for f in functions
    )
    has_backedge = any(
        f.backedge_checks > 0 or f.residual_checks > 0 for f in functions
    )
    return CostCertificate(
        label=label,
        strategy=strategy,
        checks_per_entry=1 if has_entry else 0,
        checks_per_backedge=1 if has_backedge else 0,
        functions=functions,
    )
