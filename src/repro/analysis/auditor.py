"""The auditor facade: run every applicable rule over a transformed
program and assemble findings plus the cost certificate into one
:class:`AuditReport`.

Per-function strategy resolution: the sampling framework stamps
``fn.notes["sampling"]`` on everything it transforms, so each function
is audited under the strategy that actually produced it. A caller-
supplied expected strategy is cross-checked against the stamp (finding
``AUD009`` on mismatch); functions with no stamp — untransformed code,
or exhaustive instrumentation — get lints and cost accounting only,
never the placement invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.context import EXHAUSTIVE, AuditContext
from repro.analysis.cost import (
    CostCertificate,
    FunctionCostBound,
    build_certificate,
    function_cost_bound,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Suppressions, run_program_rules, run_rules
from repro.bytecode.function import Function
from repro.bytecode.program import Program

#: Pseudo-rule id for the auditor-level strategy-label cross-check (not
#: in the registry: it guards the audit request, not the audited CFG).
STRATEGY_MISMATCH_RULE = "AUD009"


@dataclass
class AuditReport:
    """Findings + certificate for one audited program (or function)."""

    label: str
    strategy: Optional[str]
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    certificate: Optional[CostCertificate] = None
    functions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing at ERROR severity survived suppression."""
        return not any(
            f.severity >= Severity.ERROR for f in self.findings
        )

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    def worst_severity(self) -> Optional[Severity]:
        return max(
            (f.severity for f in self.findings), default=None
        )

    def summary(self) -> str:
        parts = [
            f"{len(self.functions)} function(s) audited",
            f"{self.count(Severity.ERROR)} error(s)",
            f"{self.count(Severity.WARNING)} warning(s)",
        ]
        if self.suppressed:
            parts.append(f"{self.suppressed} suppressed")
        return ", ".join(parts)

    def render(self) -> str:
        lines = [f.format() for f in self.findings]
        lines.append(f"{self.label}: {self.summary()}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "strategy": self.strategy,
            "ok": self.ok,
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "suppressed": self.suppressed,
            "functions": list(self.functions),
            "findings": [f.as_dict() for f in self.findings],
            "certificate": (
                self.certificate.as_dict()
                if self.certificate is not None
                else None
            ),
        }


def audit_function(
    fn: Function,
    strategy: Optional[str] = None,
    suppressions: Optional[Suppressions] = None,
) -> List[Finding]:
    """Run every applicable rule over one function; returns findings.

    *strategy* overrides the function's ``notes["sampling"]`` stamp
    (useful for auditing hand-built functions in tests); by default
    the stamp decides which rules apply.
    """
    ctx = AuditContext(fn, strategy=strategy)
    findings = run_rules(ctx)
    if suppressions is not None:
        findings, _ = suppressions.apply(findings)
    return findings


def audit_program(
    program: Program,
    strategy: Optional[str] = None,
    suppressions: Optional[Suppressions] = None,
    functions: Optional[Iterable[str]] = None,
    label: Optional[str] = None,
    program_rules: bool = False,
) -> AuditReport:
    """Audit every (or the named) function of *program*.

    Returns an :class:`AuditReport` whose certificate covers exactly
    the audited functions; ``report.ok`` is the audit verdict.
    *program_rules* additionally runs the whole-program rules (LNT004
    unreachable-function analysis over the interprocedural call graph);
    ``repro lint``/``repro audit`` enable it, the per-cell harness audit
    keeps the per-function invariant set.
    """
    names = (
        list(functions) if functions is not None else program.function_names()
    )
    report = AuditReport(
        label=label or "program",
        strategy=strategy,
        functions=list(names),
    )
    contexts: List[AuditContext] = []
    all_findings: List[Finding] = []
    for name in names:
        fn = program.function(name)
        stamped = fn.notes.get("sampling")
        if (
            strategy is not None
            and stamped is not None
            and stamped != strategy
        ):
            all_findings.append(
                Finding(
                    rule_id=STRATEGY_MISMATCH_RULE,
                    severity=Severity.ERROR,
                    function=name,
                    message=(
                        f"function is stamped {stamped!r} but the audit "
                        f"expected {strategy!r}"
                    ),
                )
            )
        # The stamp is authoritative for rule selection; the expected
        # strategy only fills in when the function carries no stamp at
        # all (it was never transformed -> lints + cost only).
        effective = stamped if stamped is not None else EXHAUSTIVE
        ctx = AuditContext(fn, strategy=effective)
        contexts.append(ctx)
        all_findings.extend(run_rules(ctx))
    if program_rules:
        all_findings.extend(run_program_rules(program))
    if suppressions is not None:
        all_findings, report.suppressed = suppressions.apply(all_findings)
    report.findings = all_findings
    report.certificate = build_certificate(
        report.label, strategy or EXHAUSTIVE, contexts
    )
    return report


class IncrementalCertifier:
    """Certificate maintenance for dynamically growing programs.

    A program with loadables changes its function table mid-run
    (``LOADFN``/``REPLACEFN``), so the certificate audited before the
    run stops describing the code that actually executed. The certifier
    subscribes to the VM's code-event stream (:meth:`attach`, via
    ``VM.on_code_event``) and, at every load/replace event, audits
    **only the arriving function** and folds its
    :class:`FunctionCostBound` into the running per-function state — a
    certificate *delta*, not a from-scratch rebuild.

    Two certificates come out the other end:

    * :meth:`snapshot` — the bounds of the functions *currently*
      installed. By construction this equals a from-scratch
      :func:`audit_program` of the final program (the delta-vs-rebuild
      reconciliation the tests assert).
    * :meth:`dynamic_certificate` — the snapshot's functions under
      **monotone** ``cpe``/``cpb`` coefficients: the maximum over every
      version that was ever installed (and the pre-run seed). Retired
      versions executed checks before they were swapped out, so
      validating a run's counters against the *final* coefficients
      alone would be unsound — e.g. replacing a checked body with a
      check-free one must not retroactively assert
      ``checks_executed == 0``. Coefficients only ever grow, exactly
      like the run's counters.

    Every event also runs the full placement-rule set over the arriving
    function; findings ride on the event record, and :attr:`ok` is
    False if any event introduced an ERROR-severity finding.
    """

    def __init__(self, strategy: Optional[str] = None, label: str = "program"):
        self.strategy = strategy
        self.label = label
        self._bounds: Dict[str, FunctionCostBound] = {}
        self._floor_cpe = 0
        self._floor_cpb = 0
        self.events: List[Dict[str, Any]] = []

    # -- construction ----------------------------------------------------

    @classmethod
    def from_program(
        cls,
        program: Program,
        strategy: Optional[str] = None,
        label: str = "program",
    ) -> "IncrementalCertifier":
        """Seed the certifier with the program's pre-run function table
        (the same per-function facts :func:`audit_program` derives)."""
        certifier = cls(strategy=strategy, label=label)
        for name in program.function_names():
            fn = program.function(name)
            certifier._bounds[name] = certifier._audit_one(fn)
        certifier._raise_floor()
        return certifier

    @classmethod
    def from_certificate(
        cls,
        certificate: CostCertificate,
        strategy: Optional[str] = None,
        label: str = "program",
    ) -> "IncrementalCertifier":
        """Seed the certifier from an :func:`audit_program` certificate
        of the pre-run program: its per-function bounds are exactly what
        :meth:`from_program` would derive, so nothing is audited twice."""
        certifier = cls(strategy=strategy, label=label)
        for bound in certificate.functions:
            certifier._bounds[bound.function] = bound
        certifier._raise_floor()
        return certifier

    def attach(self, vm) -> "IncrementalCertifier":
        """Subscribe to *vm*'s load/replace event stream."""
        vm.on_code_event = self.on_event
        return self

    # -- event stream ----------------------------------------------------

    def on_event(
        self, kind: str, name: str, template: str, fn: Function
    ) -> None:
        """Fold one load/replace event into the running certificate.

        Matches the ``VM.on_code_event`` signature: *kind* is ``"load"``
        or ``"replace"``, *fn* is the function actually installed (the
        instrumented body when a loader transformed the template).
        """
        ctx = AuditContext(
            fn, strategy=str(fn.notes.get("sampling", EXHAUSTIVE))
        )
        findings = run_rules(ctx)
        bound = function_cost_bound(ctx)
        previous = self._bounds.get(name)
        self._bounds[name] = bound
        self._raise_floor()
        self.events.append(
            {
                "kind": kind,
                "function": name,
                "template": template,
                "strategy": ctx.strategy,
                "bound": bound.as_dict(),
                "previous_bound": (
                    previous.as_dict() if previous is not None else None
                ),
                "findings": [f.as_dict() for f in findings],
                "errors": sum(
                    1 for f in findings if f.severity >= Severity.ERROR
                ),
                "checks_per_entry": self._floor_cpe,
                "checks_per_backedge": self._floor_cpb,
            }
        )

    # -- certificates ----------------------------------------------------

    def snapshot(self) -> CostCertificate:
        """Certificate of the currently installed function table —
        bit-equal to a from-scratch audit of the final program."""
        functions = [self._bounds[n] for n in sorted(self._bounds)]
        has_entry = any(
            f.entry_checks > 0 or f.residual_checks > 0 for f in functions
        )
        has_backedge = any(
            f.backedge_checks > 0 or f.residual_checks > 0
            for f in functions
        )
        return CostCertificate(
            label=self.label,
            strategy=self.strategy or EXHAUSTIVE,
            checks_per_entry=1 if has_entry else 0,
            checks_per_backedge=1 if has_backedge else 0,
            functions=functions,
        )

    def dynamic_certificate(self) -> CostCertificate:
        """The snapshot under the monotone coefficient floor — the
        certificate a run's :class:`ExecStats` must be validated
        against (retired function versions executed checks too)."""
        snap = self.snapshot()
        return CostCertificate(
            label=snap.label,
            strategy=snap.strategy,
            checks_per_entry=max(snap.checks_per_entry, self._floor_cpe),
            checks_per_backedge=max(
                snap.checks_per_backedge, self._floor_cpb
            ),
            functions=snap.functions,
        )

    # -- reporting -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return all(event["errors"] == 0 for event in self.events)

    @property
    def loads(self) -> int:
        return sum(1 for e in self.events if e["kind"] == "load")

    @property
    def replaces(self) -> int:
        return sum(1 for e in self.events if e["kind"] == "replace")

    def as_dict(self) -> Dict[str, Any]:
        """Manifest payload (``analysis["incremental"]``)."""
        return {
            "ok": self.ok,
            "loads": self.loads,
            "replaces": self.replaces,
            "events": list(self.events),
            "certificate": self.snapshot().as_dict(),
            "dynamic_certificate": self.dynamic_certificate().as_dict(),
        }

    # -- helpers ---------------------------------------------------------

    def _audit_one(self, fn: Function) -> FunctionCostBound:
        ctx = AuditContext(
            fn, strategy=str(fn.notes.get("sampling", EXHAUSTIVE))
        )
        return function_cost_bound(ctx)

    def _raise_floor(self) -> None:
        bounds = self._bounds.values()
        if any(f.entry_checks > 0 or f.residual_checks > 0 for f in bounds):
            self._floor_cpe = 1
        if any(
            f.backedge_checks > 0 or f.residual_checks > 0 for f in bounds
        ):
            self._floor_cpb = 1
