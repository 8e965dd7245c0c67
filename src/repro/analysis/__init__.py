"""Static analysis of transformed programs: invariant certification,
cost-bound certificates, lints, and static↔dynamic reconciliation.

The auditor proves, per function, the structural facts the paper's
Property 1 rests on (checking-code purity, backedge redirection, check
placement, trampoline well-formedness), derives a machine-checkable
upper bound on dynamic check counts, and — through the reconciler —
fails any run whose observed counters exceed the certified bound.

Entry points:

* :func:`audit_program` / :func:`audit_function` — run the rule catalog.
* :func:`build_certificate` — the static cost bound (usually taken from
  the :class:`AuditReport` returned by :func:`audit_program`).
* :func:`reconcile` — validate dynamic ExecStats against a
  certificate; :func:`property1_vs_baseline` —
  Property 1 of a run against its uninstrumented baseline run; :func:`reconcile_stream` — validate
  a (compacted) telemetry stream against the run's counters.
* :func:`analyze_program` — interprocedural cost analysis (call graph,
  trip counts, summary polynomials); :func:`plan_program` — the static
  strategy planner built on it; :func:`reconcile_plan` — per-function
  validation of a planned run.
* ``repro lint`` / ``repro audit`` / ``repro plan`` — the CLI surfaces
  (see docs/ANALYSIS.md for the rule catalog and suppression syntax).
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "auditor": (
        "STRATEGY_MISMATCH_RULE", "AuditReport", "IncrementalCertifier",
        "audit_function", "audit_program",
    ),
    "context": ("AuditContext", "checking_projection"),
    "cost": (
        "CostCertificate", "FunctionCostBound", "build_certificate",
        "function_cost_bound",
    ),
    "findings": (
        "FINDINGS_SCHEMA_VERSION", "Finding", "Severity", "findings_document",
        "findings_ok", "tally",
    ),
    "interproc": (
        "CallGraph", "CallSite", "CostPoly", "FunctionLoopInfo",
        "FunctionSummary", "LoopBound", "ProgramAnalysis", "analyze_program",
        "unreachable_functions",
    ),
    "planner": (
        "BUDGETS", "FunctionPlan", "PlanBudget", "StrategyPlan", "plan_program",
    ),
    "reconcile": (
        "ReconcileVerdict", "measured_function_checks", "property1_vs_baseline",
        "reconcile", "reconcile_plan", "reconcile_profile", "reconcile_stream",
    ),
    "rules": (
        "ProgramRule", "Rule", "Suppressions", "all_program_rules",
        "all_rules", "get_rule", "program_rule", "run_program_rules",
        "run_rules",
    ),
})
