"""Static strategy planner: per-function instrumentation strategies
chosen before the first run.

The paper picks one cost-control strategy for the whole program; the
planner instead consumes the interprocedural cost analysis
(:mod:`repro.analysis.interproc`) and assigns each function the
cheapest strategy that fits a budget:

* *no-duplication* for functions the call graph proves unreachable
  (LNT004's fact — zero predicted activations, so duplicated bodies
  would be pure code growth) and wherever guarded instrumentation is
  predicted cheaper than check placement;
* *partial-duplication* when it ties full-duplication's predicted
  check executions with less duplicated code;
* *full-duplication* where entry/backedge checks are the cheapest way
  to sample a hot loop nest.

Predictions are per-candidate and exact about placement: each function
is actually transformed under each candidate strategy and the
candidate's own checking projection is re-analysed for trip counts, so
the predicted polynomial counts the check/guard sites the candidate
really emits, weighted by their loop-nest frequency.

The resulting :class:`StrategyPlan` is a JSON artifact (per-function
strategy, predicted cpe/cpb, predicted cost polynomial, rationale and
rule citations) and a runnable configuration: ``StrategyPlan.key()``
feeds ``RunSpec.plan``, which applies the whole mix in one run via
``SamplingFramework.transform(assignments=...)``; the plan reconciler
(:func:`repro.analysis.reconcile.reconcile_plan`) then holds the run to
each function's *certified* bound — predictions rank, certificates
enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.context import (
    AuditContext,
    FULL_DUPLICATION,
    NO_DUPLICATION,
    PARTIAL_DUPLICATION,
)
from repro.analysis.cost import function_cost_bound
from repro.analysis.interproc import (
    CostPoly,
    FunctionLoopInfo,
    ProgramAnalysis,
    analyze_program,
)
from repro.bytecode.opcodes import Op
from repro.errors import AnalysisError

#: Candidate strategies, in tie-break preference order (least code
#: growth first). Checks-only strategies drop the instrumentation and
#: exhaustive defeats sampling, so neither is plannable.
CANDIDATE_STRATEGIES: Tuple[str, ...] = (
    NO_DUPLICATION,
    PARTIAL_DUPLICATION,
    FULL_DUPLICATION,
)

#: Nominal workload scale the cost polynomials are evaluated at when a
#: scalar ranking is needed.
NOMINAL_SCALE = 64.0


@dataclass(frozen=True)
class PlanBudget:
    """One planning budget: how to trade predicted dynamic cost
    against static code growth.

    ``size_weight`` prices one extra emitted instruction in units of
    predicted check-site executions — 0 ranks candidates purely by
    predicted dynamic cost, larger values push cold and near-tied
    functions toward the smaller-code strategies.
    """

    name: str
    description: str
    size_weight: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "size_weight": self.size_weight,
        }


#: The named budget presets ``repro plan --budget`` accepts.
BUDGETS: Dict[str, PlanBudget] = {
    "strict": PlanBudget(
        "strict",
        "minimum predicted overhead; code growth only breaks exact ties",
        size_weight=0.0,
    ),
    "default": PlanBudget(
        "default",
        "predicted overhead first; near-ties resolve to smaller code",
        size_weight=0.05,
    ),
    "relaxed": PlanBudget(
        "relaxed",
        "tolerate predicted overhead to keep duplicated code small",
        size_weight=2.0,
    ),
}


def resolve_budget(budget: Any) -> PlanBudget:
    if isinstance(budget, PlanBudget):
        return budget
    try:
        return BUDGETS[str(budget)]
    except KeyError:
        raise AnalysisError(
            f"unknown plan budget {budget!r}; choose from "
            f"{sorted(BUDGETS)}"
        ) from None


@dataclass(frozen=True)
class CandidateCost:
    """Predicted facts for one (function, strategy) candidate."""

    strategy: str
    checks: CostPoly  # check executions per activation
    guards: CostPoly  # guarded-instrumentation polls per activation
    cost: float  # (checks+guards) * activations, evaluated at scale
    score: float  # cost + size_weight * extra instructions
    instructions: int
    extra_instructions: int
    predicted_cpe: int
    predicted_cpb: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "checks": self.checks.as_dict(),
            "guards": self.guards.as_dict(),
            "cost": self.cost,
            "score": self.score,
            "instructions": self.instructions,
            "extra_instructions": self.extra_instructions,
            "predicted_cpe": self.predicted_cpe,
            "predicted_cpb": self.predicted_cpb,
        }


@dataclass(frozen=True)
class FunctionPlan:
    """The planner's decision for one function."""

    function: str
    strategy: str
    predicted_cpe: int
    predicted_cpb: int
    predicted_cost: float
    checks: CostPoly
    activations: CostPoly
    code_growth: float
    rationale: str
    rules: Tuple[str, ...] = ()
    candidates: Tuple[CandidateCost, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "strategy": self.strategy,
            "predicted_cpe": self.predicted_cpe,
            "predicted_cpb": self.predicted_cpb,
            "predicted_cost": self.predicted_cost,
            "checks": self.checks.as_dict(),
            "activations": self.activations.as_dict(),
            "code_growth": self.code_growth,
            "rationale": self.rationale,
            "rules": list(self.rules),
            "candidates": [c.as_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FunctionPlan":
        return cls(
            function=payload["function"],
            strategy=payload["strategy"],
            predicted_cpe=payload["predicted_cpe"],
            predicted_cpb=payload["predicted_cpb"],
            predicted_cost=payload["predicted_cost"],
            checks=CostPoly.from_dict(payload.get("checks", {})),
            activations=CostPoly.from_dict(payload.get("activations", {})),
            code_growth=payload.get("code_growth", 1.0),
            rationale=payload.get("rationale", ""),
            rules=tuple(payload.get("rules", ())),
            candidates=tuple(
                CandidateCost(
                    strategy=c["strategy"],
                    checks=CostPoly.from_dict(c.get("checks", {})),
                    guards=CostPoly.from_dict(c.get("guards", {})),
                    cost=c["cost"],
                    score=c["score"],
                    instructions=c["instructions"],
                    extra_instructions=c["extra_instructions"],
                    predicted_cpe=c["predicted_cpe"],
                    predicted_cpb=c["predicted_cpb"],
                )
                for c in payload.get("candidates", ())
            ),
        )


#: Schema stamp of the serialized plan artifact.
PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StrategyPlan:
    """A complete per-function strategy assignment for one program."""

    label: str
    budget: str
    default_strategy: str
    scale: float
    entries: Tuple[FunctionPlan, ...]
    interval: Optional[int] = None
    instrumentation: Tuple[str, ...] = ()
    unreachable: Tuple[str, ...] = ()

    # -- lookups ---------------------------------------------------------

    def entry_for(self, name: str) -> Optional[FunctionPlan]:
        for entry in self.entries:
            if entry.function == name:
                return entry
        return None

    def assignments(self) -> Dict[str, str]:
        return {e.function: e.strategy for e in self.entries}

    def key(self) -> Tuple[Tuple[str, str], ...]:
        """Hashable form for ``RunSpec.plan`` (sorted, deterministic)."""
        return tuple(
            sorted((e.function, e.strategy) for e in self.entries)
        )

    def strategy_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.strategy] = counts.get(entry.strategy, 0) + 1
        return counts

    def predicted_cost(self) -> float:
        return sum(e.predicted_cost for e in self.entries)

    # -- rendering -------------------------------------------------------

    def summary(self) -> str:
        counts = ", ".join(
            f"{count} {name}"
            for name, count in sorted(self.strategy_counts().items())
        )
        return (
            f"{self.label}: {len(self.entries)} function(s) planned "
            f"under budget {self.budget!r} ({counts}); predicted "
            f"{self.predicted_cost():g} check-site executions at "
            f"n={self.scale:g}"
        )

    def explain(self) -> str:
        lines = [self.summary()]
        for entry in self.entries:
            lines.append(
                f"  {entry.function}: {entry.strategy} "
                f"(cpe={entry.predicted_cpe}, cpb={entry.predicted_cpb}, "
                f"predicted {entry.predicted_cost:g}) — {entry.rationale}"
                + (f" [{', '.join(entry.rules)}]" if entry.rules else "")
            )
        if self.unreachable:
            lines.append(
                "  unreachable: " + ", ".join(self.unreachable)
            )
        return "\n".join(lines)

    def diff(self, other: "StrategyPlan") -> List[Dict[str, Any]]:
        """Per-function differences against *other* (the older plan)."""
        mine = {e.function: e for e in self.entries}
        theirs = {e.function: e for e in other.entries}
        changes: List[Dict[str, Any]] = []
        for name in sorted(set(mine) | set(theirs)):
            a, b = theirs.get(name), mine.get(name)
            if a is None or b is None or a.strategy != b.strategy:
                changes.append(
                    {
                        "function": name,
                        "before": a.strategy if a is not None else None,
                        "after": b.strategy if b is not None else None,
                        "predicted_cost_before": (
                            a.predicted_cost if a is not None else None
                        ),
                        "predicted_cost_after": (
                            b.predicted_cost if b is not None else None
                        ),
                    }
                )
        return changes

    # -- serialization ---------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "label": self.label,
            "budget": self.budget,
            "default_strategy": self.default_strategy,
            "scale": self.scale,
            "interval": self.interval,
            "instrumentation": list(self.instrumentation),
            "unreachable": list(self.unreachable),
            "strategies": self.strategy_counts(),
            "predicted_cost": self.predicted_cost(),
            "functions": [e.as_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StrategyPlan":
        return cls(
            label=payload["label"],
            budget=payload["budget"],
            default_strategy=payload["default_strategy"],
            scale=payload["scale"],
            interval=payload.get("interval"),
            instrumentation=tuple(payload.get("instrumentation", ())),
            unreachable=tuple(payload.get("unreachable", ())),
            entries=tuple(
                FunctionPlan.from_dict(e)
                for e in payload.get("functions", ())
            ),
        )


# ---------------------------------------------------------------------------
# candidate evaluation


def _guard_poly(ctx: AuditContext, info: FunctionLoopInfo) -> CostPoly:
    """Guarded-instrumentation polls per activation: every
    ``GUARDED_INSTR`` in checking code, weighted by its block's
    loop-nest frequency."""
    total = CostPoly.zero()
    for bid in sorted(ctx.checking):
        count = sum(
            1
            for ins in ctx.cfg.block(bid).instructions
            if ins.op == Op.GUARDED_INSTR
        )
        if count:
            total = total.add(info.block_weight(bid).scale(count))
    return total


def _check_poly(ctx: AuditContext, info: FunctionLoopInfo) -> CostPoly:
    """Check executions per activation: each check block's frequency in
    the candidate's own checking projection (checks execute on the
    not-taken path, so the projection's loop structure is the right
    weight; sample-taken detours add a bounded constant on top)."""
    total = CostPoly.zero()
    for bid in ctx.checking_check_bids:
        total = total.add(info.block_weight(bid))
    return total


def evaluate_candidate(
    fn,
    program,
    instrumentations,
    strategy: str,
    activations: CostPoly,
    scale: float,
    size_weight: float,
) -> CandidateCost:
    """Transform one function under one candidate strategy and predict
    its dynamic cost."""
    from repro.sampling.framework import SamplingFramework, Strategy

    framework = SamplingFramework(Strategy(strategy), verify=False)
    instr = SamplingFramework._normalize_instrumentation(instrumentations)
    transformed = framework.transform_function(fn.copy(), program, instr)
    ctx = AuditContext(transformed)
    info = FunctionLoopInfo.from_cfg(ctx.projection, fn.name, program)
    checks = _check_poly(ctx, info)
    guards = _guard_poly(ctx, info)
    cost = checks.add(guards).multiply(activations).evaluate(scale)
    extra = transformed.instruction_count() - fn.instruction_count()
    bound = function_cost_bound(ctx)
    return CandidateCost(
        strategy=strategy,
        checks=checks,
        guards=guards,
        cost=cost,
        score=cost + size_weight * max(0, extra),
        instructions=transformed.instruction_count(),
        extra_instructions=max(0, extra),
        predicted_cpe=bound.checks_per_entry,
        predicted_cpb=bound.checks_per_backedge,
    )


def _loop_facts(info: Optional[FunctionLoopInfo]) -> str:
    if info is None or not info.loops:
        return "no loops"
    counts = info.classify_counts()
    parts = [
        f"{counts[kind]} {kind}"
        for kind in ("constant", "parameter", "unknown")
        if counts[kind]
    ]
    return "loops: " + ", ".join(parts)


def plan_program(
    program,
    instrumentation: Tuple[str, ...] = ("call-edge",),
    budget: Any = "default",
    interval: Optional[int] = None,
    label: str = "plan",
    scale: float = NOMINAL_SCALE,
    analysis: Optional[ProgramAnalysis] = None,
) -> StrategyPlan:
    """Plan a per-function strategy assignment for *program*.

    *instrumentation* names the kinds the run will carry (the
    :mod:`repro.harness` registry); candidates are evaluated with fresh
    instances so planning never perturbs a live profile. *analysis* may
    supply a precomputed :func:`analyze_program` result.
    """
    from repro.harness.experiment import make_instrumentations

    resolved = resolve_budget(budget)
    if analysis is None:
        analysis = analyze_program(program)
    unreachable = frozenset(analysis.graph.unreachable())
    bodies = dict(program.functions)
    for name, template in program.loadables.items():
        bodies.setdefault(name, template)

    entries: List[FunctionPlan] = []
    for name in analysis.graph.nodes:
        fn = bodies[name]
        summary = analysis.summary(name)
        activations = (
            summary.activations if summary is not None else CostPoly.zero()
        )
        loop_info = analysis.loop_info.get(name)

        if name in unreachable and name in program.functions:
            # LNT004's fact: no call path from the entry, so duplicated
            # bodies and checks would be pure code growth.
            entries.append(
                FunctionPlan(
                    function=name,
                    strategy=NO_DUPLICATION,
                    predicted_cpe=0,
                    predicted_cpb=0,
                    predicted_cost=0.0,
                    checks=CostPoly.zero(),
                    activations=CostPoly.zero(),
                    code_growth=1.0,
                    rationale=(
                        "statically unreachable from "
                        f"{analysis.graph.entry!r}: zero predicted "
                        "activations, no-duplication avoids all code "
                        "growth"
                    ),
                    rules=("LNT004",),
                )
            )
            continue

        candidates = tuple(
            evaluate_candidate(
                fn,
                program,
                make_instrumentations(tuple(instrumentation)),
                strategy,
                activations,
                scale,
                resolved.size_weight,
            )
            for strategy in CANDIDATE_STRATEGIES
        )
        best = min(candidates, key=lambda c: c.score)
        runners = [c for c in candidates if c.strategy != best.strategy]
        runner_up = min(runners, key=lambda c: c.score)
        if runner_up.score > best.score:
            margin = (
                f"beats {runner_up.strategy} "
                f"({runner_up.cost:g} predicted)"
            )
        else:
            margin = (
                f"ties {runner_up.strategy}; smaller code "
                f"({best.extra_instructions} vs "
                f"{runner_up.extra_instructions} extra instruction(s))"
            )
        rationale = (
            f"predicted {best.cost:g} check-site execution(s) "
            f"[{best.checks.add(best.guards).describe()} per activation "
            f"x {activations.describe()} activation(s)]; {margin}; "
            f"{_loop_facts(loop_info)}"
        )
        rules: Tuple[str, ...] = ()
        if summary is not None and summary.recursive:
            rationale += "; recursive (widened)"
        before = fn.instruction_count()
        entries.append(
            FunctionPlan(
                function=name,
                strategy=best.strategy,
                predicted_cpe=best.predicted_cpe,
                predicted_cpb=best.predicted_cpb,
                predicted_cost=best.cost,
                checks=best.checks.add(best.guards),
                activations=activations,
                code_growth=(
                    best.instructions / before if before else 1.0
                ),
                rationale=rationale,
                rules=rules,
                candidates=candidates,
            )
        )

    return StrategyPlan(
        label=label,
        budget=resolved.name,
        default_strategy=FULL_DUPLICATION,
        scale=scale,
        interval=interval,
        instrumentation=tuple(instrumentation),
        unreachable=tuple(sorted(unreachable & set(program.functions))),
        entries=tuple(entries),
    )
