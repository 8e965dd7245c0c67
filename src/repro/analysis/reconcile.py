"""Static↔dynamic reconciliation: validate a run against its certificate.

The reconciler closes the loop the paper argues only statically: after a
run, the observed :class:`~repro.vm.tracing.ExecStats` counters must
satisfy the :class:`~repro.analysis.cost.CostCertificate` bound derived
before the run. ``ExperimentRunner`` reconciles every audited cell and
raises on violation, making Property 1 a hard error in every experiment
rather than a test-suite assertion; manifests embed the verdict next to
the stats so archived runs can be re-checked offline
(:func:`reconcile_manifest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.analysis.cost import CostCertificate, _stat
from repro.errors import AnalysisError


@dataclass(frozen=True)
class ReconcileVerdict:
    """Outcome of validating one run against one certificate."""

    ok: bool
    bound: int
    observed: int
    formula: str
    violations: List[str] = field(default_factory=list)
    #: True when the reconciled stream ended in a truncated trailing
    #: segment (crash read-back) — the lower bound was waived.
    truncated: bool = False

    def summary(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        suffix = " (truncated stream)" if self.truncated else ""
        return (
            f"checks {self.observed} <= static bound {self.bound}: "
            f"{status}{suffix}"
        )

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "ok": self.ok,
            "bound": self.bound,
            "observed": self.observed,
            "formula": self.formula,
            "violations": list(self.violations),
        }
        if self.truncated:
            payload["truncated"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReconcileVerdict":
        return cls(
            ok=payload["ok"],
            bound=payload["bound"],
            observed=payload["observed"],
            formula=payload.get("formula", ""),
            violations=list(payload.get("violations", [])),
            truncated=bool(payload.get("truncated", False)),
        )


def reconcile(
    certificate: CostCertificate, stats: Union[Mapping[str, Any], Any]
) -> ReconcileVerdict:
    """Check one run's counters against the static certificate.

    *stats* is an ExecStats or its ``as_dict()`` form. The verdict never
    raises — callers decide whether a violation is fatal (the harness
    does; ``repro audit`` reports and sets the exit code).
    """
    violations = certificate.violations(stats)
    return ReconcileVerdict(
        ok=not violations,
        bound=certificate.bound_against(stats),
        observed=_stat(stats, "checks_executed"),
        formula=certificate.formula,
        violations=violations,
    )


def property1_vs_baseline(transformed, baseline) -> bool:
    """Property 1 across two runs: checks executed in the transformed
    run must not exceed the *baseline* run's method entries, thread
    spawns and backedges.

    This is the paper's statement verbatim (the bound is over the
    uninstrumented execution); both arguments are
    :class:`~repro.vm.tracing.ExecStats` of runs on the same input.
    GUARDED_INSTR polls are No-Duplication's and exempt by definition
    (the paper's §3.2 weakening), so only CHECKs count.
    """
    opportunities = (
        baseline.calls + baseline.threads_spawned + baseline.backward_jumps
    )
    return transformed.checks_executed <= opportunities


def reconcile_profile(snapshot: Mapping[str, Any]) -> ReconcileVerdict:
    """Check an :class:`~repro.profiling.OverheadProfiler` snapshot
    against its Property-1-style sample bound.

    The profiler drives a counter trigger from the engines' observer
    boundaries, so the same argument that caps guest samples caps
    profiler samples: ``samples <= boundaries // interval + 1`` (one
    in-flight countdown per run). A merged snapshot whose parts
    disagree on the interval carries ``interval: None`` and cannot be
    re-checked — that raises, since calling this on such a snapshot is
    a harness bug, not a bound violation.
    """
    interval = snapshot.get("interval")
    if not interval:
        raise AnalysisError(
            "profile snapshot carries no sample interval "
            "(merged from runs with differing intervals?)"
        )
    boundaries = int(snapshot.get("boundaries", 0))
    samples = int(snapshot.get("samples", 0))
    # One countdown may be in flight per profiled run; merged snapshots
    # sum ``runs`` so the slack scales with the number of folds.
    runs = max(1, int(snapshot.get("runs", 1)))
    bound = boundaries // int(interval) + runs
    violations = []
    if samples > bound:
        violations.append(
            f"profiler took {samples} samples but {boundaries} "
            f"boundaries at interval {interval} admit at most {bound}"
        )
    return ReconcileVerdict(
        ok=not violations,
        bound=bound,
        observed=samples,
        formula="samples <= boundaries // interval + runs",
        violations=violations,
    )


def reconcile_stream(
    stats: Union[Mapping[str, Any], Any],
    records,
    dropped_events: int = 0,
    truncated: bool = False,
) -> ReconcileVerdict:
    """Check a (possibly compacted, possibly truncated) telemetry stream
    against the run's counters.

    Every sample the VM counted emits exactly one ``sample.fired``
    event, so the stream's sample weight can never exceed
    ``samples_taken``, and can fall short only by what ring evictions
    discarded — *dropped_events* is the eviction loss **in original
    events** (:attr:`~repro.telemetry.TelemetryRecorder.dropped_events`,
    which equals ``ring.dropped`` when nothing is suppressed). *records*
    may mix plain events and
    :class:`~repro.telemetry.compaction.SuppressedRun` entries; runs
    count with their full weight.

    Pass ``truncated=True`` for a stream read back from a spool whose
    tail was cut off mid-write (``SpoolReader.truncated``): an
    arbitrary suffix of events is then legitimately missing, so the
    lower bound is waived and the verdict reports ``truncated=True``
    instead of a violation. The upper bound still applies — a crash
    cannot *add* samples.
    """
    from repro.telemetry.compaction import record_weight
    from repro.telemetry.events import SAMPLE_FIRED, Event

    stream_samples = sum(
        record_weight(rec)
        for rec in records
        if (rec.kind if isinstance(rec, Event) else rec.first.kind)
        == SAMPLE_FIRED
    )
    taken = _stat(stats, "checks_taken") + _stat(
        stats, "guarded_checks_taken"
    )
    violations = []
    if stream_samples > taken:
        violations.append(
            f"stream carries {stream_samples} samples but the run "
            f"took only {taken}"
        )
    if not truncated and taken - dropped_events > stream_samples:
        violations.append(
            f"stream carries {stream_samples} samples; the run took "
            f"{taken} and only {dropped_events} were evicted — "
            f"{taken - dropped_events - stream_samples} unaccounted for"
        )
    return ReconcileVerdict(
        ok=not violations,
        bound=taken,
        observed=stream_samples,
        formula="samples_taken - dropped <= stream samples <= samples_taken",
        violations=violations,
        truncated=truncated,
    )


#: Labelled counter the plan reconciler reads measured per-function
#: check counts from (maintained by TelemetryRecorder.check on every
#: executed CHECK, so it is engine-identical by construction).
PLAN_CHECKS_METRIC = "vm.checks.by_function"


def measured_function_checks(
    snapshot: Mapping[str, Any]
) -> Dict[str, int]:
    """Extract per-function executed-check counts from a metrics
    snapshot (``{"vm.checks.by_function{function=main}": {...}}``)."""
    prefix = PLAN_CHECKS_METRIC + "{function="
    out: Dict[str, int] = {}
    for key, payload in snapshot.items():
        if not key.startswith(prefix) or not key.endswith("}"):
            continue
        name = key[len(prefix):-1]
        value = (
            payload.get("value", 0)
            if isinstance(payload, Mapping)
            else payload
        )
        out[name] = int(value)
    return out


def reconcile_plan(
    certificate: CostCertificate,
    stats: Union[Mapping[str, Any], Any],
    metrics: Optional[Mapping[str, Any]] = None,
) -> ReconcileVerdict:
    """Validate a (possibly mixed-strategy) run *per function*.

    Two layers, both hard bounds rather than planner predictions:

    * the whole-program certificate bound (same as :func:`reconcile`);
    * when a metrics snapshot is supplied, each function's measured
      executed-check count against its own certified bound
      (:meth:`FunctionCostBound.bound_against`) — in particular a
      function planned as no-duplication or left exhaustive has bound
      **0** and must never execute a CHECK. Per-function counts are
      charged against the run's *global* entry/backedge opportunity
      totals, which over-approximates each function's own share, so
      the per-function checks stay sound for any strategy mix and for
      code loaded mid-run (the dynamic certificate's function table
      covers arrivals). A function that executed checks but appears in
      no certificate is itself a violation.
    """
    violations = list(certificate.violations(stats))
    if metrics:
        measured = measured_function_checks(metrics)
        bounds = certificate.function_bounds_against(stats)
        covered = {f.function for f in certificate.functions}
        for name in sorted(measured):
            observed = measured[name]
            if name not in covered:
                violations.append(
                    f"function {name!r} executed {observed} check(s) "
                    "but the certificate does not cover it"
                )
                continue
            bound = bounds[name]
            if observed > bound:
                violations.append(
                    f"function {name!r} executed {observed} check(s), "
                    f"exceeding its certified bound {bound} "
                    f"({certificate.function_bound(name).formula})"
                )
    return ReconcileVerdict(
        ok=not violations,
        bound=certificate.bound_against(stats),
        observed=_stat(stats, "checks_executed"),
        formula=(
            "per function: checks_executed[f] <= cpe_f*(calls + "
            "threads_spawned + 1) + cpb_f*(backward_jumps + checks_taken)"
        ),
        violations=violations,
    )


def reconcile_manifest(manifest) -> ReconcileVerdict:
    """Re-validate an archived :class:`RunManifest` offline.

    Reads the certificate embedded under ``manifest.analysis`` and the
    stats dict recorded at run time; raises :class:`AnalysisError` when
    the manifest was produced without the auditor enabled.
    """
    payload = getattr(manifest, "analysis", None) or {}
    cert_payload = payload.get("certificate")
    if not cert_payload:
        raise AnalysisError(
            "manifest carries no cost certificate "
            "(was it written by ExperimentRunner with telemetry on?)"
        )
    certificate = CostCertificate.from_dict(cert_payload)
    return reconcile(certificate, manifest.stats)
