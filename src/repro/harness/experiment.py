"""Experiment runner: one place that composes workloads, instrumentation,
sampling strategies, triggers and the VM into measured runs.

Every benchmark in ``benchmarks/``, every table generator in
:mod:`repro.harness.tables` and every CLI verb that runs an instrumented
program goes through :class:`ExperimentRunner`, so they all share
baseline caching and the always-on tripwires: semantic preservation,
Property 1, the static audit and the cost-certificate reconciliation.
The baseline cache, the perf ledger, the worker pool, the exporters and
the instrumentation kinds a run does not use are imported only when a
run asks for them (docs/HARNESS.md, "Cold start").
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro import instrument
from repro.analysis import (
    AuditReport,
    IncrementalCertifier,
    Severity,
    audit_program,
    property1_vs_baseline,
    reconcile,
    reconcile_plan,
    reconcile_profile,
    reconcile_stream,
)
from repro.analysis.context import DUPLICATING_STRATEGIES
from repro.bytecode.program import Program
from repro.errors import HarnessError
from repro.harness.formatting import render_table
from repro.instrument.base import EmptyInstrumentation, Instrumentation
from repro.profiles.profile import Profile
from repro.profiling.decomposition import decompose
from repro.profiling.profiler import (
    DEFAULT_INTERVAL as DEFAULT_PROFILE_INTERVAL,
    OverheadProfiler,
)
from repro.sampling.framework import SamplingFramework, Strategy, TransformReport
from repro.sampling.triggers import make_trigger
from repro.profiles.overlap import overlap_percentage
from repro.telemetry.compaction import Record, inflate, sample_site_profile
from repro.telemetry.manifest import RunManifest, spec_as_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TelemetryRecorder
from repro.vm.cost_model import CostModel
from repro.vm.engine import resolve_engine
from repro.vm.interpreter import VM, VMResult
from repro.vm.tracing import ExecStats
from repro.workloads.suite import Workload, get_workload, workload_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.baseline_cache import BaselineCache
    from repro.profiling.ledger import PerfLedger

#: Default instruction budget for experiment runs.
DEFAULT_FUEL = 100_000_000


def _instrument_class(name: str) -> Callable[[], Instrumentation]:
    """A factory for ``repro.instrument.<name>``; the class's module
    loads when a spec first uses its kind."""
    return lambda: getattr(instrument, name)()


#: Registry of instrumentation kinds available to specs.
_INSTRUMENTATION_FACTORIES: Dict[str, Callable[[], Instrumentation]] = {
    "call-edge": _instrument_class("CallEdgeInstrumentation"),
    "field-access": _instrument_class("FieldAccessInstrumentation"),
    "block-count": _instrument_class("BlockCountInstrumentation"),
    "edge-profile": _instrument_class("EdgeProfileInstrumentation"),
    "param-value": _instrument_class("ParameterValueInstrumentation"),
    "path-profile": _instrument_class("PathProfileInstrumentation"),
    "branch-bias": _instrument_class("BranchBiasInstrumentation"),
    "cct": _instrument_class("CCTInstrumentation"),
    "none": EmptyInstrumentation,
}


def make_instrumentations(kinds: Tuple[str, ...]) -> List[Instrumentation]:
    """Fresh instrumentation objects for the given kind names."""
    try:
        return [_INSTRUMENTATION_FACTORIES[kind]() for kind in kinds]
    except KeyError as exc:
        raise HarnessError(
            f"unknown instrumentation kind {exc.args[0]!r}; available: "
            f"{sorted(_INSTRUMENTATION_FACTORIES)}"
        ) from None


@dataclass(frozen=True)
class RunSpec:
    """A fully described experiment configuration."""

    workload: str
    strategy: Strategy = Strategy.EXHAUSTIVE
    instrumentation: Tuple[str, ...] = ("call-edge",)
    trigger: str = "never"  # never | counter | timer | randomized
    interval: Optional[int] = None
    yieldpoint_opt: bool = False
    scale: Optional[int] = None
    timer_period: int = 100_000
    #: counter-trigger phase (first sample arrives ``interval - phase``
    #: checks in); used to average out deterministic aliasing
    phase: int = 0
    #: randomized-trigger seed; None derives a deterministic per-cell
    #: seed from the spec content (see :func:`cell_seed`)
    seed: Optional[int] = None
    #: per-function strategy assignment — sorted (function, strategy
    #: value) pairs, the hashable form a
    #: :meth:`~repro.analysis.planner.StrategyPlan.key` produces. When
    #: set, the program is transformed by
    #: :meth:`~repro.sampling.framework.SamplingFramework.transform` with
    #: these ``assignments`` and ``strategy`` as the default, audited
    #: under the per-function stamps, and reconciled per function
    #: (:func:`~repro.analysis.reconcile.reconcile_plan`).
    plan: Optional[Tuple[Tuple[str, str], ...]] = None
    #: consecutive loop iterations per sample (counted backedges;
    #: Full-Duplication only) — ``repro profile --iterations``
    sample_iterations: int = 1

    def family_key(self) -> Tuple[object, ...]:
        """The cell family: every field that shapes the transformed
        program. Specs that differ only in run-time fields (trigger,
        interval, phase, timer_period, seed) share one instrumented,
        verified and audited program within a :meth:`ExperimentRunner.
        run_many` batch."""
        return (
            self.workload,
            self.scale,
            self.strategy,
            self.instrumentation,
            self.yieldpoint_opt,
            self.plan,
            self.sample_iterations,
        )

    def describe(self) -> str:
        parts = [self.workload, self.strategy.value]
        if self.plan is not None:
            parts[1] = f"planned[{len(self.plan)}]/{self.strategy.value}"
        parts.append("+".join(self.instrumentation) or "none")
        if self.trigger != "never":
            parts.append(
                f"{self.trigger}"
                + (f"@{self.interval}" if self.interval else "")
            )
        if self.yieldpoint_opt:
            parts.append("yp-opt")
        return " / ".join(parts)


def cell_seed(spec: RunSpec) -> int:
    """A deterministic 32-bit seed derived from the cell's content.

    Used for the randomized-counter trigger so each cell perturbs its
    intervals differently, yet identically across processes, runs, and
    pool sizes. Intentionally *not* Python's ``hash`` (randomized per
    interpreter) and not derived from worker state.
    """
    payload = "|".join(
        [
            spec.workload,
            spec.strategy.value,
            ",".join(spec.instrumentation),
            spec.trigger,
            str(spec.interval),
            str(spec.scale),
            str(spec.timer_period),
            str(spec.phase),
            str(spec.yieldpoint_opt),
        ]
        # Planned cells mix per-function strategies, counted backedges
        # change the transformed program, and an explicit seed changes
        # the trigger, so all three are part of the cell's identity;
        # specs at their defaults keep their historical seeds.
        + ([str(spec.plan)] if spec.plan is not None else [])
        + ([f"seed={spec.seed}"] if spec.seed is not None else [])
        + (
            [f"iterations={spec.sample_iterations}"]
            if spec.sample_iterations != 1
            else []
        )
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class RunResult:
    """Everything measured from one configured run."""

    spec: RunSpec
    value: int
    cycles: int
    stats: ExecStats
    profiles: Dict[str, Profile] = field(default_factory=dict)
    transform_report: Optional[TransformReport] = None
    #: wall time of the family's single transform (every cell of a
    #: family reports the same figure; Table 2's ``xform ms`` column)
    transform_seconds: float = 0.0
    code_bytes: int = 0
    #: static audit of the transformed program, under the cell's label
    audit: Optional[AuditReport] = None
    #: provenance document when the runner has telemetry enabled
    #: (picklable, so pool workers ship it back with the result)
    manifest: Optional[RunManifest] = None
    #: VM execution wall time for this cell (the profiled span; excludes
    #: transform, audit and verification work around the run)
    vm_seconds: float = 0.0
    #: self-profiling payload when the runner has profiling enabled:
    #: {"snapshot", "decomposition", "bound"} — plain dicts, picklable
    profile: Optional[Dict[str, object]] = None
    #: retained telemetry stream when the runner has telemetry enabled
    #: — a tuple of Events, plus SuppressedRuns with compaction on;
    #: NamedTuples, so pool workers ship it back with the result
    records: Optional[Tuple[Record, ...]] = None
    #: path of the cell's live-export spool directory when the runner
    #: streams (``ExperimentRunner(stream=...)``); readable during and
    #: after the run with :class:`~repro.telemetry.SpoolReader`
    spool: Optional[str] = None


@dataclass
class _Family:
    """The work one cell family shares: its instrumentations, the
    transformed and verified program, and the program's static audit."""

    instrumentations: List[Instrumentation]
    program: Program
    report: Optional[TransformReport]
    seconds: float
    code_bytes: int
    audit: AuditReport


@dataclass
class CellRecord:
    """One computed experiment cell in the runner's timing log."""

    label: str
    seconds: float
    source: str  # "serial" | "pool:<pid>" | "baseline" | "baseline-cache"
    baseline_cache_hit: bool = False


class ExperimentRunner:
    """Caches per-workload baselines and runs configured experiments.

    Results are memoized per :class:`RunSpec` (cells are deterministic,
    so a repeat is always identical), baselines are additionally cached
    on disk when a persistent cache is configured, and batches of cells
    can be fanned out over worker processes via :meth:`run_many`, which
    transforms each cell family once (docs/HARNESS.md, "Cell families").

    Args:
        cost_model: shared cycle model (one per runner so baselines and
            variants are comparable).
        fuel: interpreter instruction budget per run.
        cache: persistent baseline cache — a :class:`BaselineCache`, a
            directory path, True for the default directory, False to
            disable. The default (None) enables the cache only when
            ``$REPRO_CACHE_DIR`` is set, so ad-hoc runners stay free of
            disk side effects.
        jobs: worker count for :meth:`run_many`; None defers to
            ``$REPRO_JOBS`` (else 1), <=0 means all cores.
        engine: VM execution engine for every cell ("fast",
            "reference", or "compiled"); None defers to
            ``$REPRO_ENGINE``, else the process default ("fast"). All
            engines produce bit-identical results, so the choice never
            appears in cache keys.
        telemetry: attach a :class:`TelemetryRecorder` to every
            configured run, keep its retained stream on
            :attr:`RunResult.records`, and build a :class:`RunManifest`
            per computed cell on :attr:`RunResult.manifest` (pool
            workers ship it back with the result). Telemetry never
            changes a cell's ExecStats/profiles — the differential test
            in tests/test_telemetry.py pins this on every workload.
        telemetry_capacity: per-run flight-recorder ring size.
        compaction: (with telemetry on) build the recorder with
            ``suppress=True``: runs of identical events collapse into
            suppression windows (so :attr:`RunResult.records` mixes
            events and windows), and every cell's manifest carries
            ``vm.telemetry.compaction.*`` metrics. The inflated
            stream is bit-equal to what a plain recorder retains, so no
            downstream consumer changes (docs/OBSERVABILITY.md).
        profile: attach an :class:`OverheadProfiler` to every configured
            run: each cell's manifest and :class:`RunResult` carry an
            overhead-decomposition report reconciled against the cell's
            VM wall time, and the profiler's Property-1-style sample
            bound is enforced per cell (violations raise
            :class:`HarnessError`). Profiling never changes a cell's
            ExecStats/profiles — pinned by tests/test_profiling.py.
        profile_interval: boundaries per profiler sample.
        ledger: continuous perf-regression ledger — a
            :class:`~repro.profiling.PerfLedger`, a path, or None to
            enable only when ``$REPRO_LEDGER`` is set. When active, the
            parent process appends one machine-normalized throughput
            record per computed cell (pool workers never append — their
            cells are recorded by the parent, so the ledger sees each
            cell exactly once).
        stream: directory for live telemetry export. When set, every
            configured run attaches a context-keyed
            :class:`~repro.telemetry.StreamingRecorder` that flushes
            epochs to a per-cell spool under this directory while the
            VM runs — implies ``telemetry`` and ``compaction``, and
            (with ``profile`` on) switches the profiler to CCT mode so
            spools carry per-context attribution. The spool path rides
            on :attr:`RunResult.spool` and in the manifest's telemetry
            section (``repro watch <spool>`` tails it live). The
            retained record stream and every end-of-run snapshot are
            bit-identical to a non-streaming context-keyed run —
            pinned by tests/test_streaming.py.

    Every run is checked, with no switch to turn the checks off: it
    must compute the baseline's value and output, duplicating
    strategies must satisfy Property 1 against the baseline run, the
    static auditor (:mod:`repro.analysis`) must pass the transformed
    program, and the run's counters must reconcile against the derived
    cost certificate. A failed check raises :class:`HarnessError`; the
    audit rides on :attr:`RunResult.audit` and, with telemetry on, the
    audit and verdict ride in the manifest's ``analysis`` section.

    The runner keeps a :class:`MetricsRegistry` in :attr:`metrics` for
    its own ``harness.*`` counters (cells, families, baseline-cache
    traffic including deltas reported back by pool workers), with
    telemetry on or off. A cell's VM metrics stay in its manifest.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        fuel: int = DEFAULT_FUEL,
        cache: Union[BaselineCache, str, bool, None] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        telemetry: bool = False,
        telemetry_capacity: int = 65536,
        compaction: bool = False,
        profile: bool = False,
        profile_interval: int = DEFAULT_PROFILE_INTERVAL,
        ledger: Union[PerfLedger, str, bool, None] = None,
        stream: Union[str, "os.PathLike", None] = None,
    ):
        if telemetry_capacity < 1:
            raise HarnessError(
                f"ring capacity must be >= 1, got {telemetry_capacity}"
            )
        if profile_interval < 1:
            raise HarnessError(
                f"profile interval must be >= 1, got {profile_interval}"
            )
        self.cost_model = cost_model or CostModel()
        self.fuel = fuel
        self.baseline_cache = _resolve_cache(cache)
        self.jobs = jobs
        self.engine = resolve_engine(engine)
        self.telemetry = bool(telemetry)
        self.telemetry_capacity = telemetry_capacity
        self.compaction = bool(compaction)
        self.profile = bool(profile)
        self.profile_interval = profile_interval
        self.ledger = resolve_ledger(ledger)
        self.stream = None if stream is None else str(stream)
        if self.stream is not None:
            # Streaming rides on the suppressing recorder, so it implies
            # the full telemetry stack.
            self.telemetry = True
            self.compaction = True
        self.metrics = MetricsRegistry()
        self._baselines: Dict[Tuple[str, Optional[int]], Tuple[Program, VMResult]] = {}
        self._run_memo: Dict[RunSpec, RunResult] = {}
        self.cell_log: List[CellRecord] = []
        self.memo_hits = 0

    # -- baselines -----------------------------------------------------------

    def baseline(
        self, workload_name: str, scale: Optional[int] = None
    ) -> Tuple[Program, VMResult]:
        """The workload's baseline program and its (cached) run.

        Lookup order: this runner's in-memory dict, then the persistent
        disk cache (keyed by program content + cost model + run
        config, so any config change is an automatic miss), then a
        fresh execution whose result is published to both.
        """
        key = (workload_name, scale)
        cached = self._baselines.get(key)
        if cached is not None:
            return cached
        workload: Workload = get_workload(workload_name)
        program = workload.compile(scale)
        started = time.perf_counter()
        result: Optional[VMResult] = None
        disk_key: Optional[str] = None
        cache_before = self._cache_counts()
        if self.baseline_cache is not None:
            from repro.harness.baseline_cache import baseline_key

            disk_key = baseline_key(
                program, self.cost_model, self.fuel, 100_000
            )
            result = self.baseline_cache.get(disk_key)
        from_disk = result is not None
        if result is None:
            result = VM(
                program, cost_model=self.cost_model, fuel=self.fuel,
                timer_period=100_000, engine=self.engine,
            ).run()
            if self.baseline_cache is not None and disk_key is not None:
                self.baseline_cache.put(
                    disk_key, result, label=f"{workload_name}/scale={scale}"
                )
        self._record_cache_counts(self._cache_delta(cache_before))
        self.cell_log.append(
            CellRecord(
                label=f"baseline:{workload_name}"
                + (f"@{scale}" if scale is not None else ""),
                seconds=time.perf_counter() - started,
                source="baseline-cache" if from_disk else "baseline",
                baseline_cache_hit=from_disk,
            )
        )
        self._baselines[key] = (program, result)
        return program, result

    def baseline_cycles(self, workload_name: str, scale: Optional[int] = None) -> int:
        return self.baseline(workload_name, scale)[1].stats.cycles

    # -- metrics plumbing ----------------------------------------------------

    _CACHE_COUNTERS = ("hits", "misses", "stores")

    def _cache_counts(self) -> Tuple[int, ...]:
        cache = self.baseline_cache
        if cache is None:
            return (0, 0, 0)
        return tuple(
            getattr(cache.stats, name) for name in self._CACHE_COUNTERS
        )

    def _cache_delta(self, before: Tuple[int, ...]) -> Tuple[int, ...]:
        """Baseline-cache hits, misses and stores since *before*."""
        return tuple(a - b for a, b in zip(self._cache_counts(), before))

    def _record_cache_counts(self, counts: Tuple[int, ...]) -> None:
        """Fold baseline-cache hits, misses and stores into the
        registry: this runner's own, or those a pool worker reports
        (its cache handle is not ours, so its activity is only visible
        through these counts)."""
        for name, amount in zip(self._CACHE_COUNTERS, counts):
            if amount > 0:
                self.metrics.counter(
                    f"harness.baseline_cache.{name}"
                ).inc(amount)

    def _ledger_append(self, run_result: RunResult) -> None:
        """One perf-ledger record per computed cell (parent-side only:
        pool workers drop their copy's ledger, so each cell is recorded
        exactly once, when the parent keeps it)."""
        if self.ledger is None or run_result.vm_seconds <= 0:
            return
        from repro.profiling.ledger import make_record

        spec = run_result.spec
        stats = run_result.stats
        self.ledger.append(
            make_record(
                bench="harness",
                key=f"{spec.workload}/{spec.strategy.value}/{self.engine}",
                metric="vm_instr_per_sec",
                value=stats.instructions / run_result.vm_seconds,
                meta={
                    "trigger": spec.trigger,
                    "interval": spec.interval,
                    "instrumentation": list(spec.instrumentation),
                    "profiled": run_result.profile is not None,
                },
            )
        )
        self.metrics.counter("harness.ledger.appends").inc()

    # -- configured runs ----------------------------------------------------------

    def _spool_path(self, spec: RunSpec) -> str:
        """Per-cell spool directory under :attr:`stream`.

        The name combines the human-readable spec description with the
        cell's content seed, so it is stable across processes (pool
        workers derive the same path) yet unique per cell.
        """
        safe = re.sub(r"[^A-Za-z0-9@.+=_-]+", "-", spec.describe())
        return os.path.join(
            self.stream, f"{safe.strip('-')}-{cell_seed(spec):08x}"
        )

    def run(self, spec: RunSpec) -> RunResult:
        """Transform per *spec*, execute, verify, and measure.

        Results are memoized: cells are deterministic, so a repeated
        spec returns the first computation's result unchanged. A lone
        call is a batch of one cell (:meth:`run_many`).
        """
        return self.run_many([spec])[0]

    def _family(
        self, spec: RunSpec, program: Program, families: Dict[tuple, _Family]
    ) -> _Family:
        """*spec*'s family from the batch map, transformed, verified and
        audited on first use; its instrumentations are reset, so the
        cell about to run records into empty profiles."""
        key = spec.family_key()
        family = families.get(key)
        if family is None:
            family = families[key] = self._transform(spec, program)
        for instrumentation in family.instrumentations:
            instrumentation.reset()
        return family

    def _transform(self, spec: RunSpec, program: Program) -> _Family:
        """Instrument, transform, verify and audit one family's program."""
        instrumentations = make_instrumentations(spec.instrumentation)
        framework = SamplingFramework(
            spec.strategy,
            yieldpoint_opt=spec.yieldpoint_opt,
            sample_iterations=spec.sample_iterations,
        )
        if spec.plan is not None and spec.sample_iterations > 1:
            # Counted backedges need Full-Duplication in every function.
            raise HarnessError(
                f"{spec.describe()}: sample_iterations="
                f"{spec.sample_iterations} counts backedges, which "
                "needs Full-Duplication, but a strategy plan mixes "
                "strategies"
            )
        t0 = time.perf_counter()
        transformed = framework.transform(
            program, instrumentations, assignments=dict(spec.plan or ())
        )
        seconds = time.perf_counter() - t0

        audit_report = audit_program(
            transformed,
            strategy=_expected_strategy(spec),
            label=spec.describe(),
        )
        if not audit_report.ok:
            raise HarnessError(
                f"{spec.describe()}: static audit failed\n"
                + audit_report.render()
            )
        return _Family(
            instrumentations=instrumentations,
            program=transformed,
            report=framework.last_report,
            seconds=seconds,
            code_bytes=transformed.total_code_size_bytes(),
            audit=audit_report,
        )

    def _compute(
        self, spec: RunSpec, families: Dict[tuple, _Family]
    ) -> Tuple[RunResult, CellRecord]:
        """Compute one cell: transform its family (looked up in, and
        added to, the batch map *families*), run, check, and build the
        manifest. Of the runner's state it touches only the baselines
        (with their log records and cache counts), so a pool worker's
        copy of the runner computes what the parent would; :meth:`_keep`
        keeps the cell."""
        cell_started = time.perf_counter()
        program, base_result = self.baseline(spec.workload, spec.scale)
        family = self._family(spec, program, families)
        transformed = family.program
        audit_report = _relabeled(family.audit, spec.describe())

        # Dynamic programs change their function table mid-run, so the
        # pre-run certificate stops describing the executed code: an
        # incremental certifier audits every loaded/replaced function at
        # its load event and maintains the certificate by deltas,
        # starting from the family audit's per-function bounds.
        certifier: Optional[IncrementalCertifier] = None
        if transformed.is_dynamic():
            certifier = IncrementalCertifier.from_certificate(
                audit_report.certificate,
                strategy=_expected_strategy(spec),
                label=spec.describe(),
            )

        # A bad interval or timer period ends here as a HarnessError,
        # not as a traceback from the trigger or the engine.
        if spec.timer_period < 1:
            raise HarnessError(
                f"{spec.describe()}: timer period must be >= 1, "
                f"got {spec.timer_period}"
            )
        seed_used: Optional[int] = spec.seed
        options: Dict[str, int] = {}
        if spec.trigger == "counter" and spec.phase:
            options["phase"] = spec.phase
        elif spec.trigger == "randomized":
            # Deterministic per-cell seeding: the jitter stream is a
            # pure function of the spec (or an explicit seed), so the
            # cell's result is independent of process, order, and pool
            # size.
            seed_used = spec.seed if spec.seed is not None else cell_seed(spec)
            options["seed"] = seed_used
        try:
            trigger = make_trigger(spec.trigger, spec.interval, **options)
        except ValueError as exc:
            raise HarnessError(f"{spec.describe()}: {exc}") from None
        profiler = (
            OverheadProfiler(
                interval=self.profile_interval,
                cct=self.stream is not None,
            )
            if self.profile
            else None
        )
        recorder: Optional[TelemetryRecorder] = None
        if self.stream is not None:
            from repro.telemetry.streaming import StreamingRecorder

            recorder = StreamingRecorder(
                self._spool_path(spec),
                capacity=self.telemetry_capacity,
                profiler=profiler,
                label=spec.describe(),
                meta={
                    "workload": spec.workload,
                    "strategy": spec.strategy.value,
                    "engine": self.engine,
                    "trigger": spec.trigger,
                    "interval": spec.interval,
                    "instrumentation": list(spec.instrumentation),
                },
            )
        elif self.telemetry:
            recorder = TelemetryRecorder(
                self.telemetry_capacity, suppress=self.compaction
            )
        vm_started = time.perf_counter()
        vm = VM(
            transformed,
            cost_model=self.cost_model,
            trigger=trigger,
            timer_period=spec.timer_period,
            fuel=self.fuel,
            engine=self.engine,
            recorder=recorder,
            profiler=profiler,
        )
        if certifier is not None:
            certifier.attach(vm)
        result = vm.run()
        vm_seconds = time.perf_counter() - vm_started

        if result.value != base_result.value or (
            result.output != base_result.output
        ):
            raise HarnessError(
                f"{spec.describe()}: transformed program diverged "
                f"(value {result.value} vs {base_result.value})"
            )
        duplicating = not DUPLICATING_STRATEGIES.isdisjoint(
            [spec.strategy.value, *dict(spec.plan or ()).values()]
        )
        if duplicating and not property1_vs_baseline(
            result.stats, base_result.stats
        ):
            raise HarnessError(
                f"{spec.describe()}: Property 1 violated "
                f"(checks={result.stats.checks_executed}, "
                f"bound={base_result.stats.check_opportunities})"
            )
        # Planned (mixed-strategy) runs reconcile per function: with
        # telemetry on, each function's measured check count is held to
        # its own certified bound (a no-duplication function must never
        # execute a CHECK); without telemetry the whole-program bound
        # still applies.
        plan_metrics = (
            recorder.metrics.snapshot()
            if spec.plan is not None and recorder is not None
            else None
        )
        # Dynamic programs are reconciled against the incrementally
        # maintained certificate: code loaded mid-run can introduce
        # checks the pre-run (static) certificate never promised.
        if certifier is not None and not certifier.ok:
            raise HarnessError(
                f"{spec.describe()}: dynamically loaded code failed "
                f"its audit ({certifier.loads} load(s), "
                f"{certifier.replaces} replace(s))"
            )
        certificate = (
            certifier.dynamic_certificate()
            if certifier is not None
            else audit_report.certificate
        )
        verdict = (
            reconcile_plan(certificate, result.stats, plan_metrics)
            if spec.plan is not None
            else reconcile(certificate, result.stats)
        )
        if not verdict.ok:
            self.metrics.counter(
                "harness.audit.reconcile_violations"
            ).inc(len(verdict.violations))
            raise HarnessError(
                f"{spec.describe()}: run contradicts its "
                + ("incremental " if certifier is not None else "")
                + "cost certificate: "
                + "; ".join(verdict.violations)
            )

        profile_payload: Optional[Dict[str, object]] = None
        if profiler is not None:
            snapshot = profiler.snapshot()
            prof_verdict = reconcile_profile(snapshot)
            if not prof_verdict.ok:
                raise HarnessError(
                    f"{spec.describe()}: profiler sample bound violated: "
                    + "; ".join(prof_verdict.violations)
                )
            decomposition = decompose(snapshot, measured_wall=vm_seconds)
            profile_payload = {
                "snapshot": snapshot,
                "decomposition": decomposition.as_dict(),
                "bound": prof_verdict.as_dict(),
            }

        # Copies: the family's instrumentations record the next cell too.
        profiles = {
            instr.profile.name: instr.profile.copy()
            for instr in family.instrumentations
        }
        run_result = RunResult(
            spec=spec,
            value=result.value,
            cycles=result.stats.cycles,
            stats=result.stats,
            profiles=profiles,
            transform_report=family.report,
            transform_seconds=family.seconds,
            code_bytes=family.code_bytes,
            audit=audit_report,
            vm_seconds=vm_seconds,
            profile=profile_payload,
        )
        cell_seconds = time.perf_counter() - cell_started
        if recorder is not None:
            # Ring occupancy / eviction / compaction counters become
            # first-class metrics before the snapshot is frozen into the
            # manifest.
            recorder.sync_metrics()
            if self.stream is not None:
                # Seal the spool after metrics are frozen and before the
                # manifest snapshot is taken, so the spool's merged
                # end-of-run state and the manifest agree bit-for-bit.
                recorder.close()
                run_result.spool = str(recorder.writer.path)
            run_result.records = recorder.records()
            run_result.manifest = RunManifest(
                spec=spec_as_dict(spec),
                engine=self.engine,
                trigger=trigger.config(),
                seed=seed_used,
                cycles=result.stats.cycles,
                value=result.value,
                wall_seconds=cell_seconds,
                stats=result.stats.as_dict(),
                metrics=recorder.metrics.snapshot(),
                telemetry=recorder.summary(),
                source="serial",
                analysis={
                    "ok": audit_report.ok,
                    "errors": audit_report.count(Severity.ERROR),
                    "warnings": audit_report.count(Severity.WARNING),
                    "certificate": audit_report.certificate.as_dict(),
                    "verdict": verdict.as_dict(),
                    "incremental": (
                        certifier.as_dict() if certifier is not None else None
                    ),
                },
                profiling=profile_payload or {},
                plan=_plan_section(spec),
            )
        return run_result, CellRecord(spec.describe(), cell_seconds, "serial")

    def _keep(self, result: RunResult, record: CellRecord) -> None:
        """Keep one computed cell, wherever it ran: memoize it (the
        memoized result is the one store of its manifest and profile)
        and set its manifest's source, count it, append it to the
        ledger and log it."""
        self._run_memo[result.spec] = result
        if result.manifest is not None:
            result.manifest.source = record.source
        self.metrics.counter("harness.audit.cells").inc()
        if result.audit.findings:
            self.metrics.counter("harness.audit.findings").inc(
                len(result.audit.findings)
            )
        self.metrics.counter("harness.audit.reconciled").inc()
        if result.profile is not None:
            self.metrics.counter("harness.profile.cells").inc()
        if result.spool is not None:
            self.metrics.counter("harness.stream.cells").inc()
        self._ledger_append(result)
        self.cell_log.append(record)

    # -- batched / parallel execution ---------------------------------------------

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Run every spec; the returned list matches *specs*
        positionally.

        The batch transforms each cell family (:meth:`RunSpec.
        family_key`) once: its cells share the instrumented, verified
        and audited program, which is dropped when the batch returns.
        When the uncomputed cells span two or more families and the
        runner has more than one job, the families run on worker
        processes, one task each. Cells are deterministic, so the
        outcome is bit-identical to a serial loop regardless of the
        worker count; only wall time changes.
        """
        pending = list(
            dict.fromkeys(spec for spec in specs if spec not in self._run_memo)
        )
        self.memo_hits += len(specs) - len(pending)
        families = len({spec.family_key() for spec in pending})
        if families:
            self.metrics.counter("harness.transform.families").inc(families)
        jobs = 1
        if families > 1:
            from repro.harness.parallel import effective_jobs

            jobs = effective_jobs(self.jobs)
        if jobs > 1:
            from repro.harness.parallel import run_specs

            for result, record, cache_counts in run_specs(self, pending, jobs):
                self._record_cache_counts(cache_counts)
                self._keep(result, record)
        else:
            shared: Dict[tuple, _Family] = {}
            for spec in pending:
                self._keep(*self._compute(spec, shared))
        return [self._run_memo[spec] for spec in specs]

    # -- reporting ----------------------------------------------------------------

    def timing_report(self, top: int = 15) -> str:
        """Human-readable per-cell timing / cache-hit accounting."""
        computed = [rec for rec in self.cell_log]
        rows = [
            [
                rec.label,
                rec.seconds * 1000.0,
                rec.source,
                "hit" if rec.baseline_cache_hit else "-",
            ]
            for rec in sorted(
                computed, key=lambda rec: -rec.seconds
            )[:top]
        ]
        text = render_table(
            ["cell", "ms", "source", "baseline-cache"],
            rows,
            title=f"Harness timing: {top} slowest of "
            f"{len(computed)} computed cells",
            decimals=1,
        )
        pool_cells = sum(
            1 for rec in computed if rec.source.startswith("pool:")
        )
        workers = len(
            {rec.source for rec in computed if rec.source.startswith("pool:")}
        )
        baselines = sum(
            1 for rec in computed if rec.source.startswith("baseline")
        )
        lines = [
            text,
            f"  cells computed: {len(computed)} "
            f"({pool_cells} in pool across {workers} worker(s)), "
            f"memo hits: {self.memo_hits}",
            f"  compute seconds: "
            f"{sum(rec.seconds for rec in computed):.2f}",
            f"  transforms: "
            f"{self._metric_value('harness.transform.families')} for "
            f"{len(computed) - baselines} cells",
        ]
        if self.baseline_cache is not None:
            # Sourced from the metrics registry, not the cache handle:
            # the registry also accumulates the deltas pool workers
            # report back, which the parent's handle never sees.
            hits, misses, stores = (
                self._metric_value(f"harness.baseline_cache.{name}")
                for name in self._CACHE_COUNTERS
            )
            lines.append(
                f"  baseline cache [{self.baseline_cache.directory}]: "
                f"{hits} hit(s), {misses} miss(es), "
                f"{stores} store(s)"
            )
        else:
            lines.append("  baseline cache: disabled")
        return "\n".join(lines)

    def _metric_value(self, key: str) -> int:
        instrument = self.metrics.get(key)
        return instrument.value if instrument is not None else 0

    # -- derived measures ---------------------------------------------------------

    def overhead_pct(self, spec: RunSpec) -> float:
        """Total overhead of *spec* relative to the baseline, percent."""
        result = self.run(spec)
        base = self.baseline_cycles(spec.workload, spec.scale)
        return overhead_percent(base, result.cycles)

    def perfect_profiles(
        self,
        workload_name: str,
        instrumentation: Tuple[str, ...],
        scale: Optional[int] = None,
        strategy: Strategy = Strategy.FULL_DUPLICATION,
    ) -> Dict[str, Profile]:
        """The paper's *perfect profile*: the given strategy run at
        sample interval 1, "causing all execution to occur in
        duplicated code" (§4.4). Sampled profiles are compared against
        the same strategy's interval-1 profile, so the overlap metric
        isolates sampling degradation.
        """
        result = self.run(
            RunSpec(
                workload=workload_name,
                strategy=strategy,
                instrumentation=instrumentation,
                trigger="counter",
                interval=1,
                scale=scale,
            )
        )
        return result.profiles

    # -- compaction accuracy -------------------------------------------------

    def compaction_accuracy(
        self, spec: RunSpec, perfect_interval: int = 1
    ) -> Dict[str, object]:
        """Measure what suppression + compact encoding cost in accuracy
        and bought in bytes for one cell.

        Runs *spec* with the suppressing recorder, plus the same cell at
        ``perfect_interval`` (the §4.4 perfect-profile configuration),
        and reports:

        * ``overlap_percentage`` — §4.4 overlap between the sample-site
          profile of the suppressed stream and of the exact
          (interval-``perfect_interval``) stream;
        * ``compaction_ratio`` — plain-JSONL bytes of the inflated
          stream over compact-JSONL bytes of the suppressed stream;
        * ``roundtrip_ok`` — the compact encoding re-inflated
          bit-equal to the original events;
        * ``stream_ok`` — the stream reconciles against the run's
          ExecStats sample counters (:func:`reconcile_stream`).

        The report also lands in the cell manifest's
        ``telemetry["compaction_accuracy"]`` section, so the cell
        carries its own accuracy evidence.
        """
        if not (self.telemetry and self.compaction):
            raise HarnessError(
                "compaction_accuracy needs ExperimentRunner("
                "telemetry=True, compaction=True)"
            )
        from repro.telemetry.exporters import (
            compact_jsonl_to_records,
            events_to_jsonl,
            records_to_compact_jsonl,
        )

        result = self.run(spec)
        records = result.records or ()
        perfect = self.run(
            replace(
                spec, trigger="counter", interval=perfect_interval,
                phase=0, seed=None,
            )
        )
        exact_profile = sample_site_profile(
            perfect.records or (), name="exact"
        )
        sampled_profile = sample_site_profile(records, name="suppressed")
        events = inflate(records)
        raw_bytes = len(events_to_jsonl(events).encode("utf-8"))
        compact_text = records_to_compact_jsonl(records)
        compact_bytes = len(compact_text.encode("utf-8"))
        roundtrip_ok = (
            inflate(compact_jsonl_to_records(compact_text)) == events
        )
        telemetry = (
            result.manifest.telemetry if result.manifest is not None else {}
        )
        dropped_events = int(telemetry.get("dropped_events", 0))
        stream_verdict = reconcile_stream(
            result.stats, records, dropped_events=dropped_events
        )
        report: Dict[str, object] = {
            "label": spec.describe(),
            "engine": self.engine,
            "interval": spec.interval,
            "perfect_interval": perfect_interval,
            "events": len(events),
            "records": len(records),
            "dropped_events": dropped_events,
            "raw_bytes": raw_bytes,
            "compact_bytes": compact_bytes,
            "compaction_ratio": (
                round(raw_bytes / compact_bytes, 3) if compact_bytes else 1.0
            ),
            "overlap_percentage": round(
                overlap_percentage(exact_profile, sampled_profile), 3
            ),
            "roundtrip_ok": roundtrip_ok,
            "stream_ok": stream_verdict.ok,
        }
        self.metrics.counter("harness.compaction.cells").inc()
        if result.manifest is not None:
            result.manifest.telemetry["compaction_accuracy"] = report
        return report

    def compaction_matrix(
        self,
        workloads: Optional[Sequence[str]] = None,
        strategies: Optional[Sequence[Strategy]] = None,
        instrumentation: Tuple[str, ...] = ("call-edge",),
        interval: int = 1000,
        scale: Optional[int] = None,
        perfect_interval: int = 1,
    ) -> List[Dict[str, object]]:
        """The workload × strategy accuracy matrix: one
        :meth:`compaction_accuracy` report per cell, full suite and
        :data:`COMPACTION_MATRIX_STRATEGIES` by default. Every cell and
        its perfect-interval twin run in one :meth:`run_many` batch."""
        if workloads is None:
            workloads = workload_names()
        if strategies is None:
            strategies = COMPACTION_MATRIX_STRATEGIES
        specs = [
            RunSpec(
                workload=name,
                strategy=strategy,
                instrumentation=instrumentation,
                trigger="counter",
                interval=interval,
                scale=scale,
            )
            for name in workloads
            for strategy in strategies
        ]
        self.run_many(
            specs + [replace(s, interval=perfect_interval) for s in specs]
        )
        return [
            self.compaction_accuracy(spec, perfect_interval=perfect_interval)
            for spec in specs
        ]


#: Strategies covered by the compaction accuracy matrix: the three
#: sampled code-duplication variants (exhaustive runs never sample, and
#: checks-only strategies are covered by the per-cell CLI path).
COMPACTION_MATRIX_STRATEGIES: Tuple[Strategy, ...] = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def _expected_strategy(spec: RunSpec) -> Optional[str]:
    """The strategy a cell's audit expects. Planned programs mix
    strategies, so their per-function ``notes["sampling"]`` stamps are
    authoritative (a single expected strategy would raise AUD009
    mismatches)."""
    return None if spec.plan is not None else spec.strategy.value


def _relabeled(report: AuditReport, label: str) -> AuditReport:
    """The family's audit under one cell's label: findings and bounds
    belong to the shared program, the label to the cell."""
    certificate = report.certificate
    return replace(
        report,
        label=label,
        certificate=(
            replace(certificate, label=label)
            if certificate is not None
            else None
        ),
    )


def _plan_section(spec: RunSpec) -> Dict[str, object]:
    """The manifest's ``plan`` section for one cell (empty when the
    spec carries no per-function assignment)."""
    if spec.plan is None:
        return {}
    assignments = dict(spec.plan)
    counts: Dict[str, int] = {}
    for value in assignments.values():
        counts[value] = counts.get(value, 0) + 1
    return {
        "default": spec.strategy.value,
        "assignments": assignments,
        "strategies": counts,
    }


def _resolve_cache(
    cache: Union[BaselineCache, str, bool, None]
) -> Optional[BaselineCache]:
    """Interpret the runner's ``cache`` argument (see its docstring).
    The cache module loads only when a cache is asked for, which is why
    ``$REPRO_CACHE_DIR`` (``baseline_cache.CACHE_DIR_ENV``) is spelled
    out here."""
    if cache is None:
        cache = os.environ.get("REPRO_CACHE_DIR") or False
    if cache is False:
        return None
    from repro.harness.baseline_cache import BaselineCache

    if cache is True:
        return BaselineCache()
    if isinstance(cache, BaselineCache):
        return cache
    return BaselineCache(cache)


def resolve_ledger(
    ledger: Union[PerfLedger, str, os.PathLike, bool, None]
) -> Optional[PerfLedger]:
    """Interpret a ledger argument: a PerfLedger passes through, a path
    builds one, ``None`` falls back to ``$REPRO_LEDGER`` (else None),
    ``False`` disables explicitly, ``True`` means the default filename
    in cwd. Like :func:`_resolve_cache`, it loads the ledger module only
    when a ledger is asked for, so ``$REPRO_LEDGER``
    (``ledger.LEDGER_ENV``) is spelled out here."""
    if ledger is None:
        ledger = os.environ.get("REPRO_LEDGER", "").strip() or False
    if ledger is False:
        return None
    from repro.profiling.ledger import LEDGER_FILENAME, PerfLedger

    if ledger is True:
        return PerfLedger(LEDGER_FILENAME)
    if isinstance(ledger, PerfLedger):
        return ledger
    return PerfLedger(ledger)


def overhead_percent(baseline_cycles: int, cycles: int) -> float:
    """100 * (cycles / baseline - 1)."""
    if baseline_cycles <= 0:
        raise HarnessError("baseline has no cycles")
    return 100.0 * (cycles / baseline_cycles - 1.0)
