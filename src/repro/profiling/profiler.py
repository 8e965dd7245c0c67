"""The self-sampling overhead profiler: the paper's trigger, aimed at us.

The framework's central artifact is a *counter-based sampling trigger*
(Figure 3): a global counter decremented at every check; reaching zero
takes a sample and resets the counter. :class:`OverheadProfiler`
dogfoods exactly that mechanism against the host interpreters
themselves. Both engines expose the same *observer boundaries* they
already use for cycle accounting and telemetry (CHECK, GUARDED_INSTR,
INSTR, YIELDPOINT, and every other segment head); the profiler polls a
:class:`~repro.sampling.triggers.CounterTrigger` at each boundary and,
when it fires, attributes the wall-clock time since the previous sample
to the *component* the VM was executing:

========== =================================================================
component  meaning
========== =================================================================
dispatch   plain bytecode execution (checking/original code)
compiled   plain execution inside compiled-tier generated regions
           (``engine="compiled"``), so transpiled code never inflates
           ``dispatch``
check      an unfired CHECK or GUARDED_INSTR: check evaluation plus its
           trigger poll
dup        plain dispatch while the thread is resident in duplicated code
trampoline a fired CHECK: the transfer into duplicated code
payload    instrumentation payload execution (INSTR; a fired GUARDED_INSTR)
poll       YIELDPOINT scheduling polls and virtual-timer machinery
runtime    head/tail residue outside sampled execution: engine compilation
           before the first boundary, scheduler teardown after the last
========== =================================================================

Because every inter-sample wall-clock delta is attributed to exactly one
component, the component sum *partitions* the profiled span — the
overhead-decomposition report reconciles against measured wall time by
construction, not by luck (tolerance covers only clock-call jitter).

The profiler's own cost obeys a Property-1-style bound inherited from
the trigger it reuses: ``samples <= boundaries // interval + 1``
(checked by :func:`repro.analysis.reconcile_profile`, and enforced per
cell by the experiment harness). With the profiler detached or disabled
the fast engine compiles **zero** profiling branches — the disabled
path is gated at <=2% next to the null-recorder gate in CI.

Snapshots are plain JSON-able dicts whose merge
(:func:`merge_snapshots`) is associative and commutative, so pool
workers' profiles fold together in any grouping — the same contract
metrics snapshots honour (docs/PROFILING.md).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.bytecode.opcodes import Op
from repro.sampling.triggers import CounterTrigger

#: Attribution components, in rendering order.
COMPONENTS: Tuple[str, ...] = (
    "dispatch",
    "compiled",
    "check",
    "dup",
    "trampoline",
    "payload",
    "poll",
    "runtime",
)

#: Snapshot schema version (bump on incompatible layout changes).
SNAPSHOT_VERSION = 1

#: Default profiler sample interval (boundaries per sample). Small by
#: design: boundaries are orders of magnitude rarer than instructions,
#: and each sample is cheap (one clock read plus dict bumps).
DEFAULT_INTERVAL = 64

_CHECK_OP = int(Op.CHECK)
_GUARDED_OP = int(Op.GUARDED_INSTR)
_INSTR_OP = int(Op.INSTR)
_YIELDPOINT_OP = int(Op.YIELDPOINT)


class OverheadProfiler:
    """Counter-based sampling profiler over the VM's observer boundaries.

    Args:
        interval: boundaries per sample — the paper's sample interval,
            driving a private :class:`CounterTrigger` (never the VM's
            own sampling trigger, so guest sampling is unperturbed).
        enabled: start disabled to measure the null path; a disabled
            profiler compiles no hooks into the fast engine and adds a
            single predictable branch to the reference ladder.
        clock: injectable time source (tests substitute a fake clock to
            make wall attribution deterministic).
        cct: additionally fold every sample into a first-class
            :class:`~repro.profiling.cct.CallingContextTree`, splitting
            each calling context's samples by overhead component
            (check/dispatch/payload/...). The tree surfaces as a gated
            ``"cct"`` snapshot subdict that merges associatively like
            every other table; off by default so plain snapshots are
            byte-for-byte unchanged.

    The hot surface is three methods the engines call at boundaries —
    :meth:`boundary`, :meth:`check_boundary`, :meth:`guarded_boundary` —
    everything else is cold reporting.
    """

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        cct: bool = False,
    ):
        self.interval = interval
        self.enabled = enabled
        self.trigger = CounterTrigger(interval)
        self._clock = clock
        self.wall: Dict[str, float] = {c: 0.0 for c in COMPONENTS}
        self.sample_counts: Dict[str, int] = {c: 0 for c in COMPONENTS}
        #: (function name, pc) -> samples landing on that block head
        self.heat: Dict[Tuple[str, int], int] = {}
        #: opcode int -> samples landing on that opcode
        self.op_heat: Dict[int, int] = {}
        #: calling-context tuple (root..leaf function names) -> [samples, wall]
        self.stacks: Dict[Tuple[str, ...], list] = {}
        if cct:
            from repro.profiling.cct import CallingContextTree

            self.cct: Optional[CallingContextTree] = CallingContextTree()
        else:
            self.cct = None
        self.elapsed_seconds = 0.0
        self.runs = 0
        #: tids currently resident in duplicated code (mirrors the
        #: telemetry recorder's per-thread dup spans)
        self._dup: set = set()
        self._last: Optional[float] = None
        self._run_started: Optional[float] = None

    # -- lifecycle (called by VM.run) ---------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def start(self) -> None:
        """Open a profiled span. The VM calls this on entry to ``run()``
        so engine compilation and scheduling are inside the span."""
        now = self._clock()
        self._run_started = now
        self._last = now
        self.runs += 1

    def stop(self) -> None:
        """Close the span: the tail since the last sample is attributed
        to ``runtime`` so the component sum keeps partitioning the span."""
        if self._run_started is None:
            return
        now = self._clock()
        if self._last is not None:
            self.wall["runtime"] += now - self._last
        self.elapsed_seconds += now - self._run_started
        self._run_started = None
        self._last = None
        self._dup.clear()

    # -- hot boundary hooks --------------------------------------------------

    def boundary(self, component, function, pc, op, frames, tid) -> None:
        """One observer boundary of *component*; polls the counter."""
        if self.trigger.poll():
            self._take(component, function, pc, op, frames, tid)

    def check_boundary(self, fired, function, pc, frames, tid) -> None:
        """A CHECK executed. Maintains duplicated-code residency exactly
        like the telemetry recorder: any check boundary ends a resident
        span; a fired check begins one."""
        dup = self._dup
        if tid in dup:
            dup.discard(tid)
        if fired:
            dup.add(tid)
        self.boundary(
            "trampoline" if fired else "check",
            function, pc, _CHECK_OP, frames, tid,
        )

    def guarded_boundary(self, fired, function, pc, frames, tid) -> None:
        """A GUARDED_INSTR executed (fired = payload ran)."""
        self.boundary(
            "payload" if fired else "check",
            function, pc, _GUARDED_OP, frames, tid,
        )

    def _take(self, component, function, pc, op, frames, tid) -> None:
        if tid in self._dup and (
            component == "dispatch" or component == "compiled"
        ):
            component = "dup"
        now = self._clock()
        last = self._last
        delta = now - last if last is not None else 0.0
        self._last = now
        stack = tuple(f.function.name for f in frames)
        self.wall[component] += delta
        self.sample_counts[component] += 1
        key = (function, pc)
        heat = self.heat
        heat[key] = heat.get(key, 0) + 1
        op_heat = self.op_heat
        op_heat[op] = op_heat.get(op, 0) + 1
        cell = self.stacks.get(stack)
        if cell is None:
            self.stacks[stack] = [1, delta]
        else:
            cell[0] += 1
            cell[1] += delta
        if self.cct is not None:
            self.cct.record(stack, component, 1, delta)

    # -- cold read side ------------------------------------------------------

    @property
    def samples(self) -> int:
        return self.trigger.samples_triggered

    @property
    def boundaries(self) -> int:
        return self.trigger.checks_polled

    def bound(self) -> int:
        """The Property-1-style cap on profiling work: at most one sample
        per *interval* boundaries, plus the in-flight countdown."""
        return self.boundaries // self.interval + 1

    def bound_holds(self) -> bool:
        return self.samples <= self.bound()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able, associatively mergeable state dump.

        ``heat`` keys render as ``function@pc`` and ``op_heat`` keys as
        opcode names so snapshots are self-describing in manifests.
        """
        elapsed = self.elapsed_seconds
        if self._run_started is not None:  # span still open
            elapsed += self._clock() - self._run_started
        snap = {
            "version": SNAPSHOT_VERSION,
            "interval": self.interval,
            "runs": self.runs,
            "boundaries": self.boundaries,
            "samples": self.samples,
            "elapsed_seconds": elapsed,
            "wall_seconds": {c: self.wall[c] for c in COMPONENTS},
            "sample_counts": {c: self.sample_counts[c] for c in COMPONENTS},
            "heat": {
                f"{fn}@{pc}": n
                for (fn, pc), n in sorted(self.heat.items())
            },
            "op_heat": {
                Op(op).name: n for op, n in sorted(self.op_heat.items())
            },
            "stacks": {
                ";".join(stack): [n, wall]
                for stack, (n, wall) in sorted(self.stacks.items())
            },
        }
        if self.cct is not None:
            # Gated, so plain snapshots are byte-for-byte unchanged;
            # sorted like "stacks".
            table = self.cct.snapshot()
            snap["cct"] = {
                key: table[key] for key in sorted(table)
            }
        return snap


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots into one; associative and commutative.

    Counts and wall times add; ``interval`` survives only if every input
    agrees (mixed-interval merges keep ``None`` — the merged bound is no
    longer a single formula). An empty iterable yields an empty-profile
    snapshot.
    """
    merged: Dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "interval": None,
        "runs": 0,
        "boundaries": 0,
        "samples": 0,
        "elapsed_seconds": 0.0,
        "wall_seconds": {c: 0.0 for c in COMPONENTS},
        "sample_counts": {c: 0 for c in COMPONENTS},
        "heat": {},
        "op_heat": {},
        "stacks": {},
    }
    first = True
    for snap in snapshots:
        if first:
            merged["interval"] = snap.get("interval")
            first = False
        elif merged["interval"] != snap.get("interval"):
            merged["interval"] = None
        merged["runs"] += snap.get("runs", 0)
        merged["boundaries"] += snap.get("boundaries", 0)
        merged["samples"] += snap.get("samples", 0)
        merged["elapsed_seconds"] += snap.get("elapsed_seconds", 0.0)
        for comp, value in snap.get("wall_seconds", {}).items():
            merged["wall_seconds"][comp] = (
                merged["wall_seconds"].get(comp, 0.0) + value
            )
        for comp, value in snap.get("sample_counts", {}).items():
            merged["sample_counts"][comp] = (
                merged["sample_counts"].get(comp, 0) + value
            )
        for table in ("heat", "op_heat"):
            ours = merged[table]
            for key, n in snap.get(table, {}).items():
                ours[key] = ours.get(key, 0) + n
        ours = merged["stacks"]
        for key, (n, wall) in snap.get("stacks", {}).items():
            cell = ours.get(key)
            if cell is None:
                ours[key] = [n, wall]
            else:
                cell[0] += n
                cell[1] += wall
        cct = snap.get("cct")
        if cct is not None:
            from repro.profiling.cct import merge_cct_tables

            merged["cct"] = merge_cct_tables(merged.get("cct", {}), cct)
    return merged
