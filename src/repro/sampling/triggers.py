"""Sample triggers: the mechanisms that decide *when* a check fires.

The paper's framework decouples *where* samples can start (checks on
method entries and backedges) from *when* they do (the trigger). Three
triggers are provided:

* :class:`CounterTrigger` — the paper's compiler-inserted counter-based
  sampling (Figure 3): a global counter decremented at every check;
  reaching zero triggers a sample and resets the counter to the sample
  interval. Deterministic, proportional to check execution frequency,
  tunable at runtime.
* :class:`TimerTrigger` — the §2.1 strawman: a virtual timer interrupt
  sets a bit; the *next* check executed takes the sample. Reproduces the
  mis-attribution bias (code following long-latency operations is
  over-sampled) evaluated in §4.6 / Table 5.
* :class:`RandomizedCounterTrigger` — counter-based with a small
  deterministic pseudo-random perturbation of each interval, the §4.4
  mitigation for programs whose behaviour correlates with a fixed
  sample period.

Triggers are plain objects polled by the VM at every CHECK /
GUARDED_INSTR; they hold no reference to the VM, so this module stays a
leaf import shared by :mod:`repro.vm` and :mod:`repro.sampling`.

Polling contract (what both execution engines must honour)
----------------------------------------------------------

A trigger's observable behaviour is a deterministic function of the
*sequence* of calls it receives, never of wall clock, host state, or
which engine drives it:

* ``poll()`` is invoked exactly once per executed CHECK /
  GUARDED_INSTR, in program execution order;
* ``notify_timer_tick()`` is invoked when accumulated cycle cost
  crosses a multiple of the timer period, *before* the next ``poll()``;
* ``notify_thread(tid)`` is invoked at every thread switch, before any
  ``poll()`` from the incoming thread.

The fast engine (:mod:`repro.vm.engine`) keeps every CHECK and
GUARDED_INSTR in its own segment precisely so this call sequence —
including its interleaving with tick and thread notifications — is
bit-identical to the reference interpreter's. Fused superinstructions
never skip, reorder, or batch trigger polls. Any new trigger must keep
``poll()`` free of engine-visible side effects beyond its own counters,
or the two engines could diverge.

Triggers are also reused *outside* guest sampling: the self-sampling
overhead profiler (:mod:`repro.profiling`) drives a private
:class:`CounterTrigger` from the engines' observer boundaries to sample
the host VM itself. The same Property-1-style cap applies there —
:meth:`Trigger.sample_bound` states it once, as a pure function of the
trigger's own counters, and :func:`repro.analysis.reconcile_profile`
checks it after every profiled run.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Trigger:
    """Base trigger. ``poll()`` is the per-check hot path."""

    #: Factory name understood by :func:`make_trigger`; also the
    #: ``kind`` field of :meth:`config` descriptors in run manifests.
    kind = "abstract"

    def __init__(self) -> None:
        self.samples_triggered = 0
        self.checks_polled = 0
        self.enabled = True

    def config(self) -> dict:
        """JSON-able description of this trigger's configuration —
        everything needed to rebuild it via :func:`make_trigger`
        (recorded in run manifests; see repro.telemetry.manifest).
        Subclasses extend with their parameters."""
        return {"kind": self.kind}

    def poll(self) -> bool:
        """Called at every executed check; True means take a sample."""
        raise NotImplementedError

    def notify_timer_tick(self) -> None:
        """Called by the VM whenever the virtual timer period elapses."""

    def notify_thread(self, tid: int) -> None:
        """Called by the VM when a (green) thread is scheduled in.
        Only thread-aware triggers care."""

    def disable(self) -> None:
        """Permanently stop sampling (the paper's 'set the sample
        condition permanently to false'): execution stays in checking
        code, paying only check cost."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def sample_bound(self) -> Optional[int]:
        """Property-1-style cap on samples as a function of polls:
        for interval-based triggers, at most one sample per ``interval``
        polls plus the in-flight countdown. ``None`` when the trigger
        has no interval (timer/never triggers derive no counter bound).
        """
        interval = getattr(self, "interval", None)
        if not interval:
            return None
        return self.checks_polled // interval + 1


class NeverTrigger(Trigger):
    """Sample condition always false.

    Used to measure pure framework overhead (Table 2 / Table 3 /
    Figure 8(A)): checks execute and cost cycles but never fire.
    """

    kind = "never"

    def poll(self) -> bool:
        self.checks_polled += 1
        return False


class CounterTrigger(Trigger):
    """The paper's global-counter trigger.

    ``interval`` is the paper's *sample interval*: the number of checks
    executed per sample. It may be changed at runtime via
    :meth:`set_interval` (the framework's tunability claim).
    """

    kind = "counter"

    def __init__(self, interval: int, phase: int = 0):
        super().__init__()
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        if phase < 0:
            raise ValueError(f"phase must be >= 0, got {phase}")
        self.interval = interval
        self.phase = phase
        # ``phase`` advances the first sample: the counter starts at
        # interval - phase. Sampling stays strictly periodic; harnesses
        # average over a few phases to expose (or wash out) the §4.4
        # deterministic-correlation effect.
        self.counter = interval - (phase % interval)

    def config(self) -> dict:
        return {
            "kind": self.kind,
            "interval": self.interval,
            "phase": self.phase,
        }

    def set_interval(self, interval: int) -> None:
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        self.interval = interval
        if self.counter > interval:
            self.counter = interval

    def poll(self) -> bool:
        self.checks_polled += 1
        if not self.enabled:
            return False
        self.counter -= 1
        if self.counter <= 0:
            self.counter = self.interval
            self.samples_triggered += 1
            return True
        return False

    def fires(self) -> Iterator[int]:
        """The indices of the polls, counted from now, at which
        :meth:`poll` would return True — its countdown, skipped from one
        firing to the next instead of polled once per check (the
        window ledger's fire sets, :mod:`repro.harness.derive`)."""
        index = -1
        while self.enabled:
            index += self.counter
            self.counter = self.interval
            yield index


class TimerTrigger(Trigger):
    """Sample-bit trigger set by the virtual timer interrupt.

    The VM calls :meth:`notify_timer_tick` every ``timer_period``
    simulated cycles; the next polled check consumes the bit. Multiple
    ticks between checks collapse into one sample — exactly the
    low-frequency, badly-attributed behaviour the paper describes.
    """

    kind = "timer"

    def __init__(self) -> None:
        super().__init__()
        self.sample_bit = False
        self.ticks = 0

    def notify_timer_tick(self) -> None:
        self.ticks += 1
        if self.enabled:
            self.sample_bit = True

    def poll(self) -> bool:
        self.checks_polled += 1
        if self.sample_bit:
            self.sample_bit = False
            self.samples_triggered += 1
            return True
        return False


class RandomizedCounterTrigger(Trigger):
    """Counter trigger with deterministic per-sample interval jitter.

    Each reset draws the next interval uniformly from
    ``[interval - jitter, interval + jitter]`` using a private LCG, so
    runs remain reproducible (same seed → same samples) while breaking
    lockstep with periodic program behaviour.
    """

    kind = "randomized"

    _LCG_A = 6364136223846793005
    _LCG_C = 1442695040888963407
    _LCG_M = 2 ** 64

    def __init__(self, interval: int, jitter: Optional[int] = None, seed: int = 0x5EED):
        super().__init__()
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        self.interval = interval
        self.jitter = jitter if jitter is not None else max(1, interval // 10)
        if self.jitter >= interval:
            raise ValueError("jitter must be smaller than the interval")
        self.seed = seed
        self._state = seed & (self._LCG_M - 1)
        self.counter = self._next_interval()

    def config(self) -> dict:
        return {
            "kind": self.kind,
            "interval": self.interval,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    def _next_interval(self) -> int:
        self._state = (self._state * self._LCG_A + self._LCG_C) % self._LCG_M
        span = 2 * self.jitter + 1
        offset = (self._state >> 16) % span - self.jitter
        return self.interval + offset

    def poll(self) -> bool:
        self.checks_polled += 1
        if not self.enabled:
            return False
        self.counter -= 1
        if self.counter <= 0:
            self.counter = self._next_interval()
            self.samples_triggered += 1
            return True
        return False

    def fires(self) -> Iterator[int]:
        """The indices of the polls, counted from now, at which
        :meth:`poll` would return True (see
        :meth:`CounterTrigger.fires`)."""
        index = -1
        while self.enabled:
            index += self.counter
            self.counter = self._next_interval()
            yield index


class BurstTrigger(Trigger):
    """Counter-based sampling with trigger-side bursts.

    After the countdown fires, the trigger stays true for
    ``burst_length`` consecutive polls. Under Full-Duplication each of
    those polls re-enters duplicated code at the next check, so a burst
    observes a run of consecutive check-windows — the trigger-side
    counterpart of the transform-side counted backedges
    (``full_duplicate(sample_iterations=N)``), and the mechanism behind
    burst-style tracing profilers. Unlike counted backedges it needs no
    recompilation to change N, but it pays one check-taken transfer per
    burst member.

    ``samples_triggered`` counts bursts, not individual polls; the
    VM's ``checks_taken`` still counts every transfer.
    """

    kind = "burst"

    def __init__(self, interval: int, burst_length: int = 4):
        super().__init__()
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        if burst_length < 1:
            raise ValueError(
                f"burst length must be >= 1, got {burst_length}"
            )
        self.interval = interval
        self.burst_length = burst_length
        self.counter = interval
        self._burst_remaining = 0

    def config(self) -> dict:
        return {
            "kind": self.kind,
            "interval": self.interval,
            "burst_length": self.burst_length,
        }

    def poll(self) -> bool:
        self.checks_polled += 1
        if not self.enabled:
            return False
        if self._burst_remaining > 0:
            self._burst_remaining -= 1
            return True
        self.counter -= 1
        if self.counter <= 0:
            self.counter = self.interval
            self.samples_triggered += 1
            self._burst_remaining = self.burst_length - 1
            return True
        return False


class PerThreadCounterTrigger(Trigger):
    """Counter-based sampling with one counter per thread.

    The paper's §2.2 scalability remedy: "the global counter could be
    replaced by thread- or processor-specific counters, allowing
    unsynchronized access to the counter, with no resource contention."
    On our green-threaded VM the observable effect is that each
    thread's sampling phase is independent of the others' check volume,
    so one chatty thread cannot starve another of samples.

    The VM announces scheduling via :meth:`notify_thread`.
    """

    kind = "per-thread-counter"

    def __init__(self, interval: int):
        super().__init__()
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        self.interval = interval
        self.counters: dict = {}
        self._tid = 0

    def config(self) -> dict:
        return {"kind": self.kind, "interval": self.interval}

    def notify_thread(self, tid: int) -> None:
        self._tid = tid

    def poll(self) -> bool:
        self.checks_polled += 1
        if not self.enabled:
            return False
        counter = self.counters.get(self._tid, self.interval) - 1
        if counter <= 0:
            self.counters[self._tid] = self.interval
            self.samples_triggered += 1
            return True
        self.counters[self._tid] = counter
        return False

    def samples_by_thread(self) -> dict:
        """tid -> samples attributable to that thread's counter phase
        (approximate: counts completed periods)."""
        return {
            tid: (self.interval - counter) // self.interval
            for tid, counter in self.counters.items()
        }


def make_trigger(kind: str, interval: Optional[int] = None, **kwargs) -> Trigger:
    """Factory used by the experiment harness config layer.

    ``kind`` is one of ``"never"``, ``"counter"``, ``"timer"``,
    ``"randomized"``, ``"per-thread-counter"``, ``"burst"``.
    """
    if kind == "never":
        return NeverTrigger()
    if kind == "counter":
        if interval is None:
            raise ValueError("counter trigger requires an interval")
        return CounterTrigger(interval, **kwargs)
    if kind == "timer":
        return TimerTrigger()
    if kind == "randomized":
        if interval is None:
            raise ValueError("randomized trigger requires an interval")
        return RandomizedCounterTrigger(interval, **kwargs)
    if kind == "per-thread-counter":
        if interval is None:
            raise ValueError("per-thread counter trigger requires an interval")
        return PerThreadCounterTrigger(interval)
    if kind == "burst":
        if interval is None:
            raise ValueError("burst trigger requires an interval")
        return BurstTrigger(interval, **kwargs)
    raise ValueError(f"unknown trigger kind {kind!r}")
