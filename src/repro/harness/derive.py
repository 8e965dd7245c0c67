"""Derived cells: a cell family's counter cells, folded from two runs.

Property 1's argument (paper §3) makes the checks a run executes
independent of its instrumentation, and in this VM a single-threaded
cell family executes the same *sequence* of polls — CHECKs and
GUARDED_INSTRs — in every cell, whatever its trigger. So a counter or
randomized cell differs from the family's never-trigger run only in the
windows its trigger fires, and two recorded runs give every such cell:
the never-side run (no window fires) and the interval-1 run (every
window fires).

A run records into a :class:`WindowLedger`, which the fast tier writes
to from its generated code (``VM(ledger=...)``). Each window between two
boundaries is charged to an *owner* poll:

* a CHECK's poll becomes the owner of its frame;
* a callee keeps its caller's owner until its own first poll;
* a RETURN, HALT or THROW unwind switches to the owner of the frame it
  lands in, because the caller resumes in the copy (checking or
  duplicated) that the caller's own poll chose;
* a GUARDED_INSTR poll owns only its own action.

A derived cell whose trigger fires at the polls F has the never-side
run's counters plus, over the owners in F, the interval-1 window minus
the never window, for the five counters a window's copies differ in
(:data:`repro.vm.engine.LEDGER_COUNTERS`); ``checks_taken`` and
``guarded_checks_taken`` are the fired polls of each kind, and
``timer_ticks`` follows from the cycles. Its profiles are the
interval-1 run's instrumentation events of the owners in F, replayed in
execution order, so even their key order is a real run's. Which polls fire is found from a fresh copy of the
cell's trigger (:meth:`~repro.sampling.triggers.CounterTrigger.fires`).

The ledger folds its log every few hundred entries into sums per *fire
mask* (the set of derived cells a poll fires for) and into the cells'
profiles, and keeps owners only while a live frame holds them, so its
state is O(derived cells + live owners), not O(windows). The harness
decides which families qualify (docs/HARNESS.md, "Derived cells");
this module loads only when one does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.profiles.profile import Profile
from repro.sampling.triggers import Trigger
from repro.vm.engine import LEDGER_COUNTERS, LEDGER_GUARD, LEDGER_POLL
from repro.vm.tracing import ExecStats

#: Ledger entry kind of an instrumentation event (the engine's kinds are
#: 0-2).
_EVENT = 3

#: Polls of fire positions generated ahead of the fold.
_HORIZON = 4096

#: A fire position past every poll: the trigger has stopped firing.
_NEVER = 1 << 62


class WindowLedger:
    """The window ledger of one recorded run.

    Args:
        triggers: a fresh trigger per derived cell; bit ``j`` of a
            poll's fire mask is set when trigger ``j`` fires at it.
        frames: the family's polls are CHECKs, whose windows span frame
            boundaries; False when they are GUARDED_INSTRs, whose window
            is their own action.

    The fast tier appends entries to :attr:`log` and calls :meth:`fold`
    when it is full; :meth:`capture` adds the instrumentation events.
    """

    def __init__(self, triggers: Sequence[Trigger], frames: bool):
        self.log: List[tuple] = []
        self.frames = frames
        self.cells = len(triggers)
        #: polls folded so far
        self.polls = 0
        self._fires = [trigger.fires() for trigger in triggers]
        self._next = [next(it, _NEVER) for it in self._fires]
        self._pending: Dict[int, int] = {}
        self._horizon = -1
        #: (frame depth, fire mask) of every frame that owns its window
        self._owners: List[Tuple[int, int]] = []
        self._mask = 0
        self._last = (0, 0, 0, 0, 0)
        #: fire mask -> the window counters charged to its owners
        self._sums: Dict[int, List[int]] = {}
        #: fire mask -> polls
        self._taken: Dict[int, int] = {}
        self._bits: Dict[int, Tuple[int, ...]] = {}
        #: per cell, per captured instrumentation, the replayed counts
        self._counts: List[List[Dict[object, int]]] = []
        self._names: List[str] = []
        self._captured: List[Profile] = []

    # -- recording -----------------------------------------------------------

    def capture(self, instrumentations) -> None:
        """Log every event the instrumentations' profiles record while
        the run lasts, next to the boundaries (undone by :meth:`close`)."""
        append = self.log.append
        for index, instrumentation in enumerate(instrumentations):
            profile = instrumentation.profile
            self._names.append(profile.name)
            self._captured.append(profile)
            profile.record = _logging_record(profile.counts, index, append)
        self._counts = [
            [{} for _ in self._names] for _ in range(self.cells)
        ]

    def close(self) -> None:
        """Fold what is left of the log and restore the profiles."""
        for profile in self._captured:
            del profile.record
        self._captured = []
        self.fold()

    def _cells_of(self, mask: int) -> Tuple[int, ...]:
        """The derived cells a fire mask holds."""
        cells = self._bits.get(mask)
        if cells is None:
            cells = self._bits[mask] = tuple(
                j for j in range(self.cells) if mask >> j & 1
            )
        return cells

    def _extend(self, start: int) -> int:
        """Queue every fire position up to ``start + _HORIZON``; return
        that horizon."""
        horizon = start + _HORIZON
        pending = self._pending
        positions = self._next
        for j, fires in enumerate(self._fires):
            bit = 1 << j
            position = positions[j]
            while position <= horizon:
                pending[position] = pending.get(position, 0) | bit
                position = next(fires, _NEVER)
            positions[j] = position
        return horizon

    def fold(self) -> None:
        """Fold the logged entries into the per-mask sums and the cells'
        profiles, and empty the log."""
        log = self.log
        entries = log[:]
        log.clear()
        pending = self._pending
        owners = self._owners
        sums = self._sums
        taken = self._taken
        counts = self._counts
        cells_of = self._cells_of
        mask = self._mask
        li, lc, lb, lo, ly = self._last
        polls = self.polls
        horizon = self._horizon
        for entry in entries:
            kind = entry[0]
            if kind == _EVENT:
                if mask:
                    _kind, index, key, weight = entry
                    for cell in cells_of(mask):
                        replay = counts[cell][index]
                        replay[key] = replay.get(key, 0) + weight
                continue
            if kind == LEDGER_GUARD:
                # The guarded poll's window is its action: its cost, one
                # instrumentation op, and the events that follow.
                if polls > horizon:
                    horizon = self._extend(polls)
                mask = pending.pop(polls, 0)
                polls += 1
                if mask:
                    window = sums.get(mask)
                    if window is None:
                        window = sums[mask] = [0, 0, 0, 0, 0]
                    window[1] += entry[1]
                    window[3] += 1
                    taken[mask] = taken.get(mask, 0) + 1
                continue
            _kind, depth, i, c, b, o, y = entry
            if mask:
                window = sums.get(mask)
                if window is None:
                    window = sums[mask] = [0, 0, 0, 0, 0]
                window[0] += i - li
                window[1] += c - lc
                window[2] += b - lb
                window[3] += o - lo
                window[4] += y - ly
            li, lc, lb, lo, ly = i, c, b, o, y
            if kind == LEDGER_POLL:
                while owners and owners[-1][0] >= depth:
                    owners.pop()
                if polls > horizon:
                    horizon = self._extend(polls)
                mask = pending.pop(polls, 0)
                polls += 1
                if mask:
                    taken[mask] = taken.get(mask, 0) + 1
                owners.append((depth, mask))
            else:
                while owners and owners[-1][0] > depth:
                    owners.pop()
                mask = owners[-1][1] if owners else 0
        self._mask = mask
        self._last = (li, lc, lb, lo, ly)
        self.polls = polls
        self._horizon = horizon

    # -- results -------------------------------------------------------------

    def windows(self) -> Tuple[List[List[int]], List[int]]:
        """Per derived cell: the window counters charged to the owners
        it fires, and the number of polls it fires."""
        windows = [[0] * len(LEDGER_COUNTERS) for _ in range(self.cells)]
        fired = [0] * self.cells
        for mask, window in self._sums.items():
            for cell in self._cells_of(mask):
                total = windows[cell]
                for k, value in enumerate(window):
                    total[k] += value
        for mask, polls in self._taken.items():
            for cell in self._cells_of(mask):
                fired[cell] += polls
        return windows, fired

    def profiles(self, cell: int) -> Dict[str, Profile]:
        """The profiles *cell* would have recorded: the events of the
        windows it fires, in execution order."""
        profiles = {}
        for name, counts in zip(self._names, self._counts[cell]):
            profile = Profile(name)
            profile.counts = counts
            profiles[name] = profile
        return profiles


def _logging_record(counts: Dict[object, int], index: int, append):
    """A ``Profile.record`` that also logs the event to a ledger."""

    def record(key, weight: int = 1) -> None:
        counts[key] = counts.get(key, 0) + weight
        append((_EVENT, index, key, weight))

    return record


def derive_stats(
    never: ExecStats,
    never_ledger: Optional[WindowLedger],
    fired_ledger: WindowLedger,
    timer_periods: Sequence[int],
    guarded: bool,
) -> List[ExecStats]:
    """The counters of every cell the ledgers track, from the never-side
    run's counters and the two ledgers' windows (a guarded family's
    never-side run records nothing: none of its windows holds code)."""
    polls = never.checks_executed + never.guarded_checks_executed
    for ledger in (never_ledger, fired_ledger):
        if ledger is not None and ledger.polls != polls:
            raise HarnessError(
                f"window ledger folded {ledger.polls} poll(s) where the "
                f"never-side run executed {polls}: the family's cells "
                "do not share one poll sequence"
            )
    fired_windows, fired = fired_ledger.windows()
    never_windows = (
        never_ledger.windows()[0]
        if never_ledger is not None
        else [[0] * len(LEDGER_COUNTERS)] * fired_ledger.cells
    )
    base = never.as_dict()
    derived = []
    for cell, period in enumerate(timer_periods):
        stats = ExecStats.from_dict(base)
        for k, name in enumerate(LEDGER_COUNTERS):
            setattr(
                stats,
                name,
                base[name] + fired_windows[cell][k] - never_windows[cell][k],
            )
        if guarded:
            stats.guarded_checks_taken = fired[cell]
        else:
            stats.checks_taken = fired[cell]
        # One thread: the virtual timer only counts.
        stats.timer_ticks = stats.cycles // period
        derived.append(stats)
    return derived
