"""Call frames and green threads."""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.function import Function
from repro.vm.values import Value


class Frame:
    """One activation: function, pc, locals, operand stack.

    ``pc`` is always an *original* program counter (the index into
    ``function.code``) — instrumentation actions and tracebacks read it
    on every engine.  ``fast_pc`` is the fast engine's resume slot: the
    index into the function's compiled handler list at which execution
    continues after a call returns or a yielded thread is rescheduled.
    The reference interpreter ignores it.

    ``handlers`` is the frame's guest-exception handler stack: TRY
    pushes a ``(handler_pc, stack_depth)`` record, ENDTRY pops it, and
    THROW unwinds to the innermost record (or to the caller when the
    list is empty). Both engines share this representation, so unwinds
    are bit-identical.

    ``ctx`` caches the calling-context id that a context-tracking
    telemetry recorder interned for this frame's root→leaf path (None
    until the frame's first event). A frame's path never changes while
    it lives, so each frame is interned once, not once per event.
    """

    __slots__ = (
        "function", "pc", "locals", "stack", "fast_pc", "handlers", "ctx",
    )

    def __init__(self, function: Function, args: List[Value]):
        self.function = function
        self.pc = 0
        self.fast_pc = 0
        self.locals: List[Value] = list(args) + [0] * (
            function.num_locals - len(args)
        )
        self.stack: List[Value] = []
        self.handlers: List[tuple] = []
        self.ctx: Optional[int] = None

    def __repr__(self) -> str:
        return f"<Frame {self.function.name}@{self.pc}>"


class GreenThread:
    """A VM green thread: a stack of frames plus scheduling state.

    Threads are cooperative: the scheduler switches only at YIELDPOINT
    instructions (exactly Jalapeño's quasi-preemptive model, which is
    what makes the paper's yieldpoint optimization sound — moving
    yieldpoints into duplicated code keeps switch latency finite as long
    as the sample interval is finite).
    """

    __slots__ = ("tid", "frames", "done", "result", "io_state")

    def __init__(self, tid: int, entry: Function, args: List[Value]):
        self.tid = tid
        self.frames: List[Frame] = [Frame(entry, args)]
        self.done = False
        self.result: Optional[Value] = None
        # Per-thread pseudo-input stream seed: IO values must not
        # depend on thread interleaving, or transformed programs (whose
        # timing differs) would compute different results.
        self.io_state = 0x12345678 ^ (tid * 0x9E3779B97F4A7C15)

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def finish(self, result: Value) -> None:
        self.done = True
        self.result = result
        self.frames.clear()

    def __repr__(self) -> str:
        state = "done" if self.done else f"depth={len(self.frames)}"
        return f"<GreenThread {self.tid} {state}>"
