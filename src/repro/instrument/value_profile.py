"""Value profiling (Calder/Feller-style, cited by the paper as [15, 26]).

:class:`ParameterValueInstrumentation` records, at each function entry,
the values of the first *k* integer parameters. This is the paper's §4.3
suggestion of profiling "parameter values that can be used to guide
specialization" with a single entry check.

Keys are ``(function, site, value)`` with values clamped into a small
signed range so profiles stay bounded (real value profilers use
top-N-value tables; clamping is our bounded equivalent).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bytecode.program import Program
from repro.cfg.graph import CFG
from repro.instrument.base import Instrumentation, InstrumentationAction
from repro.profiles.profile import Profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.frame import Frame
    from repro.vm.interpreter import VM

#: Values outside [-CLAMP, CLAMP] are bucketed to +/-(CLAMP + 1).
VALUE_CLAMP = 255


def clamp_value(value) -> int:
    if not isinstance(value, int):
        return -(VALUE_CLAMP + 2)  # reference bucket
    if value > VALUE_CLAMP:
        return VALUE_CLAMP + 1
    if value < -VALUE_CLAMP:
        return -(VALUE_CLAMP + 1)
    return value


class ParamValueAction(InstrumentationAction):
    """Record the clamped values of the first *k* parameters."""

    cost = 15

    def __init__(self, function_name: str, num_params: int, profile: Profile):
        self.function_name = function_name
        self.num_params = num_params
        self.profile = profile

    def execute(self, vm: "VM", frame: "Frame") -> None:
        for index in range(self.num_params):
            self.profile.record(
                (self.function_name, index, clamp_value(frame.locals[index]))
            )

    def describe(self) -> str:
        return f"param-values {self.function_name}/{self.num_params}"


class ParameterValueInstrumentation(Instrumentation):
    """Profile parameter values at every function entry."""

    kind = "param-value"

    def __init__(self, max_params: int = 2, action_cost: int = 15):
        super().__init__()
        self.max_params = max_params
        self.action_cost = action_cost

    def instrument_cfg(self, cfg: CFG, program: Program) -> None:
        num = min(cfg.num_params, self.max_params)
        if num == 0:
            return
        action = ParamValueAction(cfg.name, num, self.profile)
        action.cost = self.action_cost
        self.insert_at_entry(cfg, action)
