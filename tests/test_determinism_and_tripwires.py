"""Cross-cutting guarantees: full determinism (including threads and
timer triggers) and the harness's misbehaviour tripwires."""

import pytest

from repro.errors import HarnessError
from repro.harness import ExperimentRunner, RunSpec
from repro.instrument import FieldAccessInstrumentation, Instrumentation
from repro.instrument.base import InstrumentationAction
from repro.sampling import SamplingFramework, Strategy, TimerTrigger
from repro.vm import run_program
from repro.workloads import get_workload


class TestDeterminism:
    @pytest.mark.parametrize("name", ["volano", "pbob", "mtrt"])
    def test_threaded_workload_with_timer_trigger(self, name):
        """Threads + virtual timer + timer-triggered sampling: two runs
        must agree bit for bit (value, output, cycles, samples, and the
        entire sampled profile)."""
        program = get_workload(name).compile()

        def run_once():
            instr = FieldAccessInstrumentation()
            transformed = SamplingFramework(
                Strategy.FULL_DUPLICATION
            ).transform(program, instr)
            result = run_program(
                transformed, trigger=TimerTrigger(), timer_period=2500
            )
            return (
                result.value,
                tuple(result.output),
                result.stats.cycles,
                result.stats.samples_taken,
                tuple(sorted(instr.profile.counts.items())),
            )

        assert run_once() == run_once()

    def test_thread_switch_counts_stable(self):
        program = get_workload("mtrt").compile()
        a = run_program(program, timer_period=3000).stats
        b = run_program(program, timer_period=3000).stats
        assert a.thread_switches == b.thread_switches
        assert a.timer_ticks == b.timer_ticks


class _CorruptingAction(InstrumentationAction):
    """An action that (incorrectly) mutates program state: it zeroes
    the first element of the first array argument it sees."""

    cost = 1

    def execute(self, vm, frame):
        from repro.vm import RArray

        for value in frame.locals:
            if isinstance(value, RArray) and len(value):
                value.slots[0] = 0
                return


class _CorruptingInstrumentation(Instrumentation):
    kind = "corrupting"

    def instrument_cfg(self, cfg, program):
        self.insert_at_entry(cfg, _CorruptingAction())


class TestTripwires:
    def test_harness_detects_semantic_divergence(self):
        """If an instrumentation (or a transform bug) changes program
        behaviour, the runner's semantic tripwire must fire rather than
        silently reporting garbage overheads."""
        from repro.harness import experiment as exp

        runner = ExperimentRunner()
        exp._INSTRUMENTATION_FACTORIES["corrupting"] = (
            _CorruptingInstrumentation
        )
        try:
            with pytest.raises(HarnessError, match="diverged"):
                runner.run(
                    RunSpec(
                        "db",
                        Strategy.EXHAUSTIVE,
                        ("corrupting",),
                    )
                )
        finally:
            del exp._INSTRUMENTATION_FACTORIES["corrupting"]

    def test_corruption_invisible_when_checks_disabled(self):
        """Sanity for the tripwire test: run outside the harness, with
        no checks, the same corrupt program completes (and computes
        something different)."""
        program = get_workload("db").compile()
        corrupt = SamplingFramework(Strategy.EXHAUSTIVE).transform(
            program, _CorruptingInstrumentation()
        )
        assert run_program(corrupt).value != run_program(program).value


class TestTableIdentities:
    def test_table3_call_edge_is_table2_entry_checks(self):
        """A No-Duplication call-edge cell guards one action per method
        entry, which costs what an entry check does: Table 3's call-edge
        column and Table 2's entry% column are one measurement, in all
        twelve rows."""
        from repro.workloads.suite import workload_names

        runner = ExperimentRunner(cache=False, jobs=1)
        names = workload_names()
        results = runner.run_many(
            [
                RunSpec(name, strategy, kinds)
                for name in names
                for strategy, kinds in (
                    (Strategy.NO_DUPLICATION, ("call-edge",)),
                    (Strategy.CHECKS_ONLY_ENTRY, ()),
                )
            ]
        )
        assert len(names) == 12
        cycles = [result.cycles for result in results]
        assert cycles[0::2] == cycles[1::2]
