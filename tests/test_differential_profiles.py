"""Differential tests: sampled profiles vs exhaustive profiles.

The framework's correctness claim is that sampling changes *how often*
instrumentation runs, never *what it observes*. Concretely, for every
strategy a sampled profile must be a subset-with-consistent-ratios of
the exhaustive profile over the same program:

* every sampled key was observed by exhaustive instrumentation
  (samples cannot invent events),
* no sampled count exceeds its exhaustive count (samples cannot
  double-count events),
* at sample interval 1 the sampled profile *equals* the exhaustive
  profile — full-duplication because all execution transfers into
  duplicated code, no-duplication because every guard fires — which
  anchors the ratio claim exactly,
* the sampled total shrinks monotonically as the interval grows.

Programs come from the extended generators: nested counted loops,
conditional early returns out of loop bodies, and leaf calls — the
control-flow shapes the duplication transforms must preserve.

The second half is the Property-1 fuzz pass: across ~50 random
programs, the duplication strategies never execute more checks than
the baseline's method entries + backedges (the paper's Property 1),
while No-Duplication's guarded polls are *expected* to break that
bound on dense instrumentation — we pin the violation's shape.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from tests.generators import (
    control_flow_programs,
    dynamic_programs,
    nested_loop_program,
    programs,
)
from repro.instrument import (
    BlockCountInstrumentation,
    CallEdgeInstrumentation,
    FieldAccessInstrumentation,
)
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.analysis import property1_vs_baseline
from repro.vm import VM, run_program

SAMPLED_STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


def _profile(program, strategy, interval, instr_cls=BlockCountInstrumentation):
    """Transform, run with a counter trigger, return (profile, result)."""
    instrumentation = instr_cls()
    framework = SamplingFramework(strategy)
    transformed = framework.transform(program, instrumentation)
    result = VM(transformed, trigger=CounterTrigger(interval)).run()
    return instrumentation.profile, result


def _exhaustive_profile(program, instr_cls=BlockCountInstrumentation):
    instrumentation = instr_cls()
    framework = SamplingFramework(Strategy.EXHAUSTIVE)
    transformed = framework.transform(program, instrumentation)
    result = VM(transformed).run()
    return instrumentation.profile, result


def _assert_subset_with_consistent_ratios(sampled, exhaustive, context):
    assert set(sampled.counts) <= set(exhaustive.counts), (
        f"{context}: sampled profile invented keys "
        f"{set(sampled.counts) - set(exhaustive.counts)}"
    )
    for key, weight in sampled.counts.items():
        assert weight <= exhaustive.counts[key], (
            f"{context}: key {key!r} sampled {weight} times but executed "
            f"{exhaustive.counts[key]} times"
        )
    assert sampled.total() <= exhaustive.total(), context


class TestDifferentialProfiles:
    """Sampled ⊆ exhaustive, per strategy, on generated programs."""

    @pytest.mark.parametrize("strategy", SAMPLED_STRATEGIES)
    @settings(max_examples=25, deadline=None)
    @given(program=control_flow_programs())
    def test_sampled_profile_is_subset(self, strategy, program):
        exhaustive, _ = _exhaustive_profile(program)
        for interval in (3, 17):
            sampled, _ = _profile(program, strategy, interval)
            _assert_subset_with_consistent_ratios(
                sampled, exhaustive, f"{strategy.value}@{interval}"
            )

    @pytest.mark.parametrize("strategy", SAMPLED_STRATEGIES)
    @settings(max_examples=15, deadline=None)
    @given(program=control_flow_programs())
    def test_interval_one_equals_exhaustive(self, strategy, program):
        """Interval 1 is the ratio anchor: the sampled profile must be
        the exhaustive profile, exactly."""
        exhaustive, _ = _exhaustive_profile(program)
        sampled, _ = _profile(program, strategy, 1)
        assert sampled.counts == exhaustive.counts

    @pytest.mark.parametrize("strategy", SAMPLED_STRATEGIES)
    @pytest.mark.parametrize(
        "instr_cls",
        [BlockCountInstrumentation, CallEdgeInstrumentation,
         FieldAccessInstrumentation],
    )
    def test_nested_loop_early_return_program(self, strategy, instr_cls):
        """The hand-pinned nested-loop/early-return program, across
        every instrumentation kind the generated programs can drive."""
        program = nested_loop_program()
        base = run_program(program)
        exhaustive, _ = _exhaustive_profile(program, instr_cls)
        for interval in (1, 5, 23):
            sampled, result = _profile(program, strategy, interval, instr_cls)
            assert result.value == base.value, "transform changed semantics"
            _assert_subset_with_consistent_ratios(
                sampled, exhaustive,
                f"{strategy.value}/{instr_cls.__name__}@{interval}",
            )
            if interval == 1:
                assert sampled.counts == exhaustive.counts

    @settings(max_examples=15, deadline=None)
    @given(program=control_flow_programs())
    def test_sampled_totals_shrink_with_interval(self, program):
        exhaustive, _ = _exhaustive_profile(program)
        totals = []
        for interval in (1, 4, 16):
            sampled, _ = _profile(
                program, Strategy.FULL_DUPLICATION, interval
            )
            totals.append(sampled.total())
        assert totals[0] == exhaustive.total()
        assert totals[0] >= totals[1] >= totals[2]


class TestDynamicDifferentialProfiles:
    """Sampled ⊆ exhaustive holds through load/replace/throw events:
    code instrumented at load time observes the same events under
    sampling as under exhaustive instrumentation."""

    @pytest.mark.parametrize("strategy", SAMPLED_STRATEGIES)
    @settings(max_examples=15, deadline=None)
    @given(program=dynamic_programs())
    def test_sampled_profile_is_subset(self, strategy, program):
        exhaustive, _ = _exhaustive_profile(program)
        for interval in (3, 17):
            sampled, _ = _profile(program, strategy, interval)
            _assert_subset_with_consistent_ratios(
                sampled, exhaustive, f"dynamic:{strategy.value}@{interval}"
            )

    @pytest.mark.parametrize("strategy", SAMPLED_STRATEGIES)
    @settings(max_examples=10, deadline=None)
    @given(program=dynamic_programs())
    def test_interval_one_equals_exhaustive(self, strategy, program):
        exhaustive, _ = _exhaustive_profile(program)
        sampled, _ = _profile(program, strategy, 1)
        assert sampled.counts == exhaustive.counts

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.FULL_DUPLICATION, Strategy.PARTIAL_DUPLICATION],
    )
    @settings(max_examples=25, deadline=None)
    @given(program=dynamic_programs())
    def test_dynamic_programs_respect_property1(self, strategy, program):
        """Property 1 with exact counters across load/replace/throw:
        checks executed never exceed the baseline's entries+backedges
        budget, even as the function table changes mid-run."""
        baseline = run_program(program)
        for interval in (1, 7, 64):
            _, result = _profile(program, strategy, interval)
            assert property1_vs_baseline(result.stats, baseline.stats), (
                f"dynamic:{strategy.value}@{interval}: "
                f"checks={result.stats.checks_executed} > "
                f"entries+backedges bound"
            )


class TestProperty1Fuzz:
    """Paper Property 1 over ~50 random programs and several intervals."""

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.FULL_DUPLICATION, Strategy.PARTIAL_DUPLICATION],
    )
    @settings(max_examples=50, deadline=None)
    @given(program=programs(max_depth=3, early_returns=True))
    def test_duplication_strategies_respect_property1(self, strategy, program):
        baseline = run_program(program)
        for interval in (1, 7, 64):
            _, result = _profile(program, strategy, interval)
            assert property1_vs_baseline(result.stats, baseline.stats), (
                f"{strategy.value}@{interval}: "
                f"checks={result.stats.checks_executed} > "
                f"entries+backedges bound"
            )

    @settings(max_examples=50, deadline=None)
    @given(program=programs(max_depth=3, early_returns=True))
    def test_no_duplication_violation_shape(self, program):
        """No-Duplication's expected Property-1 'violation' shape: it
        executes zero checking-code CHECKs (the bound is vacuous), and
        all its polling happens on GUARDED_INSTR — whose count tracks
        instrumented-op executions, not entries+backedges, and so is
        exempted by the paper's §3.2 weakening."""
        baseline = run_program(program)
        polled = []
        for interval in (1, 7):
            profile, result = _profile(
                program, Strategy.NO_DUPLICATION, interval
            )
            stats = result.stats
            assert stats.checks_executed == 0
            assert property1_vs_baseline(stats, baseline.stats)
            # each fired guard executes exactly one instrumentation
            # action, which records exactly one profile event
            assert stats.instr_ops_executed == stats.guarded_checks_taken
            assert profile.total() == stats.guarded_checks_taken
            if interval == 1:
                assert (
                    stats.guarded_checks_taken
                    == stats.guarded_checks_executed
                )
            polled.append(stats.guarded_checks_executed)
        # polls track instrumented-op *executions*, so the poll count is
        # interval-independent — that is what escapes the Property-1 bound
        assert polled[0] == polled[1]

    def test_no_duplication_guarded_polls_can_exceed_bound(self):
        """Dense instrumentation makes No-Duplication's guarded-poll
        count exceed the entries+backedges budget — the reason §3.2
        must exempt guards from Property 1, pinned on the deterministic
        nested-loop program."""
        program = nested_loop_program()
        baseline = run_program(program)
        _, result = _profile(program, Strategy.NO_DUPLICATION, 1)
        opportunities = (
            baseline.stats.calls
            + baseline.stats.threads_spawned
            + baseline.stats.backward_jumps
        )
        assert result.stats.guarded_checks_executed > opportunities
