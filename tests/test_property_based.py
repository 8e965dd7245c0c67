"""Property-based tests (hypothesis) over randomly generated programs.

The generator (tests/generators.py) produces structured, terminating,
verifiable bytecode. The invariants exercised here are the ones the
whole reproduction rests on:

* the verifier accepts generated programs; the VM runs them;
* CFG decode/encode round-trips preserve behaviour;
* the optimizer preserves behaviour;
* every sampling strategy preserves behaviour at every interval;
* Property 1 holds dynamically for the duplication strategies;
* interval-1 sampling reproduces the exhaustive profile exactly;
* block-count sampling is statistically faithful (proportionality).
"""

from hypothesis import HealthCheck, given, settings

from tests.generators import programs

from repro.analysis import AuditContext, property1_vs_baseline, run_rules
from repro.analysis.context import FULL_DUPLICATION
from repro.bytecode import verify_program
from repro.cfg import roundtrip
from repro.instrument import BlockCountInstrumentation, CallEdgeInstrumentation
from repro.opt import optimize_program, unroll_program
from repro.profiles import overlap_percentage
from repro.sampling import (
    CounterTrigger,
    SamplingFramework,
    Strategy,
    insert_yieldpoints,
)
from repro.vm import run_program

FAST = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
THOROUGH = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(programs())
def test_generated_programs_verify_and_run(program):
    verify_program(program)
    result = run_program(program, fuel=3_000_000)
    assert isinstance(result.value, int)


@FAST
@given(programs())
def test_cfg_roundtrip_preserves_behaviour(program):
    base = run_program(program, fuel=3_000_000)
    again = program.copy()
    for name in again.function_names():
        again.replace_function(roundtrip(again.function(name)))
    verify_program(again)
    result = run_program(again, fuel=3_000_000)
    assert result.value == base.value


@FAST
@given(programs())
def test_optimizer_preserves_behaviour(program):
    base = run_program(program, fuel=3_000_000)
    optimized = optimize_program(program, level=2)
    result = run_program(optimized, fuel=3_000_000)
    assert result.value == base.value
    assert result.output == base.output


@FAST
@given(programs())
def test_unroll_preserves_behaviour(program):
    # Compare against a re-linearized (but not unrolled) copy so the
    # backward-jump comparison is layout-fair: linearization alone may
    # turn a forward jump backward by reordering if/else arms.
    relinearized = program.copy()
    for name in relinearized.function_names():
        relinearized.replace_function(
            roundtrip(relinearized.function(name))
        )
    base = run_program(relinearized, fuel=3_000_000)
    unrolled = unroll_program(program, factor=3)
    verify_program(unrolled)
    result = run_program(unrolled, fuel=6_000_000)
    assert result.value == base.value
    assert result.stats.backward_jumps <= base.stats.backward_jumps


@THOROUGH
@given(programs())
def test_full_duplication_preserves_behaviour_and_property1(program):
    baseline = insert_yieldpoints(program)
    base = run_program(baseline, fuel=3_000_000)
    instr = BlockCountInstrumentation()
    transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        baseline, instr
    )
    for name in transformed.function_names():
        ctx = AuditContext(
            transformed.function(name), strategy=FULL_DUPLICATION
        )
        findings = run_rules(ctx, rule_ids=("AUD001", "AUD002", "AUD003"))
        assert not findings, [f.format() for f in findings]
    for interval in (1, 3, 17):
        instr.reset()
        result = run_program(
            transformed, trigger=CounterTrigger(interval), fuel=9_000_000
        )
        assert result.value == base.value
        assert property1_vs_baseline(result.stats, base.stats)


@THOROUGH
@given(programs())
def test_partial_duplication_preserves_behaviour(program):
    baseline = insert_yieldpoints(program)
    base = run_program(baseline, fuel=3_000_000)
    instr = CallEdgeInstrumentation()
    transformed = SamplingFramework(Strategy.PARTIAL_DUPLICATION).transform(
        baseline, instr
    )
    for interval in (1, 5):
        result = run_program(
            transformed, trigger=CounterTrigger(interval), fuel=9_000_000
        )
        assert result.value == base.value


@THOROUGH
@given(programs())
def test_no_duplication_preserves_behaviour(program):
    baseline = insert_yieldpoints(program)
    base = run_program(baseline, fuel=3_000_000)
    instr = BlockCountInstrumentation()
    transformed = SamplingFramework(Strategy.NO_DUPLICATION).transform(
        baseline, instr
    )
    result = run_program(
        transformed, trigger=CounterTrigger(2), fuel=9_000_000
    )
    assert result.value == base.value


@THOROUGH
@given(programs())
def test_interval_one_matches_exhaustive_profile(program):
    baseline = insert_yieldpoints(program)

    exhaustive = BlockCountInstrumentation()
    ex_prog = SamplingFramework(Strategy.EXHAUSTIVE).transform(
        baseline, exhaustive
    )
    run_program(ex_prog, fuel=9_000_000)

    sampled = BlockCountInstrumentation()
    fd_prog = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        baseline, sampled
    )
    run_program(fd_prog, trigger=CounterTrigger(1), fuel=18_000_000)

    assert sampled.profile.counts == exhaustive.profile.counts


@THOROUGH
@given(programs(max_depth=2))
def test_sampled_block_profile_overlaps_perfect(program):
    """The statistical heart of the paper: sampled block counts track
    true frequencies. With a small co-prime interval the overlap must
    be high whenever enough samples exist."""
    baseline = insert_yieldpoints(program)

    perfect = BlockCountInstrumentation()
    fd = SamplingFramework(Strategy.FULL_DUPLICATION)
    prog_a = fd.transform(baseline, perfect)
    run_program(prog_a, trigger=CounterTrigger(1), fuel=18_000_000)

    sampled = BlockCountInstrumentation()
    prog_b = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        baseline, sampled
    )
    stats = run_program(
        prog_b, trigger=CounterTrigger(3), fuel=9_000_000
    ).stats

    if stats.samples_taken >= 50:
        overlap = overlap_percentage(perfect.profile, sampled.profile)
        assert overlap >= 60.0


BOUND = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BOUND_STRATEGIES = (
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
)


@BOUND
@given(programs())
def test_certificate_bounds_dynamic_checks(program):
    """The auditor's cost certificate is a true bound: for random
    programs, every strategy, and sampling rates from every-check to
    never, the observed check count stays under the static formula and
    the reconciler agrees."""
    from repro.analysis import audit_program, reconcile
    from repro.sampling import NeverTrigger

    baseline = insert_yieldpoints(program)
    for strategy in BOUND_STRATEGIES:
        instr = BlockCountInstrumentation()
        transformed = SamplingFramework(strategy).transform(
            baseline, instr
        )
        report = audit_program(transformed, strategy=strategy.value)
        assert report.ok, report.render()
        cert = report.certificate
        for trigger in (
            CounterTrigger(1),
            CounterTrigger(1000),
            NeverTrigger(),
        ):
            instr.reset()
            stats = run_program(
                transformed, trigger=trigger, fuel=9_000_000
            ).stats
            assert stats.checks_executed <= cert.bound_against(stats)
            verdict = reconcile(cert, stats)
            assert verdict.ok, verdict.summary()
