"""Tests for CCT sampling and the per-thread counter trigger."""

import pytest

from repro.frontend import compile_baseline
from repro.instrument import (
    CCTInstrumentation,
    build_cct,
    render_cct,
)
from repro.sampling import (
    CounterTrigger,
    PerThreadCounterTrigger,
    SamplingFramework,
    Strategy,
    make_trigger,
    transform_program,
)
from repro.vm import run_program
from repro.workloads import get_workload

SOURCE = """
// large enough that O2's static inliner leaves the calls alone
func leafWork(x) {
    var v = (x * 7 + 1) % 1000;
    if (v > 500) {
        v = v - 123;
    }
    if (v % 4 == 0) {
        v = v + 17;
    }
    return v;
}

func middle(x) {
    var acc = 0;
    for (var i = 0; i < 4; i = i + 1) {
        acc = acc + leafWork(x + i);
    }
    return acc;
}

func outer(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        acc = (acc + middle(i)) % 100003;
    }
    return acc;
}

func main() {
    var total = outer(20) + leafWork(5);
    print(total);
    return total;
}
"""


@pytest.fixture(scope="module")
def baseline():
    return compile_baseline(SOURCE)


class TestCCT:
    def test_exhaustive_contexts_are_complete(self, baseline):
        instr = CCTInstrumentation(max_depth=6)
        program = transform_program(baseline, instr, Strategy.EXHAUSTIVE)
        base = run_program(baseline)
        result = run_program(program)
        assert result.value == base.value
        keys = set(instr.profile.counts)
        # leafWork is reached through two distinct contexts
        leaf_paths = {k for k in keys if k[-1] == "leafWork"}
        assert ("main", "outer", "middle", "leafWork") in leaf_paths
        assert ("main", "leafWork") in leaf_paths

    def test_context_counts(self, baseline):
        instr = CCTInstrumentation(max_depth=6)
        run_program(transform_program(baseline, instr, Strategy.EXHAUSTIVE))
        counts = instr.profile.counts
        assert counts[("main", "outer", "middle", "leafWork")] == 80
        assert counts[("main", "leafWork")] == 1
        assert counts[("main", "outer", "middle")] == 20

    def test_depth_bound_truncates(self, baseline):
        instr = CCTInstrumentation(max_depth=2)
        run_program(transform_program(baseline, instr, Strategy.EXHAUSTIVE))
        assert all(len(k) <= 2 for k in instr.profile.counts)
        # truncated contexts keep the innermost frames
        assert ("middle", "leafWork") in instr.profile.counts

    def test_sampled_cct_contains_hot_context(self, baseline):
        base = run_program(baseline)
        instr = CCTInstrumentation(max_depth=6)
        transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            baseline, instr
        )
        result = run_program(transformed, trigger=CounterTrigger(7))
        assert result.value == base.value
        assert instr.profile.total() > 0
        hot = instr.profile.top(1)[0][0]
        assert hot[-1] in ("leafWork", "middle")

    def test_build_and_render_cct(self, baseline):
        instr = CCTInstrumentation(max_depth=6)
        run_program(transform_program(baseline, instr, Strategy.EXHAUSTIVE))
        tree = build_cct(instr.profile)
        main_node = tree.children["main"]
        assert main_node.total_descendant_count() == instr.profile.total()
        text = "\n".join(render_cct(tree))
        assert "leafWork" in text and "outer" in text

    def test_min_depth_validation(self):
        with pytest.raises(ValueError):
            CCTInstrumentation(max_depth=0)


class TestPerThreadTrigger:
    def test_factory(self):
        trig = make_trigger("per-thread-counter", 10)
        assert isinstance(trig, PerThreadCounterTrigger)
        with pytest.raises(ValueError):
            make_trigger("per-thread-counter")

    def test_independent_phases(self):
        trig = PerThreadCounterTrigger(3)
        trig.notify_thread(0)
        assert [trig.poll() for _ in range(2)] == [False, False]
        # thread 1 starts its own fresh counter
        trig.notify_thread(1)
        assert [trig.poll() for _ in range(3)] == [False, False, True]
        # back on thread 0: one more poll completes ITS period
        trig.notify_thread(0)
        assert trig.poll() is True

    def test_on_threaded_workload(self):
        program = get_workload("pbob").compile()
        base = run_program(program)
        from repro.instrument import FieldAccessInstrumentation

        instr = FieldAccessInstrumentation()
        transformed = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
            program, instr
        )
        result = run_program(
            transformed, trigger=PerThreadCounterTrigger(53)
        )
        assert result.value == base.value
        assert result.stats.samples_taken > 0
        # each teller thread took some samples
        trig = result.trigger
        assert len(trig.counters) >= 2

    def test_one_chatty_thread_does_not_starve_others(self):
        """With a global counter, a thread executing 10x the checks
        absorbs ~10x the samples; per-thread counters keep per-thread
        sampling periods independent of the other threads' volume."""
        trig = PerThreadCounterTrigger(10)
        samples = {0: 0, 1: 0}
        # thread 1 polls 10x as often as thread 0, interleaved
        for _round in range(100):
            trig.notify_thread(0)
            samples[0] += trig.poll()
            trig.notify_thread(1)
            for _ in range(10):
                samples[1] += trig.poll()
        assert samples[0] == 10   # exactly its own period
        assert samples[1] == 100
