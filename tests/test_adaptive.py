"""Tests for the adaptive optimization client."""

import pytest

from repro.adaptive import (
    AdaptiveController,
    hot_call_sites,
    hot_methods,
    method_hotness,
    profile_directed_inline,
)
from repro.adaptive.hotness import HotCallSite
from repro.frontend import compile_baseline
from repro.profiles import Profile
from repro.vm import run_program

SOURCE = """
// hotHelper is deliberately larger than the static inliner's bound so
// only *profile-directed* inlining can eliminate the call.
func hotHelper(x) {
    var v = (x * 17 + 3) % 1009;
    if (v > 500) {
        v = v - 250;
    }
    if (v % 3 == 0) {
        v = v + 9;
    }
    return v;
}

func coldHelper(x) {
    return x + 1000000;
}

func main() {
    var acc = 0;
    for (var i = 0; i < 120; i = i + 1) {
        acc = (acc + hotHelper(i)) % 1000003;
    }
    acc = (acc + coldHelper(acc)) % 1000003;
    print(acc);
    return acc;
}
"""


def fake_profile(entries):
    profile = Profile("call-edge")
    for key, count in entries.items():
        profile.record(key, count)
    return profile


class TestHotness:
    def test_method_hotness_shares(self):
        profile = fake_profile(
            {("main", 0, "hot"): 90, ("main", 1, "cold"): 10}
        )
        hotness = method_hotness(profile)
        assert hotness["hot"] == pytest.approx(0.9)
        assert hotness["cold"] == pytest.approx(0.1)

    def test_hot_methods_threshold_and_order(self):
        profile = fake_profile(
            {
                ("m", 0, "a"): 50,
                ("m", 1, "b"): 45,
                ("m", 2, "c"): 5,
            }
        )
        assert hot_methods(profile, threshold=0.10) == ["a", "b"]

    def test_hot_call_sites_skips_root(self):
        profile = fake_profile(
            {("<root>", 0, "main"): 1, ("main", 0, "f"): 99}
        )
        sites = hot_call_sites(profile, threshold=0.0)
        assert [s.callee for s in sites] == ["f"]

    def test_hot_call_sites_limit(self):
        profile = fake_profile(
            {("m", i, "f"): 10 for i in range(30)}
        )
        assert len(hot_call_sites(profile, threshold=0.0, limit=5)) == 5

    def test_empty_profile(self):
        assert method_hotness(Profile()) == {}
        assert hot_call_sites(Profile()) == []


class TestRecompile:
    def test_inline_hot_site(self):
        baseline = compile_baseline(SOURCE)
        base = run_program(baseline)
        sites = [HotCallSite("main", 0, "hotHelper", 100, 0.9)]
        optimized, report = profile_directed_inline(baseline, sites)
        assert report.inlined == [("main", 0, "hotHelper")]
        result = run_program(optimized)
        assert result.value == base.value
        assert result.stats.cycles < base.stats.cycles

    def test_missing_site_reported(self):
        baseline = compile_baseline(SOURCE)
        sites = [HotCallSite("main", 99, "hotHelper", 1, 0.1)]
        _optimized, report = profile_directed_inline(baseline, sites)
        assert report.inlined == []
        assert report.skipped[0][3] == "site not found"

    def test_oversized_callee_skipped(self):
        baseline = compile_baseline(SOURCE)
        sites = [HotCallSite("main", 0, "hotHelper", 100, 0.9)]
        _optimized, report = profile_directed_inline(
            baseline, sites, max_callee_size=1
        )
        assert report.skipped[0][3] == "callee too large"

    def test_summary_text(self):
        baseline = compile_baseline(SOURCE)
        sites = [HotCallSite("main", 0, "hotHelper", 100, 0.9)]
        _optimized, report = profile_directed_inline(baseline, sites)
        assert "hotHelper" in report.summary()


class TestController:
    def test_full_lifecycle(self):
        baseline = compile_baseline(SOURCE)
        outcome = AdaptiveController(interval=37).optimize(baseline)
        assert outcome.samples_taken > 0
        # the hot helper was identified from *sampled* data
        assert any(
            s.callee == "hotHelper" for s in outcome.hot_sites
        )
        # and inlining made steady-state faster
        assert outcome.optimized_cycles < outcome.baseline_cycles
        assert outcome.speedup_pct > 0

    def test_profiling_cheaper_than_exhaustive(self):
        from repro.instrument import CallEdgeInstrumentation
        from repro.sampling import Strategy, transform_program

        baseline = compile_baseline(SOURCE)
        outcome = AdaptiveController(interval=37).optimize(baseline)

        instr = CallEdgeInstrumentation()
        exhaustive = transform_program(baseline, instr, Strategy.EXHAUSTIVE)
        exhaustive_cycles = run_program(exhaustive).stats.cycles
        assert outcome.profiling_cycles < exhaustive_cycles

    def test_summary_mentions_cycles(self):
        baseline = compile_baseline(SOURCE)
        outcome = AdaptiveController(interval=37).optimize(baseline)
        text = outcome.summary()
        assert "baseline" in text and "optimized" in text

    def test_cold_helper_not_inlined(self):
        baseline = compile_baseline(SOURCE)
        outcome = AdaptiveController(
            interval=37, site_threshold=0.05
        ).optimize(baseline)
        assert all(
            s.callee != "coldHelper" for s in outcome.hot_sites
        )
