"""Tests for profiles and the overlap metric."""

import pytest

from repro.profiles import (
    Profile,
    ascii_bar_chart,
    overlap_percentage,
    overlap_series,
    profile_summary,
)


def make_profile(counts, name="p"):
    profile = Profile(name)
    for key, weight in counts.items():
        profile.record(key, weight)
    return profile


class TestProfile:
    def test_record_and_total(self):
        p = Profile()
        p.record("a")
        p.record("a", 2)
        p.record("b")
        assert p.count("a") == 3
        assert p.total() == 4
        assert len(p) == 2

    def test_fraction_and_normalized(self):
        p = make_profile({"a": 3, "b": 1})
        assert p.fraction("a") == 0.75
        assert p.normalized() == {"a": 0.75, "b": 0.25}
        assert Profile().fraction("a") == 0.0

    def test_top_ordering_deterministic(self):
        p = make_profile({"a": 5, "b": 5, "c": 9})
        assert p.top(3) == [("c", 9), ("a", 5), ("b", 5)]

    def test_merge(self):
        a = make_profile({"x": 1})
        b = make_profile({"x": 2, "y": 3})
        a.merge(b)
        assert a.counts == {"x": 3, "y": 3}

    def test_clear_and_bool(self):
        p = make_profile({"a": 1})
        assert p
        p.clear()
        assert not p


class TestOverlap:
    def test_identical_profiles(self):
        p = make_profile({"a": 10, "b": 30})
        assert overlap_percentage(p, p) == pytest.approx(100.0)

    def test_disjoint_profiles(self):
        a = make_profile({"a": 5})
        b = make_profile({"b": 5})
        assert overlap_percentage(a, b) == 0.0

    def test_scale_invariance(self):
        a = make_profile({"a": 1, "b": 3})
        b = make_profile({"a": 100, "b": 300})
        assert overlap_percentage(a, b) == pytest.approx(100.0)

    def test_symmetry(self):
        a = make_profile({"a": 1, "b": 3, "c": 6})
        b = make_profile({"a": 4, "b": 1, "d": 2})
        assert overlap_percentage(a, b) == pytest.approx(
            overlap_percentage(b, a)
        )

    def test_known_value(self):
        # a: 50/50; b: 100/0 -> overlap = min(.5,1) + min(.5,0) = 50%
        a = make_profile({"x": 1, "y": 1})
        b = make_profile({"x": 2})
        assert overlap_percentage(a, b) == pytest.approx(50.0)

    def test_empty_profiles(self):
        assert overlap_percentage(Profile(), Profile()) == 100.0
        assert overlap_percentage(make_profile({"a": 1}), Profile()) == 0.0

    def test_overlap_series_order_and_content(self):
        perfect = make_profile({"hot": 90, "warm": 9, "cold": 1})
        sampled = make_profile({"hot": 85, "warm": 15})
        series = overlap_series(perfect, sampled, top_n=2)
        assert [key for key, _, _ in series] == ["hot", "warm"]
        assert series[0][1] == pytest.approx(90.0)
        assert series[0][2] == pytest.approx(85.0)


class TestReports:
    def test_summary_contains_top_keys(self):
        p = make_profile({("f", 1, "g"): 10, "rare": 1})
        text = profile_summary(p)
        assert "f:1:g" in text
        assert "total weight 11" in text

    def test_ascii_chart_renders(self):
        perfect = make_profile({"a": 7, "b": 3})
        sampled = make_profile({"a": 6, "b": 4})
        chart = ascii_bar_chart(perfect, sampled, width=20)
        assert "|" in chart and "#" in chart

    def test_ascii_chart_empty(self):
        assert "empty" in ascii_bar_chart(Profile(), Profile())
