"""Profiles and the overlap-percentage accuracy metric."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "profile": ("Profile",),
    "overlap": ("overlap_percentage", "overlap_series"),
    "report": ("profile_summary", "ascii_bar_chart"),
    "statistics": (
        "standard_errors", "expected_overlap", "required_samples",
        "recommended_interval", "chi_square_statistic", "profiles_consistent",
        "overlap_confidence_band",
    ),
})
