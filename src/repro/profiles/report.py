"""Human-readable profile reports (text rendering).

Used by the examples and the Figure 7 benchmark to print perfect-vs-
sampled comparisons without plotting dependencies.
"""

from __future__ import annotations

from typing import List

from repro.profiles.overlap import overlap_series
from repro.profiles.profile import Profile


def format_key(key) -> str:
    if isinstance(key, tuple):
        return ":".join(str(part) for part in key)
    return str(key)


def profile_summary(profile: Profile, top_n: int = 10) -> str:
    """A short table of the heaviest keys with their percentages."""
    lines: List[str] = [
        f"profile {profile.name!r}: {len(profile)} keys, "
        f"total weight {profile.total()}"
    ]
    total = profile.total()
    for key, weight in profile.top(top_n):
        pct = 100.0 * weight / total if total else 0.0
        lines.append(f"  {pct:6.2f}%  {weight:>10d}  {format_key(key)}")
    return "\n".join(lines)


def ascii_bar_chart(
    perfect: Profile, sampled: Profile, top_n: int = 30, width: int = 50
) -> str:
    """An ASCII rendition of Figure 7: bars for the perfect profile,
    ``o`` markers for the sampled percentages."""
    series = overlap_series(perfect, sampled, top_n)
    if not series:
        return "(empty profiles)"
    max_pct = max(
        max(p, s) for _, p, s in series
    ) or 1.0
    lines: List[str] = []
    for key, perfect_pct, sampled_pct in series:
        bar_len = int(round(width * perfect_pct / max_pct))
        marker = min(width, int(round(width * sampled_pct / max_pct)))
        row = list("#" * bar_len + " " * (width - bar_len))
        if 0 <= marker < len(row):
            row[marker] = "o"
        lines.append(
            f"{perfect_pct:6.2f}% |{''.join(row)}| {format_key(key)}"
        )
    return "\n".join(lines)
