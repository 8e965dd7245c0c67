"""The overlap-percentage accuracy metric (paper §4.4).

For two profiles P (perfect) and S (sampled), each key's
*sample-percentage* is its share of the profile's total weight. The
per-key overlap is the minimum of the two sample-percentages, and the
profile overlap is the sum over all keys, expressed as a percentage:

    overlap(P, S) = 100 * Σ_k min(P(k)/|P|, S(k)/|S|)

Identical distributions give 100; disjoint supports give 0. Because the
metric compares *normalized* weights, a sampled profile at interval N
(≈ 1/N of the events) can still reach high overlap — that is the
paper's definition of an accurate sampled profile.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.profiles.profile import Profile


def overlap_percentage(perfect: Profile, sampled: Profile) -> float:
    """Overlap of *sampled* with *perfect*, in [0, 100].

    Two empty profiles overlap 100 (nothing to disagree about); one
    empty and one not overlap 0.
    """
    total_p = perfect.total()
    total_s = sampled.total()
    if total_p == 0 and total_s == 0:
        return 100.0
    if total_p == 0 or total_s == 0:
        return 0.0
    if len(perfect) <= len(sampled):
        smaller, smaller_total = perfect, total_p
        larger, larger_total = sampled, total_s
    else:
        smaller, smaller_total = sampled, total_s
        larger, larger_total = perfect, total_p
    acc = 0.0
    larger_counts = larger.counts
    for key, weight in smaller.counts.items():
        other = larger_counts.get(key, 0)
        if other:
            acc += min(weight / smaller_total, other / larger_total)
    return 100.0 * acc


def overlap_series(
    perfect: Profile, sampled: Profile, top_n: int = 50
) -> List[Tuple[Hashable, float, float]]:
    """Figure-7-style series: for the *top_n* heaviest keys of the
    perfect profile, ``(key, perfect_pct, sampled_pct)`` where each pct
    is the key's sample-percentage in its own profile.

    This is exactly the bar (perfect) + circle (sampled) data of the
    paper's Figure 7.
    """
    total_p = perfect.total()
    total_s = sampled.total()
    series: List[Tuple[Hashable, float, float]] = []
    for key, weight in perfect.top(top_n):
        perfect_pct = 100.0 * weight / total_p if total_p else 0.0
        sampled_pct = (
            100.0 * sampled.count(key) / total_s if total_s else 0.0
        )
        series.append((key, perfect_pct, sampled_pct))
    return series
