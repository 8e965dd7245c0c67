"""Hotness estimation from sampled profiles.

The paper's framework exists to feed an adaptive optimization system
(§1: Jalapeño's controller). This module turns sampled profiles into
the two decisions such a controller makes: *which methods are hot* and
*which call sites are worth inlining*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.profiles.profile import Profile


@dataclass(frozen=True)
class HotCallSite:
    """One call edge with its observed sample share."""

    caller: str
    site: int
    callee: str
    samples: int
    share: float  # fraction of all call-edge samples

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.caller, self.site, self.callee)


def method_hotness(call_edge_profile: Profile) -> Dict[str, float]:
    """Per-callee share of call-edge samples (a method-entry hotness
    estimate, like Self-93's invocation counters but sampled)."""
    total = call_edge_profile.total()
    if total == 0:
        return {}
    hotness: Dict[str, float] = {}
    for key, count in call_edge_profile.counts.items():
        _caller, _site, callee = key
        hotness[callee] = hotness.get(callee, 0.0) + count / total
    return hotness


def hot_methods(
    call_edge_profile: Profile, threshold: float = 0.05
) -> List[str]:
    """Callees receiving at least *threshold* of call-edge samples,
    hottest first (deterministic tie-break by name)."""
    hotness = method_hotness(call_edge_profile)
    selected = [
        (share, name) for name, share in hotness.items() if share >= threshold
    ]
    selected.sort(key=lambda item: (-item[0], item[1]))
    return [name for _share, name in selected]


def hot_call_sites(
    call_edge_profile: Profile,
    threshold: float = 0.02,
    limit: int = 16,
) -> List[HotCallSite]:
    """Call sites worth inlining: at least *threshold* of samples, at
    most *limit* sites, hottest first."""
    total = call_edge_profile.total()
    if total == 0:
        return []
    sites: List[HotCallSite] = []
    for key, count in call_edge_profile.counts.items():
        caller, site, callee = key
        share = count / total
        if share >= threshold and caller != "<root>":
            sites.append(HotCallSite(caller, site, callee, count, share))
    sites.sort(key=lambda s: (-s.samples, s.caller, s.site, s.callee))
    return sites[:limit]

