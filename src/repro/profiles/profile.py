"""Profile data structures: weighted event counters.

A :class:`Profile` is a multiset of hashable event keys — call edges,
field identifiers, (block, value) pairs — with integer weights. The
overlap metric (:mod:`repro.profiles.overlap`) compares two profiles'
*normalized* weight distributions, so a sampled profile with 1/1000 of
the events can still overlap 90%+ with a perfect one.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Tuple

Key = Hashable


class Profile:
    """A named counter over event keys."""

    def __init__(self, name: str = "profile"):
        self.name = name
        self.counts: Dict[Key, int] = {}

    # -- recording ---------------------------------------------------------

    def record(self, key: Key, weight: int = 1) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + weight

    def merge(self, other: "Profile") -> None:
        """Add *other*'s counts into this profile."""
        for key, weight in other.counts.items():
            self.record(key, weight)

    def clear(self) -> None:
        self.counts.clear()

    def copy(self) -> "Profile":
        """An independent profile with the same name and counts."""
        clone = Profile(self.name)
        clone.counts = dict(self.counts)
        return clone

    # -- queries -----------------------------------------------------------

    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, key: Key) -> int:
        return self.counts.get(key, 0)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def fraction(self, key: Key) -> float:
        """This key's share of all recorded weight (the paper's
        *sample-percentage*, as a fraction)."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.counts.get(key, 0) / total

    def normalized(self) -> Dict[Key, float]:
        """Key -> fraction of total weight."""
        total = self.total()
        if total == 0:
            return {}
        return {key: weight / total for key, weight in self.counts.items()}

    def top(self, n: int = 10) -> List[Tuple[Key, int]]:
        """The *n* heaviest keys, weight-descending then key order for
        determinism."""
        return sorted(
            self.counts.items(), key=lambda item: (-item[1], repr(item[0]))
        )[:n]

    def __repr__(self) -> str:
        return f"<Profile {self.name!r} keys={len(self)} total={self.total()}>"
