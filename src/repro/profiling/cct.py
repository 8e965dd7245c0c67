"""Calling-context trees: first-class context identity for profiles.

The overhead profiler has always captured calling-context *stacks*
(flat ``"a;b;c"`` strings folded into a collapsed-stack table); this
module promotes them to a first-class calling-context tree with two
pieces:

* :class:`ContextTracker` — an interner mapping full calling-context
  paths (root→leaf tuples of function names) to small integer ids,
  assigned in first-observation order. Because the engines' event
  streams are pinned bit-identical, interning contexts *in event
  order* yields identical ids on the reference, fast, and compiled
  engines — which is what lets context ids ride inside recorder
  events and context-keyed suppression windows stay bit-identical
  across engines (tests/test_streaming.py).

* :class:`CallingContextTree` — per-context accumulation of profiler
  samples split by overhead component (check / dispatch / payload /
  ...), with a snapshot table that merges like every other profile
  table.

Snapshot form (the ``"cct"`` subdict of a profiler snapshot and the
profile sections of streamed epochs)::

    {"a;b;c": {"check": [samples, wall_seconds], "dispatch": [...]}}

Keys are ``;``-joined root→leaf paths (the collapsed-stack convention
shared with ``profiler.snapshot()["stacks"]``); values map component
name to a ``[count, wall]`` pair. Both fields are additive, so the
table merges and diffs through the profile snapshot's own
:func:`~repro.profiling.profiler.merge_snapshots` and
:func:`~repro.profiling.profiler.diff_snapshot`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Separator for flattened context paths — matches the collapsed-stack
#: convention used by ``OverheadProfiler.snapshot()["stacks"]``.
PATH_SEPARATOR = ";"


def join_path(path: Sequence[str]) -> str:
    """Flatten a root→leaf path tuple to its snapshot key."""
    return PATH_SEPARATOR.join(path)


def split_path(key: str) -> Tuple[str, ...]:
    """Inverse of :func:`join_path`."""
    if not key:
        return ()
    return tuple(key.split(PATH_SEPARATOR))


class ContextTracker:
    """Interns calling-context paths to dense integer ids.

    Ids are assigned in first-observation order starting at 0, so two
    trackers fed the same observation sequence produce identical
    mappings — the determinism the cross-engine bit-identity contract
    leans on.
    """

    __slots__ = ("_ids", "_paths")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, ...], int] = {}
        self._paths: List[Tuple[str, ...]] = []

    def __len__(self) -> int:
        return len(self._paths)

    def intern(self, path: Sequence[str]) -> int:
        """The id for *path*, allocating one on first observation."""
        key = tuple(path)
        ctx = self._ids.get(key)
        if ctx is None:
            ctx = len(self._paths)
            self._ids[key] = ctx
            self._paths.append(key)
        return ctx

    def intern_frames(self, frames) -> int:
        """Intern the path named by a live frame stack (root→leaf)."""
        return self.intern([f.function.name for f in frames])

    def path_of(self, ctx: int) -> Tuple[str, ...]:
        """The path interned as *ctx* (raises on unknown ids)."""
        return self._paths[ctx]

    def items(self) -> List[Tuple[int, Tuple[str, ...]]]:
        return list(enumerate(self._paths))

    def entries_since(self, mark: int) -> List[Tuple[int, str]]:
        """``(id, joined-path)`` pairs allocated at or after *mark* —
        the incremental context table a streaming epoch carries."""
        return [
            (ctx, join_path(path))
            for ctx, path in enumerate(self._paths[mark:], start=mark)
        ]

    def table(self) -> Dict[str, str]:
        """The full id→path mapping in JSON-friendly form."""
        return {str(ctx): join_path(path) for ctx, path in self.items()}


class CallingContextTree:
    """Per-context, per-component sample accumulation.

    The tree structure is implicit in the interned paths (a node's
    parent is its path minus the leaf); storage is a flat table per
    context id, which keeps the hot :meth:`record` path to a dict
    lookup and two adds.
    """

    __slots__ = ("tracker", "_cells")

    def __init__(self) -> None:
        self.tracker = ContextTracker()
        self._cells: Dict[int, Dict[str, List[float]]] = {}

    def record(
        self,
        path: Sequence[str],
        component: str,
        count: int = 1,
        wall: float = 0.0,
    ) -> int:
        """Attribute *count* samples / *wall* seconds of *component* to
        the context named by *path*; returns the context id."""
        ctx = self.tracker.intern(path)
        cell = self._cells.get(ctx)
        if cell is None:
            cell = {}
            self._cells[ctx] = cell
        slot = cell.get(component)
        if slot is None:
            cell[component] = [count, wall]
        else:
            slot[0] += count
            slot[1] += wall
        return ctx

    def nodes(self) -> int:
        return len(self._cells)

    def snapshot(self) -> Dict[str, Dict[str, List[float]]]:
        """The snapshot table (see module docstring)."""
        return {
            join_path(self.tracker.path_of(ctx)): {
                component: list(slot) for component, slot in cell.items()
            }
            for ctx, cell in self._cells.items()
        }


def top_contexts(
    table: Mapping[str, Mapping[str, Sequence[float]]],
    limit: int = 10,
    component: Optional[str] = None,
) -> List[Tuple[str, float, float]]:
    """The *limit* hottest contexts as ``(path, samples, wall)``,
    ranked by sample count (wall breaks ties), optionally restricted to
    one overhead component."""
    rows: List[Tuple[str, float, float]] = []
    for key, cell in table.items():
        if component is not None:
            slot = cell.get(component)
            if slot is None:
                continue
            rows.append((key, slot[0], slot[1]))
        else:
            n = 0.0
            wall = 0.0
            for slot in cell.values():
                n += slot[0]
                wall += slot[1]
            rows.append((key, n, wall))
    rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return rows[:limit]


def cct_from_events(
    events: Iterable,
    contexts: Mapping[str, str],
) -> Dict[str, Dict[str, List[float]]]:
    """A CCT table recovered from recorder events carrying ``ctx``
    data fields (the fallback hotness surface when the profiler's CCT
    was not enabled — e.g. a spool written with ``context=True`` but
    ``profile=False``).

    Event kinds are mapped to pseudo-components: ``sample.fired`` →
    ``"sample"``, ``check.taken`` → ``"check"``, everything else to its
    own kind string. *contexts* is the spool's id→path table.
    """
    table: Dict[str, Dict[str, List[float]]] = {}
    for event in events:
        ctx: Optional[int] = None
        for key, value in event.data:
            if key == "ctx":
                ctx = int(value)
                break
        if ctx is None:
            continue
        path = contexts.get(str(ctx))
        if path is None:
            continue
        kind = event.kind
        if kind == "sample.fired":
            component = "sample"
        elif kind == "check.taken":
            component = "check"
        else:
            component = kind
        cell = table.setdefault(path, {})
        slot = cell.get(component)
        if slot is None:
            cell[component] = [1, 0.0]
        else:
            slot[0] += 1
    return table
