"""Persistent, content-addressed cache for exhaustive baseline runs.

Every experiment cell starts from its workload's uninstrumented
baseline run (for overhead denominators, semantic tripwires, and
Property-1 bounds). Those runs are deterministic, so recomputing them
per session — as :class:`repro.harness.ExperimentRunner` historically
did with its in-memory dict — is pure waste once a program has been
measured. This module stores baseline results on disk, keyed by a
SHA-256 over everything the result depends on:

* the program's full disassembly (content, not workload name — editing
  a workload source or the compiler invalidates its entries),
* the instrumentation configuration (empty for true baselines, but the
  key function accepts kinds so instrumented reference runs can share
  the cache),
* the cost model (every op cost and scalar knob),
* the VM run parameters (fuel, timer period),
* a schema version, bumped whenever VM semantics change in a way the
  other components don't capture.

A changed :class:`~repro.vm.cost_model.CostModel` therefore *cannot*
hit a stale entry: it hashes to a different key. Entries are JSON, one
file per key, written atomically (tmp + rename) so concurrent pool
workers can share one cache directory without locking — double writes
of the same key are idempotent by construction.

The directory defaults to ``$REPRO_CACHE_DIR``, falling back to
``~/.cache/repro-baselines``. ``python -m repro cache clear`` empties
it; deleting the directory is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bytecode.disassembler import disassemble_program
from repro.bytecode.program import Program
from repro.errors import HarnessError
from repro.vm.cost_model import CostModel
from repro.vm.interpreter import VMResult
from repro.vm.tracing import ExecStats

#: Bump when VM execution semantics change without a corresponding
#: change in program content, cost model, or run parameters.
CACHE_SCHEMA_VERSION = 1

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-baselines``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-baselines"


# ---------------------------------------------------------------------------
# fingerprints


def program_fingerprint(program: Program) -> str:
    """SHA-256 over the program's disassembly and entry point.

    The disassembly is a complete, deterministic rendering of every
    class and function body, so any change to compiled code — source
    edit, compiler change, different scale — changes the fingerprint.
    """
    payload = program.entry + "\n" + disassemble_program(program)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cost_model_fingerprint(cost_model: CostModel) -> str:
    """SHA-256 over every cost the model charges."""
    payload = {
        "op_costs": sorted(
            (int(op), cost) for op, cost in cost_model.op_costs.items()
        ),
        "check_cost": cost_model.check_cost,
        "yieldpoint_cost": cost_model.yieldpoint_cost,
        "sample_transfer_penalty": cost_model.sample_transfer_penalty,
        "io_base_cost": cost_model.io_base_cost,
        "thread_switch_cost": cost_model.thread_switch_cost,
        "gc_every_allocs": cost_model.gc_every_allocs,
        "gc_pause_cycles": cost_model.gc_pause_cycles,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def baseline_key(
    program: Program,
    cost_model: CostModel,
    fuel: int,
    timer_period: int,
    instrumentation: Tuple[str, ...] = (),
) -> str:
    """The cache key for one (program, config) baseline run."""
    payload = "|".join(
        [
            f"schema={CACHE_SCHEMA_VERSION}",
            f"program={program_fingerprint(program)}",
            f"cost_model={cost_model_fingerprint(cost_model)}",
            f"fuel={fuel}",
            f"timer_period={timer_period}",
            f"instrumentation={','.join(instrumentation)}",
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the cache


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }


@dataclass
class BaselineCache:
    """Disk-backed store of :class:`VMResult` values for baseline runs.

    Only results whose value and output are plain integers are
    persisted (workload checksums always are); anything else is
    silently skipped rather than mis-serialized. Unreadable or
    corrupt entries count as misses — the cache can never turn a
    valid run into a wrong one, only save recomputation.
    """

    directory: Optional[pathlib.Path] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.directory is None:
            self.directory = default_cache_dir()
        self.directory = pathlib.Path(self.directory)
        # A missing directory is created by the first store; anything
        # else at the path would make every store fail without a word.
        if self.directory.exists() and not self.directory.is_dir():
            raise HarnessError(
                f"cache directory {self.directory} is not a directory"
            )

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Optional[VMResult]:
        """The cached result for *key*, or None (counted as a miss)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        try:
            result = _decode_result(payload)
        except (KeyError, TypeError, ValueError):
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def label(self, path: pathlib.Path) -> Optional[str]:
        """The label of the entry at *path* (``?`` when it has none), or
        None when :meth:`get` could not read the entry."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            _decode_result(payload)
        except (OSError, KeyError, TypeError, ValueError):
            return None
        return str(payload.get("label") or "?")

    def put(self, key: str, result: VMResult, label: str = "") -> bool:
        """Persist *result* under *key*; returns False when skipped."""
        if not _encodable(result):
            return False
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "label": label,
            "value": result.value,
            "output": list(result.output),
            "stats": result.stats.as_dict(),
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Atomic publish: pool workers may race on the same key;
            # both write identical content, and rename is atomic.
            fd, tmp = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self._path(key))
        except OSError:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        return True

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list:
        """Sorted list of cached entry paths."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                self.stats.errors += 1
        return removed


def _encodable(result: VMResult) -> bool:
    if not isinstance(result.value, int) or isinstance(result.value, bool):
        return False
    return all(
        isinstance(item, int) and not isinstance(item, bool)
        for item in result.output
    )


def _decode_result(payload: object) -> VMResult:
    if not isinstance(payload, dict):
        raise TypeError("cache entry is not a JSON object")
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        raise ValueError("schema mismatch")
    if not isinstance(payload["stats"], dict):
        raise TypeError("cache entry stats are not a JSON object")
    stats = ExecStats.from_dict(payload["stats"])
    value = payload["value"]
    output = payload["output"]
    if not isinstance(value, int) or not isinstance(output, list):
        raise TypeError("malformed cache entry")
    return VMResult(value=value, output=list(output), stats=stats)
