"""The benchmark suite: ten MiniJ analogs of the paper's workloads.

The paper evaluates on SPECjvm98 (input size 10), the Jalapeño
optimizing compiler on itself, pBOB, and VolanoMark. We cannot run Java
benchmarks, so each workload here is a MiniJ program engineered to the
same *character* — the mix of loop backedges, calls, field accesses,
allocation, threading and I/O that drives that benchmark's row in the
paper's tables (see each module's docstring for the mapping rationale).

Every workload is deterministic and returns a checksum from ``main`` so
semantic preservation under transformation is testable. ``scale``
multiplies the input size; the default keeps a full baseline run around
10^5 VM instructions so the whole experiment matrix fits in CI time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro.bytecode.program import Program
from repro.errors import HarnessError
from repro.frontend.compiler import CompileOptions, compile_baseline


@dataclass(frozen=True)
class Workload:
    """One benchmark: a MiniJ source template plus metadata.

    Most workloads are MiniJ source (the ``source`` template, with the
    literal token ``__SCALE__`` wherever the problem size appears). The
    dynamic-code workloads (``dynload``, ``osr``) exercise opcodes MiniJ
    has no syntax for, so they supply a ``builder`` — a function from
    scale to a raw :class:`Program` — instead; :func:`prepare_baseline`
    applies the same VM conventions ``compile_baseline`` would.
    """

    name: str
    paper_name: str
    description: str
    source: str = ""
    default_scale: int = 1
    builder: Optional[Callable[[int], Program]] = None

    def render_source(self, scale: Optional[int] = None) -> str:
        if self.builder is not None and not self.source:
            raise HarnessError(
                f"{self.name}: bytecode-built workload has no MiniJ source"
            )
        actual = self.default_scale if scale is None else scale
        if actual < 1:
            raise HarnessError(f"{self.name}: scale must be >= 1")
        return self.source.replace("__SCALE__", str(actual))

    def compile(self, scale: Optional[int] = None) -> Program:
        """Compile the experiment-ready baseline (O2 + yieldpoints +
        call-site ids). Cached per (workload, scale); callers receive a
        fresh copy so transforms can't corrupt the cache."""
        actual = self.default_scale if scale is None else scale
        if actual < 1:
            raise HarnessError(f"{self.name}: scale must be >= 1")
        return _compile_cached(self, actual).copy()


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise HarnessError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def source_workload(label: str, source: str) -> Workload:
    """An ad-hoc workload for MiniJ *source*, registered under *label*
    (a file path, or ``-`` for stdin), so a FILE target runs through
    the same machinery as a suite member.

    Registering the same label with the same text again returns the
    registered workload. Different text replaces it, and the compile
    cache is keyed on the workload's content, so the new text is
    compiled. Suite members cannot be shadowed.
    """
    if label in workload_names():
        raise HarnessError(f"{label!r} names a suite workload")
    existing = _REGISTRY.get(label)
    if existing is not None and existing.source == source:
        return existing
    workload = Workload(
        name=label, paper_name=label, description="MiniJ source",
        source=source,
    )
    _REGISTRY[label] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise HarnessError(
            f"unknown workload {name!r}; available: {workload_names()}"
        ) from None


def paper_workload_names() -> List[str]:
    """The ten analogs of the paper's benchmark rows (Tables 1-5),
    in table order — the workloads with published reference data."""
    _ensure_loaded()
    return [
        "compress",
        "jess",
        "db",
        "javac",
        "mpegaudio",
        "mtrt",
        "jack",
        "optcompiler",
        "pbob",
        "volano",
    ]


def workload_names() -> List[str]:
    """Suite order follows the paper's tables; the dynamic-code
    workloads (outside the paper's matrix) come last."""
    return paper_workload_names() + ["dynload", "osr"]


def all_workloads() -> List[Workload]:
    return [get_workload(name) for name in workload_names()]


def prepare_baseline(program: Program) -> Program:
    """Apply the ``compile_baseline`` conventions to a hand-built
    program: yieldpoints (entry + backedges), call-site ids, and full
    verification — loadable templates included, so code arriving via
    LOADFN/REPLACEFN follows the same conventions as static code."""
    from repro.bytecode.opcodes import Op
    from repro.bytecode.verifier import verify_program
    from repro.cfg.graph import CFG
    from repro.cfg.linearize import linearize
    from repro.sampling.yieldpoints import (
        insert_yieldpoints,
        insert_yieldpoints_cfg,
    )
    from repro.instrument.call_edge import assign_call_site_ids

    result = insert_yieldpoints(program)
    for name in sorted(result.loadables):
        cfg = CFG.from_function(result.loadables[name])
        insert_yieldpoints_cfg(cfg)
        result.loadables[name] = linearize(cfg, notes={"yieldpoints": True})
    assign_call_site_ids(result)
    for name in sorted(result.loadables):
        ordinal = 0
        for ins in result.loadables[name].code:
            if ins.op in (Op.CALL, Op.SPAWN):
                ins.meta = (name, ordinal)
                ordinal += 1
    verify_program(result)
    return result


@lru_cache(maxsize=None)
def _compile_cached(workload: Workload, scale: int) -> Program:
    if workload.builder is not None:
        return prepare_baseline(workload.builder(scale))
    return compile_baseline(
        workload.render_source(scale), CompileOptions(opt_level=2)
    )


_loaded = False


def _ensure_loaded() -> None:
    """Import the workload modules (each registers itself)."""
    global _loaded
    if _loaded:
        return
    from repro.workloads import (  # noqa: F401
        compress,
        db,
        dynload,
        jack,
        javac,
        jess,
        mpegaudio,
        mtrt,
        optcompiler,
        osr,
        pbob,
        volano,
    )

    _loaded = True
