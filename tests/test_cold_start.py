"""Cold start: a process loads only the code its run uses.

Package ``__init__`` modules export their public names lazily
(:mod:`repro._lazy`), the CLI imports a verb's subsystem inside the
verb, and the runner loads the cache, ledger, pool and exporters only
when a run asks for them. The gate runs in a fresh interpreter, because
this test process has long since imported everything.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types

import pytest

import repro
from repro._lazy import ORIGINS

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: Every package under src/repro.
PACKAGES = tuple(sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
))

#: Modules one default cell must not load: it uses none of them.
UNUSED_BY_A_DEFAULT_CELL = (
    "repro.adaptive",
    "repro.analysis.planner",
    "repro.analysis.interproc",
    "repro.vm.compiler",
    "repro.telemetry.streaming",
    "repro.telemetry.exporters",
    "repro.profiling.ledger",
    "repro.profiling.flamegraph",
    "repro.harness.tables",
    "repro.harness.sweeps",
    "repro.harness.parallel",
    "repro.harness.derive",
    "repro.harness.baseline_cache",
    "multiprocessing",
)

DEFAULT_CELL = """
import sys

import repro.cli
from repro.harness.experiment import ExperimentRunner, RunSpec
from repro.sampling.framework import Strategy

ExperimentRunner(cache=False).run(RunSpec(
    "compress", Strategy.FULL_DUPLICATION, ("call-edge",),
    trigger="counter", interval=1000,
))
print("\\n".join(sorted(sys.modules)))
"""

COLLISIONS = """
import types

import repro.analysis.reconcile
import repro.cfg.linearize
from repro.analysis import reconcile
from repro.cfg import linearize

for value in (
    reconcile, linearize, repro.analysis.reconcile, repro.cfg.linearize
):
    assert isinstance(value, types.FunctionType), value
"""


def _fresh_python(code: str) -> str:
    """Run *code* in a new interpreter with no ``REPRO_*`` settings."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_default_cell_loads_no_unused_subsystem():
    loaded = set(_fresh_python(DEFAULT_CELL).split())
    assert "repro.harness.experiment" in loaded
    unused = [
        module for module in UNUSED_BY_A_DEFAULT_CELL
        if any(
            name == module or name.startswith(module + ".")
            for name in loaded
        )
    ]
    assert unused == []


def test_names_spelled_like_their_submodule_stay_functions():
    _fresh_python(COLLISIONS)


def test_every_package_exports_through_a_table():
    for package in PACKAGES:
        importlib.import_module(package)
    assert sorted(ORIGINS) == list(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve_to_their_definitions(package):
    module = importlib.import_module(package)
    origins = ORIGINS[package]
    assert set(module.__all__) - set(origins) <= {"__version__"}
    listed = dir(module)
    for name, origin in origins.items():
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(origin), name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == origin, name
        assert name in listed
        assert name in module.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert isinstance(namespace["reconcile"], types.FunctionType)
