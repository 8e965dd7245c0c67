"""Lazy public names for the package ``__init__`` modules.

A package lists its public names in one table, keyed by the submodule
that defines them, and hands it to :func:`lazy_exports`. The package
then imports nothing up front: the PEP 562 ``__getattr__`` installed
here imports a name's submodule on first access and caches the value
in the package, so a process loads only the subsystems it uses
(docs/HARNESS.md, "Cold start").
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Dict, List, Sequence

#: package -> {public name: the module that defines it}, for every
#: package that exports through :func:`lazy_exports`.
ORIGINS: Dict[str, Dict[str, str]] = {}


def lazy_exports(package: str, table: Dict[str, Sequence[str]]) -> List[str]:
    """Install ``__getattr__`` and ``__dir__`` on *package* for the names
    of *table* and return those names, the package's ``__all__``.

    *table* maps a module to the public names it defines. The module is
    named relative to *package*, as after the dot of ``from .name
    import``: ``"ledger"`` in ``repro.profiling`` is
    ``repro.profiling.ledger``, and ``".harness.experiment"`` is
    ``repro.harness.experiment``.

    A name spelled like its own submodule (``repro.cfg.linearize``) is
    bound at once, because importing that submodule later would rebind
    the package attribute to the module.
    """
    origins = ORIGINS[package] = {
        name: importlib.util.resolve_name(f".{module}", package)
        for module, names in table.items()
        for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            origin = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # __import__, unlike importlib.import_module, shows up in
        # ``python -X importtime``.
        __import__(origin)
        value = namespace[name] = getattr(sys.modules[origin], name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origins))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name, origin in origins.items():
        if origin == f"{package}.{name}":
            __getattr__(name)
    return list(origins)
