"""Lazy package exports (PEP 562).

A package ``__init__`` names its exports in one table,
``{".submodule": ("name", ...)}``, instead of importing them::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".kernel": ("PlacementKernel", "KernelListener"),
    })

A name's submodule is imported the first time the name is read, and the
value is then cached on the package, so importing a package costs only
the package itself and a process loads only the modules it uses.

An exported name must not also be a submodule's name: importing that
submodule would rebind the package attribute to the module object.
Such a package imports eagerly instead (see :mod:`repro.offline`).
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``."""
    origin = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name):
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(sub, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
