"""Package exports: every ``__all__`` name resolves to its defining object.

The package ``__init__``s name their exports in a table and import a
submodule only when one of its names is first read.  These checks cover
every module the API reference documents (``scripts/gen_api_docs``).
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.core
from repro.core.simulation import simulate

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
SRC = REPO / "src"


def _packages() -> list:
    sys.path.insert(0, str(SCRIPTS))
    try:
        import gen_api_docs

        return list(gen_api_docs.PACKAGES)
    finally:
        sys.path.remove(str(SCRIPTS))


PACKAGES = _packages()


def _defined_in(name: str, obj) -> bool:
    """Whether a plain module of :mod:`repro` binds ``obj`` as ``name``
    (classes and functions: the module that defines them)."""
    home = sys.modules.get(getattr(obj, "__module__", None) or "")
    if home is not None and getattr(obj, "__name__", None) == name:
        return getattr(home, name) is obj
    return any(
        vars(mod).get(name) is obj
        for modname, mod in list(sys.modules.items())
        if modname.startswith("repro.") and not hasattr(mod, "__path__")
    )


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_every_export_resolves_to_its_definition(pkg_name):
    pkg = importlib.import_module(pkg_name)
    assert pkg.__all__, pkg_name
    for name in pkg.__all__:
        if name == "__version__":
            continue
        obj = getattr(pkg, name)
        assert _defined_in(name, obj), f"{pkg_name}.{name}"


SHADOWED = """
import importlib, json, pkgutil, sys, types
import repro

# every submodule first, then every name
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
shadowed = [
    f"{pkg_name}.{name}"
    for pkg_name in sys.argv[1:]
    for name in importlib.import_module(pkg_name).__all__
    if isinstance(getattr(sys.modules[pkg_name], name), types.ModuleType)
]
print(json.dumps(shadowed))
"""


def test_no_export_is_shadowed_by_a_submodule():
    """A name that is also a submodule's name turns into the module
    object once that submodule is imported, unless the package binds it
    eagerly after the import (why :mod:`repro.offline` stays eager).
    Checked in a fresh interpreter, where no name has been read yet."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SHADOWED, *PACKAGES],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_dir_lists_every_export(pkg_name):
    pkg = importlib.import_module(pkg_name)
    assert set(pkg.__all__) <= set(dir(pkg))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.core, "no_such_name")


def test_star_import_binds_all_of_repro():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["simulate"] is simulate
