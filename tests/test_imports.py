"""Every module of the ``repro`` package imports.

Most modules are reached only through a CLI path or a lazy import, so
a module that imports something gone (a test-only reference, say)
would otherwise fail far from its cause.  Walking the package imports
each one here.
"""

import importlib
import pkgutil

import pytest

import repro


def _raise(name):
    raise ImportError(f"cannot import package {name}")


#: every module and package below ``repro``; walking imports the
#: packages, and a package that fails to import raises here
MODULES = [
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, "repro.", onerror=_raise
    )
]


def test_walk_finds_every_layer():
    layers = {name.split(".")[1] for name in MODULES}
    assert {"sim", "net", "server", "core", "campaign", "worlds", "cli"} <= layers
    assert len(MODULES) > 70


def test_package_ships_no_test_reference():
    # the frozen seed kernel and network and the differential harness
    # live under tests/reference/; the library runs one kernel protocol
    assert not [n for n in MODULES if "_seed" in n or "difftest" in n]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
