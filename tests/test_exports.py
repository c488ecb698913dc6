"""Every name a module or the package root lists in __all__ exists, and
a star import of each works, so a name left behind by a move or a
deletion fails here."""

import importlib
import pkgutil

import pytest

import spectral3

MODULES = sorted(m.name for m in pkgutil.iter_modules(spectral3.__path__))


def test_modules_are_found():
    assert "forward" in MODULES and "grid" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("spectral3." + name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec("from spectral3.%s import *" % name, namespace)
    for n in getattr(module, "__all__", ()):
        assert namespace[n] is getattr(module, n)


def test_package_root_all_names_resolve():
    namespace: dict = {}
    exec("from spectral3 import *", namespace)
    assert [n for n in spectral3.__all__
            if namespace[n] is not getattr(spectral3, n)] == []
