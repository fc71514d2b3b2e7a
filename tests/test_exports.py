"""Each module's ``__all__`` names only what the module defines, so a star import works."""

import importlib
import pkgutil

import pytest

import snmcache

MODULES = ["analysis", "cachesim", "cli", "generators", "shuffle", "trace"]


def test_modules_are_listed():
    assert sorted(m.name for m in pkgutil.iter_modules(snmcache.__path__)) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"snmcache.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from snmcache.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
