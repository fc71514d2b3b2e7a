"""Each module's ``__all__`` names only what the module defines, so a star import works, and
importing the package leaves ``numpy.random`` to the first draw."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded at the first draw: loading it at import slows the start of every command
    src = str(Path(snmcache.__file__).resolve().parents[1])
    code = "import sys, snmcache, snmcache.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
