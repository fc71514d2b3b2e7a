"""Each module's ``__all__`` names only what the module defines, so a star import works,
importing the package leaves ``numpy.random`` to the first draw, each value rule has one home, and
one function checks the trace invariants."""

import ast
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


def tree(name):
    return ast.parse((Path(snmcache.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))


def imported_modules(name):
    # the last dotted part of each module a module imports: "generators" for "from .generators import x"
    return {module.rpartition(".")[2] for node in ast.walk(tree(name)) if isinstance(node, (ast.Import, ast.ImportFrom))
            for module in ([node.module] if getattr(node, "module", None) else [a.name for a in node.names])}


def test_value_rules_are_defined_in_trace_alone():
    # _require_int lived in generators, so cachesim imported generators for that name alone
    homes = sorted((node.name, name) for name in MODULES for node in ast.walk(tree(name))
                   if isinstance(node, ast.FunctionDef) and node.name in ("_require", "_require_bool", "_require_int"))
    assert homes == [("_require", "trace"), ("_require_bool", "trace"), ("_require_int", "trace")]
    assert "generators" not in imported_modules("cachesim")


def test_one_placement_and_thinning_path():
    # shot_requests and the batch drew their candidates apart and placed and thinned them through a
    # helper that the test oracle called too; now one function makes every draw after the births
    def places(node):
        return isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "daynight_factor"
                                               or getattr(node.func, "attr", None) == "quantile")

    callers = {func.name for func in ast.walk(tree("generators"))
               if isinstance(func, ast.FunctionDef) and any(map(places, ast.walk(func)))}
    assert callers == {"_draw_contents"}


def test_validate_is_the_one_trace_check():
    # read_trace and write_trace checked raw columns through a helper that validate only wrapped
    funcs = {node.name: node for node in ast.walk(tree("trace")) if isinstance(node, ast.FunctionDef)}

    def uses(func, name):
        return any(getattr(node, "id", None) == name for node in ast.walk(func))

    assert [name for name, func in funcs.items() if uses(func, "_CONTENT_ID")] == ["validate"]
    for name in ("read_trace", "write_trace"):
        assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "validate"
                   for node in ast.walk(funcs[name])), name


def test_main_is_the_one_cli_writer():
    # each command made its --out directory (or not: generate and shuffle) and wrote its own files;
    # now each returns them, and main writes them in one write_atomic call, which makes the directories
    def calls(func, name):
        return [node for node in ast.walk(func) if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]

    funcs = [node for node in ast.walk(tree("cli")) if isinstance(node, ast.FunctionDef)]
    assert {func.name: len(calls(func, "write_atomic")) for func in funcs if calls(func, "write_atomic")} == {"main": 1}
    assert [func.name for func in funcs if calls(func, "mkdir")] == []


def test_shuffle_imports_nothing_from_generators():
    # it imported the generator's SeedSequence restatement for its per-slice keys
    assert "generators" not in imported_modules("shuffle")


def test_class_summary_classifies_the_table_itself():
    # it took a class column beside the bounds, so a column made by other bounds gave mislabelled rows
    [func] = [node for node in tree("analysis").body if isinstance(node, ast.FunctionDef) and node.name == "class_summary"]
    assert [a.arg for a in func.args.args] == ["stats", "horizon", "volume_threshold", "lifespan_bounds"]
    called = {node.func.id for node in ast.walk(func) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "classify_contents" in called


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
