"""The benchmark under ``bench/`` imports names from the package and calls
them. A change that moves or renames one of them, or drops or adds a
parameter its calls rely on, must fail here, in the package's own suite,
and not only in the benchmark's tests."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ["traced", "session"]


def package_imports(tree):
    """local name -> (package module, name) of each ``from tbltagger...``
    import."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "tbltagger"
            for alias in node.names}


def parse(module):
    return ast.parse((BENCH / (module + ".py")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MODULES)
def test_package_names_the_benchmark_imports_resolve(module, monkeypatch):
    imported = package_imports(parse(module))
    assert imported
    for package_module, name in imported.values():
        assert hasattr(importlib.import_module(package_module), name), \
            "%s.%s" % (package_module, name)

    # the benchmark's modules import each other by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        importlib.import_module(module)
    finally:
        for name, loaded in list(sys.modules.items()):
            if Path(getattr(loaded, "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


@pytest.mark.parametrize("module", MODULES)
def test_benchmark_calls_bind_to_package_signatures(module):
    tree = parse(module)
    imported = package_imports(tree)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in imported]
    assert calls
    for call in calls:
        # a call that unpacks *args or **kwargs cannot be counted here
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(keyword.arg is not None for keyword in call.keywords)
        package_module, name = imported[call.func.id]
        target = getattr(importlib.import_module(package_module), name)
        try:
            inspect.signature(target).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail("bench/%s.py line %d: %s.%s(...): %s"
                        % (module, call.lineno, package_module, name, exc))
