"""The benchmark under ``bench/`` imports names from the package. A change
that moves or renames one of them must fail here, in the package's own
suite, and not only in the benchmark's tests."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module", ["traced", "session"])
def test_package_names_the_benchmark_imports_resolve(module, monkeypatch):
    tree = ast.parse((BENCH / (module + ".py")).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "tbltagger"
                for alias in node.names]
    assert imported
    for package_module, name in imported:
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
