"""The benchmark under ``bench/`` imports names from the package and calls
them. A change that moves or renames one of them, or drops or adds a
parameter its calls rely on, must fail here, in the package's own suite,
and not only in the benchmark's tests. So must a change that makes
``SynthSpec`` refuse a workload spec the benchmark records, or one that
makes the benchmark's traced stages, which read attributes of the
package's objects, compute something other than the package."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from tbltagger.corpus import kfold_split
from tbltagger.evaluate import (SynthSpec, cross_validate,
                                generate_synthetic_corpus, strip_tags)
from tbltagger.learner import TrainConfig, train_model
from tbltagger.rules import tag_corpus

from test_learner import mini_spec

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


@pytest.fixture
def import_bench(monkeypatch):
    """Imports a benchmark module as the benchmark does, and unloads every
    benchmark module afterwards."""
    # the benchmark's modules import each other by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module
    for name, loaded in list(sys.modules.items()):
        if Path(getattr(loaded, "__file__", None) or "/").parent == BENCH:
            del sys.modules[name]


@pytest.mark.parametrize("module", MODULES + ["workloads"])
def test_package_names_the_benchmark_imports_resolve(module, import_bench):
    imported = package_imports(parse(module))
    assert imported
    for package_module, name in imported.values():
        assert hasattr(importlib.import_module(package_module), name), \
            "%s.%s" % (package_module, name)
    import_bench(module)


@pytest.mark.parametrize("smoke", [False, True])
def test_package_accepts_every_recorded_workload_spec(smoke, import_bench):
    # SynthSpec refusing a spec recorded in bench/workloads.json fails
    # here rather than in a benchmark run
    workloads = import_bench("workloads").load_workloads(smoke=smoke)
    assert workloads
    for w in workloads.values():
        assert isinstance(w.spec, SynthSpec)


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


def test_traced_stages_compute_what_the_package_does(import_bench):
    traced = import_bench("traced")
    corpus = generate_synthetic_corpus(mini_spec(6, n_sentences=40))
    config = TrainConfig()
    tr = traced.Tracer()
    model, _, _ = traced.traced_train(tr, corpus, config)
    assert model == train_model(corpus, config)
    assert model.lexical_rules and model.contextual_rules
    # another seed draws other stems, so most of its words are unknown
    raw = strip_tags(generate_synthetic_corpus(mini_spec(7, n_sentences=10)))
    counts = {"unknown_types": 0, "tags_changed_contextual": 0}
    assert traced.traced_tag(tr, raw, model, counts) == tag_corpus(raw, model)
    assert counts["unknown_types"] and counts["tags_changed_contextual"]
    plan = kfold_split(corpus, 3, config.seed)
    folds = [traced.traced_fold((corpus, plan, fold_id, config))[:2]
             for fold_id in range(3)]
    report = cross_validate(corpus, 3, config)
    assert folds == [(f.accuracy, f.test_tokens) for f in report.folds]
