"""The benchmark under perfbench/ drives s3sim through its module attributes.

These tests read the benchmark's sources with `ast` (nothing there is
imported or run) and check that every s3sim name they use still exists, so
a refactor of the package cannot break the benchmark without a test failing.
"""
import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))
MISSING = object()


def _import_from(module: str, name: str):
    """What `from module import name` binds: a submodule or an attribute."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, MISSING)


def _s3sim_imports(tree):
    """{local name: s3sim module path} for the s3sim modules a file binds,
    and (import statement, what it binds) for each `from s3sim... import`."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "s3sim":
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["s3sim"] = "s3sim"
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "s3sim"):
            for alias in node.names:
                target = _import_from(node.module, alias.name)
                names.append((f"from {node.module} import {alias.name}", target))
                if isinstance(target, types.ModuleType):
                    modules[alias.asname or alias.name] = target.__name__
    return modules, names


def _attribute_chains(tree, roots):
    """(root, [attr, ...]) for every `root.attr...` expression on a bound module."""
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in roots:
            yield node.id, chain[::-1]


def test_perfbench_sources_exist():
    assert {p.name for p in SOURCES} >= {"run.py", "workloads.py", "spans.py", "perlayer.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_perfbench_uses_only_existing_s3sim_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, names = _s3sim_imports(tree)
    missing = [stmt for stmt, target in names if target is MISSING]
    for root, chain in _attribute_chains(tree, modules):
        obj = importlib.import_module(modules[root])
        for depth, attr in enumerate(chain):
            if not isinstance(obj, types.ModuleType):
                break  # past the package: an attribute of a returned value
            if not hasattr(obj, attr):
                missing.append(".".join([root, *chain[:depth + 1]]))
                break
            obj = getattr(obj, attr)
    assert not missing, f"{path.name} uses names s3sim no longer has: {sorted(set(missing))}"


def test_traced_layers_are_s3sim_modules():
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED_LAYERS" for t in node.targets))
    for layer in layers:
        importlib.import_module(f"s3sim.{layer}")
