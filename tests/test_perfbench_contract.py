"""The benchmark under perfbench/ drives s3sim through its module attributes.

These tests read the benchmark's sources with `ast` (nothing there is
imported or run) and check that every s3sim name they use still exists, so
a refactor of the package cannot break the benchmark without a test failing.
"""
import ast
import importlib
import inspect
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


def _call_target(call, modules):
    """What `mod.f(...)` calls, for an s3sim module bound as `mod`; None for
    any other call, or a method of a value s3sim returned."""
    node, chain = call.func, []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not chain or not isinstance(node, ast.Name) or node.id not in modules:
        return None
    obj = importlib.import_module(modules[node.id])
    for attr in reversed(chain):
        if not isinstance(obj, types.ModuleType):
            return None
        obj = getattr(obj, attr, MISSING)
    return None if obj is MISSING else obj  # a missing name fails the test above


def _perfbench_calls(path):
    """(call, target) for each call in path of an s3sim module attribute,
    without starred arguments."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = _s3sim_imports(tree)[0]
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not any(
                isinstance(a, ast.Starred) for a in node.args) and not any(
                k.arg is None for k in node.keywords):
            target = _call_target(node, modules)
            if target is not None:
                calls.append((node, target))
    return calls


def test_perfbench_calls_bind_to_current_signatures():
    # perfbench is frozen between benchmark changes, so a dropped or renamed
    # parameter it passes would otherwise show only as a failed benchmark run
    calls = {p.name: _perfbench_calls(p) for p in SOURCES}
    # 23 and 8 calls when this test was written; none found means the parse broke
    assert calls["perlayer.py"] and calls["workloads.py"]
    unbound = []
    for name, found in calls.items():
        for call, target in found:
            try:
                inspect.signature(target).bind(*call.args,
                                               **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                unbound.append(f"{name}:{call.lineno} {ast.unparse(call.func)}: {exc}")
    assert not unbound, unbound
