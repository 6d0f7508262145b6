"""The names the benchmark harness under `perfbench/` uses from the program.

`perfbench/tracer.py` wraps program functions by module and attribute name,
and `perfbench/workloads.py` builds its items from the public API.  A rename
in `src/` breaks either one without failing any other test, so these tests
resolve every traced name, build every workload (without running it) and
resolve every program name the workloads read.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _load("tracer")
    missing = []
    for layer, modname, attr in tracer.LAYERS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}: {modname}.{attr}")
    assert not missing
    assert {layer for layer, _, _ in tracer.LAYERS} == set(tracer.REPORTED)


@pytest.mark.parametrize("name", ["catalog", "curves", "torsion"])
def test_every_workload_builds(name):
    # the workloads iterate fixtures.FAMILIES, CURVES and PAIR_FIXTURES, so a
    # fixture added to those tuples changes the benchmark's work
    workloads = _load("workloads")
    count = {"catalog": 13, "curves": 17, "torsion": 10}[name]
    items = workloads.build(name, 0)
    assert len(items) == count, (
        f"the {name} workload has {len(items)} items, not {count}: a new fixture in"
        " fixtures.FAMILIES, CURVES or PAIR_FIXTURES is a benchmark revision")
    assert len({item.name for item in items}) == count
    assert all(callable(item.run) and callable(item.check) for item in items)


def test_every_program_name_the_workloads_read_exists():
    # the workloads read these names only inside each item's run(), which
    # test_every_workload_builds does not call, so resolve them statically
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "symrees":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "symrees":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(owner, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(getattr(owner, alias.name)):
                    modules[alias.asname or alias.name] = getattr(owner, alias.name)
    assert modules
    for node in ast.walk(tree):
        root, chain = node, []
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if not (chain and isinstance(root, ast.Name) and root.id in modules):
            continue
        owner = modules[root.id]
        for attr in chain:
            if not hasattr(owner, attr):
                missing.append(".".join([root.id] + chain))
                break
            owner = getattr(owner, attr)
    assert not missing
