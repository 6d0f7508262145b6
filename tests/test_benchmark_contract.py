"""The names the benchmark harness under `perfbench/` uses from the program.

`perfbench/tracer.py` wraps program functions by module and attribute name,
and `perfbench/workloads.py` builds its items from the public API.  A rename
in `src/` breaks either one without failing any other test, so these tests
resolve every traced name and build every workload (without running it).
"""

from __future__ import annotations

import importlib
import importlib.util
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
