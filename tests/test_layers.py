"""The package's layers: packed monomials, a basis's stored form and seeded
Groebner caches stay in the engine.

The engine's packed-word layout, its budget and its monomial-ideal helpers
are private to `groebner` and `hilbert` (with `rings` and `budget`, which
define or spend the budget), and only those two modules put a basis into an
Ideal's Groebner cache.  A GroebnerBasis's slots are `groebner`'s alone,
and only `hilbert` besides reads its engine records.  Ideal calculus
(`ideal_ops`) and the invariants (`blowup`) call the engine for meets,
products and eliminations instead.
These tests read the package's source, so a helper that reaches past the
engine fails here even where its outputs stay right.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symrees"

ENGINE_NAMES = {"_budget", "_layout", "_Layout", "_fmax", "_minimal", "_top",
                "_FIELD_MASK", "_monomial_basis", "_check_within"}
ENGINE_MODULES = {"groebner", "hilbert", "rings", "budget"}
CACHE_WRITERS = {"groebner", "hilbert"}
# the certificate run's basis is handed to the pair's own I object
CACHE_WRITE_EXCEPTIONS = {("blowup", "make_pair")}
# a GroebnerBasis's stored form, and the modules that may read each part
BASIS_READERS = {"_elements": {"groebner"}, "_recs": {"groebner"}, "_run": {"groebner"},
                 "_records": {"groebner", "hilbert"}}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _functions(tree):
    """(enclosing top-level function name or None, node) for every node."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield name, node


def _is_cache(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_gb_cache"


def test_only_the_engine_reads_its_private_names():
    found = []
    for module, tree in _modules():
        if module in ENGINE_MODULES:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{module}:{node.lineno} {n}" for n in names if n in ENGINE_NAMES]
    assert not found


def _basis_reads(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in BASIS_READERS]


def test_only_the_engine_reads_a_basis_store():
    modules = dict(_modules())
    found = [f"{module}:{node.lineno} {node.attr}"
             for module, tree in modules.items() for node in _basis_reads(tree)
             if module not in BASIS_READERS[node.attr]]
    assert not found
    # the rule sees the reads it allows: hilbert reads records, and only them
    assert {node.attr for node in _basis_reads(modules["hilbert"])} == {"_records"}


def test_only_the_engine_writes_groebner_caches():
    found = []
    for module, tree in _modules():
        if module in CACHE_WRITERS:
            continue
        for func, node in _functions(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                write = any(isinstance(t, ast.Subscript) and _is_cache(t.value)
                            for t in targets)
            elif isinstance(node, ast.Call):
                write = (isinstance(node.func, ast.Attribute)
                         and node.func.attr in ("update", "setdefault")
                         and _is_cache(node.func.value))
            else:
                continue
            if write and (module, func) not in CACHE_WRITE_EXCEPTIONS:
                found.append(f"{module}:{node.lineno} in {func}")
    assert not found


def test_the_checks_see_the_package():
    # a rule that reads no module, or misses the one allowed write, checks nothing
    modules = dict(_modules())
    assert {"groebner", "hilbert", "ideal_ops", "blowup"} <= set(modules)
    writes = [func for func, node in _functions(modules["blowup"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "update" and _is_cache(node.func.value)]
    assert writes == ["make_pair"]
