"""The linear-algebra oracle: `echelon`, its kernels and its independence."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import symrees.oracle
from symrees import make_ring
from symrees.oracle import (
    echelon,
    kernel,
    monomials_of_degree,
    monomials_up_to,
    syzygies_up_to_degree,
)
from symrees.syzygy import apply_row

R3 = make_ring(["x", "y", "z"])


def test_echelon_leaves_its_rows_alone():
    # the second row reduces by the first with multiplier 1, and the third
    # needs its own multiplier; neither may change the caller's dicts
    rows = [{0: 1}, {0: 1}, {0: 2, 1: 3}, {1: 5, 0: 1}]
    copies = [dict(row) for row in rows]
    assert len(echelon(rows)) == 2
    assert rows == copies
    assert len(echelon(rows + [{2: 1}])) == 3


def _fractional_form(rng, degree):
    """A homogeneous form of one degree with non-integer coefficients: the
    first is 1/q with q > 1, so the content has a denominator."""
    mons = rng.sample(monomials_of_degree(3, degree), min(3, degree + 1))
    return R3.monomial(mons[0], Fraction(1, rng.randint(2, 7))) + sum(
        (R3.monomial(m, Fraction(rng.randint(-9, 9), rng.randint(1, 7))) for m in mons[1:]),
        R3.zero)


def test_syzygies_up_to_degree_are_syzygies_and_fill_the_kernel():
    # rows scaled to integers only in their column part would give vectors
    # that are not syzygies here; content-1 integer generators hide that
    rng = random.Random(2900)
    for _ in range(12):
        gens = [_fractional_form(rng, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        assert all(g.scale.denominator > 1 for g in gens)
        degree = 4
        syz = syzygies_up_to_degree(gens, degree)
        for col in syz:
            assert apply_row(gens, col).is_zero
        unknowns = [(g, m) for g in gens for m in monomials_up_to(3, degree - g.degree())]
        images = [(R3.monomial(m) * g).coeffs for g, m in unknowns]
        assert len(syz) == len(unknowns) - len(echelon(images))


def test_kernel_vectors_annihilate_fractional_columns():
    rng = random.Random(29)
    for _ in range(40):
        columns = [{k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for k in rng.sample(range(6), rng.randint(0, 3))}
                   for _ in range(rng.randint(1, 7))]
        basis = kernel(columns)
        for vec in basis:
            assert vec and all(isinstance(v, int) for v in vec.values())
            image = {}
            for j, v in vec.items():
                for k, c in columns[j].items():
                    image[k] = image.get(k, 0) + v * c
            assert not any(image.values())
        # 12 clears every denominator drawn
        rank = len(echelon({k: int(v * 12) for k, v in col.items() if v} for col in columns))
        assert len(basis) == len(columns) - rank
        # the kernel vectors are independent
        assert len(echelon(basis)) == len(basis)


def test_oracle_imports_only_the_ring_layer():
    # the oracle is the second route results are checked against, so it
    # must not reach the Groebner engine, directly or through another module
    tree = ast.parse(Path(symrees.oracle.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package.add(node.module or "")
            elif node.module.split(".")[0] == "symrees":
                package.add(node.module)
        elif isinstance(node, ast.Import):
            package |= {alias.name for alias in node.names
                        if alias.name.split(".")[0] == "symrees"}
    assert package == {"rings"}
