"""Syzygy modules, matrices, minors, Jacobians."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from symrees import Ideal, RingError, fixtures, make_ring, work_limit
from symrees.curves import sample_parameters
from symrees.groebner import syzygy_lifts
from symrees.ideal_ops import dimension, ideal_equal
from symrees.oracle import _column_degree, column_in_span, syzygies_up_to_degree
from symrees.syzygy import (
    PolyMatrix,
    _ColumnKey,
    apply_row,
    entry_ideal,
    hessian,
    jacobian,
    minors,
    syzygies,
)

R3 = make_ring(["x", "y", "z"])
X, Y, Z = R3.gens()
QUARTIC = R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2")
PARTIALS = [QUARTIC.derivative(v).primitive() for v in ["x", "y", "z"]]


def minimalize_columns(cols, gen_degrees):
    """Drop graded-redundant columns (standard-graded rings only).

    Used for reporting a trimmed syzygy matrix; the entry ideal does not
    depend on the choice of generating columns.
    """
    kept: list = []
    for col in sorted(cols, key=lambda c: _column_degree(c, gen_degrees) or 0):
        if not column_in_span(col, kept, gen_degrees):
            kept.append(list(col))
    return kept


def gradient(f):
    """Content-one partials, zero ones dropped, as `analyze_family` builds them."""
    parts = [f.derivative(v) for v in ["x", "y", "z"]]
    return [p * (1 / p.content()) for p in parts if not p.is_zero]


def test_koszul_column_for_two_variables():
    phi = syzygies([X, Y])
    cols = phi.columns()
    assert len(cols) == 1
    assert cols[0] in ([Y, -X], [-Y, X])


def test_every_column_annihilates():
    phi = syzygies(PARTIALS)
    for col in phi.columns():
        assert apply_row(PARTIALS, col).is_zero


def test_displayed_quartic_columns_are_generated():
    phi = syzygies(PARTIALS)
    degs = [p.degree() for p in PARTIALS]
    c1 = [R3.parse("x*y^2 - x*z^2"), R3.parse("-y^3 - y*z^2"), R3.parse("y^2*z + z^3")]
    c2 = [R3.parse("-x^3 - x*z^2"), R3.parse("x^2*y - y*z^2"), R3.parse("x^2*z + z^3")]
    for col in (c1, c2):
        assert apply_row(PARTIALS, col).is_zero
        assert column_in_span(col, phi.columns(), degs)


def test_higher_cusp_special_member_syzygy():
    f = R3.parse("y^3*z + x^4")
    gens = [f.derivative(v) for v in ["x", "y", "z"]]
    col = [R3.zero, Y, -3 * Z]
    assert apply_row(gens, col).is_zero


def test_syzygy_completeness_against_oracle():
    degs = [p.degree() for p in PARTIALS]
    phi = syzygies(PARTIALS)
    for col in syzygies_up_to_degree(PARTIALS, 7):
        assert column_in_span(col, phi.columns(), degs)
    gens = [X, Y * Y]
    phi2 = syzygies(gens)
    for col in syzygies_up_to_degree(gens, 6):
        assert column_in_span(col, phi2.columns(), [1, 2])


def test_koszul_containment_property():
    rng = random.Random(23)
    gens = PARTIALS
    degs = [p.degree() for p in gens]
    phi = syzygies(gens)
    for i, j in combinations(range(3), 2):
        koszul = [R3.zero] * 3
        koszul[i] = gens[j]
        koszul[j] = -gens[i]
        assert apply_row(gens, koszul).is_zero
        assert column_in_span(koszul, phi.columns(), degs)


def test_regular_sequence_syzygies_are_koszul():
    for gens in ([X, Y], [X, Y, Z]):
        phi = syzygies(gens)
        degs = [1] * len(gens)
        mini = minimalize_columns(phi.columns(), degs)
        n = len(gens)
        assert len(mini) == n * (n - 1) // 2
        for col in mini:
            assert apply_row(gens, col).is_zero


def test_entry_ideal_invariant_under_permutation():
    rng = random.Random(4)
    gens = list(PARTIALS)
    base = entry_ideal(syzygies(gens))
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        other = entry_ideal(syzygies(shuffled))
        assert ideal_equal(base, other)


def test_entry_ideal_codimension_three_node_quartic():
    phi = syzygies(PARTIALS)
    assert dimension(entry_ideal(phi)).codim == 3


def test_jacobian_examples():
    M = jacobian([X * X])
    assert M.rows == 3 and M.cols == 1
    assert M[0, 0] == 2 * X and M[1, 0].is_zero and M[2, 0].is_zero

    four = jacobian([R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z")])
    assert four.rows == 3 and four.cols == 2
    assert four[0, 0] == R3.parse("2*x - z")
    assert four[1, 1] == R3.parse("2*y - z")
    assert four[2, 0] == -X and four[2, 1] == -Y


def test_hessian_of_triple_product():
    H = hessian(X * Y * Z)
    for i in range(3):
        assert H[i, i].is_zero
    assert H[0, 1] == Z and H[0, 2] == Y and H[1, 2] == X
    # principal 2x2 minors are squared mixed partials (up to sign)
    I2 = minors(H, 2)
    for sq in (X * X, Y * Y, Z * Z):
        from symrees import ideal_member
        assert ideal_member(sq, I2)


def test_minors_examples_and_errors():
    phi = syzygies([X, Y])
    I1 = minors(PolyMatrix(R3, 2, 1, ((phi[0, 0],), (phi[1, 0],))), 1)
    assert ideal_equal(I1, Ideal(R3, [X, Y]))
    assert dimension(I1).codim == 2
    with pytest.raises(RingError):
        minors(phi, 5)


def test_syzygies_of_zero_generator():
    phi = syzygies([X, R3.zero])
    # the unit vector on the zero generator is a syzygy
    unit_found = any(col[0].is_zero and col[1] == R3.one for col in phi.columns())
    assert unit_found
    for col in phi.columns():
        assert apply_row([X, R3.zero], col).is_zero
    zero, one = R3.zero, R3.one
    assert phi.columns() == [[zero, one]]
    assert syzygies([zero, X]).columns() == [[one, zero]]
    # all-zero input: the unit columns, lifted with no work and sorted
    with work_limit(0):
        assert syzygies([zero, zero]).columns() == [[zero, one], [one, zero]]
    # a zero generator adds its unit column and leaves the others in place
    mixed = syzygies([X, zero, Y]).columns()
    assert [[a, c] for a, b, c in mixed if b.is_zero] == syzygies([X, Y]).columns()
    assert [zero, one, zero] in mixed and len(mixed) == 2


def test_matrix_shape_validation():
    with pytest.raises(RingError):
        PolyMatrix(R3, 2, 2, ((X,),))


def test_apply_row_skips_zero_factors_and_checks_rings():
    gens = [X, Y, Z]
    assert apply_row(gens, [Y, -X, R3.zero]).is_zero
    assert apply_row(gens, [R3.zero, Z, Y]) == 2 * Y * Z
    other = make_ring(["x", "y", "w"])
    with pytest.raises(RingError):
        apply_row(gens, [R3.zero, other.zero, Y])


# ---------------------------------------------------------------------------
# Schreyer pairs pruned by the chain criterion


def _member(key):
    fam = fixtures.family_by_name(key)
    alpha = sample_parameters(fam.ring(), fam.constraint_polys(), seed=0)
    return fam.family().evaluate_block("param", alpha)


PRUNED_CASES = ([(c.slug, c.curve) for c in fixtures.CURVES]
                + [(f"member-{k}", lambda k=k: _member(k)) for k in "afk"])


@pytest.mark.parametrize("name,curve", PRUNED_CASES, ids=[n for n, _ in PRUNED_CASES])
def test_pruned_module_is_complete_to_koszul_degree(name, curve):
    gens = gradient(curve())
    cols = syzygies(gens).columns()
    for col in cols:
        assert apply_row(gens, col).is_zero
    degs = [g.degree() for g in gens]
    for col in syzygies_up_to_degree(gens, 2 * max(degs)):
        assert column_in_span(col, cols, degs)


def test_chain_criterion_keeps_pairs_whose_lcms_tie():
    # lcm(x^2*y, y*z^2) = lcm(x^2*z, y*z^2) = x^2*y*z^2: each of these two
    # pairs has a chain through the third element with one strictly smaller
    # lcm, and dropping both would lose the syzygy between x^2*z and y*z^2
    gens = [R3.parse(g) for g in ("x^2*y", "x^2*z", "y*z^2")]
    cols = syzygies(gens).columns()
    for col in syzygies_up_to_degree(gens, 6):
        assert column_in_span(col, cols, [3, 3, 3])


@pytest.mark.parametrize("key,count", [("a", 13), ("b", 16), ("f", 19), ("k", 21)])
def test_family_ring_column_counts(key, count):
    # 80, 66, 90 and 91 columns with one Schreyer generator per basis pair
    F = fixtures.family_by_name(key).family()
    assert syzygies(gradient(F)).cols == count


GRADIENTS = ([pytest.param(lambda f=f: gradient(f.family()), id=f"family-{f.key}")
              for f in fixtures.FAMILIES]
             + [pytest.param(lambda c=c: gradient(c.curve()), id=c.slug)
                for c in fixtures.CURVES])


@pytest.mark.parametrize("build", GRADIENTS)
def test_lazy_column_order_is_the_printed_key_order(build):
    # the columns sort as by (degree, every entry printed), from any start
    cols = list(dict.fromkeys(map(tuple, syzygy_lifts(build()))))
    degree = lambda c: max((p.degree() or 0) for p in c if not p.is_zero)
    printed = lambda c: (degree(c), tuple(str(p) for p in c))
    want = sorted(cols, key=printed)
    assert [tuple(c) for c in syzygies(build()).columns()] == want
    for start in (cols[::-1], random.Random(0).sample(cols, len(cols))):
        assert sorted(start, key=_ColumnKey) == sorted(start, key=printed)
