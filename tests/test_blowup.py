"""Symmetric/Rees/embedded presentations and the derived invariants."""

from __future__ import annotations

from math import gcd
from operator import le

import pytest

from symrees import Ideal, RingError, groebner, ideal_member, make_ring, normal_form
from symrees.blowup import (
    CertificateError,
    aluffi_dimension,
    aluffi_presentation,
    analytic_spread,
    artin_rees_number,
    is_linear_type,
    make_pair,
    rees_ideal,
    relation_type,
    relative_rees_ideal,
    standard_base_check,
    sym_forms,
    sym_ideal,
    vv_pieces,
)
from symrees.curves import gradient_pair
from symrees.ideal_ops import (
    block_degree,
    dimension,
    ideal_contains,
    ideal_equal,
    minimal_homogeneous_generators,
    saturate_principal,
)
from symrees.fixtures import CURVES, PAIR_FIXTURES, four_points_pair, pair_by_name
from symrees.oracle import monomials_of_degree, rank

R2 = make_ring(["x", "y"])
XX, YY = R2.gens()
R3 = make_ring(["x", "y", "z"])
X, Y, Z = R3.gens()


def quartic_pair():
    return gradient_pair(R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2")).pair


def quintic_pair():
    return gradient_pair(R3.parse("y^4*z + x^5 + x^3*y^2")).pair


# ---------------------------------------------------------------------------
# pair construction and certificates


def test_certificates_solved_and_verified():
    pair = make_pair(R2, [XX, YY], [XX + 2 * YY])
    rebuilt = R2.zero
    for c, b in zip(pair.certificates[0], pair.i_gens):
        rebuilt = rebuilt + c * b
    assert rebuilt == XX + 2 * YY


def test_certificate_failure():
    with pytest.raises(CertificateError):
        make_pair(R2, [XX], [YY])
    with pytest.raises(CertificateError):
        make_pair(R2, [XX, YY], [XX], certificates=[[R2.zero, R2.one]])


def test_euler_certificate_for_gradient_pair():
    gp = gradient_pair(R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2"))
    (row,) = gp.pair.certificates
    rebuilt = R3.zero
    for c, b in zip(row, gp.pair.i_gens):
        rebuilt = rebuilt + c * b
    assert rebuilt == gp.f


# ---------------------------------------------------------------------------
# the three presentations


def test_rees_ideal_koszul():
    pair = make_pair(R2, [XX, YY], [])
    rees = rees_ideal(pair)
    ext = pair.fiber_ring
    want = Ideal(ext, [ext.parse("x*T2 - y*T1")])
    assert ideal_equal(rees, want)


def test_rees_ideal_is_relative_rees_with_empty_j():
    for gens in ([XX, YY], [XX * XX, XX * YY, YY * YY]):
        pair = make_pair(R2, gens, [])
        assert relative_rees_ideal(pair) == rees_ideal(pair)


def test_sym_forms_subset_of_rees():
    pair = make_pair(R2, [XX * XX, XX * YY, YY * YY], [])
    rees = rees_ideal(pair)
    for form in sym_forms(pair):
        assert ideal_member(form, rees)


def test_sym_equals_rees_for_regular_sequence():
    pair = make_pair(R2, [XX, YY], [])
    assert ideal_equal(sym_ideal(pair), rees_ideal(pair))
    assert is_linear_type(pair)


def test_linear_type_examples():
    assert is_linear_type(quartic_pair())
    assert not is_linear_type(quintic_pair())


def test_linear_type_iff_sym_equals_embedded_for_principal_pairs():
    # for J = (f) with f a regular element, linear type of I is equivalent
    # to the symmetric presentation matching the embedded one
    for pair in (quartic_pair(), quintic_pair()):
        pres = aluffi_presentation(pair)
        assert is_linear_type(pair) == ideal_equal(pres.sym_ideal,
                                                   pres.aluffi_ideal)


def test_aluffi_presentation_regular_residue():
    # J = (x) inside (x, y): the embedded algebra is a polynomial ring
    pair = make_pair(R2, [XX, YY], [XX])
    pres = aluffi_presentation(pair)
    ext = pres.ring
    want = Ideal(ext, [ext.var("x"), ext.var("T1")])
    assert ideal_equal(pres.aluffi_ideal, want)
    assert ideal_equal(pres.sym_ideal, want)
    assert aluffi_dimension(pres).dim == 2


def test_pair_presentation_after_chain_criterion():
    # the golden `aluffi present` pair; the sym ideal was recorded with one
    # more generator, y^2*T1 - x^2*T3, before Schreyer pairs were pruned
    pair = make_pair(R2, [XX * XX, XX * YY, YY * YY], [XX * XX + YY * YY])
    pres = aluffi_presentation(pair)
    ext = pres.ring
    recorded = ["y*T2 - x*T3", "y*T1 - x*T2", "y^2*T1 - x^2*T3",
                "x^2 + y^2", "T1 + T3"]
    assert ideal_equal(pres.sym_ideal, Ideal(ext, [ext.parse(g) for g in recorded]))
    assert [str(g) for g in pres.sym_ideal.gens] == [
        "y*T2 - x*T3", "y*T1 - x*T2", "x^2 + y^2", "T1 + T3"]
    assert [str(g) for g in pres.rees_ideal.gens] == [
        "y*T1 - x*T2", "y*T2 - x*T3", "T2^2 - T1*T3"]
    assert [str(g) for g in pres.aluffi_ideal.gens] == [
        "y*T1 - x*T2", "y*T2 - x*T3", "T2^2 - T1*T3", "x^2 + y^2", "T1 + T3"]
    assert [str(t) for t in pres.tilde_j] == ["T1 + T3"]


def test_gradient_presentation_matches_euler_form():
    pair = quartic_pair()
    pres = aluffi_presentation(pair)
    ext = pres.ring
    euler_form = ext.parse("x*T1 + y*T2 + z*T3")
    f = ext.parse("x^2*y^2 + x^2*z^2 + y^2*z^2")
    want = Ideal(ext, list(pres.rees_ideal.gens) + [f, euler_form])
    assert ideal_equal(pres.aluffi_ideal, want)


def test_squeezing_inclusions():
    for pair in (four_points_pair(), quintic_pair()):
        pres = aluffi_presentation(pair)
        assert ideal_contains(pres.aluffi_ideal, pres.sym_ideal)
        assert ideal_contains(pres.aluffi_ideal, pres.rees_ideal)


def test_four_points_sym_strictly_smaller_than_aluffi():
    pres = aluffi_presentation(four_points_pair())
    assert ideal_contains(pres.aluffi_ideal, pres.sym_ideal)
    assert not ideal_equal(pres.sym_ideal, pres.aluffi_ideal)


def test_four_points_aluffi_strictly_below_relative_rees():
    pair = four_points_pair()
    pres = aluffi_presentation(pair)
    rel = relative_rees_ideal(pair)
    assert ideal_contains(rel, pres.aluffi_ideal)
    assert not ideal_equal(rel, pres.aluffi_ideal)


def test_lift_independence():
    pair = four_points_pair()
    base = aluffi_presentation(pair)
    from symrees.syzygy import syzygies
    col = syzygies(list(pair.i_gens)).columns()[0]
    certs = [[c + s for c, s in zip(row, col)] for row in pair.certificates]
    alt = aluffi_presentation(make_pair(pair.ring, list(pair.i_gens),
                                        list(pair.j_gens), certs))
    assert ideal_equal(base.aluffi_ideal, alt.aluffi_ideal)


# ---------------------------------------------------------------------------
# torsion pieces


def test_vv_zero_for_regular_residue():
    pair = make_pair(R2, [XX, YY], [XX])
    assert vv_pieces(pair, 3).all_zero


def test_vv_four_points():
    report = vv_pieces(four_points_pair(), 2)
    piece = report.piece(2)
    assert piece.nonzero
    assert piece.internal_dims == ((4, 2),)
    assert all(k == 1 for k in piece.annihilator_exponents)
    # witnesses really separate the two ideals
    pair = four_points_pair()
    from symrees.ideal_ops import ideal_power, ideal_product, intersect
    lower = ideal_product(pair.j_ideal, pair.i_ideal)
    meet = intersect(pair.j_ideal, ideal_power(pair.i_ideal, 2))
    for w in piece.witnesses:
        assert ideal_member(w, meet)
        assert not ideal_member(w, lower)


def test_vv_coordinate_points_zero():
    assert vv_pieces(pair_by_name("coordinate-points"), 4).all_zero


def test_vv_equigenerated_forms_zero():
    # same-degree forms with a power of the irrelevant ideal stay torsion-free
    assert vv_pieces(pair_by_name("equigenerated-forms"), 4).all_zero


def test_vv_gradient_pair_has_torsion():
    # singular curves with algebraically independent partials have
    # nonzero kernel toward the relative blowup, visible by degree 2
    report = vv_pieces(quartic_pair(), 2)
    assert report.piece(2).nonzero


def test_vv_bound_validation():
    with pytest.raises(RingError):
        vv_pieces(four_points_pair(), 1)


def test_vv_reads_lead_monomials_once_per_basis(monkeypatch):
    from symrees.groebner import GroebnerBasis
    real = GroebnerBasis.leading_monomials
    read = []

    def counting(gb):
        read.append(gb)
        return real(gb)

    monkeypatch.setattr(GroebnerBasis, "leading_monomials", counting)
    report = vv_pieces(four_points_pair(), 4)
    monkeypatch.undo()
    # the meet's and the lower ideal's basis, once each for t = 2, 3, 4
    assert len(read) == 2 * 3
    assert report == vv_pieces(four_points_pair(), 4)


# ---------------------------------------------------------------------------
# Artin-Rees, standard bases, relation type


def test_artin_rees_examples():
    assert artin_rees_number(make_pair(R2, [XX, YY], [XX]), 3) == 1
    R1 = make_ring(["x"])
    x = R1.var("x")
    assert artin_rees_number(make_pair(R1, [x], [x * x]), 4) == 2
    assert artin_rees_number(four_points_pair(), 2) == 2


def test_artin_rees_iff_vv_zero():
    for pair, expect_zero in ((make_pair(R2, [XX, YY], [XX]), True),
                              (four_points_pair(), False)):
        ar = artin_rees_number(pair, 3)
        vv = vv_pieces(pair, 3).all_zero
        assert (ar == 1) == vv == expect_zero


def test_standard_base_examples():
    sb = standard_base_check(make_pair(R2, [XX, YY], [XX]), 3)
    assert sb.orders == (1,) and sb.passed

    sb2 = standard_base_check(make_pair(R2, [XX, YY], [XX * XX]), 3)
    assert sb2.orders == (2,) and sb2.passed
    # order 2 generator: the map to the relative blowup cannot be injective
    assert not vv_pieces(make_pair(R2, [XX, YY], [XX * XX]), 2).all_zero

    sb3 = standard_base_check(four_points_pair(), 2)
    assert sb3.orders == (1, 1)
    assert dict(sb3.per_degree) == {1: True, 2: False}
    assert not sb3.passed


def test_relation_type_examples():
    assert relation_type(Ideal(R2, [XX, YY])) == 1
    # linear type: every minimal Rees generator of the quartic pair is linear
    assert relation_type(quartic_pair()) == 1
    # (x^2, xy, y^2): the Veronese relation is a minimal quadratic generator,
    # so the relation type is 2 (mu = 3 > dim forbids linear type)
    veronese = make_pair(R2, [XX * XX, XX * YY, YY * YY], [])
    rees = rees_ideal(veronese)
    ext = veronese.fiber_ring
    q = ext.parse("T1*T3 - T2^2")
    assert ideal_member(q, rees)
    assert not ideal_member(q, sym_ideal(veronese))
    assert relation_type(veronese) == 2
    # non-linear-type gradient ideal needs a generator of fiber degree >= 2
    rt = relation_type(quintic_pair(), 8)
    assert rt is not None and rt >= 2


def test_analytic_spread_examples():
    assert analytic_spread(Ideal(R2, [XX, YY])) == 2
    assert analytic_spread(Ideal(R2, [XX * XX, XX * YY])) == 2
    assert analytic_spread(quartic_pair().i_ideal) == 3
    with pytest.raises(RingError):
        analytic_spread(Ideal(R2, [XX + R2.one]))


def test_aluffi_dimension_examples():
    assert aluffi_dimension(aluffi_presentation(quartic_pair())).dim == 3
    assert aluffi_dimension(aluffi_presentation(quintic_pair())).dim == 3


def test_dimension_bounds_on_fixtures():
    # dim A <= dim R with equality for hypersurface pairs,
    # and dim A >= dim R/J + 1 when I/J has a regular element
    for pair in (quartic_pair(), quintic_pair()):
        pres = aluffi_presentation(pair)
        d = aluffi_dimension(pres).dim
        n = pair.ring.arity
        assert d <= n
        dimRJ = dimension(pair.j_ideal).dim
        assert d >= dimRJ + 1


def test_relative_rees_distinct_for_quintic():
    pair = quintic_pair()
    pres = aluffi_presentation(pair)
    rel = relative_rees_ideal(pair)
    assert ideal_contains(rel, pres.aluffi_ideal)
    assert not ideal_equal(rel, pres.aluffi_ideal)


def test_verify_component_list_quartic():
    from symrees.blowup import verify_component_list
    pair = quartic_pair()
    pres = aluffi_presentation(pair)
    ext = pres.ring
    var = ext.var
    candidates = [
        Ideal(ext, [var("x"), var("y"), var("z")]),
        Ideal(ext, [var("x"), var("y"), var("T3")]),
        Ideal(ext, [var("x"), var("z"), var("T2")]),
        Ideal(ext, [var("y"), var("z"), var("T1")]),
        relative_rees_ideal(pair),
    ]
    report = verify_component_list(pres, candidates)
    assert report.all_contain
    assert all(row.dim.dim == 3 for row in report.rows)
    assert report.radical_forward
    assert report.covers


def test_verify_component_list_rejects_bad_candidate():
    from symrees.blowup import verify_component_list
    pair = make_pair(R2, [XX, YY], [XX])
    pres = aluffi_presentation(pair)
    ext = pres.ring
    good = Ideal(ext, [ext.var("x"), ext.var("T1")])
    bad = Ideal(ext, [ext.var("x")])
    report = verify_component_list(pres, [good, bad])
    assert report.rows[0].contains_presentation
    assert report.rows[0].dim.dim == 2
    assert not report.rows[1].contains_presentation


# ---------------------------------------------------------------------------
# the meets J cap I^t, shared through the pair cache


def test_meets_computed_once_per_pair_and_degree(monkeypatch):
    import symrees.blowup as blowup
    calls = []
    real = blowup.intersect

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(blowup, "intersect", counting)
    pair = four_points_pair()
    vv = vv_pieces(pair, 4)
    ar = artin_rees_number(pair, 4)
    sb = standard_base_check(pair, 4)
    assert len(calls) == 4          # J cap I^t for t = 1..4
    assert vv == vv_pieces(four_points_pair(), 4)
    assert ar == artin_rees_number(four_points_pair(), 4)
    assert sb == standard_base_check(four_points_pair(), 4)


def test_shared_pair_gives_serial_results_across_threads():
    import sys
    from concurrent.futures import ThreadPoolExecutor
    fns = [vv_pieces, artin_rees_number, vv_pieces, artin_rees_number]
    serial = [fn(four_points_pair(), 4) for fn in fns]
    pair = four_points_pair()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the threads' cache accesses
    try:
        with ThreadPoolExecutor(max_workers=len(fns)) as pool:
            futures = [pool.submit(fn, pair, 4) for fn in fns]
            assert [f.result(timeout=60) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)


PAIRS_AND_CURVES = (
    [pytest.param(lambda name=name: pair_by_name(name), id=name)
     for name in sorted(PAIR_FIXTURES)]
    + [pytest.param(lambda curve=curve: gradient_pair(curve.curve()).pair, id=curve.slug)
       for curve in CURVES])


@pytest.mark.parametrize("build_pair", PAIRS_AND_CURVES)
def test_rees_ideal_is_the_symmetric_ideal_saturated_by_a_generator(build_pair):
    # a second route to the Rees ideal: R is a domain, so the R-torsion of
    # Sym_R(I) is killed by any nonzero b in I, and Rees(I) = Sym_R(I) : b^inf
    pair = build_pair()
    b = pair.i_gens[0].transport(pair.fiber_ring)
    assert ideal_equal(saturate_principal(sym_ideal(pair), b), rees_ideal(pair))


def _monomial_map(pair, a, b):
    """The monomials x^alpha T^beta of bidegree (a, b), with their images
    x^alpha b^beta; for I generated in one degree, the (a, b) piece of the
    Rees ideal is the kernel of this map."""
    ring, gens = pair.ring, list(pair.i_gens)
    mons = [(alpha, beta) for alpha in monomials_of_degree(ring.arity, a)
            for beta in monomials_of_degree(len(gens), b)]
    images = []
    for alpha, beta in mons:
        image = ring.monomial(alpha)
        for g, e in zip(gens, beta):
            image = image * g ** e
        images.append(image)
    return mons, images


@pytest.mark.parametrize("build_pair", PAIRS_AND_CURVES)
def test_rees_ideal_bigraded_pieces_are_kernels_of_the_monomial_map(build_pair):
    # a second route to the Rees ideal's bigraded pieces: for I generated in one
    # degree d, its (a, b) piece is the kernel of x^alpha T^beta -> x^alpha b^beta
    # on the monomials of bidegree (a, b), and in(Rees) has as many monomials
    # there as the piece has dimension.  The a = 0 row is the special fiber;
    # the piece (d, 1) holds the Koszul syzygies, so it is never zero.
    pair = build_pair()
    ring, gens = pair.ring, list(pair.i_gens)
    (d,) = {g.degree() for g in gens}
    lead = groebner(rees_ideal(pair)).leading_monomials()
    bidegrees = {(a, b) for a in range(4) for b in range(4 - a)}
    bidegrees |= {(a, 1) for a in range(d + 1)}
    kernels = {}
    for a, b in sorted(bidegrees):
        mons, images = _monomial_map(pair, a, b)
        in_lead = sum(any(all(map(le, m, alpha + beta)) for m in lead)
                      for alpha, beta in mons)
        index = {m: i for i, m in enumerate(monomials_of_degree(ring.arity, a + b * d))}
        rows = []
        for image in images:
            row = [0] * len(index)
            for m, c in image.terms.items():
                row[index[m]] = c
            rows.append(row)
        kernels[a, b] = len(mons) - rank(rows)
        assert in_lead == kernels[a, b], (a, b)
    assert kernels[d, 1]


def _echelon(rows):
    """Fraction-free echelon form of sparse integer rows {column: value}.

    Each row is reduced on its largest column by the pivot row kept there;
    returns the pivot rows by pivot column, so their number is the rank.
    """
    pivots = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                content = gcd(*row.values())
                pivots[col] = {k: v // content for k, v in row.items()}
                break
            f, g = pivot[col], row[col]
            common = gcd(f, g)
            f, g = f // common, g // common
            if f != 1:
                row = {k: f * v for k, v in row.items()}
            for k, v in pivot.items():
                s = row.get(k, 0) - g * v
                if s:
                    row[k] = s
                else:
                    del row[k]
    return pivots


def _integer_row(image):
    """The coefficients of an integer polynomial, by monomial."""
    assert all(c.denominator == 1 for c in image.terms.values())
    return {m: c.numerator for m, c in image.terms.items()}


def _fiber_kernel(pair, a, b):
    """A basis of the Rees ideal's (a, b) piece, as vectors {(alpha, beta): c}
    in the kernel of `_monomial_map`: the identity columns (0, j) sit below
    the image columns (1, m), so the rows whose image part is eliminated
    pivot on them."""
    mons, images = _monomial_map(pair, a, b)
    rows = []
    for j, image in enumerate(images):
        row = {(1, m): c for m, c in _integer_row(image).items()}
        row[0, j] = 1
        rows.append(row)
    return [{mons[j]: v for (_, j), v in row.items()}
            for (kind, _), row in _echelon(rows).items() if kind == 0]


@pytest.mark.parametrize("curve", CURVES, ids=lambda curve: curve.slug)
def test_relation_type_is_the_last_fiber_degree_with_a_new_generator(curve):
    # a second route to relation type for I generated in one degree: the Rees
    # ideal K needs a minimal generator of fiber degree b exactly when, for
    # some a, sum_i T_i * K_(a, b-1) is smaller than K_(a, b).  Bounded: a
    # runs up to the largest x-degree of a minimal generator, and past the
    # relation type b only b + 1 and b + 2 are checked
    pair = gradient_pair(curve.curve()).pair
    b = relation_type(pair)
    top = max(block_degree(g, "geom") for g, _ in
              minimal_homogeneous_generators(rees_ideal(pair), "fiber"))
    kernels = {(a, c): _fiber_kernel(pair, a, c)
               for a in range(top + 1) for c in range(b - 1, b + 2)}
    dims = {key: len(basis) for key, basis in kernels.items()}
    for a in range(top + 1):    # of K_(a, b + 2) only the dimension is needed
        mons, images = _monomial_map(pair, a, b + 2)
        dims[a, b + 2] = len(mons) - len(_echelon(map(_integer_row, images)))

    def new_generators(a, c):
        # dim K_(a, c) - dim sum_i T_i * K_(a, c - 1)
        shifted = [{(alpha, tuple(e + (j == i) for j, e in enumerate(beta))): v
                    for (alpha, beta), v in vec.items()}
                   for vec in kernels[a, c - 1] for i in range(len(pair.i_gens))]
        return dims[a, c] - len(_echelon(shifted))

    assert any(new_generators(a, b) > 0 for a in range(top + 1))
    assert all(new_generators(a, c) == 0
               for a in range(top + 1) for c in (b + 1, b + 2))


def test_standard_base_reads_only_the_powers_it_needs():
    pair = four_points_pair()
    report = standard_base_check(pair, 4)
    assert report.orders == (1, 1)
    # the orders loop stops at I^(nu+1); the meets never need a power's basis,
    # and no step reads I^(bound+1), so it is never built
    powers = {key[1]: ideal for key, ideal in pair._cache.items()
              if key[0] == "power"}
    assert sorted(powers) == [0, 1, 2, 3, 4]
    assert [t for t, power in sorted(powers.items()) if power._gb_cache] == [1, 2]


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_powers_built_level_by_level_once_per_pair(name, monkeypatch):
    from symrees import blowup
    from symrees.ideal_ops import ideal_power
    real = blowup.ideal_power_step
    formed = []

    def counting(I, prev, t):
        formed.append(t)
        return real(I, prev, t)

    monkeypatch.setattr(blowup, "ideal_power_step", counting)
    pair = pair_by_name(name)
    vv_pieces(pair, 4)
    artin_rees_number(pair, 4)
    standard_base_check(pair, 4)
    # each level once, from the one below; every I-order is 1, so the orders
    # loop stops at I^2 and nothing reads I^5
    assert sorted(formed) == [1, 2, 3, 4]
    for t in range(5):
        got = pair._cache[("power", t)].gens
        want = ideal_power(pair.i_ideal, t).gens
        assert got == want
        assert [list(p.terms) for p in got] == [list(p.terms) for p in want]


# ---------------------------------------------------------------------------
# internal dimensions from lead ideals, and the shared J * I^(t-1)


def _oracle_dims(pair, t, cap):
    """Nonzero dim (J cap I^t)_d - dim (J * I^(t-1))_d by Fraction row reduction."""
    from symrees.ideal_ops import ideal_power, ideal_product, intersect
    from symrees.oracle import graded_piece_dimension
    I, J = pair.i_ideal, pair.j_ideal
    meet = list(intersect(J, ideal_power(I, t)).gens)
    lower = list(ideal_product(J, ideal_power(I, t - 1)).gens)
    rows = []
    for d in range(cap + 1):
        extra = graded_piece_dimension(meet, d) - graded_piece_dimension(lower, d)
        if extra:
            rows.append((d, extra))
    return tuple(rows)


def _assert_dims_match_oracle(pair, bound):
    cap = 2 * max(g.degree() for g in pair.i_gens)
    report = vv_pieces(pair, bound)
    for piece in report.pieces:
        assert piece.internal_dims == _oracle_dims(pair, piece.degree, cap)
    return report


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_internal_dims_match_oracle_on_pair_fixtures(name):
    _assert_dims_match_oracle(pair_by_name(name), 4)


def test_internal_dims_do_not_depend_on_the_order():
    # under lex the meets are not seeded and the lead ideals differ from
    # grevlex, but a homogeneous ideal's Hilbert function does not
    pair = four_points_pair()
    RL = make_ring(list(pair.ring.names), order="lex")
    lex = make_pair(RL, [g.transport(RL) for g in pair.i_gens],
                    [g.transport(RL) for g in pair.j_gens])
    got = _assert_dims_match_oracle(lex, 4)
    want = vv_pieces(pair, 4)
    assert [p.internal_dims for p in got.pieces] == \
        [p.internal_dims for p in want.pieces]
    assert got.piece(2).internal_dims == ((4, 2),)


def test_filtration_bases_computed_once_per_pair(monkeypatch):
    import sys
    from symrees import groebner
    from symrees.ideal_ops import ideal_product
    engine = sys.modules["symrees.groebner"]
    real = engine.buchberger
    runs = []

    def counting(source, *args, **kwargs):
        gb = real(source, *args, **kwargs)
        runs.append((tuple(source.gens), gb.elements))
        return gb

    bound = 4
    pair = four_points_pair()
    monkeypatch.setattr(engine, "buchberger", counting)
    vv_pieces(pair, bound)
    artin_rees_number(pair, bound)
    standard_base_check(pair, bound)
    monkeypatch.undo()
    filtration = {groebner(ideal).elements for key, ideal in pair._cache.items()
                  if key[0] in ("meet", "lower")}
    # the Artin-Rees test for k >= 2 builds (J cap I^k) * I^(t-k), a distinct
    # ideal whose basis is that of J cap I^t exactly when the test passes
    cache = pair._cache
    checks = {tuple(ideal_product(cache[("meet", k)], cache[("power", t - k)]).gens)
              for k in range(2, bound + 1) for t in range(k + 1, bound + 1)}
    hits = [basis for gens, basis in runs
            if basis in filtration and gens not in checks]
    assert hits and len(hits) == len(set(hits))
