"""Symmetric/Rees/embedded presentations and the derived invariants."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from operator import le

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from symrees import (
    Ideal,
    RingError,
    buchberger,
    groebner,
    ideal_member,
    make_ring,
    normal_form,
)
from symrees.blowup import (
    CertificateError,
    _pair_lower,
    _pair_power,
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
    ideal_product,
    minimal_homogeneous_generators,
    saturate_principal,
)
from symrees.fixtures import CURVES, PAIR_FIXTURES, four_points_pair, pair_by_name
from symrees.oracle import echelon, kernel, monomials_of_degree
from strategies import build, homogeneous_ideals, linear_forms

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


def test_certificate_run_leaves_its_basis_in_the_pairs_i():
    pair = make_pair(R2, [XX * YY, YY * YY], [XX * YY * YY])
    cached = pair.i_ideal._gb_cache[R2.order]
    assert cached == buchberger(Ideal(R2, pair.i_gens))
    assert groebner(pair.i_ideal) is cached
    # supplied certificates take no run, so nothing is cached
    given_pair = make_pair(R2, [XX], [XX * YY], certificates=[[YY]])
    assert not given_pair.i_ideal._gb_cache


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
    # the meet's and the lower ideal's basis, once each for t = 2; at t = 3, 4
    # they are one ideal, so the piece is 0 and no dimension is read
    assert len(read) == 2
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


@pytest.mark.parametrize("bound", [0, -1])
def test_relation_type_rejects_a_bound_below_one(monkeypatch, bound):
    # (x^2, y^2) has relation type 1; a bound below 1 is refused before any
    # Rees ideal is built, not answered "exceeds bound"
    def no_rees(*args, **kwargs):
        raise AssertionError("a Rees ideal was built")

    monkeypatch.setattr(sys.modules["symrees.blowup"], "rees_ideal", no_rees)
    with pytest.raises(RingError, match="bound must be at least 1"):
        relation_type(Ideal(R2, [XX * XX, YY * YY]), bound)


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
    assert len(calls) == 3          # J cap I^t for t = 2..4; J cap I is J
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
    products = {}
    for beta in monomials_of_degree(len(gens), b):
        products[beta] = ring.one
        for g, e in zip(gens, beta):
            products[beta] = products[beta] * g ** e
    mons = [(alpha, beta) for alpha in monomials_of_degree(ring.arity, a)
            for beta in products]
    return mons, [ring.monomial(alpha) * products[beta] for alpha, beta in mons]


@pytest.mark.parametrize("build_pair", PAIRS_AND_CURVES)
def test_rees_ideal_bigraded_pieces_are_kernels_of_the_monomial_map(build_pair):
    # a second route to the Rees ideal's bigraded pieces: for I generated in one
    # degree d, its (a, b) piece is the kernel of x^alpha T^beta -> x^alpha b^beta
    # on the monomials of bidegree (a, b), and in(Rees) has as many monomials
    # there as the piece has dimension.  The a = 0 row is the special fiber;
    # the piece (d, 1) holds the Koszul syzygies, so it is never zero.
    pair = build_pair()
    (d,) = {g.degree() for g in pair.i_gens}
    lead = groebner(rees_ideal(pair)).leading_monomials()
    bidegrees = {(a, b) for a in range(4) for b in range(4 - a)}
    bidegrees |= {(a, 1) for a in range(d + 1)}
    kernels = {}
    for a, b in sorted(bidegrees):
        mons, images = _monomial_map(pair, a, b)
        in_lead = sum(any(all(map(le, m, alpha + beta)) for m in lead)
                      for alpha, beta in mons)
        kernels[a, b] = len(mons) - len(echelon(image.coeffs for image in images))
        assert in_lead == kernels[a, b], (a, b)
    assert kernels[d, 1]


def _fiber_kernel(pair, a, b):
    """A basis of the Rees ideal's (a, b) piece, as vectors {(alpha, beta): c}
    in the oracle's kernel of `_monomial_map`."""
    mons, images = _monomial_map(pair, a, b)
    return [{mons[j]: v for j, v in vec.items()}
            for vec in kernel([image.terms for image in images])]


@pytest.mark.parametrize("build_pair", PAIRS_AND_CURVES)
def test_relation_type_is_the_last_fiber_degree_with_a_new_generator(build_pair):
    # a second route to relation type for I generated in one degree: the Rees
    # ideal K needs a minimal generator of fiber degree b exactly when, for
    # some a, sum_i T_i * K_(a, b-1) is smaller than K_(a, b).  Bounded: a
    # runs up to the largest x-degree of a minimal generator, and past the
    # relation type b only b + 1 and b + 2 are checked
    pair = build_pair()
    b = relation_type(pair)
    top = max(block_degree(g, "geom") for g, _ in
              minimal_homogeneous_generators(rees_ideal(pair), "fiber"))
    kernels = {(a, c): _fiber_kernel(pair, a, c)
               for a in range(top + 1) for c in range(b - 1, b + 3)}

    def new_generators(a, c):
        # dim K_(a, c) - dim sum_i T_i * K_(a, c - 1)
        shifted = [{(alpha, tuple(e + (j == i) for j, e in enumerate(beta))): v
                    for (alpha, beta), v in vec.items()}
                   for vec in kernels[a, c - 1] for i in range(len(pair.i_gens))]
        return len(kernels[a, c]) - len(echelon(shifted))

    assert any(new_generators(a, b) > 0 for a in range(top + 1))
    assert all(new_generators(a, c) == 0
               for a in range(top + 1) for c in (b + 1, b + 2))


def test_standard_base_reads_only_the_powers_it_needs():
    pair = four_points_pair()
    report = standard_base_check(pair, 4)
    assert report.orders == (1, 1)
    # the orders loop stops at I^(nu+1), and no step reads I^(bound+1), so it
    # is never built
    powers = {key[1]: ideal for key, ideal in pair._cache.items()
              if key[0] == "power"}
    # I^1 is the pair's I, so the cache holds the levels above it, and the
    # levels start at I^1: I^0 is never built
    assert sorted(powers) == [2, 3, 4]
    powers[1] = pair.i_ideal
    # I is m-primary and I^2 has 15 generators, as many as the quartics, so
    # its basis is taken: it is m^4, and I^3 and I^4 are m^6 and m^8, built as
    # their bases
    assert [t for t, power in sorted(powers.items()) if power._gb_cache] == [1, 2, 3, 4]


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_powers_built_level_by_level_once_per_pair(name, monkeypatch):
    from symrees import blowup
    from symrees.ideal_ops import ideal_power
    formed = []

    def counting(real, label):
        def wrapper(*args):
            formed.append(label(*args))
            return real(*args)
        return wrapper

    pair = pair_by_name(name)
    I = pair.i_ideal
    real_word_product = blowup._word_product
    real_filled_power = blowup._filled_power

    def word_product(A, B, within=None):
        # a power level is the word product of the level below with I; the
        # products J * I^(t-1) and (J cap I^k) * I^(t-k) pass their meet
        out = real_word_product(A, B, within)
        if out is not None and B is I and within is None:
            formed.append("monomial")
        return out

    def filled_power(I, prev):
        out = real_filled_power(I, prev)
        if out is not None:
            formed.append("filled")
        return out

    monkeypatch.setattr(blowup, "ideal_power_step",
                        counting(blowup.ideal_power_step, lambda I, prev, t: t))
    monkeypatch.setattr(blowup, "_word_product", word_product)
    monkeypatch.setattr(blowup, "_filled_power", filled_power)
    vv_pieces(pair, 4)
    artin_rees_number(pair, 4)
    standard_base_check(pair, 4)
    monomial = all(len(g.coeffs) == 1 for g in groebner(I))
    assert monomial == (name != "four-points")
    # each level once, from the one below, starting at I^2: I^1 is I itself.
    # Every I-order is 1, so the orders loop stops at I^2 and nothing reads I^5.
    # Every I is generated in degree 2; a monomial I is m^2, and four-points'
    # I^2, built from products, is m^4, so every level above is a power of m
    assert formed == (["filled"] * 3 if monomial else [2, "filled", "filled"])
    assert sorted(key[1] for key in pair._cache if key[0] == "power") == [2, 3, 4]
    assert blowup._pair_power(pair, 1) is I
    for t in range(1, 5):
        got = blowup._pair_power(pair, t)
        want = ideal_power(I, t)
        if t > 1 and formed[t - 2] == "filled":
            # a power of m is given by its reduced basis, held in its cache
            assert got.gens == groebner(want).elements
            assert got._gb_cache[I.ring.order].elements == got.gens
        else:
            assert got.gens == want.gens
            assert [list(p.terms) for p in got.gens] == [list(p.terms) for p in want.gens]


def _lex_four_points():
    pair = four_points_pair()
    RL = make_ring(list(pair.ring.names), order="lex")
    return make_pair(RL, [g.transport(RL) for g in pair.i_gens],
                     [g.transport(RL) for g in pair.j_gens])


# m-primary and not monomial: I^t has at most C(t + 2, 2) generators, fewer
# than the C(2t + 2, 2) monomials of degree 2t, so no power of I is a power
# of m = (x, y, z)
NEVER_FILLING = ("x^2 + y*z", "y^2 + x*z", "z^2 + x*y")


def _never_filling_pair():
    i_gens = [R3.parse(g) for g in NEVER_FILLING]
    return make_pair(R3, i_gens, i_gens[:2])


def test_the_never_filling_ideal_is_m_primary():
    assert dimension(_never_filling_pair().i_ideal).dim == 0


@pytest.mark.parametrize("build_pair, filled", [
    (four_points_pair, [3, 4]),
    (lambda: pair_by_name("equigenerated-forms"), [2, 3, 4]),
    (_lex_four_points, [3, 4]),
    (_never_filling_pair, []),
], ids=["four-points", "equigenerated-forms", "four-points-lex", "never-filling"])
def test_pair_powers_have_the_reduced_bases_of_the_powers(build_pair, filled):
    from symrees.ideal_ops import ideal_power
    pair = build_pair()
    I = pair.i_ideal
    powers = [_pair_power(pair, t) for t in range(1, 5)]
    if not filled:
        # no power can fill its degree, so none has its basis taken
        assert not any(power._gb_cache for power in powers[1:])
    for t, got in enumerate(powers, start=1):
        want = ideal_power(I, t)
        assert groebner(got) == groebner(want)
        if t in filled:
            # a power of m, given by its reduced basis
            assert got.gens == groebner(want).elements
        else:
            assert got.gens == want.gens


def _torsion_pair():
    from test_cli import TORSION_PAIR
    from symrees.cli import parse_input
    job = parse_input(TORSION_PAIR)
    return make_pair(job.ring, [job.ring.parse(g) for g in job.texts("ideal I")],
                     [job.ring.parse(g) for g in job.texts("ideal J")])


@pytest.mark.parametrize("build_pair", [_torsion_pair, _never_filling_pair],
                         ids=["torsion-pair", "never-filling"])
def test_pairs_whose_powers_are_not_powers_of_m_make_no_extra_run(build_pair,
                                                                   engine_inputs):
    # the torsion-pair's I is not m-primary, and the never-filling I's powers
    # cannot fill their degrees: the torsion invariants make the same runs as
    # before powers of m were recognized, but for J's own basis, which
    # artin_rees_number's t = k = 1 comparison of J with itself no longer reads
    pair = build_pair()
    runs = []
    for invariant in (vv_pieces, artin_rees_number, standard_base_check):
        engine_inputs.clear()
        invariant(pair, 4)
        runs.append(len(engine_inputs))
    assert runs == [6, 0, 1]


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
    report = vv_pieces(pair, bound)
    for piece in report.pieces:
        # twice I's largest generator degree, or a higher witness degree
        cap = max([2 * max(g.degree() for g in pair.i_gens)]
                  + [w.degree() for w in piece.witnesses])
        assert piece.internal_dims == _oracle_dims(pair, piece.degree, cap)
    return report


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_internal_dims_match_oracle_on_pair_fixtures(name):
    _assert_dims_match_oracle(pair_by_name(name), 4)


def test_internal_dims_reach_the_witnesses_degrees():
    # the only witness has degree 5, above 2 * 2, the cap I's generators set
    pair = make_pair(R3, [X * Y, Y * Y], [X * Y * Y + Y * Y * Z])
    piece = _assert_dims_match_oracle(pair, 2).piece(2)
    assert piece.witnesses == (R3.parse("x^3*y^2 + x^2*y^2*z"),)
    assert piece.internal_dims == ((5, 1),)


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
    checks = {tuple(ideal_product(cache[("meet", k)], _pair_power(pair, t - k)).gens)
              for k in range(2, bound + 1) for t in range(k + 1, bound + 1)}
    hits = [basis for gens, basis in runs
            if basis in filtration and gens not in checks]
    assert hits and len(hits) == len(set(hits))


# ---------------------------------------------------------------------------
# ideals recorded as within a larger one (groebner.buchberger's cover)


@contextmanager
def recorded_within():
    """(B, A) for each Ideal B that reaches the engine recorded as within A,
    or that `blowup` forms from monomial basis words or reads off a part of
    one side (a product with m^d), checked against A."""
    from symrees import blowup
    engine = sys.modules["symrees.groebner"]
    real, real_word_product = engine.buchberger, blowup._word_product
    real_max_power_product = blowup._max_power_product
    seen = []

    def recording(source, order=None):
        if isinstance(source, Ideal) and "within" in source._derived:
            seen.append((source, source._derived["within"]))
        return real(source, order)

    def word_product(A, B, within=None):
        out = real_word_product(A, B, within)
        if out is not None and within is not None:
            seen.append((out, within))
        return out

    def max_power_product(A, B, within):
        out = real_max_power_product(A, B, within)
        if out is not None:
            seen.append((out, within))
        return out

    engine.buchberger, blowup._word_product = recording, word_product
    blowup._max_power_product = max_power_product
    try:
        yield seen
    finally:
        engine.buchberger, blowup._word_product = real, real_word_product
        blowup._max_power_product = real_max_power_product


def _assert_recorded_containments_hold(seen):
    assert seen
    for B, A in seen:
        assert ideal_contains(A, B)
        # a fresh Ideal with B's generators carries no record: a plain run
        assert groebner(B).elements == buchberger(Ideal(B.ring, B.gens)).elements


def _regular_sequence_pair(a, b, c, two):
    x, y, z = R3.gens()
    return make_pair(R3, [x ** a, y ** b, z ** c], [x ** a, y ** b] if two else [x ** a])


TORSION_PAIRS = (
    [pytest.param(lambda name=name: pair_by_name(name), id=name)
     for name in sorted(PAIR_FIXTURES)]
    + [pytest.param(lambda abc=abc: _regular_sequence_pair(*abc),
                    id="regular-sequence-%d%d%d-%d" % abc)
       for abc in [(1, 1, 1, 0), (2, 1, 3, 1), (3, 2, 1, 0), (2, 3, 2, 1)]]
    # I-orders 2 and 3: the standard-base check builds its own right-hand side
    + [pytest.param(lambda: make_pair(R3, [X, Y, Z], [X ** 2 - Y * Z, Y ** 3]),
                    id="orders-above-one")])


@pytest.mark.parametrize("build_pair", TORSION_PAIRS)
def test_recorded_torsion_containments_hold(build_pair, engine_inputs):
    pair = build_pair()
    with recorded_within() as seen:
        vv_pieces(pair, 4)
        artin_rees_number(pair, 4)
        standard_base_check(pair, 4)
    lowers = {id(ideal) for key, ideal in pair._cache.items() if key[0] == "lower"}
    assert lowers <= {id(B) for B, _ in seen}
    _assert_recorded_containments_hold(seen)
    # tracked runs never get a containment
    assert not [run for run in engine_inputs if run[2] and run[4]]


def test_word_products_are_held_to_the_containing_ideals_basis():
    from symrees.blowup import _word_product
    A, B = Ideal(R3, [X]), Ideal(R3, [X, Y])
    # (x) * (x) = (x^2) has the leading monomial of (x^2 + x*y), so a claim
    # that it lies there must give that basis
    wrong = Ideal(R3, [X ** 2 + X * Y])
    groebner(wrong)
    with pytest.raises(AssertionError):
        _word_product(A, A, wrong)
    right = Ideal(R3, [X ** 2, X * Y, Z])
    groebner(right)
    assert _word_product(A, B, right).gens == (X ** 2, X * Y)
    # a side whose basis is not monomial, or not known without a run, takes
    # no word route
    assert _word_product(A, Ideal(R3, [X + Y])) is None
    assert _word_product(Ideal(R3, [X + Y, Y]), A) is None


def test_artin_rees_products_are_recorded():
    # four-points has torsion in degree 2, so k = 1 fails at t = 2 and k = 2
    # compares J cap I^t with (J cap I^2) * I^(t-2) for t = 3, 4; I^2 is m^4,
    # so the product at t = 4 is read off the basis of J cap I^2, generated
    # in degree 4, and given by its reduced basis
    pair = four_points_pair()
    with recorded_within() as seen:
        assert artin_rees_number(pair, 4) == 2
    cache = pair._cache
    lowers = [ideal for key, ideal in cache.items() if key[0] == "lower"]
    products = [(B.gens, A) for B, A in seen if all(B is not L for L in lowers)]
    want = [ideal_product(cache[("meet", 2)], _pair_power(pair, t - 2)) for t in (3, 4)]
    assert products == [(want[0].gens, cache[("meet", 3)]),
                        (groebner(want[1]).elements, cache[("meet", 4)])]
    _assert_recorded_containments_hold(seen)


def test_standard_base_right_hand_side_is_recorded():
    pair = make_pair(R3, [X, Y, Z], [X ** 2 - Y * Z, Y ** 3])
    with recorded_within() as seen:
        report = standard_base_check(pair, 3)
    assert report.orders == (2, 3) and report.passed
    lowers = [ideal for key, ideal in pair._cache.items() if key[0] == "lower"]
    assert not lowers and len(seen) == 3
    assert [A for _, A in seen] == [pair._cache[("meet", t)] for t in (1, 2, 3)]


@pytest.mark.parametrize("curve", CURVES, ids=lambda curve: curve.slug)
def test_symmetric_ideal_is_recorded_within_the_rees_ideal(curve):
    pair = gradient_pair(curve.curve()).pair
    with recorded_within() as seen:
        linear = is_linear_type(pair)
    [(sym, rees)] = seen
    assert rees is rees_ideal(pair) and sym.gens == sym_ideal(pair).gens
    assert linear == (groebner(sym).elements == groebner(rees).elements)
    _assert_recorded_containments_hold(seen)


def test_coordinate_points_lower_filtration_takes_no_s_pair(monkeypatch, engine_inputs):
    pair = pair_by_name("coordinate-points")
    lower = _pair_lower(pair, 4)
    meet = pair._cache[("meet", 4)]
    assert lower._derived["within"] is meet and pair.ring.order in meet._gb_cache
    engine = sys.modules["symrees.groebner"]
    taken = []
    real = engine._spoly

    def counting(*args):
        taken.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_spoly", counting)
    before = len(engine_inputs)
    gb = groebner(lower)
    # J and I^3 are monomial, so is their product: its basis needs no run
    assert all(len(g.coeffs) == 1 for g in lower.gens)
    assert engine_inputs[before:] == []
    assert not taken
    assert gb.elements == groebner(meet).elements


@st.composite
def homogeneous_pairs(draw):
    """(I, J) of homogeneous forms with J <= I: each generator of J is a
    generator of I times a linear form, or a generator of I itself."""
    i_gens = build(draw(homogeneous_ideals))
    assume(all(not g.is_zero for g in i_gens))
    picks = draw(st.lists(st.tuples(st.integers(0, 2), st.none() | linear_forms),
                          min_size=1, max_size=2))
    j_gens = [i_gens[k % len(i_gens)] * (R3.one if form is None else build([form])[0])
              for k, form in picks]
    assume(all(not g.is_zero for g in j_gens))
    return i_gens, j_gens


@settings(max_examples=40, deadline=None, derandomize=True)
@given(homogeneous_pairs())
def test_recorded_containments_hold_on_homogeneous_pairs(ij):
    pair = make_pair(R3, *ij)
    with recorded_within() as seen:
        vv_pieces(pair, 3)
        artin_rees_number(pair, 3)
        standard_base_check(pair, 3)
    _assert_recorded_containments_hold(seen)


# ---------------------------------------------------------------------------
# products with a power of m read off one side's basis, and skipped pieces


def _max_power(d: int, ring=R3) -> Ideal:
    """m^d for m = (all variables of `ring`), given by single terms."""
    return Ideal(ring, [ring.monomial(m) for m in monomials_of_degree(ring.arity, d)])


def _in_one_degree(A: Ideal) -> bool:
    return len({sum(m) for g in A.gens for m in g.coeffs}) == 1


# of the 40 draws, 18 have a basis that is not monomial and take the part route
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gens_terms=homogeneous_ideals)
def test_products_with_a_power_of_m_equal_the_reference_route(gens_terms, monkeypatch):
    from symrees.blowup import _product
    A = Ideal(R3, build(gens_terms))
    assume(not A.is_zero and _in_one_degree(A))
    # a monomial A takes the route of basis words, which forms a new ideal
    part_route = any(len(g.coeffs) > 1 for g in groebner(A).elements)
    for d in range(1, 5):
        want = buchberger(ideal_product(A, _max_power(d))).elements
        # a containing ideal with the product's own basis: the check must pass
        within = Ideal(R3, want)
        groebner(within)
        with monkeypatch.context() as m:
            # A's basis is cached and m^d's needs no run: neither product runs
            m.setattr(sys.modules["symrees.groebner"], "_run_buchberger", None)
            products = [_product(A, _max_power(d), within),
                        _product(_max_power(d), A, A)]
        for product in products:
            assert product.gens == want
            assert product._gb_cache[R3.order].elements == product.gens
        if part_route:
            # one part of A, held by A and recorded as within nothing
            assert products[0] is products[1]
            assert "within" not in products[0]._derived


def test_products_with_a_power_of_m_outside_the_route_keep_their_generators():
    from symrees.blowup import _product
    RL = make_ring(["x", "y", "z"], order="lex")
    cases = [
        # generators of two degrees
        (Ideal(R3, [X + Y, Y * Z - Z * Z]), _max_power(2), True),
        # a lex ring: its first row is not the total degree
        (Ideal(RL, [RL.parse("x^2 - y*z")]), _max_power(2, RL), True),
        # no containing ideal to hold the product to
        (Ideal(R3, [X * X - Y * Z]), _max_power(2), False),
    ]
    for A, M, compared in cases:
        groebner(A)
        groebner(M)
        within = A if compared else None
        for left, right in ((A, M), (M, A)):
            product = _product(left, right, within)
            assert product.gens == ideal_product(left, right).gens
            assert product._derived.get("within") is within


def test_products_with_a_power_of_m_are_held_to_the_containing_ideals_basis():
    from symrees.blowup import _product
    A = Ideal(R3, [X * X + Y * Z])
    groebner(A)
    # (x^2 + yz) * m has leading monomials x^3, x^2*y, x^2*z: a claim that it
    # lies in the monomial ideal of those three must give that basis
    wrong = Ideal(R3, [X ** 3, X * X * Y, X * X * Z])
    groebner(wrong)
    for left, right in ((A, _max_power(1)), (_max_power(1), A)):
        with pytest.raises(AssertionError):
            _product(left, right, wrong)


# J = (x^2 - x*z, y^2 - y*z) times m^4 is J's part in degrees >= 6: each
# quadric times each of the 15 quartic monomials, one unit each, and 20
# tail-reduction steps; J's basis takes no step, since its two leading
# monomials are coprime
MAX_POWER_PRODUCT_LEAST = 30 + 20


def test_a_product_with_a_power_of_m_spends_the_work_limit():
    from symrees.blowup import _product
    from symrees.budget import WorkLimitExceeded, work_limit

    def product(limit):
        J = Ideal(R3, [X * X - X * Z, Y * Y - Y * Z])
        with work_limit(limit):
            return _product(J, _max_power(4), J)

    with pytest.raises(WorkLimitExceeded):
        product(MAX_POWER_PRODUCT_LEAST - 1)
    got = product(MAX_POWER_PRODUCT_LEAST)
    J = Ideal(R3, [X * X - X * Z, Y * Y - Y * Z])
    assert got.gens == buchberger(ideal_product(J, _max_power(4))).elements


@pytest.mark.parametrize("name", ["four-points", "equigenerated-forms"])
def test_lower_filtration_ideals_that_are_meets_are_one_ideal(name):
    # I^(t-1) is m^(2t-2) and J is generated in degree 2, so J * I^(t-1) and
    # J cap I^t are both J's part in degrees >= 2t
    pair = pair_by_name(name)
    vv_pieces(pair, 4)
    for t in (3, 4):
        assert pair._cache[("lower", t)] is pair._cache[("meet", t)]


def test_a_part_of_a_part_is_the_part_of_its_ideal():
    # on four-points J cap I^t is J's part in degrees >= 2t, so the
    # Artin-Rees right-hand side (J cap I^2) * I^2, the part of J_{>=4} in
    # degrees >= 8, is J_{>=8}: one Ideal with J cap I^4
    from symrees.blowup import _pair_meet, _pair_power, _product
    from symrees.hilbert import _part
    from symrees.ideal_ops import ideal_power, intersect
    pair = pair_by_name("four-points")
    meet4 = _pair_meet(pair, 4)
    assert _product(_pair_meet(pair, 2), _pair_power(pair, 2), meet4) is meet4
    assert meet4.gens == intersect(pair.j_ideal, ideal_power(pair.i_ideal, 4)).gens
    # cut first, the part of the part is cached on J, where the meet finds it
    pair = pair_by_name("four-points")
    part = _part(_pair_meet(pair, 2), 8, pair.ring.order)
    assert _pair_meet(pair, 4) is part


@pytest.mark.parametrize("name, runs", [
    ("four-points", [3, 1, 0]),
    ("equigenerated-forms", [1, 0, 0]),
    ("coordinate-points", [0, 0, 0]),
    ("product-partials", [0, 0, 0]),
])
def test_pair_fixture_torsion_runs_are_pinned(name, runs, engine_inputs):
    # the runs of vv_pieces, artin_rees_number and standard_base_check at
    # bound 4; four-points' J * I and (J cap I^2) * I still run, as I is not
    # a power of m
    pair = pair_by_name(name)
    got = []
    for invariant in (vv_pieces, artin_rees_number, standard_base_check):
        engine_inputs.clear()
        invariant(pair, 4)
        got.append(len(engine_inputs))
    assert got == runs


# ---------------------------------------------------------------------------
# ideals given by their reduced basis, with generators unpacked on first read


def _unread(ideal) -> bool:
    """Whether `ideal`'s generators are not unpacked yet."""
    try:
        Ideal.gens.__get__(ideal)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_word_route_ideals_read_as_their_eager_ones(name, engine_inputs):
    from symrees.budget import work_limit
    pair = pair_by_name(name)
    for invariant in (vv_pieces, artin_rees_number, standard_base_check):
        invariant(pair, 4)
    built = {key: I for key, I in pair._cache.items() if key[0] in ("power", "meet", "lower")}
    lazy = {key for key, I in built.items() if I._basis is not None}
    # every level above 1 is read off basis words or a part of a basis, but
    # for four-points' I^2, formed from products, and J * I, which a run gives
    assert lazy == {key for key in built if key[1] > 1} - (
        {("power", 2), ("lower", 2)} if name == "four-points" else set())
    assert any(_unread(built[key]) for key in lazy)
    engine_inputs.clear()
    RL = make_ring(list(pair.ring.names), order="lex")
    for key in sorted(lazy):
        I = built[key]
        unread = _unread(I)
        with work_limit(0):
            zero = I.is_zero
            assert _unread(I) == unread
            got = (I.gens, list(I), len(I), I, hash(I), repr(I))
        assert I._basis is groebner(I)
        eager = Ideal(I.ring, groebner(I).elements)
        assert got == (eager.gens, list(eager), len(eager), eager, hash(eager),
                       repr(eager))
        assert zero == eager.is_zero
        assert I.transport(pair.ring) is I
        assert I.transport(RL) == eager.transport(RL)
    assert not engine_inputs


def test_threads_first_reading_one_word_route_ideal_get_equal_results():
    # four threads make the first read of the generators of each of many
    # meets given by their basis, which unpacks them
    from symrees.ideal_ops import intersect
    A, B = Ideal(R3, [X ** 2, Y * Z]), Ideal(R3, [X * Y, Z ** 3])
    meets = [intersect(A, B) for _ in range(3000)]
    assert all(_unread(meet) for meet in meets)
    want = Ideal(R3, groebner(intersect(A, B)).elements).gens
    barrier = threading.Barrier(4)

    def read(_):
        barrier.wait(timeout=60)
        return [meet.gens for meet in meets]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(read, range(4), timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert all(gens == want for got in results for gens in got)
    assert all(meet.gens == want and not meet.is_zero for meet in meets)


# `_from_engine` calls, the engine's one unpacker, over the four-points
# torsion item: the three invariants at bound 4 on a built pair.  With every
# word-route ideal unpacked when built and compared as Polynomials, 256.
FOUR_POINTS_UNPACKS = 81


def test_four_points_torsion_unpacks_are_pinned(monkeypatch):
    engine = sys.modules["symrees.groebner"]
    pair = pair_by_name("four-points")
    real, calls = engine._from_engine, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_from_engine", counting)
    for invariant in (vv_pieces, artin_rees_number, standard_base_check):
        invariant(pair, 4)
    assert len(calls) == FOUR_POINTS_UNPACKS


def _reference_vv(pair, bound):
    """The torsion pieces from fresh ideals, with witnesses, dimensions and
    annihilator exponents computed at every degree."""
    from symrees.blowup import TorsionPiece, TorsionReport, _graded_dims
    from symrees.ideal_ops import ideal_power, intersect
    I, J = pair.i_ideal, pair.j_ideal
    pieces = []
    for t in range(2, bound + 1):
        meet = intersect(J, ideal_power(I, t))
        lower = ideal_product(J, ideal_power(I, t - 1))
        gb_lower = groebner(lower)
        witnesses = tuple(g for g in meet.gens if not normal_form(g, gb_lower).is_zero)
        cap = max([2 * max(g.degree() for g in I.gens)] + [w.degree() for w in witnesses])
        dims = tuple((d, a - b) for d, (a, b) in enumerate(zip(
            _graded_dims(groebner(meet), cap), _graded_dims(gb_lower, cap))) if a != b)
        annos = tuple(next((k for k in range(1, bound + 1) if ideal_contains(
            lower, ideal_product(ideal_power(I, k), Ideal(pair.ring, [w])))), None)
            for w in witnesses)
        pieces.append(TorsionPiece(t, bool(witnesses), witnesses, dims, annos))
    return TorsionReport(bound, tuple(pieces))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(homogeneous_pairs())
def test_vv_pieces_equal_the_reference_on_homogeneous_pairs(ij):
    assert vv_pieces(make_pair(R3, *ij), 3) == _reference_vv(make_pair(R3, *ij), 3)
