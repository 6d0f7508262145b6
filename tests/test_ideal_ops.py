"""Ideal calculus: set operations, dimension, graded minimal generators."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import symrees
from symrees import GREVLEX, LEX, Ideal, RingError, buchberger, groebner, ideal_member, make_ring
from symrees.blowup import rees_ideal
from symrees.fixtures import PAIR_FIXTURES, pair_by_name
from symrees.budget import DEFAULT_WORK_LIMIT, WorkLimitExceeded, work_limit
from symrees.ideal_ops import (
    dimension,
    eliminate,
    eliminate_vars,
    ideal_contains,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    minimal_homogeneous_generators,
    quotient,
    saturate,
    saturate_by_variable,
    saturate_principal,
    _homogenized,
    _saturation_parts,
)
from symrees.hilbert import HilbertSeries
from symrees.oracle import (
    monomial_members,
    monomials_of_degree,
    monomial_quotient,
    monomial_saturation,
)
from symrees.syzygy import apply_row
from strategies import build, homogeneous_ideals, ideals, linear_forms

R3 = make_ring(["x", "y", "z"])
X, Y, Z = R3.gens()


def test_sum_product_power_examples():
    assert ideal_product(Ideal(R3, [X]), Ideal(R3, [Y])).gens == (X * Y,)
    sq = ideal_power(Ideal(R3, [X, Y]), 2)
    assert set(sq.gens) == {X * X, X * Y, Y * Y}
    assert ideal_power(Ideal(R3, [X]), 0).gens == (R3.one,)
    # 5 generators -> 15 pairwise products before interreduction
    from symrees.fixtures import four_points_pair
    pair = four_points_pair()
    assert len(ideal_power(pair.i_ideal, 2)) == 15


def test_intersect_examples():
    assert intersect(Ideal(R3, [X]), Ideal(R3, [Y])).gens == (X * Y,)
    got = intersect(Ideal(R3, [X * X]), Ideal(R3, [X]))
    assert ideal_equal(got, Ideal(R3, [X * X]))
    # intersection outputs are members of both inputs
    I = Ideal(R3, [X * X - Y * Z, X * Y])
    J = Ideal(R3, [Y * Y, X - Z])
    meet = intersect(I, J)
    for g in meet.gens:
        assert ideal_member(g, I) and ideal_member(g, J)


def test_quotient_examples():
    assert ideal_equal(quotient(Ideal(R3, [X * Y]), Ideal(R3, [X])),
                       Ideal(R3, [Y]))
    assert ideal_equal(quotient(Ideal(R3, [X * X, X * Y]), Ideal(R3, [X])),
                       Ideal(R3, [X, Y]))
    I = Ideal(R3, [X * Y])
    assert ideal_equal(quotient(I, Ideal(R3, [R3.one])), I)
    with pytest.raises(RingError):
        quotient(I, Ideal(R3, []))


COLON_I = ["x^2*y - z^3", "x*z - y^2", "y*z - x"]


@pytest.mark.parametrize("factors", [
    (2, 1), (-1, 1), (Fraction(-2, 3), 4), (4, Fraction(-2, 3)), (Fraction(7, 5), -3),
])
def test_colon_by_scaled_generators_matches_the_monic_ones(factors):
    # the quotients are exact lifts over the scaled generator itself, so a
    # generator's content, sign or fractional leading coefficient must not
    # change I : J or I : J^inf
    I = Ideal(R3, [R3.parse(g) for g in COLON_I])
    monic = [X * Y, Z]
    J = Ideal(R3, monic)
    scaled = Ideal(R3, [c * g for c, g in zip(factors, monic)])
    assert ideal_equal(quotient(I, scaled), quotient(I, J))
    sat, k = saturate(I, scaled)
    want, k_want = saturate(I, J)
    assert ideal_equal(sat, want) and k == k_want
    for c, g in zip(factors, monic):
        assert ideal_equal(quotient(I, Ideal(R3, [c * g])), quotient(I, Ideal(R3, [g])))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals, g_terms=linear_forms,
       c=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
def test_colon_ignores_the_scale_of_the_generator(gens_terms, g_terms, c):
    I = Ideal(R3, build(gens_terms))
    (g,) = build([g_terms])
    assume(not g.is_zero)
    want = quotient(I, Ideal(R3, [g.monic()]))
    assert ideal_equal(quotient(I, Ideal(R3, [c * g])), want)
    for h in want.gens:
        assert ideal_member(h * g, I)


def test_saturate_example_with_exponent():
    sat, k = saturate(Ideal(R3, [X * X * Y]), Ideal(R3, [X]))
    assert ideal_equal(sat, Ideal(R3, [Y]))
    assert k == 2
    alt = saturate_principal(Ideal(R3, [X * X * Y]), X)
    assert ideal_equal(sat, alt)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals)
def test_saturate_by_variable_matches_principal_saturation(gens_terms):
    I = Ideal(R3, build(gens_terms))
    for v in ("x", "y", "z"):
        sat, contraction = saturate_by_variable(I, v)
        want = saturate_principal(I, R3.var(v))
        assert ideal_equal(sat, want)
        assert contraction.gens == eliminate(want, "geom").gens


def test_saturate_by_variable_falls_back_on_inhomogeneous_input():
    # dividing a basis by x-contents saturates only homogeneous input: on this
    # ideal the grevlex-with-x-last basis, so divided, spans (y^2 - 2y,
    # xy + y/2, x^2 - y/8), strictly inside I : x^inf
    R = make_ring(["x", "y"])
    I = Ideal(R, [R.parse("2*x*y + y"), R.parse("-x^2*y + 2*x^2")])
    sat, contraction = saturate_by_variable(I, "x")
    assert ideal_equal(sat, Ideal(R, [R.parse("x + 1/2"), R.parse("y - 2")]))
    assert contraction.is_zero and contraction.ring.arity == 0


RU = make_ring(["x", "y", "z"], ["u"])
RU_LEX = make_ring(["x", "y", "z"], ["u"], order="lex")


def _with_u(ring, gens_terms, us) -> list:
    """The forms of `homogeneous_ideals` in `ring`, term k times u^us[k]."""
    us = iter(us)
    return [sum((ring.monomial(m + (next(us),), c) for c, m in terms), ring.zero)
            for terms in gens_terms]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals,
       us=st.lists(st.integers(0, 2), min_size=9, max_size=9),
       shared=st.integers(0, 2))
@example(gens_terms=[[(1, (1, 0, 0)), (-1, (0, 1, 0))], [(1, (0, 2, 0)), (-1, (0, 0, 2))]],
         us=[1, 0, 2, 0, 0, 0, 0, 0, 0], shared=1)
@pytest.mark.parametrize("ring", [RU, RU_LEX], ids=["grevlex", "lex"])
def test_saturate_by_variable_through_the_homogenized_basis(ring, gens_terms, us, shared):
    # forms in x, y, z over k[u], mostly not homogeneous in u, each times
    # v^shared: their grevlex basis is homogenized by h, which the run's
    # records drop as they divide v out; on the lex ring it is not the ring's
    # own order, so the contraction's basis is not seeded
    forms = _with_u(ring, gens_terms, us)
    for v in ("x", "y", "z"):
        xv = ring.var(v)
        I = Ideal(ring, [xv ** shared * g for g in forms])
        sat, contraction = saturate_by_variable(I, v)
        sub = contraction.ring
        seeded = {sub.order: buchberger(Ideal(sub, contraction.gens))}
        assert contraction._gb_cache == (seeded if ring is RU else {})
        want = saturate_principal(I, xv)
        iv = ring.index(v)
        first = tuple(i for i in range(3) if i != iv) + (iv,)
        assert sat.gens == buchberger(want, ring.elim_order_vars(first)).elements
        assert contraction.gens == eliminate(want, "geom").gens


@pytest.mark.parametrize("delta", [1, -1])
def test_a_wrong_series_on_the_homogenized_basis_raises(delta):
    I = Ideal(RU, [RU.parse("x^2*u - y*z"), RU.parse("x*y*u^2 - z^2")])
    H = _homogenized(I, groebner(I, GREVLEX))
    assert H.ring.names == ("x", "y", "z", "u", "_h")
    weights, num = H._derived["hilbert"]
    wrong = {**num, 3: num.get(3, 0) + delta}
    H._derived["hilbert"] = HilbertSeries(weights, {k: c for k, c in wrong.items() if c})
    with pytest.raises(AssertionError):
        saturate_by_variable(I, "x")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals,
       us=st.lists(st.integers(0, 2), min_size=9, max_size=9),
       homogeneous=st.booleans())
@pytest.mark.parametrize("ring", [RU, RU_LEX], ids=["grevlex", "lex"])
def test_a_saturation_left_to_its_first_read_matches_the_aux_variable_route(
        ring, gens_terms, us, homogeneous):
    # with `homogeneous` the terms of each form share one power of u, so the
    # grevlex basis is homogeneous and takes no h; else it mostly does.  The
    # contraction comes before the rest of I : v^inf is finished, and both
    # are the reduced bases that the aux-variable route gives
    if homogeneous:
        us = [k for terms, k in zip(gens_terms, us) for _ in terms]
    I = Ideal(ring, _with_u(ring, gens_terms, us))
    for v in ("x", "y", "z"):
        sat, contraction = _saturation_parts(I, v)
        want = saturate_principal(I, ring.var(v))
        assert contraction.gens == eliminate(want, "geom").gens
        iv = ring.index(v)
        first = tuple(i for i in range(3) if i != iv) + (iv,)
        assert sat().gens == buchberger(want, ring.elim_order_vars(first)).elements
    if homogeneous:
        assert I._derived["homogenized"].ring == ring


def test_eliminate_parabola():
    ring = make_ring(["x"], ["u", "v"])
    I = Ideal(ring, [ring.parse("x - u"), ring.parse("x^2 - v")])
    out = eliminate(I, "geom")
    assert out.ring.names == ("u", "v")
    assert ideal_equal(out, Ideal(out.ring, [out.ring.parse("u^2 - v")]))


def test_eliminate_zero_ideal():
    out = eliminate(Ideal(R3, []), "geom")
    assert out.is_zero
    # the zero ideal takes the general path, at no work
    ring = make_ring(["x", "y"], ["u"])
    with work_limit(0):
        out = eliminate(Ideal(ring, []), "param")
        vars_out = eliminate_vars(Ideal(ring, []), ["x", "u"])
        assert groebner(out).elements == ()
    assert out.is_zero and out.ring.names == ("x", "y")
    assert vars_out.is_zero and vars_out.ring.names == ("y",)


def test_ideal_equal_examples():
    assert ideal_equal(Ideal(R3, [X, Y]), Ideal(R3, [X + Y, X - Y]))
    assert not ideal_equal(Ideal(R3, [X * X]), Ideal(R3, [X]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(i_terms=ideals, j_terms=ideals, same=st.booleans())
def test_ideal_equal_matches_two_way_containment(i_terms, j_terms, same):
    I, J = Ideal(R3, build(i_terms)), Ideal(R3, build(j_terms))
    if same:
        # the ideal I again, from a longer generator list
        J = Ideal(R3, list(I.gens) + [f * g for f in J.gens for g in I.gens])
    try:
        # one budget per call; fresh ideals, so that neither side reads the
        # other's bases
        with work_limit(500):
            got = ideal_equal(Ideal(R3, I.gens), Ideal(R3, J.gens))
        with work_limit(500):
            want = ideal_contains(I, J)
        with work_limit(500):
            want = want and ideal_contains(J, I)
    except WorkLimitExceeded:
        assume(False)
    assert got == want


def test_dimension_examples():
    rep = dimension(Ideal(R3, [X]))
    assert (rep.dim, rep.codim) == (2, 1)
    f = R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2")
    grad = Ideal(R3, [f.derivative(v) for v in ["x", "y", "z"]])
    rep2 = dimension(grad)
    assert (rep2.dim, rep2.codim) == (1, 2)
    zero = dimension(Ideal(R3, []))
    assert zero.dim == 3 and zero.codim == 0
    unit = dimension(Ideal(R3, [R3.one]))
    assert unit.empty and unit.codim_at_least(99)


def test_dimension_witness_is_independent():
    I = Ideal(R3, [X * Y, X * Z])
    rep = dimension(I)
    assert rep.dim == 2
    assert set(rep.witness) in ({"y", "z"},) or rep.witness == ("y", "z")


def test_dimension_order_independent():
    # dimension reads the ring's order; the same ideal in a lex ring
    R3_lex = make_ring(["x", "y", "z"], order=LEX)
    fixtures = [
        Ideal(R3, [X * X - Y * Z, X * Y - Z * Z]),
        Ideal(R3, [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z")]),
        Ideal(R3, [R3.parse("x^3 - y"), R3.parse("z^2")]),
    ]
    for I in fixtures:
        assert dimension(I).dim == dimension(I.transport(R3_lex)).dim


def test_minimal_homogeneous_generators():
    out = minimal_homogeneous_generators(Ideal(R3, [X * X, X ** 3]))
    assert [(g, d) for g, d in out] == [(X * X, 2)]
    with pytest.raises(RingError):
        minimal_homogeneous_generators(Ideal(R3, [X + X * X]))


def test_rees_of_regular_pair_has_single_linear_generator():
    ring = make_ring(["x", "y"])
    from symrees.blowup import make_pair, rees_ideal
    pair = make_pair(ring, ring.gens(), [])
    rees = rees_ideal(pair)
    out = minimal_homogeneous_generators(rees, "fiber")
    assert len(out) == 1 and out[0][1] == 1


def test_quotient_chain_properties():
    rng = random.Random(7)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            if any(m):
                gens.append(R3.monomial(m, 1))
        if not gens:
            continue
        I = Ideal(R3, gens)
        J = Ideal(R3, [X * Y])
        q = quotient(I, J)
        sat, _ = saturate(I, J)
        assert ideal_contains(q, I)          # I <= I:J
        assert ideal_contains(sat, q)        # I:J <= I:J^inf
        again = quotient(sat, J)
        assert ideal_equal(again, sat)       # (I:J^inf):J = I:J^inf


def test_monomial_oracle_agreement_quick():
    rng = random.Random(31)
    deg = 8
    for _ in range(15):
        arity = rng.randint(1, 3)
        ring = make_ring(["x", "y", "z"][:arity])
        A = [tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(2)]
        B = [tuple(rng.randint(0, 2) for _ in range(arity)) for _ in range(2)]
        A = [m for m in A if any(m)] or [(1,) * arity]
        B = [m for m in B if any(m)] or [(1,) * arity]
        IA = Ideal(ring, [ring.monomial(m, 1) for m in A])
        IB = Ideal(ring, [ring.monomial(m, 1) for m in B])
        got = intersect(IA, IB)
        lead = [g.leading()[0] for g in got.gens]
        assert monomial_members(lead, arity, deg) == \
            monomial_members(A, arity, deg) & monomial_members(B, arity, deg)
        gotq = quotient(IA, IB)
        leadq = [g.leading()[0] for g in gotq.gens]
        assert monomial_members(leadq, arity, deg) == \
            monomial_quotient(A, B, arity, deg)
        gots, _ = saturate(IA, IB)
        leads = [g.leading()[0] for g in gots.gens]
        assert monomial_members(leads, arity, deg) == \
            monomial_saturation(A, B, arity, deg)


def test_sum_requires_same_ring():
    other = make_ring(["x", "y"])
    with pytest.raises(RingError):
        ideal_sum(Ideal(R3, [X]), Ideal(other, [other.var("x")]))


def test_sum_concatenates_generators():
    out = ideal_sum(Ideal(R3, [X]), Ideal(R3, [Y, Z]))
    assert out.gens == (X, Y, Z)


def test_ideal_power_matches_naive_left_fold():
    # products are built level by level from I^(t-1); the generator list and
    # each product's term order must equal the from-scratch left fold
    from itertools import combinations_with_replacement

    from symrees.fixtures import PAIR_FIXTURES
    ideals = [ctor().i_ideal for ctor, _ in PAIR_FIXTURES.values()]
    ideals.append(Ideal(R3, [X + Y, X - Z, X + Y]))  # repeated generator
    for I in ideals:
        for t in range(5):
            naive = []
            for combo in combinations_with_replacement(I.gens, t):
                p = I.ring.one
                for g in combo:
                    p = p * g
                naive.append(p)
            got = ideal_power(I, t).gens
            assert list(got) == naive
            assert [list(p.terms) for p in got] == [list(p.terms) for p in naive]


def test_ideal_products_spend_their_term_products():
    # (x + y)(x - y + 1): 2*2 + 2*3 + 3*2 + 3*3 = 25 term products; a power
    # step spends for each product it forms from the level below, 1 * g first
    I = Ideal(R3, [X + Y, X - Y + 1])
    products = tuple(g * h for g in I.gens for h in I.gens)
    with work_limit(25):
        assert ideal_product(I, I).gens == products
    with pytest.raises(WorkLimitExceeded), work_limit(24):
        ideal_product(I, I)
    # I^2 from I: (x + y)^2, (x + y)(x - y + 1), (x - y + 1)^2 spend 4 + 6 + 9;
    # I from (1) spends 2 + 3 more
    with work_limit(24):
        ideal_power(I, 2)
    with pytest.raises(WorkLimitExceeded), work_limit(23):
        ideal_power(I, 2)
    # a row spends 2*2 + 3*3 for its nonzero entries and nothing for the zero one
    gens, row = [X + Y, X - Y + 1, Z], [X - Z, Y ** 2 + Z + 1, R3.zero]
    value = sum((g * c for g, c in zip(gens, row)), R3.zero)
    with work_limit(13):
        assert apply_row(gens, row) == value
    with pytest.raises(WorkLimitExceeded), work_limit(12):
        apply_row(gens, row)


def test_a_large_ideal_power_stops_at_the_work_limit():
    I = Ideal(R3, [X + Y + Z + 1, X * Y - Z ** 2 + 3])
    with pytest.raises(WorkLimitExceeded), work_limit(10):
        ideal_power(I, 40)


# ---------------------------------------------------------------------------
# the reduced basis an elimination leaves in its result's Groebner cache


def _elimination_results(I: Ideal, J: Ideal, work_limit: int = DEFAULT_WORK_LIMIT) -> list:
    """One result of each elimination-based operation on ideals of Q[x, y, z].

    Each operation is one Buchberger run, and each gets its own budget of
    `work_limit` units.
    """
    RP = make_ring(["x", "y"], ["z"], order=I.ring.order)
    IP = I.transport(RP)
    calls = [(intersect, I, J), (saturate_principal, I, J.gens[0]),
             (eliminate, IP, "param"), (eliminate, IP, "geom"),
             (eliminate_vars, I, ["x"]), (eliminate_vars, I, ["y", "z"])]
    results = []
    for op, *args in calls:
        with symrees.work_limit(work_limit):
            results.append(op(*args))
    return results


def _assert_seeded(results, monkeypatch):
    fresh = [buchberger(Ideal(out.ring, out.gens), out.ring.order)
             for out in results]

    def no_run(*args, **kwargs):
        raise AssertionError("groebner ran Buchberger on a seeded result")

    with monkeypatch.context() as m:
        # the package's `groebner` function hides the module of that name
        m.setattr(sys.modules["symrees.groebner"], "buchberger", no_run)
        for out, gb in zip(results, fresh):
            assert groebner(out) == gb


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_elimination_seeds_reduced_basis_on_pair_fixtures(name, monkeypatch):
    pair = pair_by_name(name)
    I, J = pair.i_ideal, pair.j_ideal
    ext = pair.fiber_ring
    rees = rees_ideal(pair)     # an eliminate_vars result, kept through transport
    results = _elimination_results(I, J) + [
        intersect(J, ideal_power(I, 2)),
        rees,
        eliminate(rees, "geom"),
        eliminate_vars(Ideal(ext, list(rees.gens) + [ext.var(n) for n in pair.ring.names]),
                       list(pair.ring.names)),
    ]
    _assert_seeded(results, monkeypatch)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(i_terms=ideals, j_terms=ideals)
def test_elimination_seeds_reduced_basis_on_random_ideals(i_terms, j_terms,
                                                          monkeypatch):
    I, J = Ideal(R3, build(i_terms)), Ideal(R3, build(j_terms))
    assume(not I.is_zero and not J.is_zero)
    # a few draws make a tag-variable elimination run for minutes (one took
    # past 3000 work units and 10 s); those are drawn again
    try:
        results = _elimination_results(I, J, work_limit=500)
    except WorkLimitExceeded:
        assume(False)
    _assert_seeded(results, monkeypatch)


def test_lex_target_is_not_seeded():
    # the block order restricts to grevlex, not lex: nothing may be seeded,
    # and groebner must still give the lex basis of the same ideal
    I = Ideal(R3, [X * Y - Z * Z, X * X - Y * Z, Y ** 3 - X * Z])
    J = Ideal(R3, [X - Y, Z * Z - X])
    RL = make_ring(["x", "y", "z"], order="lex")
    IL, JL = I.transport(RL), J.transport(RL)
    for grev, lex in zip(_elimination_results(I, J), _elimination_results(IL, JL)):
        assert lex.ring.order == LEX and not lex._gb_cache
        same = Ideal(lex.ring, [g.transport(lex.ring) for g in grev.gens])
        assert groebner(lex) == buchberger(same, LEX)


# ---------------------------------------------------------------------------
# elimination against the reference route: the full reduced basis under the
# same block order, filtered to its elements free of the eliminated variables


def _reference_elimination(I: Ideal, gone, target) -> tuple:
    gb = buchberger(I, I.ring.elim_order_vars(gone))
    return tuple(g.transport(target) for g in gb
                 if not any(m[i] for m in g.coeffs for i in gone))


@pytest.fixture
def eliminations(monkeypatch):
    """(input, gone, target, kept elements) of every elimination run."""
    ops = sys.modules["symrees.ideal_ops"]
    real = ops._eliminated
    calls = []

    def recording(I, gone, target):
        out = real(I, gone, target)
        calls.append((I, tuple(gone), target, out.gens))
        return out

    monkeypatch.setattr(ops, "_eliminated", recording)
    return calls


def _assert_reference(calls):
    assert calls
    for I, gone, target, kept in calls:
        assert kept == _reference_elimination(I, gone, target)


RL3 = make_ring(["x", "y", "z"], order="lex")


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gens_terms=ideals, names=st.permutations(["x", "y", "z"]),
       ring=st.sampled_from([R3, RL3]))
def test_elimination_equals_the_reference_route(gens_terms, names, ring, eliminations):
    I = Ideal(ring, [g.transport(ring) for g in build(gens_terms)])
    eliminations.clear()
    for k in range(4):          # no, one, two and all variables
        try:
            with work_limit(2000):
                out = eliminate_vars(I, names[:k])
        except WorkLimitExceeded:
            assume(False)
        keep = [n for n in ring.names if n not in names[:k]]
        assert out.ring.names == tuple(keep) and out.ring.order == ring.order
        (call,) = eliminations[k:]
        assert out.gens == call[3]
    _assert_reference(eliminations)


@pytest.mark.parametrize("ring", [R3, RL3], ids=["grevlex", "lex"])
def test_eliminating_no_variable_keeps_the_reduced_basis(ring):
    # with nothing eliminated the run's order is grevlex, whose first order
    # row is the total degree: every element is kept, not only the constants
    I = Ideal(R3, [X * Y - Z * Z, X * X - Y * Z, Y ** 3 - X * Z]).transport(ring)
    out = eliminate_vars(I, [])
    assert out.ring == ring
    assert out.gens == buchberger(I, GREVLEX).elements and len(out.gens) == 6


def _tag_meet(I: Ideal, J: Ideal) -> tuple:
    """I ∩ J by the reference route: the full reduced basis of the tag ideal
    w*I + (1-w)*J, filtered to its elements free of w."""
    ext, w = I.ring.with_aux("_w")
    tag = Ideal(ext, [w * g.transport(ext) for g in I.gens]
                + [(ext.one - w) * g.transport(ext) for g in J.gens])
    return _reference_elimination(tag, [ext.arity - 1], I.ring)


def _is_monomial(I: Ideal) -> bool:
    return all(len(g.coeffs) == 1 for g in I.gens)


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_pair_fixture_meets_equal_the_reference_route(name, eliminations):
    pair = pair_by_name(name)
    I, J = pair.i_ideal, pair.j_ideal
    sides = [(I, J), (J, ideal_power(I, 2))]
    for A, B in sides:
        meet = intersect(A, B)
        assert meet.gens == _tag_meet(A, B)
        assert meet._gb_cache[A.ring.order].elements == meet.gens
    # a meet of two monomial ideals takes the lcm route; equigenerated-forms'
    # I is m^2, with its basis cached, so I ∩ J is read off J's basis; every
    # other meet is one elimination
    lcm_route = [_is_monomial(A) and _is_monomial(B) for A, B in sides]
    assert lcm_route == [name in ("coordinate-points", "product-partials")] * 2
    max_power_route = [name == "equigenerated-forms", False]
    assert len(eliminations) == lcm_route.count(False) - max_power_route.count(True)
    if eliminations:
        _assert_reference(eliminations)


def _max_power(d: int) -> Ideal:
    """m^d for m = (x, y, z), given by single terms."""
    return Ideal(R3, [R3.monomial(m) for m in monomials_of_degree(3, d)])


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gens_terms=homogeneous_ideals)
def test_meets_with_a_power_of_m_equal_the_reference_route(gens_terms, monkeypatch):
    B = Ideal(R3, build(gens_terms))
    assume(not B.is_zero)
    groebner(B)
    for d in range(1, 6):
        want = _tag_meet(B, _max_power(d))
        with monkeypatch.context() as m:
            # B's basis is cached and m^d's needs no run: neither meet runs
            m.setattr(sys.modules["symrees.groebner"], "_run_buchberger", None)
            meets = [intersect(B, _max_power(d)), intersect(_max_power(d), B)]
        for meet in meets:
            assert meet.gens == want
            assert meet._gb_cache[R3.order].elements == meet.gens


# J = (x^2 - x*z, y^2 - y*z) ∩ m^4: each quadric times each of the 6
# quadric monomials, one unit each, and 7 tail-reduction steps; J's basis
# takes no step, since its two leading monomials are coprime
MAX_POWER_MEET_LEAST = 12 + 7


def test_a_meet_with_a_power_of_m_spends_the_work_limit():
    def meet(limit):
        J = Ideal(R3, [X * X - X * Z, Y * Y - Y * Z])
        M = _max_power(4)
        with work_limit(limit):
            return intersect(J, M)

    with pytest.raises(WorkLimitExceeded):
        meet(MAX_POWER_MEET_LEAST - 1)
    got = meet(MAX_POWER_MEET_LEAST)
    assert got.gens == _tag_meet(Ideal(R3, [X * X - X * Z, Y * Y - Y * Z]), _max_power(4))
