"""Monomial ideals by exponent arithmetic: the bases, meets and pair powers
that skip the Buchberger engine against the engine's own routes."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrees import GREVLEX, LEX, Ideal, buchberger, groebner, make_ring
from symrees.blowup import _pair_power, make_pair
from symrees.budget import WorkLimitExceeded, _Budget, work_limit
from symrees.groebner import (
    GroebnerBasis,
    _eliminated,
    _layout,
    _reduce_records,
    _run_buchberger,
)
from symrees.ideal_ops import ideal_power, intersect

R3 = make_ring(["x", "y", "z"])
RL3 = make_ring(["x", "y", "z"], order="lex")
X, Y, Z = R3.gens()

# single terms, their coefficients not all 1; (0, 0, 0) gives the unit ideal
single_terms = st.tuples(st.sampled_from([1, -2, 3]), st.tuples(*[st.integers(0, 3)] * 3))
monomial_gens = st.lists(single_terms, min_size=1, max_size=5)


def _ideal(ring, terms) -> Ideal:
    return Ideal(ring, [ring.monomial(m, c) for c, m in terms])


def _engine_basis(gens, order):
    """The reduced basis by one Buchberger run, as `buchberger` made it for
    every input before monomial generators skipped the run."""
    ring = gens[0].ring
    recs, _ = _run_buchberger(gens, ring, order, track=False)
    lay = _layout(order, ring.arity)
    final = _reduce_records(recs, lay, _Budget(10 ** 6))
    return GroebnerBasis(ring, order, None, _records=tuple(final))


def _tag_elimination(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by the engine: w eliminated from the tag ideal w*I + (1-w)*J."""
    ext, w = I.ring.with_aux("_w")
    tag = Ideal(ext, [w * g.transport(ext) for g in I.gens]
                + [(ext.one - w) * g.transport(ext) for g in J.gens])
    return _eliminated(tag, [ext.arity - 1], I.ring)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monomial_gens, monomial_gens)
def test_monomial_meet_equals_the_tag_elimination(a, b):
    for ring in (R3, RL3):
        I, J = _ideal(ring, a), _ideal(ring, b)
        meet, ref = intersect(I, J), _tag_elimination(I, J)
        # the same generators in the same order, and the same seeded cache:
        # the reduced basis under grevlex, absent under lex, whose order the
        # elimination's restricted order is not
        assert meet.gens == ref.gens
        assert meet._gb_cache == ref._gb_cache
        assert list(meet._gb_cache) == ([GREVLEX] if ring is R3 else [])
        # the seeded basis keeps the packed records the meet built
        assert all(gb._records is not None for gb in meet._gb_cache.values())


def test_a_cached_monomial_basis_gives_the_meet_its_words(monkeypatch):
    # (x + y, y) is not given by single terms, but its cached grevlex basis
    # (x, y) is monomial, and grevlex is the elimination's restricted order
    # on both rings: either meet of it with a monomial ideal takes the word
    # route, with the tag elimination's generators and seeded cache
    def no_run(*args, **kwargs):
        raise AssertionError("the meet ran Buchberger")

    for ring in (R3, RL3):
        x, y, z = ring.gens()
        I = Ideal(ring, [x + y, y])
        J = Ideal(ring, [x ** 2 * z, y * z ** 2, z ** 3])
        refs = [_tag_elimination(I, J), _tag_elimination(J, I)]
        groebner(I, GREVLEX)
        with monkeypatch.context() as m:
            m.setattr(sys.modules["symrees.groebner"], "_run_buchberger", no_run)
            meets = [intersect(I, J), intersect(J, I)]
        for meet, ref in zip(meets, refs):
            assert meet.gens == ref.gens
            assert meet._gb_cache == ref._gb_cache


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monomial_gens)
def test_monomial_basis_equals_the_engine_run(a):
    gens = [R3.monomial(m, c) for c, m in a]
    records = lambda gb: [(rec.lm, rec.lc, rec.tail, rec.top) for rec in gb._records]
    for order in (GREVLEX, LEX, R3.elim_order_vars([1])):
        got, want = buchberger(gens, order), _engine_basis(gens, order)
        assert got.elements == want.elements
        assert records(got) == records(want)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(monomial_gens, st.booleans())
def test_monomial_pair_powers_equal_ideal_powers(a, mixed):
    for ring in (R3, RL3):
        i_gens = list(_ideal(ring, a).gens)
        if mixed and len(i_gens) > 1:
            # generators that are not all monomials, of a monomial ideal
            i_gens[0] = i_gens[0] + i_gens[1]
        pair = make_pair(ring, i_gens, [i_gens[-1]])
        I = pair.i_ideal
        assert _pair_power(pair, 1) is I
        for t in (2, 3):
            power = _pair_power(pair, t)
            want = _engine_basis(list(ideal_power(I, t).gens), ring.order)
            assert groebner(power).elements == power.gens == want.elements


def test_a_wrong_containment_claim_fails_on_the_monomial_route():
    A = Ideal(R3, [X + Y, Z])
    groebner(A)
    # (x, z) is not inside A, but its lead ideal covers A's
    B = Ideal(R3, [X, Z])
    B._derived["within"] = A
    with pytest.raises(AssertionError):
        buchberger(B)
    # a true claim whose lead ideal does not cover A's needs no check
    C = Ideal(R3, [X * Z, Z ** 2])
    C._derived["within"] = A
    assert buchberger(C).elements == (X * Z, Z ** 2)


# I = (x^i y^(199-i)) and J = (y^i z^(199-i)): 40000 lcms, one unit each, all
# distinct, of which the 200 x^i y^(199-i) z^i are minimal, so 39800
# more units drop the rest
MEET_LEAST = 79800


def test_monomial_meet_spends_the_work_limit():
    I = Ideal(R3, [R3.monomial((i, 199 - i, 0)) for i in range(200)])
    J = Ideal(R3, [R3.monomial((0, i, 199 - i)) for i in range(200)])
    with pytest.raises(WorkLimitExceeded), work_limit(1000):
        intersect(I, J)
    with work_limit(MEET_LEAST):
        meet = intersect(I, J)
    assert meet.gens[0] == R3.monomial((199, 0, 199))
    assert len(meet.gens) == 200
    with pytest.raises(WorkLimitExceeded), work_limit(MEET_LEAST - 1):
        intersect(I, J)
