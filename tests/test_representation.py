"""Polynomials as content-1 integer coefficients times one Fraction scale.

Every route to a polynomial must land on the same normal form, so that
equality and hashing stay structural; the Fraction view `terms` and the
printed form must agree with plain Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings

from symrees import GroebnerBasis, Polynomial, make_ring, normal_form, poly_str

from strategies import R3, fraction_terms, rational_terms

RZYX = make_ring(["z", "y", "x"])


def poly(pairs) -> Polynomial:
    return Polynomial(R3, fraction_terms(pairs))


def assert_normal(p: Polynomial):
    assert type(p.scale) is Fraction
    assert all(type(c) is int and c for c in p.coeffs.values())
    if p.coeffs:
        g = 0
        for c in p.coeffs.values():
            g = gcd(g, c)
        assert g == 1
        assert p.coeffs[max(p.coeffs)] > 0
    else:
        assert p.scale == 1


def reference_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def reference_str(terms: dict) -> str:
    """poly_str's format, read off a monomial -> Fraction dict."""
    if not terms:
        return "0"
    key = R3.order.key_func(R3.arity)
    parts = []
    for m in sorted(terms, key=key, reverse=True):
        c = terms[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(R3.names, m) if e]
        mag = abs(c)
        body = ("*".join(factors) if factors and mag == 1
                else "*".join([str(mag)] + factors))
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return " ".join(parts)


@settings(max_examples=200, deadline=None)
@given(rational_terms, rational_terms, rational_terms)
def test_routes_to_one_polynomial_give_equal_hashes(a, b, c):
    p, q, r = poly(a), poly(b), poly(c)
    pairs = [((p * q) * r, p * (q * r)),
             (p + q - q, p),
             (2 * (p * Fraction(1, 2)), p),
             (-(-p), p),
             (p - p, R3.zero),
             (p.transport(RZYX).transport(R3), p)]
    for lhs, rhs in pairs:
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
        assert_normal(lhs)


@settings(max_examples=200, deadline=None)
@given(rational_terms, rational_terms)
def test_every_result_is_in_normal_form(a, b):
    p, q = poly(a), poly(b)
    results = [p, p * q, p + q, p - q, -p, p * Fraction(-3, 2), p.derivative("x"),
               p.transport(RZYX), p.primitive(), p.monic()]
    if q:
        results.append(normal_form(p, GroebnerBasis(R3, R3.order, (q.monic(),))))
    for r in results:
        assert_normal(r)


@settings(max_examples=200, deadline=None)
@given(rational_terms)
def test_terms_view_round_trips_in_insertion_order(a):
    p = poly(a)
    assert all(type(c) is Fraction for c in p.terms.values())
    back = Polynomial(R3, p.terms)
    assert back == p
    assert list(back.terms) == list(p.terms)
    assert list(p.terms) == list(p.coeffs)
    assert dict(p.terms) == fraction_terms(a)


@settings(max_examples=200, deadline=None)
@given(rational_terms, rational_terms)
def test_poly_str_matches_a_fraction_reference(a, b):
    ta, tb = fraction_terms(a), fraction_terms(b)
    p, q = Polynomial(R3, ta), Polynomial(R3, tb)
    assert poly_str(p) == reference_str(ta)
    assert poly_str(p * q) == reference_str(reference_product(ta, tb))
    total = {m: ta.get(m, 0) + tb.get(m, 0) for m in {**ta, **tb}}
    assert poly_str(p + q) == reference_str({m: c for m, c in total.items() if c})


def test_terms_view_is_read_only_and_built_once():
    p = R3.parse("3/2*x^2 - 3*y*z")
    assert p.coeffs == {(2, 0, 0): 1, (0, 1, 1): -2}
    assert p.scale == Fraction(3, 2)
    view = p.terms
    assert view is p.terms
    assert dict(view) == {(2, 0, 0): Fraction(3, 2), (0, 1, 1): Fraction(-3)}
    with pytest.raises(TypeError):
        view[(0, 0, 0)] = Fraction(1)
