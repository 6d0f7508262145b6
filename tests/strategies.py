"""Hypothesis strategies for small random polynomials and ideals in Q[x, y, z]."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from symrees import make_ring

R3 = make_ring(["x", "y", "z"])

monomials = st.tuples(*[st.integers(0, 2)] * 3)

# one polynomial: up to three terms with small coefficients and exponents
terms = st.lists(st.tuples(st.integers(-4, 4).filter(bool), monomials),
                 min_size=1, max_size=3)
ideals = st.lists(terms, min_size=1, max_size=3)


def _form_terms(degree: int):
    """Up to three terms of one degree, in the format of `terms`."""
    mons = [m for m in product(range(degree + 1), repeat=3) if sum(m) == degree]
    return st.lists(st.tuples(st.integers(-4, 4).filter(bool), st.sampled_from(mons)),
                    min_size=1, max_size=3)


# one linear form; repeated monomials may cancel it to zero
linear_forms = _form_terms(1)

# homogeneous generators of degree 1 or 2, not necessarily all of one degree;
# repeated monomials may cancel a generator to zero
homogeneous_ideals = st.lists(st.integers(1, 2).flatmap(_form_terms),
                              min_size=1, max_size=3)

# one rational polynomial as (monomial, Fraction) pairs; repeated monomials
# add up, and may cancel to zero
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
rational_terms = st.lists(st.tuples(monomials, rationals), max_size=4)


def build(gens_terms) -> list:
    gens = []
    for poly_terms in gens_terms:
        p = R3.zero
        for c, m in poly_terms:
            p = p + R3.monomial(m, c)
        gens.append(p)
    return gens


def fraction_terms(pairs) -> dict:
    """Sum (monomial, Fraction) pairs into a monomial -> nonzero Fraction dict."""
    out: dict = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}
