"""Hypothesis strategies for small random ideals in Q[x, y, z] (grevlex)."""

from __future__ import annotations

from hypothesis import strategies as st

from symrees import make_ring

R3 = make_ring(["x", "y", "z"])

# one polynomial: up to three terms with small coefficients and exponents
terms = st.lists(st.tuples(st.integers(-4, 4).filter(bool),
                           st.tuples(*[st.integers(0, 2)] * 3)),
                 min_size=1, max_size=3)
ideals = st.lists(terms, min_size=1, max_size=3)


def build(gens_terms) -> list:
    gens = []
    for poly_terms in gens_terms:
        p = R3.zero
        for c, m in poly_terms:
            p = p + R3.monomial(m, c)
        gens.append(p)
    return gens
