"""Polynomial arithmetic, parsing, block structure and calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrees import (
    GREVLEX,
    LEX,
    Ideal,
    ParseError,
    RingContext,
    RingError,
    block_order,
    make_ring,
    poly_str,
)

R3 = make_ring(["x", "y", "z"])
X, Y, Z = R3.gens()
QUARTIC = R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2")


def random_poly(rng, ring, max_terms=4, max_exp=3, max_coeff=9):
    p = ring.zero
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(ring.arity))
        p = p + ring.monomial(m, Fraction(rng.randint(-max_coeff, max_coeff),
                                          rng.randint(1, 4)))
    return p


# ---------------------------------------------------------------------------
# arithmetic


def test_add_symmetry_example():
    assert R3.parse("(x+y) + (x-y)") == 2 * X


def test_mul_annihilator_example():
    assert ((X + Y) * R3.zero).is_zero


def test_euler_recombination_quartic():
    lhs = X * QUARTIC.derivative("x") + Y * QUARTIC.derivative("y") \
        + Z * QUARTIC.derivative("z")
    assert lhs == 4 * QUARTIC


def test_ring_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(1000):
        a = random_poly(rng, R3)
        b = random_poly(rng, R3)
        c = random_poly(rng, R3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + R3.zero == a
        assert a * R3.one == a


def test_ring_mismatch_raises():
    other = make_ring(["x", "y"])
    with pytest.raises(RingError):
        X + other.var("x")


def test_power():
    assert (X + Y) ** 2 == R3.parse("x^2 + 2*x*y + y^2")
    assert (X + Y) ** 0 == R3.one
    with pytest.raises(RingError):
        (X + Y) ** -1


# ---------------------------------------------------------------------------
# derivatives


def test_partial_derivative_quartic():
    assert QUARTIC.derivative("x") == R3.parse("2*x*(y^2 + z^2)")


def test_partial_derivative_four_points_generator():
    assert R3.parse("x^2 - x*z").derivative("z") == -X


def test_partial_derivative_absent_variable():
    assert R3.parse("y^4").derivative("x").is_zero


def test_derivative_unknown_variable():
    with pytest.raises(RingError):
        QUARTIC.derivative("w")


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_print_round_trip_fixture():
    assert poly_str(QUARTIC) == "x^2*y^2 + x^2*z^2 + y^2*z^2"
    assert R3.parse(poly_str(QUARTIC)) == QUARTIC


def test_parse_print_round_trip_randomized():
    rng = random.Random(777)
    for _ in range(300):
        p = random_poly(rng, R3)
        assert R3.parse(poly_str(p)) == p


def test_parse_implicit_multiplication():
    assert R3.parse("2x y z") == 2 * X * Y * Z
    assert R3.parse("2*x*y*z(x + y)") == 2 * X * Y * Z * (X + Y)


def test_parse_rational_coefficients():
    assert R3.parse("3/4*x - 1/2") == Fraction(3, 4) * X - Fraction(1, 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        R3.parse("x^^2")
    assert "column 3" in str(err.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        R3.parse("x + q")


@pytest.mark.parametrize("text", [
    "(" * 3000 + "x" + ")" * 3000,
    "2*" + "-(" * 3000 + "x" + ")" * 3000,
    "2*" + "-" * 3000 + "x",
], ids=["parentheses", "minus-parentheses", "minus-in-factor"])
def test_parse_refuses_deep_nesting(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        R3.parse(text)


def test_parse_accepts_nesting_up_to_the_bound():
    from symrees.rings import MAX_NESTING
    assert R3.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == X
    assert R3.parse("-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2)) == X
    # a run of signs in front of a term is a loop, not nesting
    assert R3.parse("-" * 3000 + "x") == X


def test_parsed_powers_spend_their_term_products():
    # (x + y)^3 by squaring: 1 * (x + y) forms 1*2 term products, the square
    # 2*2 and (x + y) * (x + y)^2 2*3, 12 in all; x^9 forms five one-term
    # products, y^5 four and x^9 * y^5 one more, 22 in all
    from symrees import WorkLimitExceeded, work_limit
    want = (X + Y) ** 3 + X ** 9 * Y ** 5
    with work_limit(22):
        assert R3.parse("(x + y)^3 + x^9*y^5") == want
    with pytest.raises(WorkLimitExceeded), work_limit(21):
        R3.parse("(x + y)^3 + x^9*y^5")
    with pytest.raises(WorkLimitExceeded), work_limit(11):
        R3.parse("(x + y)^3")


def test_parsed_products_spend_their_term_products():
    # the running product of six 9-term factors has 9, 45, 165, 495 and 1287
    # terms: 81 + 405 + 1485 + 4455 + 11583 = 18009 term products
    from symrees import WorkLimitExceeded, work_limit
    R = make_ring([f"x{i}" for i in range(8)])
    text = "*".join(["(x0+x1+x2+x3+x4+x5+x6+x7+1)"] * 6)
    with work_limit(18009):
        assert len(R.parse(text).coeffs) == 3003
    with pytest.raises(WorkLimitExceeded), work_limit(18008):
        R.parse(text)


# ---------------------------------------------------------------------------
# homogeneity and degrees


def test_homogeneous_quartic():
    rep = QUARTIC.is_homogeneous("geom")
    assert rep.homogeneous and rep.degree == 4


def test_not_homogeneous():
    rep = R3.parse("x^2 + y").is_homogeneous()
    assert not rep.homogeneous and rep.degree is None


def test_homogeneous_ignores_parameters():
    ring = make_ring(["x", "y", "z"], ["u1"])
    rep = ring.parse("u1*x^3*z + x^4").is_homogeneous("geom")
    assert rep.homogeneous and rep.degree == 4


def test_zero_polynomial_flags():
    rep = R3.zero.is_homogeneous()
    assert rep.is_zero and not rep.homogeneous and rep.degree is None
    assert R3.zero.degree() is None


# ---------------------------------------------------------------------------
# block evaluation


def test_evaluate_block_family_members():
    ring = make_ring(["x", "y", "z"], ["u"])
    F = ring.parse("y^4*z + x^5 + u*x^3*y^2")
    special = F.evaluate_block("param", [0])
    assert poly_str(special) == "x^5 + y^4*z"
    general = F.evaluate_block("param", [1])
    assert general == special.ring.parse("y^4*z + x^5 + x^3*y^2")


def test_evaluate_block_arity_mismatch():
    ring = make_ring(["x"], ["u", "v"])
    with pytest.raises(RingError):
        ring.parse("u*x").evaluate_block("param", [1])


def test_evaluate_empty_block_is_identity():
    assert QUARTIC.evaluate_block("param", []) == QUARTIC


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(-3, 3), st.integers(-3, 3))
def test_evaluate_block_is_ring_homomorphism(seed, a, b):
    rng = random.Random(seed)
    ring = make_ring(["x", "y"], ["u", "v"])
    f = random_poly(rng, ring)
    g = random_poly(rng, ring)
    ev = lambda p: p.evaluate_block("param", [a, b])
    assert ev(f * g) == ev(f) * ev(g)
    assert ev(f + g) == ev(f) + ev(g)


# ---------------------------------------------------------------------------
# ring contexts and orders


def test_ring_context_validation():
    with pytest.raises(RingError):
        make_ring(["x", "x"])
    with pytest.raises(RingError):
        make_ring(["2bad"])
    with pytest.raises(RingError):
        RingContext(("x", "y"), (("geom", (0,)),), GREVLEX)


def test_block_membership():
    ring = make_ring(["x", "y"], ["u"])
    assert ring.block_indices("geom") == (0, 1)
    assert ring.block_indices("param") == (2,)
    with pytest.raises(RingError):
        ring.block_indices("fiber")


def test_grevlex_vs_lex():
    kg = GREVLEX.key_func(3)
    kl = LEX.key_func(3)
    # grevlex: x*z > y^2 is false (same degree, last nonzero of diff positive)
    assert kg((1, 0, 1)) < kg((0, 2, 0))
    assert kl((1, 0, 1)) > kl((0, 2, 0))


def test_order_well_ordering_and_multiplicativity():
    rng = random.Random(5)
    for order in (GREVLEX, LEX):
        key = order.key_func(3)
        one = (0, 0, 0)
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            if any(a):
                assert key(a) > key(one)
            if key(a) > key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) > key(bc)


def test_elimination_order_structure():
    ring = make_ring(["x", "y", "z"], ["u"])
    order = ring.elim_order_vars(ring.block_indices("geom"))
    key = order.key_func(4)
    # any geometric monomial beats any pure parameter monomial
    assert key((1, 0, 0, 0)) > key((0, 0, 0, 5))
    assert order.groups == ((0, 1, 2), (3,))


def _sign(v):
    return (v > 0) - (v < 0)


def _lex_cmp(a, b):
    """Textbook lex: the first nonzero entry of a - b decides."""
    return next((_sign(x - y) for x, y in zip(a, b) if x != y), 0)


def _grevlex_cmp(a, b):
    """Textbook grevlex: total degree, then the smaller last differing exponent."""
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    return next((_sign(y - x) for x, y in zip(reversed(a), reversed(b)) if x != y), 0)


def _block_cmp(groups):
    """Textbook block order: groups left to right, each in grevlex as listed."""
    def cmp(a, b):
        for g in groups:
            c = _grevlex_cmp([a[i] for i in g], [b[i] for i in g])
            if c:
                return c
        return 0
    return cmp


def test_order_rows_agree_with_key():
    """The rows-derived key orders monomials as the textbook comparators do."""
    ring = make_ring(["x", "y", "z"], ["u"])
    cases = ((GREVLEX, _grevlex_cmp), (LEX, _lex_cmp),
             (ring.elim_order_vars(ring.block_indices("geom")),
              _block_cmp(((0, 1, 2), (3,)))),
             (ring.elim_order_vars([3]), _block_cmp(((3,), (0, 1, 2)))),
             (block_order((2, 0, 3, 1)), _block_cmp(((2, 0, 3, 1),))))
    rng = random.Random(11)
    for order, cmp in cases:
        key = order.key_func(4)
        # the key and the engine bound row values by the total degree
        assert {c for row in order.rows(4) for c in row} == {0, 1}
        for _ in range(400):
            a = tuple(rng.randint(0, 3) for _ in range(4))
            b = tuple(rng.randint(0, 3) for _ in range(4))
            assert _sign(key(a) - key(b)) == cmp(a, b)
            assert (key(a) == key(b)) == (a == b)


def test_restrict_keeps_a_permuted_group():
    order = block_order((1, 2, 0))
    assert order.restrict([0, 1, 2]) == order != GREVLEX
    assert order.restrict([0, 1, 2]).rows(3) == ((1, 1, 1), (0, 1, 1), (0, 1, 0))
    # a group left in ascending order is grevlex itself
    assert block_order((0, 1), (2,)).restrict([0, 1]) == GREVLEX
    assert block_order((2,), (0, 1)).restrict([0, 1]) == GREVLEX


def test_order_key_raises_past_its_bound():
    big = (1 << 64) - 1
    # a row value of 2**64 - 1 still fits, and the order is kept there
    assert GREVLEX.key_func(3)((big, 0, 0)) > GREVLEX.key_func(3)((big - 1, 1, 0))
    # lex rows are single exponents: a total degree past the bound is fine
    assert LEX.key_func(3)((1 << 63, 1 << 63, 0)) > LEX.key_func(3)((1 << 63, 0, 1))
    with pytest.raises(RingError, match="order key"):
        GREVLEX.key_func(3)((1 << 63, 1 << 63, 0))
    with pytest.raises(RingError, match="order key"):
        LEX.key_func(3)((0, 1 << 64, 0))


def test_extend_and_subring():
    ring = make_ring(["x", "y"])
    ext = ring.extend(["T1", "T2"], "fiber")
    assert ext.names == ("x", "y", "T1", "T2")
    assert ext.block_indices("fiber") == (2, 3)
    sub = ext.drop_block("fiber")
    assert sub.names == ("x", "y")
    p = ext.parse("x*T1 + y")
    with pytest.raises(RingError):
        p.transport(sub)
    assert ext.parse("x + y").transport(sub) == ring.parse("x + y")


def test_content_and_primitive():
    p = R3.parse("4*x^2 - 6*x*y")
    assert p.content() == 2
    assert poly_str(p.primitive()) == "2*x^2 - 3*x*y"
    q = R3.parse("-4*x^2 + 6*x*y")
    assert q.primitive().leading()[1] > 0


def test_ideal_drops_zero_generators():
    I = Ideal(R3, [X, R3.zero, Y])
    assert len(I) == 2
