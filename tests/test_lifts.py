"""Syzygies and containment certificates lifted inside the engine.

`syzygies` and `solve_certificates` reduce on the engine's records with the
representation tracked.  The references below are the Polynomial-level route
they replaced: divide by the tracked basis, then pull the quotients back along
its representation matrix A with `apply_row`.  Both routes take the same
quotient at every step, so the normalized syzygy columns and the certificate
rows must agree exactly, also for generators with content.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrees import RingError, buchberger_tracked, division, make_pair, syzygies
from symrees.blowup import CertificateError, solve_certificates
from symrees.groebner import FIELD_MAX
from symrees.syzygy import apply_row

from strategies import R3, build, ideals, rationals, terms

X, Y, Z = R3.gens()

scales = st.lists(rationals.filter(bool), min_size=3, max_size=3)


def normalize_column(col):
    """Divide a column by the gcd-content of all its coefficients, with the
    first nonzero entry's leading coefficient positive.

    Each entry's integer part has content 1, so that gcd is the gcd of the
    entries' scales.
    """
    num, den = 0, 1
    for p in col:
        if p.coeffs:
            num = gcd(num, p.scale.numerator)
            den = lcm(den, p.scale.denominator)
    if num == 0:
        return list(col)
    cont = Fraction(num, den)
    lead = next(p for p in col if not p.is_zero)
    if lead.leading()[1] < 0:
        cont = -cont
    return [p * (1 / cont) for p in col]


def reference_syzygy_columns(gens) -> list:
    """The columns of `syzygies`, by division and `apply_row` pullback."""
    ring = gens[0].ring
    m = len(gens)
    zero = ring.zero
    nonzero_idx = [j for j, g in enumerate(gens) if not g.is_zero]
    if not nonzero_idx:
        return [[ring.one if i == j else zero for i in range(m)] for j in range(m)]
    live = [gens[j] for j in nonzero_idx]
    gb, A = buchberger_tracked(live)
    s = len(gb.elements)
    a_cols = [[A[k][j] for k in range(s)] for j in range(len(live))]
    raw = []
    for i, g in enumerate(live):
        nf, quots = division(g, gb)
        assert nf.is_zero
        row = [apply_row(quots, a_col) for a_col in a_cols]
        row[i] = row[i] - ring.one
        raw.append(row)
    leads = [g.leading(gb.order) for g in gb.elements]
    lcms = {}
    for k, l in combinations(range(s), 2):
        lcms[k, l] = lcms[l, k] = tuple(map(max, leads[k][0], leads[l][0]))
    for k, l in combinations(range(s), 2):
        lcm = lcms[k, l]
        if any(j != k and j != l and all(map(le, leads[j][0], lcm))
               and lcms[k, j] != lcm and lcms[j, l] != lcm for j in range(s)):
            continue
        (mk, ck), (ml, cl) = leads[k], leads[l]
        tk = ring.monomial(tuple(a - b for a, b in zip(lcm, mk)), 1 / ck)
        tl = ring.monomial(tuple(a - b for a, b in zip(lcm, ml)), 1 / cl)
        svec = [zero] * s
        svec[k] = tk
        svec[l] = -tl
        nf, quots = division(tk * gb.elements[k] - tl * gb.elements[l], gb)
        assert nf.is_zero
        svec = [v - q for v, q in zip(svec, quots)]
        raw.append([apply_row(svec, a_col) for a_col in a_cols])
    cols = []
    for col in raw:
        if all(p.is_zero for p in col):
            continue
        full = [zero] * m
        for pos, j in enumerate(nonzero_idx):
            full[j] = col[pos]
        full = normalize_column(full)
        if full not in cols:
            cols.append(full)
    for j, g in enumerate(gens):
        if g.is_zero:
            cols.append([ring.one if i == j else zero for i in range(m)])
    degs = lambda c: max((p.degree() or 0) for p in c if not p.is_zero)
    cols.sort(key=lambda c: (degs(c), tuple(str(p) for p in c)))
    return cols


def reference_certificates(js, i_gens) -> list:
    """The rows of `solve_certificates`, by division and `apply_row` pullback."""
    gb, A = buchberger_tracked(list(i_gens))
    rows = []
    for a in js:
        nf, quots = division(a, gb)
        if not nf.is_zero:
            raise CertificateError(f"{a} is not in the ideal of the given generators")
        if not gb.elements:
            rows.append([a.ring.zero for _ in i_gens])
        else:
            rows.append([apply_row(quots, [row[j] for row in A])
                         for j in range(len(i_gens))])
    return rows


def scaled(gens, factors):
    return [g * c for g, c in zip(gens, factors)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ideals, scales)
def test_syzygies_match_the_division_route(gens_terms, factors):
    gens = build(gens_terms)
    for case in (gens, scaled(gens, factors)):
        cols = syzygies(case).columns()
        assert cols == reference_syzygy_columns(case)
        for col in cols:
            assert apply_row(case, col).is_zero


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ideals, scales, st.lists(terms, min_size=1, max_size=2), st.lists(terms, max_size=2))
def test_certificates_match_the_division_route(gens_terms, factors, mult_terms, other_terms):
    gens = build(gens_terms)
    mults = build(mult_terms)
    for case in (gens, scaled(gens, factors)):
        members = [sum((c * g for c, g in zip(mults[i:] + mults[:i], case)), R3.zero)
                   for i in range(len(mults))]
        rows = solve_certificates(members, case)
        assert rows == reference_certificates(members, case)
        for a, row in zip(members, rows):
            assert apply_row(case, row) == a
        for a in build(other_terms):
            try:
                want = reference_certificates([a], case)
            except CertificateError:
                with pytest.raises(CertificateError):
                    solve_certificates([a], case)
            else:
                assert solve_certificates([a], case) == want


# ---------------------------------------------------------------------------
# generators with content: the tracked representation divides by each scale


def test_tracked_representation_reproduces_the_basis_for_scaled_generators():
    gens = [4 * X ** 3, Fraction(2, 3) * (X * Y - Z ** 2), 6 * Y ** 2 + 3 * Z]
    gb, A = buchberger_tracked(gens)
    for b, row in zip(gb.elements, A):
        assert apply_row(gens, row) == b


def test_syzygies_of_scaled_generators_annihilate():
    gens = [4 * X ** 3, 4 * Y ** 3, 4 * Z ** 3]
    cols = syzygies(gens).columns()
    assert len(cols) == 3
    for col in cols:
        assert apply_row(gens, col).is_zero


def test_make_pair_accepts_generators_with_content():
    pair = make_pair(R3, [2 * X, 2 * Y], [X * Y])
    assert pair.certificates == ((Fraction(1, 2) * Y, R3.zero),)


def test_representation_product_past_the_bound_raises():
    # x*y^K + z reduced by x leaves z with representation e_1 - y^K * e_0, so
    # lifting y^M * z forms y^(K + M) in the representation alone
    K = FIELD_MAX - 10
    gens = [X, X * R3.monomial((0, K, 0)) + Z]
    inside = R3.monomial((0, 5, 1))
    (row,) = solve_certificates([inside], gens)
    assert apply_row(gens, row) == inside
    with pytest.raises(RingError):
        solve_certificates([R3.monomial((0, 20, 1))], gens)
