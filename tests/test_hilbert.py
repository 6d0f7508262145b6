"""Hilbert-driven Buchberger runs: the numerator of a monomial ideal, the
Rees kernels, whose input records its known Hilbert series, and the embedded
(Aluffi) algebra's ideal, whose series comes from the Rees ideal's."""

from __future__ import annotations

import random
import sys
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symrees import LEX, Ideal, buchberger, dimension, groebner, make_pair
from symrees.blowup import (
    _fiber,
    aluffi_dimension,
    aluffi_presentation,
    rees_ideal,
    relative_rees_ideal,
)
from symrees.budget import _BUDGET, WorkLimitExceeded, work_limit
from symrees.curves import gradient_pair, sample_parameters
from symrees.fixtures import CURVES, FAMILIES, PAIR_FIXTURES, curve_by_name, pair_by_name
from symrees.groebner import _layout
from symrees.hilbert import HilbertSeries, _HilbertCount, hilbert_numerator
from symrees.ideal_ops import eliminate_vars
from symrees.rings import GREVLEX, RingContext

from strategies import R3, build, homogeneous_ideals, linear_forms


def _series(num: dict, weights, top: int) -> list:
    """The coefficients of t^0..t^top in num(t) / prod_i (1 - t^w_i)."""
    s = [num.get(k, 0) for k in range(top + 1)]
    for w in weights:
        for k in range(w, top + 1):
            s[k] += s[k - w]
    return s


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gens=st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=6),
       weights=st.tuples(*[st.integers(1, 3)] * 4))
def test_numerator_counts_the_standard_monomials(gens, weights):
    top = 8
    counts = [0] * (top + 1)
    for m in product(range(top + 1), repeat=4):
        d = sum(w * e for w, e in zip(weights, m))
        if d <= top and not any(all(a <= b for a, b in zip(g, m)) for g in gens):
            counts[d] += 1
    assert _series(hilbert_numerator(gens, weights), weights, top) == counts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gens=st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=8),
       weights=st.tuples(*[st.integers(1, 3)] * 4))
def test_a_count_starts_from_its_seeds_numerator_at_once(gens, weights):
    # the lead ideal of a run's seeds, built in one numerator, is the one
    # that adding their leading monomials one at a time gives
    lay = _layout(GREVLEX, 4)
    words = [lay.pack(m) & lay.emask for m in gens]
    series = HilbertSeries(weights, {})
    at_once = _HilbertCount(lay, series, words)
    one_by_one = _HilbertCount(lay, series, [])
    for w in words:
        one_by_one.add(w)
    assert at_once.num == one_by_one.num == hilbert_numerator(gens, weights)
    assert sorted(at_once.lead) == sorted(one_by_one.lead)


def _kernel_input(pair, with_j: bool):
    """The Rees kernel's input (J, T_i - b_i*u), and the fiber ring R[T]."""
    ext, names = _fiber(pair.ring, len(pair.i_gens))
    ext2, u = ext.with_aux("_u")
    gens = [a.transport(ext2) for a in pair.j_gens] if with_j else []
    gens += [ext2.var(t) - b.transport(ext2) * u for t, b in zip(names, pair.i_gens)]
    return Ideal(ext2, gens), ext


def _plain_kernel(pair, with_j: bool) -> tuple:
    """The kernel from a Buchberger run with no Hilbert series, under the
    same block order: its elements free of u, in R[T]."""
    I, ext = _kernel_input(pair, with_j)
    u = I.ring.arity - 1
    gb = buchberger(I, I.ring.elim_order_vars([u]))
    return tuple(g.transport(ext) for g in gb if not any(m[u] for m in g.coeffs))


@pytest.fixture
def hilbert_runs(monkeypatch):
    """The Hilbert series given to each Buchberger run, None for a plain run."""
    engine = sys.modules["symrees.groebner"]
    real = engine._run_buchberger
    runs = []

    def recording(gens, ring, order, track, hilbert=None, cover=None):
        runs.append(hilbert)
        return real(gens, ring, order, track, hilbert, cover)

    monkeypatch.setattr(engine, "_run_buchberger", recording)
    return runs


PAIRS = ([pytest.param(lambda name=name: pair_by_name(name), id=name)
          for name in sorted(PAIR_FIXTURES)]
         + [pytest.param(lambda curve=curve: gradient_pair(curve.curve()).pair,
                         id=curve.slug) for curve in CURVES])


@pytest.mark.parametrize("build_pair", PAIRS)
def test_rees_kernels_equal_a_plain_run(build_pair, hilbert_runs):
    pair = build_pair()
    rees, rel = rees_ideal(pair), relative_rees_ideal(pair)
    assert sum(h is not None for h in hilbert_runs) == 2
    assert rees.gens == _plain_kernel(pair, False)
    assert rel.gens == _plain_kernel(pair, True)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals, l_terms=linear_forms)
def test_rees_kernels_of_random_forms_equal_a_plain_run(gens_terms, l_terms):
    gens = build(gens_terms)
    (ell,) = build([l_terms])
    assume(all(not g.is_zero for g in gens) and not ell.is_zero)
    pair = make_pair(R3, gens, [ell * gens[0]])
    assert rees_ideal(pair).gens == _plain_kernel(pair, False)
    assert relative_rees_ideal(pair).gens == _plain_kernel(pair, True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals)
@pytest.mark.parametrize("order", [GREVLEX, R3.elim_order_vars([0])],
                         ids=["grevlex", "elim-x"])
def test_hilbert_driven_runs_give_the_plain_reduced_basis(gens_terms, order):
    # a Hilbert-driven run only top-reduces its records; `buchberger`
    # tail-reduces them, so its basis is the one a plain run gives
    gens = build(gens_terms)
    plain = buchberger(Ideal(R3, gens), order)
    lead = buchberger(Ideal(R3, gens)).leading_monomials()
    I = Ideal(R3, gens)
    I._derived["hilbert"] = HilbertSeries((1, 1, 1), hilbert_numerator(lead, (1, 1, 1)))
    assert buchberger(I, order) == plain


def _member(fam):
    """The member of a catalog family at the seed-0 sample of its parameters."""
    alpha = sample_parameters(fam.ring(), fam.constraint_polys(), seed=0)
    return fam.family().evaluate_block("param", alpha)


# with the curves above, these are the Rees kernels of the benchmark's curves
# workload at seed 0
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: f"family-{fam.key}-member")
def test_member_kernels_equal_a_plain_run(fam):
    pair = gradient_pair(_member(fam)).pair
    assert rees_ideal(pair).gens == _plain_kernel(pair, False)


def test_a_kernel_finishes_only_the_records_it_keeps(monkeypatch):
    engine = sys.modules["symrees.groebner"]
    real = engine._reduce_records
    sizes = []

    def recording(recs, lay, budget):
        sizes.append(len(recs))
        return real(recs, lay, budget)

    monkeypatch.setattr(engine, "_reduce_records", recording)
    pair = gradient_pair(curve_by_name("bad-quintic-embedded").curve()).pair
    rees = rees_ideal(pair)
    assert sizes == [6]
    # the whole basis under the kernel's block order has 53 elements
    I, ext = _kernel_input(pair, False)
    sizes.clear()
    assert len(buchberger(I, I.ring.elim_order_vars([I.ring.arity - 1]))) == 53
    assert sizes == [53]
    # a grevlex target carries the kept elements as its reduced basis
    assert rees.ring == ext and ext.order == I.ring.order
    assert rees._gb_cache[ext.order] == buchberger(Ideal(ext, rees.gens))
    # the same elimination into a lex target finishes the same prefix and
    # seeds nothing
    lex = RingContext(I.ring.names, I.ring.blocks, LEX)
    sizes.clear()
    out = eliminate_vars(I.transport(lex), [I.ring.names[-1]])
    assert sizes == [6]
    assert out.ring.order == LEX and not out._gb_cache
    assert out.gens == tuple(g.transport(out.ring) for g in rees.gens)


def test_inhomogeneous_generators_take_a_plain_run(hilbert_runs):
    x, y, _ = R3.gens()
    pair = make_pair(R3, [x + 1, y * y], [])
    rees = rees_ideal(pair)
    assert hilbert_runs == [None]
    assert rees.gens == _plain_kernel(pair, False)


def _spent(I: Ideal) -> int:
    """The work units of one run under the kernel's block order."""
    limit = 10 ** 6
    with work_limit(limit):
        buchberger(I, I.ring.elim_order_vars([I.ring.arity - 1]))
        return limit - _BUDGET.get().left


def _recorded(pair, shift: int = 0) -> Ideal:
    """The kernel input for J = (), recording the numerator
    prod_i (1 - t^(deg b_i + 1)) with the first factor's degree moved by
    `shift`; 0 records the true one."""
    I, _ = _kernel_input(pair, False)
    r, n = pair.ring.arity, len(pair.i_gens)
    weights = (1,) * r + tuple(b.degree() + 1 for b in pair.i_gens) + (1,)
    claimed = list(weights)
    claimed[r] += shift
    lead = [(0,) * r + tuple(int(i == j) for j in range(n)) + (0,) for i in range(n)]
    I._derived["hilbert"] = HilbertSeries(weights, hilbert_numerator(lead, claimed))
    return I


def test_hilbert_driven_kernel_takes_less_work():
    curve = next(c for c in CURVES if c.slug == "bad-quintic-embedded")
    pair = gradient_pair(curve.curve()).pair
    plain, _ = _kernel_input(pair, False)
    assert _spent(_recorded(pair)) < _spent(plain)


# the work of the bad-quintic-embedded kernel's run with its true series, all
# 53 records tail-reduced: the run only top-reduces, so the final reduction
# takes the tails up
KERNEL_LEAST = 2757


def test_kernel_work_is_pinned():
    I = _recorded(gradient_pair(curve_by_name("bad-quintic-embedded").curve()).pair)
    order = I.ring.elim_order_vars([I.ring.arity - 1])
    assert _spent(I) == KERNEL_LEAST
    with work_limit(KERNEL_LEAST):
        buchberger(I, order)
    with pytest.raises(WorkLimitExceeded), work_limit(KERNEL_LEAST - 1):
        buchberger(I, order)


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("curve", CURVES, ids=lambda curve: curve.slug)
def test_a_wrong_hilbert_series_raises(curve, shift):
    # +1 claims too many standard monomials, so some degree's deficit goes
    # negative; -1 claims too few, so the final lead ideal does not match
    I = _recorded(gradient_pair(curve.curve()).pair, shift)
    with pytest.raises(AssertionError):
        buchberger(I, I.ring.elim_order_vars([I.ring.arity - 1]))


# ---------------------------------------------------------------------------
# the embedded (Aluffi) algebra's series, read off the Rees ideal


def _aluffi_pairs():
    """The gradient pairs of the curve fixtures, and seeded principal pairs:
    homogeneous b_i of degrees 1-3 and J = (sum c_j b_j) with homogeneous
    c_j, so that the certificate is homogeneous."""
    for curve in CURVES:
        yield curve.slug, gradient_pair(curve.curve()).pair
    rng = random.Random(30)
    mons = {d: [m for m in product(range(d + 1), repeat=3) if sum(m) == d]
            for d in range(4)}

    def form(d):
        p = R3.zero
        while p.is_zero:
            for _ in range(rng.randint(1, 3)):
                p = p + R3.monomial(rng.choice(mons[d]), rng.choice([-3, -2, -1, 1, 2, 4]))
        return p

    made = 0
    while made < 12:
        degs = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
        top = max(degs) + rng.randint(0, 1)
        b = [form(d) for d in degs]
        c = [form(top - d) for d in degs]
        f = sum((ci * bi for ci, bi in zip(c, b)), R3.zero)
        if f.is_zero:
            continue
        made += 1
        yield f"principal-{made}", make_pair(R3, b, [f], [c])


ALUFFI_PAIRS = list(_aluffi_pairs())


@pytest.mark.parametrize("pair", [p for _, p in ALUFFI_PAIRS],
                         ids=[name for name, _ in ALUFFI_PAIRS])
def test_aluffi_series_is_the_finished_bases(pair):
    pres = aluffi_presentation(pair)
    series = pres.aluffi_ideal._derived["hilbert"]
    plain = buchberger(Ideal(pres.ring, pres.aluffi_ideal.gens))
    assert series.numerator == hilbert_numerator(plain.leading_monomials(), series.weights)
    # the Hilbert-driven run gives the plain run's dimension and basis
    fresh = Ideal(pres.ring, pres.aluffi_ideal.gens)
    fresh._gb_cache[pres.ring.order] = plain
    assert aluffi_dimension(pres) == dimension(fresh)
    assert groebner(pres.aluffi_ideal) == plain


def _parent_route_dimension(pres):
    """The dimension from a plain, finished basis of the Aluffi ideal's
    generators, as it was computed before the series was recorded."""
    fresh = Ideal(pres.ring, pres.aluffi_ideal.gens)
    groebner(fresh)
    return dimension(fresh)


X3, Y3, Z3 = R3.gens()


@pytest.mark.parametrize("pair", [
    make_pair(R3, [X3 ** 2, Y3 ** 2, X3 * Z3], [X3 ** 2, Y3 ** 2]),
    make_pair(R3, [X3 * Y3 - Z3 ** 2, X3 ** 2 - Y3 * Z3],
              [X3 * (X3 * Y3 - Z3 ** 2), Y3 * (X3 ** 2 - Y3 * Z3)]),
    # x*y = (y - y^2)*x + x*y*y: a certificate that is not homogeneous
    make_pair(R3, [X3, Y3], [X3 * Y3], [[Y3 - Y3 ** 2, X3 * Y3]]),
    # b_i that are not homogeneous
    make_pair(R3, [X3 + Z3 ** 2, Y3], [X3 * Y3 + Y3 * Z3 ** 2]),
], ids=["two-j-generators", "two-j-forms", "inhomogeneous-certificate",
        "inhomogeneous-b"])
def test_no_series_without_one_j_generator_and_homogeneity(pair, hilbert_runs):
    pres = aluffi_presentation(pair)
    assert "hilbert" not in pres.aluffi_ideal._derived
    hilbert_runs.clear()
    assert aluffi_dimension(pres) == _parent_route_dimension(pres)
    assert hilbert_runs[0] is None


# the work of bad-quintic-embedded's Aluffi run under its series; dimension
# reads its leading monomials, so none of its records is tail-reduced
ALUFFI_LEAST = 332


def _embedded_aluffi_ideal() -> Ideal:
    pair = gradient_pair(curve_by_name("bad-quintic-embedded").curve()).pair
    return aluffi_presentation(pair).aluffi_ideal


def test_aluffi_run_work_is_pinned():
    I = _embedded_aluffi_ideal()
    limit = 10 ** 6
    with work_limit(limit):
        dimension(I)
        assert limit - _BUDGET.get().left == ALUFFI_LEAST
    I = _embedded_aluffi_ideal()
    with work_limit(ALUFFI_LEAST):
        dimension(I)
    I = _embedded_aluffi_ideal()
    with pytest.raises(WorkLimitExceeded), work_limit(ALUFFI_LEAST - 1):
        dimension(I)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_wrong_aluffi_series_raises(shift):
    # the engine's guards hold for the Aluffi ideal's series too
    I = _embedded_aluffi_ideal()
    series = I._derived["hilbert"]
    num = dict(series.numerator)
    num[0] = num.get(0, 0) + shift
    I._derived["hilbert"] = HilbertSeries(series.weights,
                                          {k: v for k, v in num.items() if v})
    with pytest.raises(AssertionError):
        dimension(I)
