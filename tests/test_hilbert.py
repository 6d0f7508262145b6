"""Hilbert-driven Buchberger runs: the numerator of a monomial ideal, the
Rees kernels, whose input records its known Hilbert series, and the embedded
(Aluffi) algebra's ideal, whose series comes from the Rees ideal's."""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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
from symrees.groebner import _layout, _lead_basis
from symrees.hilbert import HilbertSeries, _HilbertCount, hilbert_numerator
from symrees.ideal_ops import _lead_dimension, eliminate_vars
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
    """The gradient pairs of the curves of the `curves` benchmark workload at
    seed 0 (the curve fixtures and one member of each catalog family), and
    seeded principal pairs: homogeneous b_i of degrees 1-3 and
    J = (sum c_j b_j) with homogeneous c_j, so that the certificate is
    homogeneous."""
    for curve in CURVES:
        yield curve.slug, gradient_pair(curve.curve()).pair
    for fam in FAMILIES:
        alpha = sample_parameters(fam.ring(), fam.constraint_polys(), seed=0)
        f = fam.family().evaluate_block("param", alpha)
        yield f"family-{fam.key}-member", gradient_pair(f).pair
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
def test_aluffi_series_is_the_finished_bases(pair, engine_inputs):
    pres = aluffi_presentation(pair)
    series = pres.aluffi_ideal._derived["hilbert"]
    engine_inputs.clear()
    rep = aluffi_dimension(pres)
    assert not engine_inputs
    plain = buchberger(Ideal(pres.ring, pres.aluffi_ideal.gens))
    assert series.numerator == hilbert_numerator(plain.leading_monomials(), series.weights)
    # the Hilbert-driven run passes its finish check and gives the plain
    # run's basis; the report read off the series, witness included, is the
    # one the plain basis gives
    engine_inputs.clear()
    assert groebner(pres.aluffi_ideal) == plain
    assert [hilbert for _, _, _, hilbert, _ in engine_inputs] == [True]
    fresh = Ideal(pres.ring, pres.aluffi_ideal.gens)
    fresh._gb_cache[pres.ring.order] = plain
    assert rep == dimension(fresh)


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


# the work of bad-quintic-embedded's Aluffi run under its series, for a
# reader of its leading monomials only, so none of its records is
# tail-reduced
ALUFFI_LEAST = 332


def _embedded_aluffi_ideal() -> Ideal:
    pair = gradient_pair(curve_by_name("bad-quintic-embedded").curve()).pair
    return aluffi_presentation(pair).aluffi_ideal


def test_aluffi_run_work_is_pinned():
    I = _embedded_aluffi_ideal()
    limit = 10 ** 6
    with work_limit(limit):
        _lead_basis(I)
        assert limit - _BUDGET.get().left == ALUFFI_LEAST
    I = _embedded_aluffi_ideal()
    with work_limit(ALUFFI_LEAST):
        _lead_basis(I)
    I = _embedded_aluffi_ideal()
    with pytest.raises(WorkLimitExceeded), work_limit(ALUFFI_LEAST - 1):
        _lead_basis(I)


def test_aluffi_dimension_spends_nothing_and_its_witness_the_run(engine_inputs):
    I = _embedded_aluffi_ideal()
    engine_inputs.clear()
    limit = 10 ** 6
    with work_limit(limit):
        rep = dimension(I)
        assert (rep.dim, rep.codim, rep.empty) == (3, 3, False)
        assert limit - _BUDGET.get().left == 0
    assert not engine_inputs
    with work_limit(limit):
        witness = rep.witness
        assert limit - _BUDGET.get().left == ALUFFI_LEAST
    assert len(engine_inputs) == 1 and rep.witness is witness
    rep = dimension(_embedded_aluffi_ideal())
    with pytest.raises(WorkLimitExceeded), work_limit(ALUFFI_LEAST - 1):
        rep.witness


def test_threads_first_reading_one_witness_get_equal_results():
    # four threads make the first read of each of many reports' witness: the
    # first read runs the engine, and the rest read I's cached basis, quick
    # enough for the threads to meet on one report
    I = _embedded_aluffi_ideal()
    reps = [dimension(I) for _ in range(3000)]
    want = dimension(_embedded_aluffi_ideal()).witness
    barrier = threading.Barrier(4)

    def read(_):
        barrier.wait(timeout=60)
        return [rep.witness for rep in reps]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(read, range(4), timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert all(w == want for ws in results for w in ws)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_wrong_aluffi_series_raises(shift, engine_inputs):
    # the numerator of a nonzero ideal's series vanishes at t = 1; this one
    # does not, which the reader sees before any run, and the engine's guards
    # in the Hilbert-driven run on the Aluffi ideal see too
    I = _embedded_aluffi_ideal()
    series = I._derived["hilbert"]
    num = dict(series.numerator)
    num[0] = num.get(0, 0) + shift
    I._derived["hilbert"] = HilbertSeries(series.weights,
                                          {k: v for k, v in num.items() if v})
    engine_inputs.clear()
    with pytest.raises(AssertionError):
        dimension(I)
    assert not engine_inputs
    with pytest.raises(AssertionError):
        _lead_basis(I)
    assert [hilbert for _, _, _, hilbert, _ in engine_inputs] == [True]


# ---------------------------------------------------------------------------
# the dimension read off a series: the order of its pole at t = 1


def _known_series():
    """(ideal, series of S/I, dim S/I) for series known in closed form."""
    x, y, z = R3.gens()
    ones = (1, 1, 1)
    yield Ideal(R3, []), HilbertSeries(ones, {0: 1}), 3
    yield Ideal(R3, [R3.one]), HilbertSeries(ones, {}), None
    # a (2, 3) complete intersection: N = (1 - t^2)(1 - t^3)
    yield (Ideal(R3, [x ** 2 - y * z, y ** 3 - x * z ** 2]),
           HilbertSeries(ones, {0: 1, 2: -1, 3: -1, 5: 1}), 1)
    # N = 1 - 3t^2 + 2t^3 = (1 - t)^2 (1 + 2t)
    yield (Ideal(R3, [x ** 2, x * y, y ** 2]),
           HilbertSeries(ones, {0: 1, 2: -3, 3: 2}), 1)
    # the Rees ideal of (x^2, y^2), (y^2 T_1 - x^2 T_2) under deg T_i = 3
    rees = rees_ideal(Ideal(R3, [x ** 2, y ** 2]))
    yield (Ideal(rees.ring, rees.gens), HilbertSeries((1, 1, 1, 3, 3), {0: 1, 5: -1}), 4)


@pytest.mark.parametrize("I, series, dim", list(_known_series()),
                         ids=["S", "unit", "complete-intersection", "monomial",
                              "rees-weights"])
def test_dimension_of_known_series(I, series, dim, engine_inputs):
    if I.gens:
        lead = buchberger(Ideal(I.ring, I.gens)).leading_monomials()
        assert hilbert_numerator(lead, series.weights) == series.numerator
    assert series.dimension() == dim
    fresh = Ideal(I.ring, I.gens)
    I._derived["hilbert"] = series
    engine_inputs.clear()
    rep = dimension(I)
    assert not engine_inputs
    plain = dimension(fresh)
    assert rep == plain and hash(rep) == hash(plain) and repr(rep) == repr(plain)


@pytest.mark.parametrize("num", [
    {0: 1, 1: -4, 2: 6, 3: -4, 4: 1},       # (1 - t)^4 in 3 variables
    {0: -1, 1: 1},                          # Q(1) = -1
], ids=["pole-of-negative-order", "negative-leading-coefficient"])
def test_a_series_no_ideal_has_raises(num):
    with pytest.raises(AssertionError):
        HilbertSeries((1, 1, 1), num).dimension()


def test_a_nonzero_ideal_with_s_own_series_raises(engine_inputs):
    # S's series, N = 1, has no factor 1 - t: no nonzero ideal of the domain
    # S has it
    I = Ideal(R3, [R3.gens()[0]])
    I._derived["hilbert"] = HilbertSeries((1, 1, 1), {0: 1})
    engine_inputs.clear()
    with pytest.raises(AssertionError):
        dimension(I)
    assert not engine_inputs


def test_a_witness_checks_the_dimension_it_was_given():
    x = R3.gens()[0]
    assert _lead_dimension(Ideal(R3, [x]), 2).witness == ("y", "z")
    with pytest.raises(AssertionError):
        _lead_dimension(Ideal(R3, [x]), 1)
    with pytest.raises(AssertionError):
        _lead_dimension(Ideal(R3, [R3.one]), 0)
