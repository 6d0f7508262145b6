"""Groebner engine: bases, normal forms, membership, radical membership."""

from __future__ import annotations

import inspect
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symrees import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    Ideal,
    RingError,
    WorkLimitExceeded,
    buchberger,
    division,
    groebner,
    ideal_member,
    make_ring,
    normal_form,
    radical_member,
    work_limit,
)
from symrees.budget import _Budget
from symrees.groebner import (
    FIELD_MAX,
    _fmax,
    _from_engine,
    _layout,
    _overflow,
    _Rec,
    _reduce_full,
    _strip,
    _update,
    buchberger_tracked,
)
from symrees.ideal_ops import ideal_power, ideal_product, intersect

from strategies import build, ideals

R3 = make_ring(["x", "y", "z"])
X, Y, Z = R3.gens()


def random_poly(rng, ring, max_terms=3, max_exp=3):
    p = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(ring.arity))
        p = p + ring.monomial(m, rng.randint(-4, 4))
    return p


def test_principal_monomial():
    gb = buchberger(Ideal(R3, [X]))
    assert gb.elements == (X,)


def test_linear_solve():
    gb = buchberger(Ideal(R3, [X + Y, X - Y]))
    assert gb.elements == (X, Y)


def test_regular_sequence_initial_ideal():
    gb = buchberger(Ideal(R3, [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z")]))
    assert set(gb.leading_monomials()) == {(2, 0, 0), (0, 2, 0)}


def test_zero_and_unit_ideals():
    assert buchberger(Ideal(R3, [])).elements == ()
    gb = buchberger(Ideal(R3, [R3.constant(5)]))
    assert gb.is_unit_ideal


def test_normal_form_examples():
    gb = buchberger(Ideal(R3, [X]))
    assert normal_form(X * X, gb).is_zero
    gb2 = buchberger(Ideal(R3, [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z")]))
    z3 = R3.parse("z^3")
    assert normal_form(z3, gb2) == z3


def test_euler_membership_in_gradient_ideal():
    f = R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2")
    I = Ideal(R3, [f.derivative(v) for v in ["x", "y", "z"]])
    assert ideal_member(f, I)


def test_membership_trivia():
    assert ideal_member(R3.zero, Ideal(R3, [X]))
    assert ideal_member(R3.zero, Ideal(R3, []))
    assert not ideal_member(R3.one, Ideal(R3, [X, Y]))


def test_four_points_degree_two_membership():
    J = Ideal(R3, [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z")])
    from symrees.syzygy import jacobian, minors
    I = Ideal(R3, list(J.gens) + list(minors(jacobian(list(J.gens)), 2).gens))
    w = R3.parse("x*z^2*(x - z)")
    assert ideal_member(w, intersect(J, ideal_power(I, 2)))
    assert not ideal_member(w, ideal_product(J, I))


def test_radical_membership():
    assert radical_member(X, Ideal(R3, [X * X]))
    assert not radical_member(Z, Ideal(R3, [X * X, Y * Y]))


def test_radical_membership_family_entry_ideal():
    ring = make_ring(["x", "y", "z"], ["u"])
    F = ring.parse("y^4*z + x^5 + u*x^3*y^2")
    gens = [F.derivative(v).primitive() for v in ["x", "y", "z"]]
    from symrees.syzygy import entry_ideal, syzygies
    script = entry_ideal(syzygies(gens))
    assert radical_member(ring.var("x"), script)
    assert radical_member(ring.var("y"), script)
    assert not radical_member(ring.var("z"), script)


def test_np_idempotence_and_linearity():
    rng = random.Random(42)
    gb = buchberger(Ideal(R3, [R3.parse("x^2 - y*z"), R3.parse("x*y - z^2")]))
    for _ in range(50):
        f = random_poly(rng, R3)
        g = random_poly(rng, R3)
        nf_f = normal_form(f, gb)
        assert normal_form(nf_f, gb) == nf_f
        assert normal_form(f + g, gb) == nf_f + normal_form(g, gb)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert normal_form(f * c, gb) == nf_f * c


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(99)
    for _ in range(120):
        ring = make_ring(["x", "y"]) if rng.random() < 0.5 else R3
        gens = [random_poly(rng, ring) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        g1 = buchberger(Ideal(ring, gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        g2 = buchberger(Ideal(ring, shuffled))
        assert g1.elements == g2.elements


def test_basis_generators_mutual_membership():
    gens = [R3.parse("x^2*y - z^3"), R3.parse("x*z - y^2"), R3.parse("y*z - x")]
    I = Ideal(R3, gens)
    gb = buchberger(I)
    for g in gens:
        assert normal_form(g, gb).is_zero
    # basis membership in I certified through the tracked representation
    gb2, A = buchberger_tracked(gens)
    for k, b in enumerate(gb2.elements):
        rebuilt = R3.zero
        for j, g in enumerate(gens):
            rebuilt = rebuilt + A[k][j] * g
        assert rebuilt == b


def test_buchberger_tracked_leaves_the_run_records_unchanged(monkeypatch):
    import sys
    engine = sys.modules["symrees.groebner"]
    real = engine._tracked_run
    runs = []

    def recording(source):
        run = real(source)
        final = run[3]
        runs.append((final, [(rec.lm, rec.lc, list(rec.tail),
                              {j: dict(d) for j, d in rec.rep.items()}, rec.rtop)
                             for rec in final]))
        return run

    monkeypatch.setattr(engine, "_tracked_run", recording)
    gens = [R3.parse("4*x^2*y - 2*z^3"), R3.parse("-x*z + 3/2*y^2"),
            R3.parse("-2/3*y*z + x")]
    gb, _ = buchberger_tracked(gens)
    (final, before), = runs
    assert [(rec.lm, rec.lc, rec.tail, rec.rep, rec.rtop) for rec in final] == before
    assert all(rec.rep is None for rec in gb._records)
    assert not set(map(id, gb._records)) & set(map(id, final))
    assert gb == buchberger(gens)
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, R3, max_terms=5, max_exp=4)
        nf, quots = division(p, gb)
        assert nf == normal_form(p, gb)
        assert sum((q * g for q, g in zip(quots, gb.elements)), nf) == p


def test_zero_and_empty_basis_divide_on_the_general_path_at_no_work():
    gb = buchberger([X * X - Y, Y * Z])
    empty = buchberger(Ideal(R3, []))
    p = R3.parse("x^2*z - 3/2*y + 1")
    with work_limit(0):
        assert empty.elements == ()
        assert normal_form(R3.zero, gb) == R3.zero
        assert division(R3.zero, gb) == (R3.zero, [R3.zero] * len(gb))
        assert normal_form(p, empty) == p
        assert division(p, empty) == (p, [])
        assert normal_form(R3.zero, empty) == R3.zero


def test_a_wrong_containment_the_check_can_see_raises():
    # (x + y) is not inside (x), but its one record's leading monomial covers x
    outer = Ideal(R3, [X])
    groebner(outer)
    inner = Ideal(R3, [X + Y])
    inner._derived["within"] = outer
    with pytest.raises(AssertionError):
        groebner(inner)


def test_a_containment_whose_outer_basis_is_not_cached_is_a_plain_run(engine_inputs):
    inner = Ideal(R3, [X + Y])
    inner._derived["within"] = Ideal(R3, [X])
    assert groebner(inner).elements == (X + Y,)
    assert [run[4] for run in engine_inputs] == [False]


def test_a_containment_stops_the_run_with_the_outer_basis(engine_inputs, monkeypatch):
    # (x^2 - y^2, x*y, x^3) = (x^2 - y^2, x*y): inside it, whose lead ideal
    # (x^2, x*y, y^3) the seeds x^2 - y^2 and x*y do not cover; the first
    # S-pair gives y^3, and the run stops there with one pair left
    outer = Ideal(R3, [X * X - Y * Y, X * Y])
    inner = Ideal(R3, [X * Y, X ** 3, X * X - Y * Y])
    inner._derived["within"] = outer
    want = groebner(outer).elements
    engine = sys.modules["symrees.groebner"]
    real = engine._spoly
    taken = []

    def counting(*args):
        taken.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_spoly", counting)
    assert groebner(inner).elements == want
    assert engine_inputs[-1][4] and len(taken) == 1
    assert buchberger(Ideal(R3, inner.gens)).elements == want
    assert len(taken) > 2


def test_division_certificate():
    gens = [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z"), R3.parse("x*y - z^2")]
    gb = buchberger(Ideal(R3, gens))
    rng = random.Random(3)
    for _ in range(25):
        f = random_poly(rng, R3)
        nf, quots = division(f, gb)
        rebuilt = nf
        for q, b in zip(quots, gb.elements):
            rebuilt = rebuilt + q * b
        assert rebuilt == f
        for m in nf.terms:
            assert not any(
                all(a >= b for a, b in zip(m, lm))
                for lm in gb.leading_monomials())


def test_elimination_property_against_membership_oracle():
    # block order elimination: kept elements generate exactly the members
    # omitting the eliminated variable, degree-bounded cross-check
    rng = random.Random(17)
    from symrees.oracle import monomials_up_to
    for _ in range(10):
        ring = make_ring(["x", "y", "z"])
        gens = [random_poly(rng, ring, max_terms=2, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        I = Ideal(ring, gens)
        order = ring.elim_order_vars([0])
        gb = buchberger(I, order)
        kept = [g for g in gb if not any(m[0] for m in g.terms)]
        sub = Ideal(ring, kept)
        full_gb = buchberger(I)
        sub_gb = buchberger(sub) if kept else None
        for m in monomials_up_to(3, 4):
            if m[0]:
                continue
            mono = ring.monomial(m, 1)
            in_full = normal_form(mono, full_gb).is_zero
            in_kept = normal_form(mono, sub_gb).is_zero if kept else False
            assert in_full == in_kept


def test_work_limit():
    gens = [R3.parse("x^5*y^2 - z^4"), R3.parse("x*y^4 - y*z^3 - x"),
            R3.parse("x^3*z - y^5 + 1")]
    with pytest.raises(WorkLimitExceeded), work_limit(5):
        buchberger(Ideal(R3, gens))


# ---------------------------------------------------------------------------
# work budget: one unit per reduction step and per S-pair taken up


BUDGET_GENS = ["x^2*y - z", "x*y^2 - x", "y^3 - z^2"]
HARD_GENS = ["x^5*y^2 - z^4", "x*y^4 - y*z^3 - x", "x^3*z - y^5 + 1"]


@pytest.mark.parametrize("gens, order, least", [
    (BUDGET_GENS, GREVLEX, 15),
    (BUDGET_GENS, LEX, 21),
    (BUDGET_GENS, R3.elim_order_vars([0]), 14),
    (HARD_GENS, GREVLEX, 82),
])
def test_work_limit_is_pinned(gens, order, least):
    I = Ideal(R3, [R3.parse(g) for g in gens])
    with work_limit(least):
        buchberger(I, order)
    with pytest.raises(WorkLimitExceeded), work_limit(least - 1):
        buchberger(I, order)


def _hard_ideal() -> Ideal:
    return Ideal(R3, [R3.parse(g) for g in HARD_GENS])


HARD_LEAST = 82   # the pinned grevlex budget of HARD_GENS


def test_one_block_is_one_budget():
    # the ideal is parsed outside the blocks: parsing spends on its products
    I = _hard_ideal()
    with work_limit(2 * HARD_LEAST):
        buchberger(I)
        buchberger(I)
    with pytest.raises(WorkLimitExceeded), work_limit(2 * HARD_LEAST - 1):
        buchberger(I)
        buchberger(I)


def test_threads_keep_their_own_budgets():
    # both blocks stay open while both threads compute, and each budget fits
    # exactly one run: one budget shared by the two runs would run out
    barrier = threading.Barrier(2)

    def run(_):
        I = _hard_ideal()
        with work_limit(HARD_LEAST):
            barrier.wait()
            try:
                return bool(buchberger(I).elements)
            except WorkLimitExceeded:
                return False
            finally:
                barrier.wait()

    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(run, range(2))) == [True, True]


def test_thread_started_in_a_block_gets_no_budget_from_it():
    I = _hard_ideal()
    with work_limit(5):
        with ThreadPoolExecutor(1) as pool:
            gb = pool.submit(buchberger, I).result()
        assert gb.elements
        with pytest.raises(WorkLimitExceeded):
            buchberger(I)


def test_default_budget_names_the_library_limit():
    # outside any block a product gets its own budget of 10^6 units, which
    # 1001 x 1000 pairs of terms overrun; a library caller has no --work-limit
    a = sum((R3.monomial((i, 0, 0), 1) for i in range(1001)), R3.zero)
    b = sum((R3.monomial((0, j, 0), 1) for j in range(1000)), R3.zero)
    with pytest.raises(WorkLimitExceeded) as exc:
        a * b
    msg = str(exc.value)
    assert msg.startswith("work limit exceeded")
    assert "symrees.work_limit(n)" in msg and "1000000" in msg
    assert "--work-limit" not in msg
    # a block's budget names no CLI flag either: the CLI adds its own hint
    with pytest.raises(WorkLimitExceeded) as exc, work_limit(5):
        a * b
    assert str(exc.value) == "work limit exceeded"


def test_no_public_callable_takes_a_work_limit():
    # the budget is context-scoped; no signature may thread it through again.
    # `__all__` holds functions, classes (with their methods) and the layer
    # modules (with their module-level callables)
    import symrees
    for name in symrees.__all__:
        obj = getattr(symrees, name)
        fns = [obj]
        if inspect.isclass(obj):
            fns += [m for n, m in inspect.getmembers(obj, callable)
                    if not n.startswith("_")]
        elif inspect.ismodule(obj):
            fns = [m for n, m in vars(obj).items()
                   if callable(m) and not n.startswith("_")]
        for fn in fns:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            assert "work_limit" not in params, name


# ---------------------------------------------------------------------------
# exponent bound of the packed monomials


def test_exponent_at_the_bound_packs():
    top = R3.monomial((FIELD_MAX, 0, 0))
    gb = buchberger(Ideal(R3, [top - Y]))
    assert gb.elements == (top - Y,)
    assert normal_form(top + Z, gb) == Y + Z


def test_exponent_past_the_bound_raises():
    with pytest.raises(RingError):
        buchberger(Ideal(R3, [R3.monomial((FIELD_MAX + 1, 0, 0))]))
    # each exponent fits, the total degree (first grevlex row) does not
    with pytest.raises(RingError):
        buchberger(Ideal(R3, [R3.monomial((FIELD_MAX, 1, 0))]))
    # the same monomial is fine under lex, whose rows are the exponents
    assert len(buchberger(Ideal(R3, [R3.monomial((FIELD_MAX, 1, 0))]), LEX)) == 1


def test_pair_lcm_past_the_bound_raises():
    gens = [R3.monomial((FIELD_MAX, 0, 0)) - Y, X * Z - 1]
    with pytest.raises(RingError):
        buchberger(Ideal(R3, gens))


def test_reduction_product_past_the_bound_raises():
    gb = buchberger(Ideal(R3, [X - Y * Y]), LEX)
    assert normal_form(X * R3.monomial((0, FIELD_MAX - 2, 0)), gb) \
        == R3.monomial((0, FIELD_MAX, 0))
    with pytest.raises(RingError):
        normal_form(X * R3.monomial((0, FIELD_MAX, 0)), gb)


# ---------------------------------------------------------------------------
# engine records cached on the basis


def test_basis_without_records_divides_like_the_engine_basis():
    gb = buchberger(Ideal(R3, [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z"),
                               R3.parse("x*y - z^2")]))
    bare = GroebnerBasis(gb.ring, gb.order, gb.elements)
    assert bare == gb
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, R3, max_terms=5, max_exp=4)
        assert normal_form(p, bare) == normal_form(p, gb)
        assert division(p, bare) == division(p, gb)
    scaled = GroebnerBasis(gb.ring, gb.order, tuple(-3 * g for g in gb.elements))
    for _ in range(20):
        p = random_poly(rng, R3, max_terms=5, max_exp=4)
        nf, quots = division(p, scaled)
        assert nf == normal_form(p, gb)
        assert sum((q * g for q, g in zip(quots, scaled.elements)), nf) == p


# y^2 - x is positive at x, its lex-largest term, so packed from the element
# under grevlex its record's leading coefficient (at y^2) is -1
@settings(max_examples=60, deadline=None, derandomize=True)
@given(ideals, ideals)
@example([[(1, (0, 2, 0)), (-1, (1, 0, 0))]], [[(-3, (0, 2, 0)), (3, (1, 0, 0))]])
@example([[(1, (0, 2, 0)), (-1, (1, 0, 0))]], [[(1, (0, 2, 0)), (1, (1, 0, 0))]])
def test_record_equality_is_element_equality(a, b):
    for order in (GREVLEX, LEX, R3.elim_order_vars([0])):
        ga, gb = buchberger(build(a), order), buchberger(build(b), order)
        # packed from elements: records that follow Polynomial's sign rule
        packed = GroebnerBasis(R3, order, gb.elements)
        assert packed == gb and gb == packed and hash(packed) == hash(gb)
        # records are content-1: multiples of the elements pack to the same
        scaled = GroebnerBasis(R3, order, tuple(-3 * g for g in gb.elements))
        assert scaled == gb and hash(scaled) == hash(gb)
        assert (ga == packed) == (packed == ga) == (ga.elements == gb.elements)
        assert (ga == gb) == (ga.elements == gb.elements)


def test_records_that_differ_in_one_sign_are_unequal():
    x_minus, x_plus = R3.parse("y^2 - x + z"), R3.parse("y^2 + x + z")
    for g, h in ((x_minus, x_plus), (x_plus, x_minus)):
        engine = buchberger([g])
        packed = GroebnerBasis(R3, GREVLEX, (h,))
        # one engine record and one packed record, whose leading coefficients
        # differ in sign when h is y^2 - x + z
        assert [rec.lc for rec in engine._records] == [1]
        assert [rec.lc for rec in packed._records] == [-1 if h is x_minus else 1]
        assert engine != packed and packed != engine
        assert engine == GroebnerBasis(R3, GREVLEX, (g,))
    assert GroebnerBasis(R3, GREVLEX, (x_minus,)) != GroebnerBasis(R3, GREVLEX, (x_plus,))


def test_threads_share_layouts_and_lazy_records():
    import sys
    import threading

    gens = [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z"), R3.parse("x*y - z^2")]
    gb = buchberger(Ideal(R3, gens))
    rng = random.Random(9)
    polys = [random_poly(rng, R3, max_terms=5, max_exp=4) for _ in range(10)]
    orders = [GREVLEX, LEX, R3.elim_order_vars([0]), R3.elim_order_vars([2])]
    want_nf = [normal_form(p, gb) for p in polys]
    want_gb = [buchberger(Ideal(R3, gens), o).elements for o in orders]
    bare = GroebnerBasis(gb.ring, gb.order, gb.elements)
    bad = []

    def work(k):
        for _ in range(3):
            if [normal_form(p, bare) for p in polys] != want_nf:
                bad.append(k)
            if buchberger(Ideal(R3, gens), orders[k % 4]).elements != want_gb[k % 4]:
                bad.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_engine_bases_hold_records_until_their_elements_are_read():
    from symrees import syzygies
    gens = [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z"), R3.parse("x*y - z^2")]
    I = Ideal(R3, gens)
    syzygies(I)
    tracked, _ = buchberger_tracked(gens)
    # single terms take no run; (x^2*y, y*z, x*y^3) are minimal already
    mono = buchberger([X ** 2 * Y, -2 * Y * Z, 3 * X * Y ** 3])
    bases = [I._gb_cache[R3.order], tracked, mono]
    for gb in bases:
        assert gb._recs is not None and gb._elements is None
    want = buchberger(gens).elements
    assert [gb.elements for gb in bases] \
        == [want, want, (X * Y ** 3, X ** 2 * Y, Y * Z)]
    assert all(gb._elements is not None for gb in bases)


def test_a_monomial_meet_unpacks_neither_side():
    I = Ideal(R3, [X ** 2, Y * Z])
    J = Ideal(R3, [X * Y, 2 * Z ** 2])
    meet = intersect(I, J)
    assert set(meet.gens) == {X ** 2 * Y, X * Y * Z, Y * Z ** 2, X ** 2 * Z ** 2}
    for side in (I, J):
        gb = side._gb_cache[GREVLEX]
        assert gb._recs is not None and gb._elements is None


# ---------------------------------------------------------------------------
# pair bookkeeping and tail reduction against the routes they replaced


def reference_update(ex, lay):
    """The Gebauer-Moeller update as it stood before monomial pairs were left
    out of the pair set: a closure over the exponent words `ex`, kept verbatim."""
    guard, emask, eguard = lay.guard, lay.emask, lay.eguard

    def update(G, B, ih):
        # Gebauer-Moeller pair filtering on exponent words; a pair is kept
        # as (lcm, i, j) with its packed lcm computed once
        mh = ex[ih]
        lcm_h = {ig: _fmax(mh, ex[ig], eguard) for ig in G}
        C = set(G)
        D = []
        while C:
            ig = C.pop()
            lcm_hg = lcm_h[ig]
            if mh + ex[ig] == lcm_hg or (
                    not any(not ((lcm_hg - lcm_h[ip]) & eguard) for ip in C)
                    and not any(not ((lcm_hg - lcm_h[ip]) & eguard) for ip in D)):
                D.append(ig)
        B_new = set()
        for pair in B:
            lcm12 = pair[0] & emask
            if ((lcm12 - mh) & eguard
                    or _fmax(ex[pair[1]], mh, eguard) == lcm12
                    or _fmax(ex[pair[2]], mh, eguard) == lcm12):
                B_new.add(pair)
        for ig in D:
            if mh + ex[ig] != lcm_h[ig]:
                lcm = lay.pack_exponents(lcm_h[ig])
                if lcm & guard:
                    raise _overflow()
                B_new.add((lcm, ih, ig))
        G_new = {ig for ig in G if (ex[ig] - mh) & eguard}
        G_new.add(ih)
        return G_new, B_new

    return update


ORDERS = [GREVLEX, LEX, R3.elim_order_vars([0])]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.booleans()),
                min_size=1, max_size=14, unique_by=lambda t: t[0]),
       st.sampled_from(ORDERS))
def test_update_keeps_the_pairs_of_the_reference_but_monomial_ones(elements, order):
    lay = _layout(order, 3)
    ex = [lay.pack(e) & lay.emask for e, _ in elements]
    mono = [m for _, m in elements]
    reference = reference_update(ex, lay)
    G, B, G_ref, B_ref = set(), set(), set(), set()
    for ih in range(len(ex)):
        G_ref, B_ref = reference(G_ref, B_ref, ih)
        G, B = _update(G, B, ih, ex, mono, lay)
        assert G == G_ref
        assert B == {p for p in B_ref if not (mono[p[1]] and mono[p[2]])}


def reference_reduce_records(recs, lay, budget):
    """The reduced basis as it was built before tail reduction walked up on
    reduced records: each minimal record is reduced by all the other ones."""
    guard, emask, eguard = lay.guard, lay.emask, lay.eguard
    minimal = []
    for rec in recs:
        e = rec.lm & emask
        if all((e - (kept.lm & emask)) & eguard for kept in minimal):
            minimal.append(rec)
    final = []
    for rec in minimal:
        others = [g for g in minimal if g is not rec]
        rep = None if rec.rep is None else {j: dict(d) for j, d in rec.rep.items()}
        r, _ = _reduce_full(dict(rec.items()), others, [g.lm for g in others],
                            guard, budget, rep=rep)
        r, rep = _strip(r, rep)
        final.append(_Rec(r, guard, rep))
    final.sort(key=lambda rec: rec.lm, reverse=True)
    return final


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ideals, st.sampled_from(ORDERS))
def test_tail_reduction_on_reduced_records_matches_reducing_by_all_others(gens_terms,
                                                                          order):
    gens = build(gens_terms)
    engine = sys.modules["symrees.groebner"]
    real = engine._reduce_records
    calls = []

    def recording(recs, lay, budget):
        calls.append((list(recs), lay))
        return real(recs, lay, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_reduce_records", recording)
        gb = buchberger(gens, order)
        tracked, A = buchberger_tracked(gens)

    def monic(lay, recs):
        return [_from_engine(R3, lay, rec.items(), Fraction(1, rec.lc)) for rec in recs]

    def terms(recs):
        return [(rec.lm, rec.lc, sorted(rec.tail)) for rec in recs]

    # the untracked basis of single-term generators takes no run
    monomial = all(len(g.coeffs) <= 1 for g in gens)
    assert ({recs[0].rep is None for recs, _ in calls if recs}
            == ({False} if monomial else {True, False}))
    for recs, lay in calls:
        new = real(recs, lay, _Budget(10 ** 6))
        old = reference_reduce_records(recs, lay, _Budget(10 ** 6))
        assert monic(lay, new) == monic(lay, old)
        # tracking is read off the records: kept by tracked ones, absent otherwise
        assert all((rec.rep is None) == (recs[0].rep is None) for rec in new + old)
        if recs and recs[0].rep is None:
            assert terms(new) == terms(old)
    assert tracked == buchberger(gens)
    assert gb == buchberger(gens, order)
    # every tracked representation still rebuilds its basis element
    for k, b in enumerate(tracked.elements):
        assert sum((a * g for a, g in zip(A[k], gens)), R3.zero) == b


def test_monomial_ideal_spends_no_work_on_empty_pairs():
    # no pair of two monomials is taken up: the one unit is the reduction of
    # the seed x^2*y by x^2
    I = Ideal(R3, [R3.parse(g) for g in ("x^2", "x*y", "y^2*z", "x^2*y", "z^3")])
    with work_limit(1):
        gb = buchberger(I)
    assert gb.elements == tuple(R3.parse(g) for g in ("y^2*z", "z^3", "x^2", "x*y"))
    with pytest.raises(WorkLimitExceeded), work_limit(0):
        buchberger(I)


# ---------------------------------------------------------------------------
# a basis finished on first read: what `dimension` caches


def _raising(name):
    def raising(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return raising


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ideals)
# a run whose records include one whose leading monomial another's divides
@example([[(-1, (1, 3, 1))], [(-3, (0, 2, 1)), (1, (2, 0, 0))]])
def test_dimension_finishes_no_basis_and_a_later_read_runs_no_engine(gens_terms):
    from symrees import dimension
    gens = build(gens_terms)
    I = Ideal(R3, gens)
    engine = sys.modules["symrees.groebner"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_reduce_records", _raising("_reduce_records"))
        rep = dimension(I)
        gb = I._gb_cache.get(R3.order)
    plain = buchberger(Ideal(R3, gens))
    fresh = Ideal(R3, gens)
    fresh._gb_cache[R3.order] = plain
    assert rep == dimension(fresh)
    if I.is_zero:
        return
    # the leading monomials and the unit test need no finish
    if gb._run is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_reduce_records", _raising("_reduce_records"))
            assert gb.leading_monomials() == plain.leading_monomials()
            assert gb.is_unit_ideal == plain.is_unit_ideal
    # a later groebner returns the cached basis and finishes it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_run_buchberger", _raising("_run_buchberger"))
        got = groebner(I)
        assert got is gb
        assert got.elements == plain.elements
        assert [(r.lm, r.lc, r.tail) for r in got._records] \
            == [(r.lm, r.lc, r.tail) for r in plain._records]
    assert got._run is None and got == plain and len(got) == len(plain)


@pytest.mark.parametrize("read", ["elements", "_records", "iter", "len", "eq", "repr"])
def test_each_full_read_finishes_a_basis(read):
    from symrees.groebner import _basis
    gens = [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z"), R3.parse("x*y - z^2")]
    gb = _basis(Ideal(R3, gens))
    assert gb._run is not None and gb._elements is None
    plain = buchberger(gens)
    {"elements": lambda: gb.elements, "_records": lambda: gb._records,
     "iter": lambda: list(gb), "len": lambda: len(gb), "eq": lambda: gb == plain,
     "repr": lambda: repr(gb)}[read]()
    assert gb._run is None and gb.elements == plain.elements


def test_a_tracked_run_replaces_an_unfinished_basis():
    from symrees import dimension, syzygies
    gens = [R3.parse("x^2 - x*z"), R3.parse("y^2 - y*z"), R3.parse("x*y - z^2")]
    I = Ideal(R3, gens)
    dimension(I)
    assert I._gb_cache[R3.order]._run is not None
    syzygies(I)
    want = buchberger(gens).elements
    engine = sys.modules["symrees.groebner"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_reduce_records", _raising("_reduce_records"))
        mp.setattr(engine, "_run_buchberger", _raising("_run_buchberger"))
        assert groebner(I).elements == want


def test_threads_finishing_one_basis_get_equal_results():
    from symrees.fixtures import curve_by_name
    from symrees.curves import gradient_pair
    from symrees.blowup import aluffi_presentation
    from symrees.groebner import _basis
    pair = gradient_pair(curve_by_name("bad-quintic-embedded").curve()).pair
    gens = aluffi_presentation(pair).aluffi_ideal.gens
    want = buchberger(gens)
    want_leads = (want.leading_monomials(), want.is_unit_ideal)
    for _ in range(3):
        gb = _basis(aluffi_presentation(pair).aluffi_ideal)
        assert gb._run is not None
        barrier = threading.Barrier(6)

        def read(k):
            barrier.wait(timeout=60)
            if k % 3 == 2:
                # leading monomials race with the finishers, before and after
                return [(gb.leading_monomials(), gb.is_unit_ideal) for _ in range(20)]
            if k % 3:
                return gb.elements, gb._records
            return tuple(gb), gb._records

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                results = list(pool.map(read, range(6), timeout=60))
        finally:
            sys.setswitchinterval(old)
        for k, result in enumerate(results):
            if k % 3 == 2:
                assert result == [want_leads] * 20
                continue
            elements, records = result
            assert elements == want.elements
            assert [(r.lm, r.lc, r.tail) for r in records] \
                == [(r.lm, r.lc, r.tail) for r in want._records]


# ---------------------------------------------------------------------------
# moving packed words between layouts: what a saturation's records go through


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), with_h=st.booleans(), block=st.booleans(), data=st.data())
def test_a_word_move_equals_repacking_the_exponents(n, with_h, block, data):
    # the target ring is the source's without its last variable h, when there
    # is one; under a block order both put the same variables first
    from symrees.groebner import _move_plan
    from symrees.rings import block_order
    ns = n + with_h
    if block:
        first = tuple(data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))])
        src = block_order(first, tuple(i for i in range(ns) if i not in first))
        dst = block_order(first, tuple(i for i in range(n) if i not in first))
    else:
        src = dst = GREVLEX
    src_lay, dst_lay = _layout(src, ns), _layout(dst, n)
    plan = _move_plan(src_lay, dst_lay)
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 60)] * ns), min_size=1,
                              max_size=8))
    for e in exps:
        word = src_lay.pack(e)
        moved = sum((word & mask) >> shift for mask, shift in plan)
        assert moved == dst_lay.pack_exponents(word) == dst_lay.pack(e[:n])
