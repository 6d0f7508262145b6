"""One Rees ideal per Ideal object, and the special fiber by substitution.

The Rees ideal of I is kept on the Ideal object, so the presentation, the
linear-type test, the relation type and the analytic spread share one
elimination; the special fiber is read off it by setting the base variables
to 0.  The reference for the fiber is the elimination route it replaced.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings

from symrees import Ideal, RingError
from symrees.blowup import (
    aluffi_dimension,
    aluffi_presentation,
    analytic_spread,
    is_linear_type,
    make_pair,
    rees_ideal,
    relation_type,
    special_fiber,
)
from symrees.curves import gradient_pair, linear_type_certificate
from symrees.fixtures import CURVES, PAIR_FIXTURES, curve_by_name
from symrees.budget import WorkLimitExceeded, work_limit
from symrees.ideal_ops import eliminate_vars, ideal_equal
from strategies import R3, build, homogeneous_ideals


def _fiber_by_elimination(I: Ideal) -> Ideal:
    """(K + (x)) ∩ k[T] by eliminating the base variables, on a fresh Ideal."""
    rees = rees_ideal(Ideal(I.ring, I.gens))
    ext = rees.ring
    base = list(I.ring.names)
    gens = list(rees.gens) + [ext.var(n) for n in base]
    return eliminate_vars(Ideal(ext, gens), base)


def _curve_pair(slug: str):
    return gradient_pair(curve_by_name(slug).curve()).pair


# ---------------------------------------------------------------------------
# where the Rees ideal lives


def test_pair_builds_one_ideal_object_per_side():
    pair = _curve_pair("three-node-quartic")
    assert pair.i_ideal is pair.i_ideal
    assert pair.j_ideal is pair.j_ideal
    assert pair.i_ideal.gens == pair.i_gens
    assert pair.j_ideal.gens == pair.j_gens


def test_rees_ideal_is_kept_on_the_ideal_object():
    pair = _curve_pair("three-node-quartic")
    rees = rees_ideal(pair)
    assert rees_ideal(pair.i_ideal) is rees
    assert pair.i_ideal._derived["rees"] is rees
    assert "rees" not in pair._cache
    assert aluffi_presentation(pair).rees_ideal is rees


def test_make_pair_rejects_a_zero_generator_of_i():
    x, y, _ = R3.gens()
    with pytest.raises(RingError):
        make_pair(R3, [x, R3.zero, y], [])
    with pytest.raises(RingError):
        rees_ideal(Ideal(R3, []))


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.slug)
def test_criterion_9_sequence_repeats_no_engine_input(curve, engine_inputs,
                                                      monkeypatch):
    import symrees.blowup as blowup
    kernels = []
    real = blowup._rees_kernel

    def counting(*args, **kwargs):
        kernels.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(blowup, "_rees_kernel", counting)
    gp = gradient_pair(curve.curve())
    linear_type_certificate(gp)
    pres = aluffi_presentation(gp.pair)
    aluffi_dimension(pres)
    is_linear_type(gp.pair)
    analytic_spread(gp.pair.i_ideal)
    relation_type(gp.pair.i_ideal)
    assert len(kernels) == 1
    untracked = [(gens, order) for gens, order, tracked, _, _ in engine_inputs
                 if not tracked]
    assert untracked and len(untracked) == len(set(untracked))


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.slug)
def test_invariants_match_a_fresh_equal_ideal(curve):
    gp = gradient_pair(curve.curve())
    aluffi_presentation(gp.pair)
    shared = gp.pair.i_ideal
    fresh = Ideal(shared.ring, shared.gens)
    assert analytic_spread(shared) == analytic_spread(fresh)
    assert relation_type(shared) == relation_type(fresh)
    assert fresh._derived["rees"] is not shared._derived["rees"]
    assert fresh._derived["rees"] == shared._derived["rees"]


# ---------------------------------------------------------------------------
# the special fiber by substitution, against elimination


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.slug)
def test_special_fiber_matches_elimination_on_curves(curve):
    I = gradient_pair(curve.curve()).pair.i_ideal
    assert ideal_equal(special_fiber(I), _fiber_by_elimination(I))


@pytest.mark.parametrize("name", sorted(PAIR_FIXTURES))
def test_special_fiber_matches_elimination_on_pair_fixtures(name):
    ctor, _ = PAIR_FIXTURES[name]
    I = ctor().i_ideal
    assert ideal_equal(special_fiber(I), _fiber_by_elimination(I))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gens_terms=homogeneous_ideals)
def test_special_fiber_matches_elimination_on_random_forms(gens_terms):
    I = Ideal(R3, build(gens_terms))
    assume(not I.is_zero)
    try:
        with work_limit(2000):
            want = _fiber_by_elimination(I)
            got = special_fiber(I)
            assert ideal_equal(got, want)
    except WorkLimitExceeded:
        assume(False)
    assert analytic_spread(I) == analytic_spread(Ideal(R3, I.gens))


def test_special_fiber_of_mixed_degrees_is_not_the_fiber_part():
    # (x, y^2): T1 has degree 1 and T2 degree 2, so the Rees ideal is not
    # bigraded; y^2*T1 - x*T2 sets to 0, and the fiber is the zero ideal
    x, y, _ = R3.gens()
    I = Ideal(R3, [x, y * y])
    assert special_fiber(I).is_zero
    assert ideal_equal(special_fiber(I), _fiber_by_elimination(I))
    assert analytic_spread(I) == 2


# ---------------------------------------------------------------------------
# threads


def test_presentation_and_spread_share_one_pair_across_threads():
    fns = [aluffi_presentation, lambda p: analytic_spread(p.i_ideal),
           is_linear_type, lambda p: relation_type(p.i_ideal)]
    serial = [fn(_curve_pair("bad-quintic")) for fn in fns]
    pair = _curve_pair("bad-quintic")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the threads' cache accesses
    try:
        with ThreadPoolExecutor(max_workers=len(fns)) as pool:
            futures = [pool.submit(fn, pair) for fn in fns]
            assert [f.result(timeout=60) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)
    assert aluffi_presentation(pair).rees_ideal is pair.i_ideal._derived["rees"]
