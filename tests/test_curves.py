"""Gradient pairs, linear-type certificates, families and the catalog."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from symrees import Ideal, RingError, buchberger, groebner, ideal_member, make_ring
from symrees.blowup import aluffi_presentation, is_linear_type, pair_syzygies
from symrees.budget import _BUDGET, WorkLimitExceeded, work_limit
from symrees.curves import (
    Verdict,
    _content_one_certified,
    analyze_family,
    evaluate_member,
    gradient_pair,
    linear_type_certificate,
    sample_parameters,
)
from symrees.fixtures import (
    CURVES,
    FAMILIES,
    curve_by_name,
    family_by_name,
)
from symrees.ideal_ops import (
    _saturation_parts,
    dimension,
    eliminate,
    ideal_contains,
    ideal_equal,
    intersect,
    saturate_principal,
)
from symrees.syzygy import apply_row

R3 = make_ring(["x", "y", "z"])


def test_gradient_pair_univariate():
    ring = make_ring(["x"])
    gp = gradient_pair(ring.parse("x^2"))
    assert [str(g) for g in gp.pair.i_gens] == ["x"]
    assert gp.degree == 2
    assert ideal_member(gp.f, gp.gradient_ideal)


def test_gradient_pair_quartic_partials():
    gp = gradient_pair(R3.parse("x^2*y^2 + x^2*z^2 + y^2*z^2"))
    want = {R3.parse("x*y^2 + x*z^2"), R3.parse("x^2*y + y*z^2"),
            R3.parse("x^2*z + y^2*z")}
    assert set(gp.pair.i_gens) == want


def test_gradient_pair_quintic_proportional_generators():
    gp = gradient_pair(R3.parse("y^4*z + x^5 + x^3*y^2"))
    got = set(gp.pair.i_gens)
    # proportional to x^2(5x^2+3y^2), y(2x^3+4y^2z), y^4
    want = {R3.parse("5*x^4 + 3*x^2*y^2"), R3.parse("x^3*y + 2*y^3*z"),
            R3.parse("y^4")}
    assert got == want


def test_gradient_pair_rejects_inhomogeneous():
    with pytest.raises(RingError):
        gradient_pair(R3.parse("x^2 + y"))


def test_certificates_on_named_curves():
    for slug, verdict in (("three-node-quartic", Verdict.LINEAR_TYPE),
                          ("bad-quintic", Verdict.NOT_LINEAR_TYPE),
                          ("fermat-quartic", Verdict.LINEAR_TYPE)):
        cert = linear_type_certificate(gradient_pair(curve_by_name(slug).curve()))
        assert cert.verdict == verdict, slug


def test_smooth_short_circuit():
    cert = linear_type_certificate(gradient_pair(R3.parse("x^4 + y^4 + z^4")))
    assert cert.verdict == Verdict.LINEAR_TYPE
    assert cert.reason == "regular sequence"
    assert cert.codim_gradient == 3


def test_inconclusive_for_nonisolated_singularities():
    # square factor: the singular locus contains a curve
    cert = linear_type_certificate(gradient_pair(R3.parse("x^2*y^2")))
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert cert.singular_dim > 1


def test_certificate_cross_validates_rees_route():
    for slug in ("three-node-quartic", "bad-quintic"):
        gp = gradient_pair(curve_by_name(slug).curve())
        cert = linear_type_certificate(gp)
        assert (cert.verdict == Verdict.LINEAR_TYPE) == is_linear_type(gp.pair)


# ---------------------------------------------------------------------------
# families


def quintic_family():
    ring = make_ring(["x", "y", "z"], ["u"])
    return ring.parse("y^4*z + x^5 + u*x^3*y^2")


def test_quintic_family_analysis():
    report = analyze_family(quintic_family(), seed=2)
    assert report.codim_gradient == 2
    assert report.codim_entry == 2
    assert not report.generic_linear_type
    assert report.consistent
    assert report.contraction.is_zero


def test_quintic_family_special_member():
    F = quintic_family()
    report = analyze_family(F, seed=2)
    cert = evaluate_member(F, [0]).certificate
    assert cert.verdict == Verdict.LINEAR_TYPE
    # at u = 0 the family entry ideal specializes to an ideal of height 2,
    # strictly inside the member's own entry ideal, of height 3
    ring = cert.entry_ideal.ring
    evaluated = Ideal(ring, [g.evaluate_block("param", [0]).transport(ring)
                             for g in report.entry_ideal.gens])
    assert dimension(evaluated).codim == 2
    assert dimension(cert.entry_ideal).codim == 3
    assert ideal_contains(cert.entry_ideal, evaluated)
    assert not ideal_contains(evaluated, cert.entry_ideal)


CONTENT_WARNING = "parameter content could not be certified equal to 1"


def test_parameter_content_is_certified_only_by_a_constant_coefficient():
    F = quintic_family()
    ring = F.ring
    u = ring.var("u")
    assert CONTENT_WARNING not in analyze_family(F, seed=2).warnings
    # (u+1)*F and u*F have non-unit content in k[u]
    for G in ((u + 1) * F, u * F):
        assert CONTENT_WARNING in analyze_family(G, seed=2).warnings
    # every coefficient has a constant term, and the content is still u + 1
    G = ring.parse("(u^2 + u)*x^4 + (u + 1)*y^4 + (u + 1)*z^4")
    assert not _content_one_certified(G, ring)
    for fam in FAMILIES:
        assert _content_one_certified(fam.family(), fam.ring())


def test_family_member_bad_value():
    member = evaluate_member(quintic_family(), [1])
    assert member.certificate.verdict == Verdict.NOT_LINEAR_TYPE
    with pytest.raises(RingError):
        evaluate_member(quintic_family(), [1, 2])


def test_family_requires_homogeneous_form():
    ring = make_ring(["x", "y", "z"], ["u"])
    with pytest.raises(RingError):
        analyze_family(ring.parse("x^3 + u*y^2"))


def test_two_node_cusp_member_off_strata():
    fam = family_by_name("b")
    member = evaluate_member(fam.family(), [Fraction(3), Fraction(2)])
    assert member.certificate.verdict == Verdict.LINEAR_TYPE


def test_sampler_avoids_constraints():
    fam = family_by_name("a")
    alpha = sample_parameters(fam.ring(), fam.constraint_polys(), seed=12)
    assert len(alpha) == 3
    for g in fam.constraint_polys():
        from symrees.curves import _eval_params
        assert _eval_params(g, list(fam.params), alpha) != 0


def test_sampler_deterministic():
    fam = family_by_name("a")
    a1 = sample_parameters(fam.ring(), fam.constraint_polys(), seed=12)
    a2 = sample_parameters(fam.ring(), fam.constraint_polys(), seed=12)
    assert a1 == a2


# ---------------------------------------------------------------------------
# catalog


def test_catalog_size_and_keys():
    assert len(FAMILIES) == 13
    assert [f.key for f in FAMILIES] == list("abcdefghijklm")


def test_parameter_free_families():
    assert family_by_name("d").params == ()
    assert family_by_name("three-cusps").poly == \
        "y^2*z^2 + x^2*z^2 + x^2*y^2 - 2*x*y*z*(x + y + z)"
    assert family_by_name("m").poly == "y^3*z + x^4 + u1*x^2*y^2"


def test_all_catalog_columns_annihilate():
    for fam in FAMILIES:
        F = fam.family()
        for col in fam.columns:
            if col.at is None:
                f = F
            else:
                f = F.evaluate_block("param", [col.at[p] for p in fam.params])
            parts = [f.derivative(v) for v in ["x", "y", "z"]]
            vec = [f.ring.parse(e) for e in col.entries]
            assert apply_row(parts, vec).is_zero, fam.key


def test_family_g_contraction():
    fam = family_by_name("g")
    report = analyze_family(fam.family(), seed=1, avoid=fam.constraint_polys())
    u2sq = report.contraction.ring.parse("u2^2")
    assert ideal_member(u2sq, report.contraction)
    assert report.consistent and report.generic_linear_type


def test_family_i_contraction():
    fam = family_by_name("i")
    report = analyze_family(fam.family(), seed=1, avoid=fam.constraint_polys())
    u3 = report.contraction.ring.parse("u3")
    assert ideal_member(u3, report.contraction)
    assert report.consistent and report.generic_linear_type


def test_family_syzygies_have_positive_geometric_degree():
    fam = family_by_name("c")
    report = analyze_family(fam.family(), seed=1, avoid=fam.constraint_polys())
    assert "syzygy coordinate with a geometric-degree-0 term" not in report.warnings


def test_curve_fixture_expectations_well_formed():
    for c in CURVES:
        assert c.expected in ("linear-type", "not-linear-type")
        f = c.curve()
        rep = f.is_homogeneous("geom")
        assert rep.homogeneous


# ---------------------------------------------------------------------------
# contraction route, lazy saturation, one syzygy run per pair


@pytest.mark.parametrize("key", [fam.key for fam in FAMILIES])
def test_contraction_is_contracted_saturation(key):
    # the contraction comes from the per-variable saturations, each contracted
    # to k[u] first; it must be the reduced basis of saturation ∩ k[u], and
    # each saturation the one the aux-variable route gives
    fam = family_by_name(key)
    report = analyze_family(fam.family(), seed=1, avoid=fam.constraint_polys())
    base = Ideal(report.entry_ideal.ring, groebner(report.entry_ideal).elements)
    for v, satv in zip(("x", "y", "z"), report._saturations):
        assert ideal_equal(satv(), saturate_principal(base, base.ring.var(v)))
    assert report.contraction.gens == eliminate(report.saturation, "geom").gens


def test_family_saturation_is_one_engine_run_per_variable(monkeypatch,
                                                          engine_inputs):
    import symrees.curves as curves_mod
    import symrees.ideal_ops as ops_mod

    def forbidden(*args):
        raise AssertionError("aux-variable saturation or elimination")

    for mod in (curves_mod, ops_mod):
        monkeypatch.setattr(mod, "saturate_principal", forbidden, raising=False)
        monkeypatch.setattr(mod, "eliminate", forbidden, raising=False)
    real = curves_mod._saturation_parts
    runs = {}

    def spy(I, v):
        assert all(g.is_homogeneous("geom").homogeneous for g in I.gens)
        before = len(engine_inputs)
        out = real(I, v)
        runs[v] = [series for _, _, _, series, _ in engine_inputs[before:]]
        return out

    monkeypatch.setattr(curves_mod, "_saturation_parts", spy)
    analyze_family(quintic_family(), seed=2)
    # one Hilbert-driven run each, from the entry ideal's cached grevlex basis
    assert runs == {"x": [True], "y": [True], "z": [True]}


def test_lazy_saturation_is_two_meets_built_once(monkeypatch):
    import symrees.curves as curves_mod
    report = analyze_family(quintic_family(), seed=2)
    seen = []
    real = curves_mod.intersect

    def spy(I, J):
        seen.append((I, J))
        return real(I, J)

    monkeypatch.setattr(curves_mod, "intersect", spy)
    sat = report.saturation
    assert len(seen) == 2                # three saturations, two meets
    assert report.saturation is sat      # built once
    assert len(seen) == 2


@pytest.mark.parametrize("key", [fam.key for fam in FAMILIES])
def test_family_saturations_match_the_aux_variable_route(key):
    # per variable, the contraction and then I : v^inf, read on first call,
    # are the reduced bases that saturate_principal and eliminate give
    fam = family_by_name(key)
    report = analyze_family(fam.family(), seed=1, avoid=fam.constraint_polys())
    I = report.entry_ideal
    for v in ("x", "y", "z"):
        sat, contraction = _saturation_parts(I, v)
        want = saturate_principal(I, I.ring.var(v))
        assert contraction.gens == eliminate(want, "geom").gens
        iv = I.ring.index(v)
        order = I.ring.elim_order_vars(tuple(i for i in range(3) if i != iv) + (iv,))
        assert sat().gens == buchberger(want, order).elements


def test_family_analysis_moves_no_record_beyond_the_contraction(monkeypatch):
    # only the records free of x, y, z once v is divided out are moved and
    # tail-reduced while the family is analyzed; the first read of the
    # saturation moves the rest, each once
    engine = sys.modules["symrees.groebner"]
    real = engine._moved
    moved = []

    def spy(recs, plan, lay, iv):
        out = real(recs, plan, lay, iv)
        moved.extend(any(lay.unpack(rec.lm)[:3]) for rec in out)
        return out

    monkeypatch.setattr(engine, "_moved", spy)
    report = analyze_family(quintic_family(), seed=2)
    free = len(moved)
    assert free and not any(moved)
    report.saturation
    assert len(moved) > free and all(moved[free:])
    n = len(moved)
    report.saturation
    assert len(moved) == n


def test_threads_first_reading_one_saturation_get_equal_results():
    report = analyze_family(quintic_family(), seed=2)
    want = analyze_family(quintic_family(), seed=2).saturation
    barrier = threading.Barrier(4)

    def read(_):
        barrier.wait(timeout=60)
        return report.saturation

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(read, range(4), timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert all(sat == want for sat in results)


def test_equal_contractions_take_no_meet(monkeypatch):
    # family k's three contractions have one reduced basis, so its
    # contraction is that ideal, with no intersect
    import symrees.curves as curves_mod
    fam = family_by_name("k")
    F, avoid = fam.family(), fam.constraint_polys()
    want = analyze_family(F, avoid=avoid)
    parts = [_saturation_parts(want.entry_ideal, v)[1] for v in ("x", "y", "z")]
    assert parts[0].gens == parts[1].gens == parts[2].gens
    assert intersect(parts[0], parts[1]).gens == parts[0].gens
    seen = []
    real = curves_mod.intersect

    def spy(I, J):
        seen.append((I, J))
        return real(I, J)

    monkeypatch.setattr(curves_mod, "intersect", spy)
    report = analyze_family(F, avoid=avoid)
    assert not seen and report.contraction.gens == parts[0].gens
    assert report == want


# analyze_family on catalog family a, and the first read of its saturation:
# the runs' tail reduction beyond the contraction moved from the one to the
# other, and their sum, the family command's least --work-limit less its
# parse, did not change (test_cli.test_family_command_work_is_pinned)
FAMILY_A_LEAST = 1243
FAMILY_A_SATURATION_UNITS = 64165


def test_family_work_is_pinned():
    fam = family_by_name("a")
    F, avoid = fam.family(), fam.constraint_polys()
    with work_limit(FAMILY_A_LEAST):
        report = analyze_family(F, avoid=avoid)
    with pytest.raises(WorkLimitExceeded), work_limit(FAMILY_A_LEAST - 1):
        analyze_family(F, avoid=avoid)
    limit = 10 ** 6
    with work_limit(limit):
        report.saturation
        assert limit - _BUDGET.get().left == FAMILY_A_SATURATION_UNITS


def test_pair_syzygies_computed_once_per_pair(monkeypatch):
    import symrees.blowup as blowup_mod
    calls = []
    real = blowup_mod.syzygies

    def spy(gens, **kwargs):
        calls.append(len(gens))
        return real(gens, **kwargs)

    monkeypatch.setattr(blowup_mod, "syzygies", spy)
    gp = gradient_pair(curve_by_name("three-node-quartic").curve())
    cert = linear_type_certificate(gp)
    assert cert.syzygy_matrix is not None
    aluffi_presentation(gp.pair)
    assert calls == [3]
    assert cert.syzygy_matrix is pair_syzygies(gp.pair)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.key)
def test_evaluate_member_repeats_no_engine_input(fam, engine_inputs):
    # certifying a member runs each engine input once, and the member
    # analyze_family reports is the one evaluate_member computes alone
    F = fam.family()
    report = analyze_family(F, avoid=fam.constraint_polys())
    engine_inputs.clear()
    member = evaluate_member(F, report.member.alpha)
    assert engine_inputs and len(engine_inputs) == len(set(engine_inputs))
    assert member == report.member


# Plane cubics with one singular point.  Kept here rather than in
# fixtures.CURVES, whose items the benchmark's curves workload runs.
SINGULAR_CUBICS = [
    ("nodal", "y^2*z - x^3 - x^2*z", 1),   # an A1 point: Tjurina number 1
    ("cuspidal", "y^2*z - x^3", 2),        # an A2 point: Tjurina number 2
]


@pytest.mark.parametrize("text, tjurina", [(t, tau) for _, t, tau in SINGULAR_CUBICS],
                         ids=[name for name, _, _ in SINGULAR_CUBICS])
def test_singular_cubic_gradient_ideals_are_of_linear_type(text, tjurina):
    # the abstract's claim: gradient ideals of plane curves of degree at most
    # 3 are of linear type
    from math import comb

    from symrees.oracle import graded_piece_dimension

    gp = gradient_pair(R3.parse(text))
    assert linear_type_certificate(gp).verdict is Verdict.LINEAR_TYPE
    assert is_linear_type(gp.pair)
    # the total Tjurina number is the Hilbert polynomial of R/I_f, a
    # constant: dim (R/I_f)_d for every d past the regularity, read off the
    # oracle's linear algebra rather than a Groebner basis
    gens = list(gp.gradient_ideal.gens)
    assert [comb(d + 2, 2) - graded_piece_dimension(gens, d)
            for d in range(4, 9)] == [tjurina] * 5


@pytest.mark.parametrize("curve", CURVES, ids=lambda curve: curve.slug)
def test_pair_syzygies_leave_the_gradient_basis_in_the_cache(curve, engine_inputs):
    gp = gradient_pair(curve.curve())
    I = gp.gradient_ideal
    pair_syzygies(gp.pair)
    assert [track for _, _, track, _, _ in engine_inputs] == [True]
    cached = I._gb_cache[I.ring.order]
    untracked = buchberger(Ideal(I.ring, I.gens))
    assert cached == untracked
    # untracked copies of the tracked records, stripped to content 1
    terms = lambda gb: [(rec.lm, rec.lc, rec.tail, rec.rep) for rec in gb._records]
    assert terms(cached) == terms(untracked)
    # a monomial gradient's basis takes no second run
    monomial = all(len(g.coeffs) == 1 for g in I.gens)
    assert monomial == (curve.slug == "fermat-quartic")
    assert groebner(I) is cached and len(engine_inputs) == (1 if monomial else 2)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.key)
def test_family_analysis_runs_no_untracked_basis_of_a_gradient(fam, engine_inputs):
    report = analyze_family(fam.family(), avoid=fam.constraint_polys())
    gradients = {report.gradient_gens, report.member.gradient.pair.i_gens}
    assert not [gens for gens, _, track, _, _ in engine_inputs
                if not track and gens in gradients]
    assert gradients <= {gens for gens, _, track, _, _ in engine_inputs if track}
