"""The acceptance suite: nine exact criteria covering torsion, linear-type
certificates, family degeneration, the fixture catalog, and the randomized
property suites.  Each criterion runs independently and reports a pass/fail
verdict with details; everything asserts exact equalities.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .blowup import (
    aluffi_dimension,
    aluffi_presentation,
    artin_rees_number,
    is_linear_type,
    make_pair,
    relative_rees_ideal,
    vv_pieces,
)
from .blowup import analytic_spread
from .curves import (
    Verdict,
    analyze_family,
    evaluate_member,
    gradient_pair,
    linear_type_certificate,
    sample_parameters,
)
from .groebner import buchberger, ideal_member
from .ideal_ops import (
    dimension,
    ideal_equal,
    ideal_power,
    ideal_product,
    intersect,
    quotient,
    saturate,
)
from .oracle import monomial_members, monomial_quotient, monomial_saturation
from .rings import Ideal, RingError, make_ring
from .fixtures import (
    CURVES,
    FAMILIES,
    curve_by_name,
    family_by_name,
    four_points_pair,
    pair_by_name,
)
from .syzygy import syzygies


@dataclass
class CriterionResult:
    number: int
    slug: str
    tags: tuple
    passed: bool
    details: list = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.number}. {self.slug} ({self.seconds:.1f}s)"


def _criterion(number: int, slug: str, *tags: str):
    """Declare a criterion; its number, slug and tags are set only here.

    The decorated body fills in a fresh result; callers get that result.
    """
    def wrap(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            res = CriterionResult(number, slug, tags, True)
            body(res, *args, **kwargs)
            return res
        run.number, run.slug, run.tags = number, slug, tags
        return run
    return wrap


def _check(result: CriterionResult, ok: bool, what: str):
    result.details.append(("ok  " if ok else "FAIL") + " " + what)
    if not ok:
        result.passed = False


@_criterion(1, "four-points-torsion", "vv")
def criterion_1_four_points(res):
    pair = four_points_pair()
    ring = pair.ring
    report = vv_pieces(pair, 2)
    piece = report.piece(2)
    _check(res, piece.nonzero, "degree-2 torsion piece is nonzero")
    w1 = ring.parse("x*z^2*(x - z)")
    w2 = ring.parse("y*z^2*(y - z)")
    meet = intersect(pair.j_ideal, ideal_power(pair.i_ideal, 2))
    ji = ideal_product(pair.j_ideal, pair.i_ideal)
    for w, label in ((w1, "x*z^2*(x-z)"), (w2, "y*z^2*(y-z)")):
        _check(res, ideal_member(w, meet), f"{label} in J cap I^2")
        _check(res, not ideal_member(w, ji), f"{label} not in J*I")


@_criterion(2, "three-node-quartic", "curve")
def criterion_2_three_node_quartic(res):
    f = curve_by_name("three-node-quartic").curve()
    gp = gradient_pair(f)
    cert = linear_type_certificate(gp)
    _check(res, cert.verdict == Verdict.LINEAR_TYPE, "certified linear type")
    _check(res, cert.codim_entry_ideal == 3, "syzygy entry ideal has codimension 3")
    _check(res, is_linear_type(gp.pair), "Rees ideal equals the symmetric ideal")
    pres = aluffi_presentation(gp.pair)
    _check(res, aluffi_dimension(pres).dim == 3, "embedded algebra has dimension 3")


@_criterion(3, "bad-quintic", "curve")
def criterion_3_bad_quintic(res):
    f = curve_by_name("bad-quintic").curve()
    gp = gradient_pair(f)
    cert = linear_type_certificate(gp)
    _check(res, cert.verdict == Verdict.NOT_LINEAR_TYPE, "certified not of linear type")
    _check(res, cert.codim_entry_ideal == 2, "syzygy entry ideal has codimension 2")
    pres = aluffi_presentation(gp.pair)
    rel = relative_rees_ideal(gp.pair)
    _check(res, not ideal_equal(pres.sym_ideal, pres.aluffi_ideal),
           "symmetric and embedded presentations differ")
    _check(res, not ideal_equal(pres.aluffi_ideal, rel),
           "embedded and relative-blowup presentations differ")
    _check(res, not ideal_equal(pres.sym_ideal, rel),
           "symmetric and relative-blowup presentations differ")
    for name, ideal in (("symmetric", pres.sym_ideal),
                        ("embedded", pres.aluffi_ideal),
                        ("relative blowup", rel)):
        _check(res, dimension(ideal).dim == 3, f"{name} quotient has dimension 3")


@_criterion(4, "quintic-family", "family")
def criterion_4_quintic_family(res):
    ring = make_ring(["x", "y", "z"], ["u"])
    F = ring.parse("y^4*z + x^5 + u*x^3*y^2")
    report = analyze_family(F, seed=4)
    _check(res, report.codim_entry == 2, "family entry ideal has codimension 2")
    _check(res, not report.generic_linear_type, "generic member not of linear type")
    member0 = evaluate_member(F, [0])
    _check(res, member0.certificate.verdict == Verdict.LINEAR_TYPE,
           "special member at u = 0 certified linear type")


@_criterion(5, "saturation-contractions", "family")
def criterion_5_saturation_contractions(res):
    for key, target in (("g", "u2^2"), ("i", "u3")):
        fam = family_by_name(key)
        report = analyze_family(fam.family(), seed=5,
                                avoid=fam.constraint_polys())
        want = report.contraction.ring.parse(target)
        _check(res, ideal_member(want, report.contraction),
               f"({key}) contraction contains {target}")


@_criterion(6, "rational-quartic-catalog", "catalog")
def criterion_6_catalog(res):
    _check(res, len(FAMILIES) == 13, "catalog has 13 families")
    for fam in FAMILIES:
        for ci, ok in enumerate(fam.column_checks()):
            _check(res, ok,
                   f"({fam.key}) regression column {ci + 1} annihilates the gradient")
        report = analyze_family(fam.family(), seed=6,
                                avoid=fam.constraint_polys())
        _check(res, report.consistent,
               f"({fam.key}) three-way degeneration equivalence is consistent")
        _check(res, report.legs[0] and report.legs[2],
               f"({fam.key}) generic member certified linear type")


@_criterion(7, "torsion-free-monomial-fixtures", "vv")
def criterion_7_torsion_free_monomial(res):
    for name in ("product-partials", "coordinate-points"):
        pair = pair_by_name(name)
        report = vv_pieces(pair, 4)
        _check(res, report.all_zero, f"{name}: every piece zero up to degree 4")


def _random_monomial_ideal(rng, arity, max_deg, max_gens):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        m = [0] * arity
        for _ in range(rng.randint(1, max_deg)):
            m[rng.randrange(arity)] += 1
        gens.append(tuple(m))
    return gens


@_criterion(8, "property-suites", "property")
def criterion_8_property_suites(res):
    rng = random.Random(8)

    # (i) regular-sequence pairs: zero torsion, Artin-Rees number 1
    count = 10
    ok_all = True
    for _ in range(count):
        ring = make_ring(["x", "y", "z"])
        x, y, z = ring.gens()
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        if rng.random() < 0.5:
            j_gens = [x ** a]
            i_gens = [x ** a, y ** b, z ** c]
        else:
            j_gens = [x ** a, y ** b]
            i_gens = [x ** a, y ** b, z ** c]
        pair = make_pair(ring, i_gens, j_gens)
        ok_all = ok_all and vv_pieces(pair, 3).all_zero
        ok_all = ok_all and artin_rees_number(pair, 3) == 1
    _check(res, ok_all,
           f"(i) {count} regular-sequence pairs: zero torsion and Artin-Rees number 1")

    # (ii) intersect/quotient/saturate against the monomial brute-force oracle
    runs = 100
    deg = 8
    ok_all = True
    for _ in range(runs):
        arity = rng.randint(1, 3)
        names = ["x", "y", "z"][:arity]
        ring = make_ring(names)
        A = _random_monomial_ideal(rng, arity, 4, 3)
        B = _random_monomial_ideal(rng, arity, 3, 2)
        IA = Ideal(ring, [ring.monomial(m, 1) for m in A])
        IB = Ideal(ring, [ring.monomial(m, 1) for m in B])

        eng = intersect(IA, IB)
        lead = [g.leading()[0] for g in eng.gens]
        want = monomial_members(A, arity, deg) & monomial_members(B, arity, deg)
        ok_all = ok_all and monomial_members(lead, arity, deg) == want

        engq = quotient(IA, IB)
        leadq = [g.leading()[0] for g in engq.gens] or []
        wantq = monomial_quotient(A, B, arity, deg)
        ok_all = ok_all and monomial_members(leadq, arity, deg) == wantq

        engs, _ = saturate(IA, IB)
        leads = [g.leading()[0] for g in engs.gens] or []
        wants = monomial_saturation(A, B, arity, deg)
        ok_all = ok_all and monomial_members(leads, arity, deg) == wants
        if not ok_all:
            break
    _check(res, ok_all, f"(ii) {runs} monomial ideals: intersect/quotient/saturate match the oracle")

    # (iii) reduced-basis uniqueness under generator permutation
    runs = 100
    ok_all = True
    for _ in range(runs):
        ring = make_ring(["x", "y"]) if rng.random() < 0.5 else make_ring(["x", "y", "z"])
        gens = []
        for _ in range(rng.randint(2, 3)):
            p = ring.zero
            for _ in range(rng.randint(1, 3)):
                m = [0] * ring.arity
                for _ in range(rng.randint(0, 3)):
                    m[rng.randrange(ring.arity)] += 1
                p = p + ring.monomial(m, rng.randint(-3, 3))
            if not p.is_zero:
                gens.append(p)
        if not gens:
            continue
        g1 = buchberger(Ideal(ring, gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        g2 = buchberger(Ideal(ring, shuffled))
        ok_all = ok_all and g1.elements == g2.elements
    _check(res, ok_all, f"(iii) {runs} random bases: reduced basis independent of generator order")

    # (iv) Euler identity on every homogeneous fixture
    ok_all = True
    for F in [c.curve() for c in CURVES] + [fam.family() for fam in FAMILIES]:
        ring = F.ring
        d = F.degree("geom")
        euler = ring.zero
        for v in ["x", "y", "z"]:
            euler = euler + ring.var(v) * F.derivative(v)
        ok_all = ok_all and euler == F * d
    _check(res, ok_all, "(iv) Euler identity on every curve and family fixture")

    # (v) certificate-lift independence of the embedded presentation
    ok_all = True
    fixtures = [gradient_pair(curve_by_name(s).curve()).pair
                for s in ("three-node-quartic", "bad-quintic", "fermat-quartic")]
    fixtures.append(four_points_pair())
    fixtures.append(pair_by_name("coordinate-points"))
    for pair in fixtures:
        base = aluffi_presentation(pair)
        phi = syzygies(list(pair.i_gens))
        col = phi.columns()[0]
        new_certs = []
        for row in pair.certificates:
            new_certs.append([c + s for c, s in zip(row, col)])
        pair2 = make_pair(pair.ring, list(pair.i_gens), list(pair.j_gens),
                          new_certs)
        alt = aluffi_presentation(pair2)
        ok_all = ok_all and ideal_equal(base.aluffi_ideal, alt.aluffi_ideal)
    _check(res, ok_all, "(v) embedded presentation independent of the certificate lift")


@_criterion(9, "dimension-bounds", "dimension")
def criterion_9_dimension_bounds(res):
    members = [(c.slug, c.curve()) for c in CURVES]
    for fam in FAMILIES:
        alpha = sample_parameters(fam.ring(), fam.constraint_polys(), seed=9)
        f = fam.family().evaluate_block("param", alpha)
        members.append((f"family-{fam.key}-member", f))
    for slug, f in members:
        gp = gradient_pair(f)
        cert = linear_type_certificate(gp)
        pres = aluffi_presentation(gp.pair)
        dim = aluffi_dimension(pres).dim
        _check(res, dim == 3, f"{slug}: embedded algebra dimension 3")
        # the height certificate and the Rees-vs-Sym route must agree
        _check(res,
               (cert.verdict == Verdict.LINEAR_TYPE) == is_linear_type(gp.pair),
               f"{slug}: certificate agrees with the Rees/Sym comparison")
        if cert.verdict == Verdict.LINEAR_TYPE:
            spread = analytic_spread(gp.pair.i_ideal)
            _check(res, spread == 3, f"{slug}: analytic spread 3")


CRITERIA = (
    criterion_1_four_points,
    criterion_2_three_node_quartic,
    criterion_3_bad_quintic,
    criterion_4_quintic_family,
    criterion_5_saturation_contractions,
    criterion_6_catalog,
    criterion_7_torsion_free_monomial,
    criterion_8_property_suites,
    criterion_9_dimension_bounds,
)


def run_acceptance(only: str | None = None) -> list:
    """Run the acceptance criteria whose number, slug or tag matches `only`;
    a filter that matches none is an input error, not an empty pass."""
    selected = [fn for fn in CRITERIA
                if not only or only in fn.tags or only == str(fn.number)
                or only in fn.slug]
    if not selected:
        tags = ", ".join(dict.fromkeys(tag for fn in CRITERIA for tag in fn.tags))
        raise RingError(f"{only!r} matches no criterion number, slug or tag; "
                        f"the tags are {tags}")
    results = []
    for fn in selected:
        t0 = time.time()
        res = fn()
        res.seconds = time.time() - t0
        results.append(res)
    return results
