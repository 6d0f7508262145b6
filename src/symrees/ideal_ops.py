"""Ideal calculus: sum/product/power, intersection, quotient, saturation,
elimination, equality, Krull dimension and graded minimal generators.

Every elimination is one engine call that hands back its result as an
Ideal: a Buchberger run under the block order with the eliminated variables
first, keeping the basis elements free of them (`groebner._eliminated`).
`eliminate` and `eliminate_vars` call it directly; `intersect` (tag variable
w in w*I + (1-w)*J) and `saturate_principal` (t in (I, 1 - t*g), built by
`groebner.rabinowitsch`) first add one fresh variable with
`RingContext.with_aux`.  By the elimination theorem the kept elements are
the reduced basis of the result under the block order restricted to the
kept variables, so when that restriction is the target ring's own order
(grevlex targets; not lex ones), the engine leaves that basis in the
result's Groebner cache (`groebner._seeded`) and `groebner` on it runs no
Buchberger.

Two operations skip that run.  A meet of two ideals whose reduced bases
under the elimination's restricted order are monomial and known (given by
single terms, or cached) is the monomial ideal of the pairwise lcms of their
basis words (`hilbert._combine_words`): the elimination's result, seeded the
same way, with no Buchberger run; `quotient` and `saturate` on such input
inherit this route.  A meet of m^d, the d-th power of the ideal of all
variables with its basis known, and a homogeneous ideal B skips it too: it
is B's part in degrees >= d, read off B's reduced basis under that order
(`hilbert._meet_max_power`).  And `saturate_by_variable` on input
homogeneous in the variable's block makes one run, Hilbert-driven from the
input's grevlex basis (homogenized by a fresh last variable h when that is
not homogeneous) under a block order that also eliminates that block, which
gives both the saturation and its contraction, the prefix of the
saturation's reduced basis free of that block.  Its records leave the
engine once (`groebner._saturated`): h is dropped and the variable divided
out on their packed words.  The contraction's records are tail-reduced and
unpacked at once; `_saturation_parts` leaves the others to the first read
of the saturation, which `saturate_by_variable` makes at once.

Quotients and saturations by ideals reduce to intersections plus one lift:
I : (g) is I ∩ (g) with each generator divided by g, all those quotients
read off one tracked run (`member_lifts`).  Dimension is read off the
ideal's Hilbert series when it records one, with no run; else it comes from
maximal independent variable sets modulo the initial ideal, and reads
nothing else: a basis it makes is left unfinished (`groebner._lead_basis`).
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .groebner import (
    GroebnerBasis,
    _eliminated,
    _lead_basis,
    _saturated,
    groebner,
    ideal_member,
    member_lifts,
    normal_form,
    rabinowitsch,
)
from .hilbert import HilbertSeries, _combine_words, _meet_max_power, hilbert_numerator
from .rings import (
    GREVLEX,
    Ideal,
    Polynomial,
    RingContext,
    RingError,
)

SATURATE_MAX_STEPS = 64   # colon steps `saturate` takes before it gives up


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    _same_ring(I, J)
    return Ideal(I.ring, list(I.gens) + list(J.gens))


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    _same_ring(I, J)
    return Ideal(I.ring, [g * h for g in I.gens for h in J.gens])


def ideal_power(I: Ideal, t: int) -> Ideal:
    if t < 0:
        raise RingError("negative ideal power")
    power = Ideal(I.ring, [I.ring.one])
    for level in range(1, t + 1):
        power = ideal_power_step(I, power, level)
    return power


def ideal_power_step(I: Ideal, prev: Ideal, t: int) -> Ideal:
    """I^t from prev = ideal_power(I, t - 1), with ideal_power's generators.

    combinations_with_replacement keeps the generator count at C(n+t-1, t);
    each product is the left fold (((1*g_a)*g_b)*...), built from the one for
    the same combination without its last index.  Products of the nonzero
    generators of I are nonzero, so prev's generators line up with the
    combinations of level t - 1.
    """
    if t < 1:
        raise RingError("an ideal power step needs t >= 1")
    idx = range(len(I.gens))
    prods = dict(zip(combinations_with_replacement(idx, t - 1), prev.gens))
    return Ideal(I.ring, [prods[combo[:-1]] * I.gens[combo[-1]]
                          for combo in combinations_with_replacement(idx, t)])


def _same_ring(I: Ideal, J: Ideal):
    if I.ring != J.ring:
        raise RingError("ideals live in different rings")


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the tag-variable elimination  w*I + (1-w)*J.

    When the reduced bases of I and J under the elimination's restricted
    order are monomial and known, I ∩ J is read off the pairwise lcms of
    their basis words with no Buchberger run (`hilbert._combine_words`).
    When one side is m^d, its known basis every monomial of degree d, and
    the other is homogeneous, I ∩ J is the other's part in degrees >= d,
    read off its reduced basis with no tag variable and no S-pair
    (`hilbert._meet_max_power`).  Either way the result is given by its
    reduced basis under that order, the elimination's result, and the
    Groebner cache holds it when the elimination's would.
    """
    _same_ring(I, J)
    if I.is_zero or J.is_zero:
        return Ideal(I.ring, [])
    ext, _ = I.ring.with_aux("_w")
    gone = [ext.arity - 1]
    order = ext.elim_order_vars(gone).restrict(range(I.ring.arity))
    meet = _combine_words(I, J, order, meet=True)
    if meet is None:
        meet = _meet_max_power(I, J, order)
    if meet is not None:
        return meet
    # w is the last variable of ext, so w*g and (1-w)*g only append its
    # exponent: 1 for w*g; 0, and 1 with the negated coefficient, for (1-w)*g
    gens = [Polynomial.from_ints(ext, {m + (1,): c for m, c in g.coeffs.items()},
                                 g.scale)
            for g in I.gens]
    gens += [Polynomial.from_ints(ext, {**{m + (0,): c for m, c in g.coeffs.items()},
                                        **{m + (1,): -c for m, c in g.coeffs.items()}},
                                  g.scale)
             for g in J.gens]
    return _eliminated(Ideal(ext, gens), gone, I.ring)


def quotient(I: Ideal, J: Ideal) -> Ideal:
    """I : J, as the intersection over generators of J of (I : g)."""
    _same_ring(I, J)
    if J.is_zero:
        raise RingError("colon by the zero ideal")
    result = None
    for g in J.gens:
        Qg = _colon_single(I, g)
        result = Qg if result is None else intersect(result, Qg)
        if result.is_zero:
            break
    return result


def _colon_single(I: Ideal, g: Polynomial) -> Ideal:
    """I : (g)  =  (I ∩ (g)) / g, the quotients lifted over (g) in one run."""
    if I.is_zero:
        return I
    meet = intersect(I, Ideal(I.ring, [g]))
    rows = member_lifts(meet.gens, [g])
    if None in rows:
        raise RingError("not an exact division")
    return Ideal(I.ring, [row[0] for row in rows])


def saturate(I: Ideal, J: Ideal):
    """(I : J^infinity, k) with k the least exponent where the chain stops."""
    _same_ring(I, J)
    if J.is_zero:
        raise RingError("saturation by the zero ideal")
    prev = I
    for k in range(SATURATE_MAX_STEPS):
        nxt = quotient(prev, J)
        if ideal_equal(nxt, prev):
            return prev, k
        prev = nxt
    raise RingError("saturation did not stabilize within the step bound")


def saturate_principal(I: Ideal, g: Polynomial) -> Ideal:
    """I : g^infinity by eliminating t from (I, 1 - t*g)."""
    if g.is_zero:
        raise RingError("saturation by zero")
    aux = rabinowitsch(I, g)
    return _eliminated(aux, [aux.ring.arity - 1], I.ring)


def saturate_by_variable(I: Ideal, v: str) -> tuple:
    """(I : v^infinity, its contraction to the variables outside v's block).

    For I homogeneous in v's block this is one Hilbert-driven Buchberger run
    (Bayer 1982; Bayer-Stillman 1987; Traverso 1996) on I's grevlex basis,
    homogenized by a fresh last variable h when it is not homogeneous
    (`_homogenized`), under the block order with v's block first, in grevlex
    with v last, and the rest in grevlex with h last.  For f homogeneous in
    every variable, in(f) at h = 1 is in(f at h = 1) under the same order
    without h, so the run's basis at h = 1 is a Groebner basis of I; and v
    divides the leading monomial of a block-homogeneous polynomial only when
    it divides the polynomial, so its elements divided by their v-content are
    one of I : v^infinity.  `groebner._saturated` sets h = 1 and divides out
    v on the run's packed records, then minimalizes and tail-reduces them
    with no second Buchberger run: the reduced basis under that order.  As
    in an elimination, its elements free of v's block are the contraction;
    they are finished first, and the rest here at once, since this returns
    both.  Input not homogeneous in v's block takes `saturate_principal`
    and `eliminate`.
    """
    sat, contraction = _saturation_parts(I, v)
    return sat(), contraction


def _saturation_parts(I: Ideal, v: str) -> tuple:
    """`saturate_by_variable`'s pair with I : v^infinity left to be read:
    (a zero-argument callable that returns I : v^infinity, the
    contraction).  On the one-run route only the contraction's records are
    finished here; a call finishes the rest (`groebner._saturated`), anew
    each time, under the caller's budget.

    Whether I is homogeneous in v's block is read off I's grevlex basis once
    per block, and kept in `I._derived` beside `_homogenized`'s ideal.
    """
    ring = I.ring
    iv = ring.index(v)
    block = next(b for b, idxs in ring.blocks if iv in idxs)
    gb = groebner(I, GREVLEX)
    # the reduced basis of a block-homogeneous ideal is block-homogeneous
    key = ("homogeneous", block)
    if key not in I._derived:
        I._derived[key] = all(g.is_homogeneous(block).homogeneous for g in gb)
    if not I._derived[key]:
        sat = saturate_principal(I, ring.var(v))
        return (lambda: sat), eliminate(sat, block)
    gone = ring.block_indices(block)
    first = tuple(i for i in gone if i != iv) + (iv,)
    finish, contraction = _saturated(_homogenized(I, gb), ring, first)
    return (lambda: Ideal(ring, finish().elements)), contraction


def _homogenized(I: Ideal, gb: GroebnerBasis) -> Ideal:
    """I's reduced grevlex basis `gb`, homogenized by a fresh last variable h
    when it is not homogeneous, recording its Hilbert series; kept in
    `I._derived["homogenized"]`.

    A grevlex basis homogenized is a Groebner basis of the homogenized ideal
    whose leading monomials are the basis's own (each is of top degree), so
    they give the Hilbert numerator with every variable of degree 1.
    """
    if "homogenized" not in I._derived:
        ring = I.ring
        elems = gb.elements
        lead = gb.leading_monomials()
        if not all(g.is_homogeneous().homogeneous for g in elems):
            ring, _ = ring.with_aux("_h")
            elems = [_homogenize(g, ring) for g in elems]
            lead = [m + (0,) for m in lead]
        H = Ideal(ring, elems)
        weights = (1,) * ring.arity
        H._derived["hilbert"] = HilbertSeries(weights, hilbert_numerator(lead, weights))
        I._derived["homogenized"] = H
    return I._derived["homogenized"]


def _homogenize(g: Polynomial, ext: RingContext) -> Polynomial:
    """g in `ext`, its last variable making up each term's degree to g's."""
    d = max(map(sum, g.coeffs))
    return Polynomial.from_ints(ext, {m + (d - sum(m),): c for m, c in g.coeffs.items()},
                                g.scale)


def eliminate(I: Ideal, block: str) -> Ideal:
    """I ∩ k[remaining variables], returned in the subring."""
    return _eliminated(I, I.ring.block_indices(block), I.ring.drop_block(block))


def eliminate_vars(I: Ideal, names: Sequence[str]) -> Ideal:
    """Like eliminate, for an explicit variable list (possibly across blocks)."""
    gone = [I.ring.index(n) for n in names]
    keep = [i for i in range(I.ring.arity) if i not in gone]
    return _eliminated(I, gone, I.ring.subring(keep))


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """J ⊆ I, by membership of every generator."""
    _same_ring(I, J)
    gb = groebner(I)
    return all(normal_form(g, gb).is_zero for g in J.gens)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """I = J: one object, or equal reduced Groebner bases under the ring's
    order.

    Exact: an ideal has one reduced basis per monomial order.  Both bases come
    from (and stay in) the ideals' Groebner caches, and are compared on their
    engine records (see `groebner.GroebnerBasis`), so no element is unpacked.
    """
    _same_ring(I, J)
    return I is J or groebner(I) == groebner(J)


# ---------------------------------------------------------------------------
# dimension


class DimensionReport:
    """Krull dimension data for ring/I; empty marks the unit ideal distinctly.

    `witness` is the first largest variable set independent modulo in(I),
    from `combinations` order.  A report read off a recorded Hilbert series
    is given a zero-argument callable in its place, which the first read of
    `witness` calls, under that reader's budget, and replaces by its value.
    Equality, hash and repr read `witness`, as a dataclass's would.
    """

    __slots__ = ("dim", "codim", "_witness", "empty")

    def __init__(self, dim: int, codim: int, witness, empty: bool = False):
        self.dim, self.codim, self._witness, self.empty = dim, codim, witness, empty

    @property
    def witness(self) -> tuple:
        w = self._witness  # one read: another thread may store the value meanwhile
        if callable(w):
            w = self._witness = w()
        return w

    def _fields(self) -> tuple:
        return self.dim, self.codim, self.witness, self.empty

    def __eq__(self, other):
        if not isinstance(other, DimensionReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "DimensionReport(dim={!r}, codim={!r}, witness={!r}, empty={!r})".format(
            *self._fields())

    def codim_at_least(self, c: int) -> bool:
        return True if self.empty else self.codim >= c


def dimension(I: Ideal) -> DimensionReport:
    """dim ring/I, with a largest variable set independent modulo in(I).

    When I records its Hilbert series (`I._derived["hilbert"]`), dim and
    codim are read off it with no run (`hilbert.HilbertSeries.dimension`),
    and the witness is left to its first read, which takes the route below
    and checks that it gives the same dim.  A series no nonzero ideal has
    raises AssertionError before any run: one with no pole at t = 1 of order
    at most n and positive leading coefficient, or one of order n (S is a
    domain, so I has height >= 1).  Else only in(I) is read: the leading
    monomials of I's basis under its ring's order.  With no basis cached, one
    run gives them, and the basis is cached unfinished
    (`groebner._lead_basis`): its records are tail-reduced only if something
    later reads the basis in full.
    """
    ring = I.ring
    n = ring.arity
    if I.is_zero:
        return DimensionReport(n, 0, tuple(ring.names))
    series = I._derived.get("hilbert")
    if series is None:
        return _lead_dimension(I)
    d = series.dimension()
    if d is None:
        return DimensionReport(-1, n + 1, (), empty=True)
    if d == n:
        raise AssertionError("the stated Hilbert numerator of a nonzero ideal"
                             " does not vanish at t = 1")
    return DimensionReport(d, n - d, lambda: _lead_dimension(I, d).witness)


def _lead_dimension(I: Ideal, dim: int | None = None) -> DimensionReport:
    """`dimension`'s report for a nonzero I, from the leading monomials of
    `groebner._lead_basis(I)`; AssertionError when `dim` is given and is not
    the dimension found."""
    ring = I.ring
    n = ring.arity
    gb = _lead_basis(I)
    if gb.is_unit_ideal:
        if dim is not None:
            raise AssertionError(f"in(I) is the unit ideal, the recorded Hilbert"
                                 f" series gives dimension {dim}")
        return DimensionReport(-1, n + 1, (), empty=True)
    supports = []
    for m in gb.leading_monomials():
        supports.append(frozenset(i for i, e in enumerate(m) if e))
    supports = set(supports)
    # S independent  <=>  no initial-ideal generator has support inside S
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            S = set(combo)
            if not any(sup <= S for sup in supports):
                if dim not in (None, size):
                    raise AssertionError(f"in(I) gives dimension {size}, the recorded"
                                         f" Hilbert series {dim}")
                witness = tuple(ring.names[i] for i in combo)
                return DimensionReport(size, n - size, witness)
    raise AssertionError("unreachable: empty set is always independent")


# ---------------------------------------------------------------------------
# graded minimal generators


def block_degree(p: Polynomial, block: str | None) -> int:
    rep = p.is_homogeneous(block)
    if rep.is_zero:
        raise RingError("zero polynomial has no degree")
    if not rep.homogeneous:
        raise RingError("polynomial is not homogeneous for the chosen grading")
    return rep.degree


def minimal_homogeneous_generators(I: Ideal, block: str | None = None) -> list:
    """Minimal homogeneous generating set as (polynomial, degree), degrees ascending.

    Built degree by degree: a candidate is kept iff it is not in the ideal
    generated by everything kept so far.  That ideal is rebuilt only when a
    candidate is kept, so its Groebner basis serves every candidate between.
    """
    if I.is_zero:
        return []
    graded = sorted(((block_degree(g, block), g) for g in I.gens),
                    key=lambda dg: dg[0])
    kept: list = []
    span = None              # the ideal of `kept`
    for d, g in graded:
        if span is not None and ideal_member(g, span):
            continue
        kept.append((d, g))
        span = Ideal(I.ring, [p for _, p in kept])
    return [(g, d) for d, g in kept]
