"""Monomial ideals on the engine's packed words: Hilbert series, the count
of a Hilbert-driven run, meets and products, and powers of the maximal
ideal.

For positive variable weights w_i, S/M has the Hilbert series
N(t) / prod_i (1 - t^w_i) with N a polynomial, the Hilbert numerator, here a
dict {exponent of t: coefficient} with no zero entries.  Monomials are the
engine's exponent words (see `groebner`), so divisibility is one subtraction
against the guard bits and an lcm one field-wise max.

A `HilbertSeries` recorded on an Ideal as `_derived["hilbert"]` states that
the ideal is homogeneous for its weights and that S/I has its numerator;
the engine's runs on that ideal are then Hilbert-driven (Traverso, J. Symb.
Comp. 22, 1996), each with the `_HilbertCount` it makes.

The series gives dim S/I with no run (`HilbertSeries.dimension`): it is the
order of the pole at t = 1 (Hilbert-Serre; Bruns-Herzog, Cohen-Macaulay
Rings, ch. 4).  Each 1 - t^w_i is (1 - t)(1 + t + ... + t^(w_i - 1)), so for
N = (1 - t)^k Q with Q(1) != 0 the pole has order n - k, and Q(1) / prod_i w_i
is the coefficient of its leading term, positive.  S is a domain, so a
nonzero proper I has height >= 1, and k >= 1 (`ideal_ops.dimension`
checks it).

Two ideals whose reduced bases are monomial meet in the monomial ideal of
the pairwise lcms of their basis words (Cox-Little-O'Shea, ch. 4 sec. 3) and
multiply to that of their pairwise products, with no Buchberger run
(`_combine_words`, for `ideal_ops.intersect` and `blowup._word_product`).

Powers of the maximal ideal m = (all variables) need no run either.  The
reduced basis of m^d is every monomial of degree d, under every order
(`_max_power_degree` recognizes it).  For B
homogeneous and an order whose first row is the total degree, in(B ∩ m^d) is
in(B)_{>=d}, which the leading monomials of B's reduced basis times the
monomials that lift them to degree d generate; so B ∩ m^d is read off B's
basis with no tag variable and no S-pair (`_meet_max_power`, for
`ideal_ops.intersect`; it spends one unit per product it forms, and the
tail reduction's steps).  The product of m^d with an ideal H generated by
forms of one degree s is H's part in degrees >= s + d the same way
(`_max_power_product`, for `blowup._product`): a form of H of degree
e >= s + d is a sum of H's generators times forms of degree e - s >= d.
Both read the part through `_part`, which builds it once per ideal, degree
and order and keeps it in the ideal's derived cache, so a meet and a product
that are one part are one Ideal; a part of a part is cut from the ideal the
first part came from.  And for I generated in one degree e,
once a power I^(t-1) is m^((t-1)e), I^t is m^(te): m^(te) = m^e I^(t-1) =
(m^e I^(t-2)) I <= m^((t-1)e) I = I^t <= m^(te) (`_filled_power`, for
`blowup._pair_power`, which asks `_may_fill` whether a power built from
products is worth a basis that would tell).

Each of these results is an Ideal given by its reduced basis (`_given_by`),
whose records are final: its generators are that basis's elements,
unpacked from the records only when something reads them
(`rings.Ideal`), with no run and no unit spent.  The torsion comparisons
(`ideal_ops.ideal_equal`) read the bases' records alone, so most of these
ideals are never unpacked.
"""

from __future__ import annotations

from itertools import accumulate, combinations_with_replacement
from math import comb
from operator import attrgetter
from typing import NamedTuple, Sequence
from weakref import ref

from .budget import _budget
from .groebner import (
    _FIELD_MASK,
    GroebnerBasis,
    _check_within,
    _fmax,
    _Layout,
    _layout,
    _minimal,
    _monomial_basis,
    _overflow,
    _Rec,
    _reduce_records,
    _top,
    groebner,
)
from .rings import GREVLEX, Ideal, MonomialOrder


def _shift_add(dst: dict, src: dict, c: int, k: int) -> None:
    """dst += c * t^k * src, for numerators."""
    for e, v in src.items():
        s = dst.get(e + k, 0) + c * v
        if s:
            dst[e + k] = s
        else:
            del dst[e + k]


def _degree(e: int, shifts, weights) -> int:
    """The weighted degree of the exponent word `e`."""
    return sum(w * ((e >> s) & _FIELD_MASK) for s, w in zip(shifts, weights))


def _numerator(gens: list, shifts, weights, eguard: int) -> dict:
    """The Hilbert numerator of the monomial ideal M of the exponent words."""
    return _pivot({g: _degree(g, shifts, weights) for g in _minimal(gens, eguard)},
                  shifts, weights, eguard)


def _pivot(gens: dict, shifts, weights, eguard: int) -> dict:
    """The Hilbert numerator of the monomial ideal M of its minimal generators,
    given as {exponent word: weighted degree}.

    Pivot recursion (Bigatti, J. Pure Appl. Algebra 119, 1997) on p = x_i^e,
    x_i the variable in most minimal generators and e its least exponent
    among them:  N(M) = N(M + p) + t^deg(p) N(M : p),  where M + p splits as
    (p) plus the generators free of x_i.  Those are minimal already; the
    generators of M : p are minimalized, and each keeps its degree less
    e * deg(x_i).  Pairwise coprime generators end it.
    """
    words = list(gens)
    if sum(words) == _top(words, eguard):    # no variable in two generators
        num = {0: 1}
        for d in gens.values():
            _shift_add(num, dict(num), -1, d)
        return num
    most = 1
    for s, w in zip(shifts, weights):
        exps = [(g >> s) & _FIELD_MASK for g in words]
        k = len(exps) - exps.count(0)
        if k > most:
            most, shift, weight, pexps = k, s, w, exps
    e = min(x for x in pexps if x)
    free = _pivot({g: gens[g] for g, x in zip(words, pexps) if not x},
                  shifts, weights, eguard)
    colon = {}
    for g, x in zip(words, pexps):
        if x:
            colon[g - (e << shift)] = gens[g] - e * weight
        else:
            colon[g] = gens[g]
    colon = {g: colon[g] for g in _minimal(colon, eguard)}
    num = _pivot(colon, shifts, weights, eguard)
    _shift_add(num, free, -1, 0)
    _shift_add(free, num, 1, e * weight)
    return free


def hilbert_numerator(monomials: Sequence[tuple], weights: Sequence[int]) -> dict:
    """The Hilbert numerator of the monomial ideal of the exponent tuples,
    variable i of degree weights[i]."""
    lay = _layout(GREVLEX, len(weights))
    return _numerator([lay.pack(m) & lay.emask for m in monomials], lay.shifts,
                      tuple(weights), lay.eguard)


class HilbertSeries(NamedTuple):
    """N(t) / prod_i (1 - t^weights[i]): variable i has degree weights[i] > 0."""

    weights: tuple
    numerator: dict

    def count(self, lay: _Layout, words) -> "_HilbertCount":
        """The count of a run whose first leading monomials are `words`."""
        return _HilbertCount(lay, self, words)

    def dimension(self) -> int | None:
        """dim S/I for the ideal I of this series, the order of its pole at
        t = 1, or None when N = 0 (I is the unit ideal).  N is divided by
        1 - t while N(1) = 0, k times, leaving Q; the pole has order n - k
        (see the module docstring).

        A series no ideal has raises AssertionError: k > n, or Q(1) < 0.
        """
        if not self.numerator:
            return None
        q = [self.numerator.get(e, 0) for e in range(max(self.numerator) + 1)]
        k = 0
        while not sum(q):
            # N = (1 - t) N' gives N'_e = N_0 + ... + N_e, and N'_(deg N) = N(1) = 0
            q = list(accumulate(q))[:-1]
            k += 1
        n = len(self.weights)
        if k > n or sum(q) < 0:
            raise AssertionError("the stated Hilbert series has no pole at t = 1"
                                 " with a positive leading coefficient")
        return n - k


class _HilbertCount:
    """A Hilbert-driven run's count: the numerator of its lead ideal L, kept
    current as leading monomials arrive, against the input's numerator.

    At the start of degree D the deficit HF(S/L, D) - HF(S/I, D) is the number
    of leading monomials that degree still lacks.  Every new element of the
    degree adds one, and at 0 its remaining pairs reduce to zero.  A negative
    deficit, or a final L whose numerator is not the input's, means the stated
    series is wrong, and raises AssertionError rather than let dropped pairs
    leave the basis incomplete.
    """

    __slots__ = ("shifts", "weights", "eguard", "target", "lead", "num", "degs", "left")

    def __init__(self, lay: _Layout, series: HilbertSeries, words):
        self.shifts = lay.shifts
        self.weights = series.weights
        self.eguard = lay.eguard
        self.target = series.numerator
        self.lead = _minimal(words, self.eguard)     # minimal generators of L
        self.num = _pivot({g: self.degree(g) for g in self.lead},
                          self.shifts, self.weights, self.eguard)
        self.degs = {}       # weighted degree by pair lcm
        self.left = 0        # the deficit of the degree under way

    def degree(self, e: int) -> int:
        return _degree(e, self.shifts, self.weights)

    def add(self, e: int) -> bool:
        """L += (x^e): N(L + m) = N(L) - t^deg(m) N(L : m).  True when that
        meets the deficit of the degree under way."""
        eguard = self.eguard
        colon = [_fmax(g, e, eguard) - e for g in self.lead]
        if 0 not in colon:
            _shift_add(self.num, _numerator(colon, self.shifts, self.weights, eguard),
                       -1, self.degree(e))
            self.lead = [g for g in self.lead if (g - e) & eguard]
            self.lead.append(e)
            self.left -= 1
        return self.left == 0

    def next_batch(self, CP: set, emask: int) -> list:
        """The pairs of the least degree whose deficit is positive, descending
        by lcm; the pairs of lower degrees, whose deficit is 0, leave CP
        unreduced.  Empty when no pair is left."""
        degs = self.degs
        for pair in CP:
            if pair[0] not in degs:
                degs[pair[0]] = self.degree(pair[0] & emask)
        while CP:
            D = min(degs[pair[0]] for pair in CP)
            batch = sorted((pair for pair in CP if degs[pair[0]] == D), reverse=True)
            # the coefficient of t^D in (N(L) - N(I)) / prod_i (1 - t^w_i)
            s = [0] * (D + 1)
            for num, sign in ((self.num, 1), (self.target, -1)):
                for k, c in num.items():
                    if k <= D:
                        s[k] += sign * c
            for w in self.weights:
                for k in range(w, D + 1):
                    s[k] += s[k - w]
            self.left = s[D]
            if self.left < 0:
                raise AssertionError(f"the lead ideal has fewer standard monomials in"
                                     f" degree {D} than the stated Hilbert series")
            if self.left:
                return batch
            CP.difference_update(batch)
        return []

    def finish(self) -> None:
        if self.num != self.target:
            raise AssertionError("the basis's lead ideal does not have the stated"
                                 " Hilbert series")


def _monomial_words(A: Ideal, order: MonomialOrder) -> list | None:
    """The packed leading monomials of A's reduced basis under `order` when
    that basis is monomial and known without a run: cached, or from
    single-term generators (`groebner`, which needs no run for them).  None
    otherwise.  Read off the basis's records; no element is unpacked."""
    gb = A._gb_cache.get(order)
    if gb is None and all(len(g.coeffs) == 1 for g in A.gens):
        gb = groebner(A, order)
    if gb is None or any(rec.tail for rec in gb._records):
        return None
    return [rec.lm for rec in gb._records]


def _combine_words(A: Ideal, B: Ideal, order: MonomialOrder, meet: bool,
                   within: Ideal | None = None) -> Ideal | None:
    """A ∩ B (`meet`) or A * B when both reduced bases under `order` are
    monomial and known (`_monomial_words`), else None: the monomial ideal of
    the pairwise lcms or products of their basis words, one unit per pair,
    given by its reduced basis under `order` (`groebner._monomial_basis`),
    which its Groebner cache holds when `order` is its ring's.  `within`, an
    ideal known to contain the result, is held to the check a run would make
    (`groebner._check_within`)."""
    ring = A.ring
    lay = _layout(order, ring.arity)
    a = _monomial_words(A, order)
    b = None if a is None else _monomial_words(B, order)
    if b is None:
        return None
    _budget().spend(len(a) * len(b))
    if meet:
        emask, eguard = lay.emask, lay.eguard
        lcms = {_fmax(u & emask, v & emask, eguard) for u in a for v in b}
        gb = _monomial_basis(ring, order, map(lay.pack_exponents, lcms))
    else:
        gb = _monomial_basis(ring, order, [u + v for u in a for v in b])
    if within is not None:
        _check_within(gb, within._gb_cache.get(order), lay)
    return _given_by(gb)


def _given_by(gb: GroebnerBasis) -> Ideal:
    """The ideal given by the elements of its reduced basis `gb`, whose
    records are final (every caller builds them; none leaves a run), which
    its Groebner cache holds when `gb`'s order is its ring's.  The ideal
    keeps `gb` and unpacks its generators on their first read
    (`Ideal._of_basis`), which spends nothing and makes no run: a meet or
    product that is only compared by its basis is never unpacked."""
    out = Ideal._of_basis(gb)
    if gb.order == gb.ring.order:
        out._gb_cache[gb.order] = gb
    return out


def _degree_words(lay: _Layout, d: int) -> list:
    """The packed monomials of degree d."""
    return [sum(vs) for vs in combinations_with_replacement(lay.var, d)]


def _one_degree(monomials) -> int | None:
    """d when every exponent tuple of `monomials` has degree d, else None."""
    degs = set(map(sum, monomials))
    return degs.pop() if len(degs) == 1 else None


def _max_power_degree(A: Ideal, order: MonomialOrder) -> int | None:
    """d when A is m^d: when its reduced basis under `order`, or else under
    its ring's order, is known (cached, or from single-term generators, as
    in `_monomial_words`) and is every monomial of degree d, which is m^d's
    basis under every order.  None otherwise.  The leading words are read
    first, so a basis left unfinished is finished only when they pass."""
    n = A.ring.arity
    gb = A._gb_cache.get(order)
    if gb is None:
        gb = A._gb_cache.get(A.ring.order)
    if gb is None and all(len(g.coeffs) == 1 for g in A.gens):
        gb = groebner(A, order)
    if gb is None:
        return None
    words = gb._lead_words()
    d = _one_degree(map(_layout(gb.order, n).unpack, words))
    if (d is None or len(words) != comb(n + d - 1, d)
            or any(rec.tail for rec in gb._records)):
        return None
    return d


def _meet_max_power(A: Ideal, B: Ideal, order: MonomialOrder) -> Ideal | None:
    """A ∩ B when one side is m^d (`_max_power_degree`), the other H
    homogeneous, and the first row of `order` the total degree: H's part in
    degrees >= d (`_part`).  Else None."""
    if not all(_layout(order, A.ring.arity).rows[0]):
        return None
    for M, H in ((A, B), (B, A)):
        d = _max_power_degree(M, order)
        if d is not None and all(g.is_homogeneous().homogeneous for g in H.gens):
            return _part(H, d, order)
    return None


def _max_power_product(A: Ideal, B: Ideal, within: Ideal) -> Ideal | None:
    """A * B when one side is m^d (`_max_power_degree`), the other H is
    generated by forms of one degree s, and the first row of its ring's order
    is the total degree: H's part in degrees >= s + d (`_part`).  Else None.

    Exact: A * B lies in H ∩ m^(s+d), and a form f of H of degree e >= s + d
    is a sum of a_i h_i over H's generators with each a_i of degree
    e - s >= d, so in m^d.  `within`, an ideal known to contain A * B, is
    held to the check a run would make (`groebner._check_within`).  The part
    belongs to H's derived cache and may be a meet as well, so nothing is
    recorded on it.
    """
    ring = A.ring
    order = ring.order
    lay = _layout(order, ring.arity)
    if not all(lay.rows[0]):
        return None
    for M, H in ((A, B), (B, A)):
        d = _max_power_degree(M, order)
        s = None if d is None else _one_degree(m for g in H.gens for m in g.coeffs)
        if s is not None:
            part = _part(H, s + d, order)
            _check_within(part._gb_cache[order], within._gb_cache.get(order), lay)
            return part
    return None


def _part(H: Ideal, d: int, order: MonomialOrder) -> Ideal:
    """H's part in degrees >= d, H homogeneous and the first row of `order`
    the total degree; built once per H, d and order, under
    `H._derived[("part", order, d)]`, so a meet and a product that are this
    ideal are one object.  A part records under "part of" the ideal it was
    cut from, by a weak reference so that the two form no cycle, and the
    degree, (G, a); a part of it in degrees d >= a is G's,
    (G_{>=a})_{>=d} = G_{>=d}, found or built there while G lives.

    Each element of H's reduced basis under `order` of degree e < d is
    multiplied by every monomial of degree d - e, one unit per product; the
    elements of degree >= d are kept as they are.  Their leading monomials
    generate in(H)_{>=d} = in(H ∩ m^d), so `_reduce_records` makes the
    reduced basis of the part from them, with no S-pair.  It is given by
    that basis, which its Groebner cache holds when `order` is its ring's.
    """
    cut = H._derived.get("part of")
    origin = None if cut is None or d < cut[1] else cut[0]()
    if origin is not None:
        return _part(origin, d, order)
    key = ("part", order, d)
    if key in H._derived:
        return H._derived[key]
    lay = _layout(order, H.ring.arity)
    budget, guard = _budget(), lay.guard
    recs = []
    for rec in groebner(H, order)._records:
        e = sum(lay.unpack(rec.lm))
        if e >= d:
            recs.append(rec)
            continue
        for q in _degree_words(lay, d - e):
            budget.spend()
            if (q + rec.top) & guard:
                raise _overflow()
            recs.append(_Rec({q + m: c for m, c in rec.items()}, guard))
    recs.sort(key=attrgetter("lm"))
    part = _given_by(GroebnerBasis(H.ring, order, None,
                                   _records=tuple(_reduce_records(recs, lay, budget))))
    part._derived["part of"] = (ref(H), d)
    H._derived[key] = part
    return part


def _filled_power(I: Ideal, prev: Ideal) -> Ideal | None:
    """I^t as m^(te), given prev = I^(t-1) for some t >= 2, when I's
    generators are all homogeneous of one degree e and prev is m^((t-1)e)
    (`_max_power_degree`, under its ring's order); else None.  m^(te) is
    given by its reduced basis, every monomial of degree te, which its
    Groebner cache holds: no product is formed, no run made and no unit
    spent (see the module docstring)."""
    ring = I.ring
    e = _one_degree(m for g in I.gens for m in g.coeffs)
    d = None if e is None else _max_power_degree(prev, ring.order)
    if d is None:
        return None
    lay = _layout(ring.order, ring.arity)
    return _given_by(_monomial_basis(ring, ring.order, _degree_words(lay, d + e)))


def _may_fill(I: Ideal, power: Ideal) -> bool:
    """Whether `power`, a power of I formed from products, can be m^d, so
    that its basis is worth taking for `_filled_power`: I's cached basis
    under its ring's order holds a pure power of every variable among its
    leading words (I is m-primary; read off the engine words), and the
    generators of `power` all have one degree d and number at least
    C(n + d - 1, d), as many as the monomials of degree d."""
    ring = I.ring
    gb = I._gb_cache.get(ring.order)
    d = _one_degree(m for g in power.gens for m in g.coeffs)
    if gb is None or d is None or len(power.gens) < comb(ring.arity + d - 1, d):
        return False
    exps = map(_layout(ring.order, ring.arity).unpack, gb._lead_words())
    pure = {e.index(max(e)) for e in exps if sum(e) == max(e) > 0}
    return len(pure) == ring.arity
