"""Monomial ideals on the engine's packed words: Hilbert series, the count
of a Hilbert-driven run, and meets and products.

For positive variable weights w_i, S/M has the Hilbert series
N(t) / prod_i (1 - t^w_i) with N a polynomial, the Hilbert numerator, here a
dict {exponent of t: coefficient} with no zero entries.  Monomials are the
engine's exponent words (see `groebner`), so divisibility is one subtraction
against the guard bits and an lcm one field-wise max.

A `HilbertSeries` recorded on an Ideal as `_derived["hilbert"]` states that
the ideal is homogeneous for its weights and that S/I has its numerator;
the engine's runs on that ideal are then Hilbert-driven (Traverso, J. Symb.
Comp. 22, 1996), each with the `_HilbertCount` it makes.

Two ideals whose reduced bases are monomial meet in the monomial ideal of
the pairwise lcms of their basis words (Cox-Little-O'Shea, ch. 4 sec. 3) and
multiply to that of their pairwise products, with no Buchberger run
(`_combine_words`, for `ideal_ops.intersect` and `blowup._word_product`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .budget import _budget
from .groebner import (
    _FIELD_MASK,
    _check_within,
    _fmax,
    _Layout,
    _layout,
    _minimal,
    _monomial_basis,
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
    out = Ideal(ring, gb.elements)
    if order == ring.order:
        out._gb_cache[order] = gb
    return out
