"""Hilbert series of monomial ideals, and the count of a Hilbert-driven run.

For positive variable weights w_i, S/M has the Hilbert series
N(t) / prod_i (1 - t^w_i) with N a polynomial, the Hilbert numerator, here a
dict {exponent of t: coefficient} with no zero entries.  Monomials are the
engine's exponent words (see `groebner`), so divisibility is one subtraction
against the guard bits and an lcm one field-wise max.

A `HilbertSeries` recorded on an Ideal as `_derived["hilbert"]` states that
the ideal is homogeneous for its weights and that S/I has its numerator;
the engine's runs on that ideal are then Hilbert-driven (Traverso, J. Symb.
Comp. 22, 1996), each with the `_HilbertCount` it makes.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .groebner import _FIELD_MASK, _fmax, _Layout, _layout, _minimal, _top
from .rings import GREVLEX


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
