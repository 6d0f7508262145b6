"""Buchberger engine: reduced Groebner bases, normal forms, membership.

Packed monomials.  Inside the engine a monomial is one Python int
(Bachmann-Schoenemann, "Monomial representations for Groebner bases
computations", ISSAC 1998; Monagan-Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  For an order with
rows r_1..r_k (0/1 linear forms, see MonomialOrder.rows) on a ring of arity
n, the fields of x^e from the most significant down are

    r_1.e, ..., r_k.e  (the order word)  |  e_n, ..., e_1  (the exponent word)

each FIELD_BITS wide, with the top bit of every field a guard bit that stays
clear.  Then a product is `a + b`, the order is `a < b` (the order word is
injective, so it alone decides), `a | b` is `not ((b - a) & guard)`, and
lcm exponents are a field-wise max by the guard-bit trick (`_fmax`).  The
public API keeps exponent tuples; monomials are packed on the way in and
unpacked by bit extraction on the way out.

Exponent bound: every field must stay below 2**(FIELD_BITS - 1) = 32768, that
is each exponent and each row value (the total degree under grevlex, the
degree in each group under block orders).  Inputs are checked when packed and
every product the engine forms is checked against the guard bits; a field
that reaches its guard bit raises RingError, so an overflow is never silent.
Outside the engine, `MonomialOrder.key_func` packs the same row values into
64-bit fields and raises RingError past 2**64 - 1.

Coefficients.  A Polynomial already holds content-1 ints plus one Fraction
scale, so entering the engine only packs exponents and leaving it unpacks them
under one scale per polynomial.  Reduction is fraction-free: to cancel a term
we cross-multiply by leading coefficients instead of dividing, tracking the
accumulated multiplier, which the result's scale absorbs.  Pair handling
follows the classic GROEBNERNEWS2 layout with the Gebauer-Moeller criteria
(`_update`) and the normal (minimal lcm) selection strategy, with
deterministic tie-breaks so a basis is reproducible and unique for (ideal,
order).  A pair of two monomials never enters the pair set: its S-polynomial
is zero, so it would only be taken up and dropped.  A run
(`_run_buchberger`) returns its basis records ascending and not yet reduced;
each caller makes reduced the records it keeps, in one upward pass
(`_reduce_records`): each element is tail-reduced by the already-reduced
elements below it.  So an elimination (`_eliminated`) finishes only the
elements free of the eliminated variables, an ascending prefix of the
records (`_free_prefix`), and unpacks only their kept exponent fields,
straight into the target ring (`_free_ideal`).  A saturation by a variable
(`_saturated`) finishes at once only the records free of the variable's
block once it is divided out, which give the contraction; its records move
to the saturation's layout by a few masks and shifts per word
(`_move_plan`), and the rest move when the saturation is first read.

Hilbert-driven runs (Traverso, J. Symb. Comp. 22, 1996).  An Ideal whose
`_derived["hilbert"]` holds a `hilbert.HilbertSeries` (weights, N) states that
it is homogeneous for those positive variable weights and that S/I has the
Hilbert series N(t) / prod_i (1 - t^w_i).  The Rees kernels
(`blowup._rees_kernel`), the homogenized grevlex bases that saturations by
a variable start from (`ideal_ops._homogenized`) and the embedded (Aluffi)
algebra's ideal of a principal J (`blowup._aluffi_series`) record one; every
other run, tracked runs included, keeps the selection above.  Such a run
takes its pairs degree by degree, by (weighted degree, lcm), and keeps the
numerator of its lead ideal L current as leading monomials arrive:
N(L + (m)) = N(L) - t^deg(m) N(L : m), with N(L : m) by Bigatti's pivot
recursion, starting from the numerator of the seeds' leading monomials.  At the start of degree D the
deficit HF(S/L, D) - HF(S/I, D) counts the leading monomials that degree still
lacks; each new element lowers it by one, and at 0 the degree's remaining
pairs reduce to zero, so they are dropped.  Two checks keep a wrong series
from returning an incomplete basis: a negative deficit raises AssertionError,
and so does a final lead ideal whose numerator is not N.  Only leading
monomials steer such a run, so it top-reduces its seeds and S-polynomials
(`_reduce_full` with `top`), stopping at the first irreducible term; each
caller tail-reduces the records it keeps (`_reduce_records`), so its result
is unchanged.  The records keep longer tails, but each step is cheaper, and a
kernel that finishes a few of its records skips the rest's tails.

A basis is its records.  Every engine exit builds a GroebnerBasis that holds
engine records, and its elements are unpacked from them on first read
(`_from_engine`, the one unpacker).  A reader of leading monomials alone
(`ideal_ops.dimension`, through `_lead_basis`) caches a run's records
unfinished: its leading monomials and `is_unit_ideal` are read off their
minimal leading monomials, and the first read of its records by anyone else
finishes them under that reader's budget.  A basis nobody else reads is
never finished, and a later read makes no second run.

Runs inside a known ideal.  An Ideal B whose `_derived["within"]` holds an
Ideal A states that B lies in A.  The torsion pieces, the Artin-Rees and
standard-base checks (`blowup`) record it for the ideals they compare with
J cap I^t, and the linear-type test for the symmetric ideal inside the Rees
ideal.  Only `buchberger` reads it, so tracked runs and eliminations never
stop this way.  When A's reduced basis under the run's order is already
cached, `buchberger` gives the run the exponent words of A's leading
monomials, and each new record, seed or S-pair remainder, drops the words
its leading monomial divides.  Once none is left the run returns the records
it has, skipping the remaining seeds, the pair set and the S-pairs: their
leading monomials generate L with L <= in(B) <= in(A) <= L, so they are a
Groebner basis of B and B = A (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, ch. 2 sec. 5).  A wrong claim that the check can see, a reduced
basis that is not A's, raises AssertionError.

Monomial ideals need no run.  The reduced basis of an ideal generated by
monomials is its minimal monomial generators, monic; sorted ascending, a
divisor comes before its multiples, so one upward pass with the divisibility
test above finds them (`_minimal`, which `hilbert` shares; `_monomial_basis`
builds the basis from them), and a pair of monomials would only give a zero
S-polynomial.  `buchberger` takes this route for single-term generators when
no Hilbert series is recorded, keeping the check against a containing ideal;
`hilbert._combine_words` takes it for the meet or product of two ideals
whose reduced bases are monomial, from the pairwise lcms or products of
their basis words.  Outside the engine layer (this module and `hilbert`) no
code reads packed words or writes a Groebner cache: an elimination hands
back its result as an Ideal, seeded with its reduced basis when the order
allows (`_eliminated`, `_saturated`, `_free_ideal`).

Optionally every basis element tracks its representation in terms of the input
generators (as their content-1 integer parts); this representation is the
engine's only lift bookkeeping.  Tracking is a property of the records: a run
chooses it once, for its seeds, and every S-polynomial and reduction built
from tracked records is tracked in turn.  Containment certificates
(`member_lifts`) and syzygies (`syzygy_lifts`) are lifted on the records of
one tracked run:
each target, generator or S-polynomial of a basis pair is reduced to zero by
the final records with its representation tracked, and that representation,
rescaled by the generators' scales, is the row.  `division` reduces the same
way, on copies of a basis's records that each represent themselves, so the
quotients are the representation of the input.

Work budget.  Every reduction step and every S-pair taken spends one unit of
the context's work budget (`budget.work_limit`; the CLI wraps each command in
one), as does every word `_monomial_basis` drops as non-minimal, the one
reduction step of such a seed; every product of two polynomials outside the
engine spends one per pair of terms, and every lcm or product of monomial
basis words one; outside any block every engine call gets a fresh budget of
DEFAULT_WORK_LIMIT units.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Sequence

from .budget import _budget
from .rings import (
    GREVLEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    RingContext,
    RingError,
    int_content,
)

FIELD_BITS = 16
FIELD_MAX = (1 << (FIELD_BITS - 1)) - 1   # largest value a packed field may hold
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _overflow() -> RingError:
    return RingError(f"monomial exceeds the engine's exponent bound: an exponent or"
                     f" an order row value (such as the total degree) is above"
                     f" {FIELD_MAX}")


class _Layout:
    """How the monomials of one (order, arity) pack into ints."""

    __slots__ = ("rows", "shifts", "var", "guard", "emask", "eguard")

    def __init__(self, order: MonomialOrder, arity: int):
        rows = order.rows(arity)
        nrows = len(rows)
        self.rows = rows
        self.shifts = tuple(FIELD_BITS * i for i in range(arity))
        base = FIELD_BITS * arity
        # var[i] is x_i packed: its exponent field plus its column of the rows
        self.var = tuple(
            (1 << self.shifts[i])
            + sum(row[i] << (base + FIELD_BITS * (nrows - 1 - r))
                  for r, row in enumerate(rows))
            for i in range(arity))
        self.guard = sum(1 << (FIELD_BITS * k + FIELD_BITS - 1)
                         for k in range(arity + nrows))
        self.emask = (1 << base) - 1
        self.eguard = self.guard & self.emask

    def pack(self, m) -> int:
        # row entries are 0 or 1, so the total degree bounds every field;
        # past that, check each field exactly before packing
        if sum(m) > FIELD_MAX and (
                max(m) > FIELD_MAX
                or any(sum(map(mul, row, m)) > FIELD_MAX for row in self.rows)):
            raise _overflow()
        return sum(map(mul, m, self.var))

    def pack_exponents(self, e: int) -> int:
        """The full packed monomial for an exponent word."""
        return sum(((e >> s) & _FIELD_MASK) * x for s, x in zip(self.shifts, self.var))

    def unpack(self, w: int) -> tuple:
        return tuple((w >> s) & _FIELD_MASK for s in self.shifts)


@lru_cache(maxsize=64)
def _layout(order: MonomialOrder, arity: int) -> _Layout:
    return _Layout(order, arity)


def _fmax(a: int, b: int, guard: int) -> int:
    """Field-wise max of two packed words whose guard bits are clear."""
    s = ((a | guard) - b) & guard          # guard bit set where a's field >= b's
    s -= s >> (FIELD_BITS - 1)             # ... widened to that field's value bits
    return (a & s) | (b & ~s)


def _minimal(words, eguard: int) -> list:
    """The minimal generators of the monomial ideal of the exponent words.

    a | b makes b - a a nonnegative word, so a <= b: ascending, a divisor
    comes before its multiples."""
    out = []
    for w in sorted(set(words)):
        for k in out:
            if not ((w - k) & eguard):
                break
        else:
            out.append(w)
    return out


def _top(words, guard: int) -> int:
    """Field-wise max over packed words: bounds every product with them."""
    t = 0
    for w in words:
        t = _fmax(t, w, guard)
    return t


def _dict_scale(d: dict, c: int):
    if c != 1:
        for k in d:
            d[k] *= c


def _to_engine(lay: _Layout, p: Polynomial) -> tuple:
    """(packed int dict, scale) with p == scale * dict and dict content-1."""
    pack = lay.pack
    return {pack(m): c for m, c in p.coeffs.items()}, p.scale


def _from_engine(target: RingContext, lay: _Layout, items, scale: Fraction,
                 keep: Sequence[int] | None = None) -> Polynomial:
    """scale * the packed terms `items` as a polynomial of `target`, whose
    variables are those at `keep` (all by default); the terms' other exponent
    fields are all 0.  Every record and remainder leaves the engine here."""
    shifts = lay.shifts if keep is None else [lay.shifts[i] for i in keep]
    return Polynomial.from_ints(
        target, {tuple((m >> s) & _FIELD_MASK for s in shifts): v for m, v in items if v},
        scale)


class _Rec:
    """Engine record: integer-primitive polynomial plus optional tracking.

    The leading term is kept apart from the tail; `top` is the field-wise max
    of all terms, so a product x^q * self passes the exponent bound exactly
    when q + top does.  `rtop` is the same bound for every term of the
    representation `rep`, which is None on an untracked record; records of one
    run are all tracked or all untracked.  A record is not changed once built.
    """

    __slots__ = ("lm", "lc", "tail", "top", "rep", "rtop")

    def __init__(self, terms: dict, guard: int, rep=None):
        lm = max(terms)
        self.lm = lm
        self.lc = terms[lm]
        self.tail = [(m, c) for m, c in terms.items() if m != lm]
        self.top = _top(terms, guard)
        self.rep = rep
        self.rtop = _top((m for d in rep.values() for m in d), guard) if rep else 0

    def items(self) -> list:
        return [(self.lm, self.lc)] + self.tail


def _scale_rep(rep, c):
    if rep is not None:
        for d in rep.values():
            _dict_scale(d, c)


def _axpy(dst: dict, c: int, q: int, src) -> None:
    """dst += c * x^q * src   (src: iterable of (monom, coeff))."""
    get = dst.get
    for m, v in src:
        mm = q + m
        s = get(mm, 0) + c * v
        if s:
            dst[mm] = s
        else:
            del dst[mm]


def _rep_axpy(rep, c, q, src: _Rec, guard):
    """rep += c * x^q * src.rep, when both are tracked."""
    if rep is None or src.rep is None:
        return
    if (q + src.rtop) & guard:
        raise _overflow()
    for j, d in src.rep.items():
        tgt = rep.setdefault(j, {})
        _axpy(tgt, c, q, d.items())
        if not tgt:
            del rep[j]


def _reduce_full(terms: dict, reducers: Sequence[_Rec], lms: Sequence[int],
                 guard: int, budget, rep=None, top=False) -> tuple:
    """Full normal form; returns (remainder, multiplier).

    Fraction-free: if step k subtracts c_k * x^q_k * reducers[i_k], on exit

        remainder == multiplier * input  - sum_k c_k * x^q_k * reducers[i_k]
        rep       == multiplier * rep_in - sum_k c_k * x^q_k * reducers[i_k].rep

    the second when tracking, with `rep` updated in place from its value
    rep_in on entry.  `lms` lists the reducers' leading monomials, built once
    by the caller for each set of reducers.  The first reducer whose leading
    monomial divides the current term acts.  With `top`, reduction stops at
    the first term no leading monomial divides: the remainder is that term
    plus the rest unreduced (a top-reduction).
    """
    p = dict(terms)
    r: dict = {}
    mult = 1
    while p:
        m = max(p)
        c = p.pop(m)
        for idx, lm in enumerate(lms):
            if not ((m - lm) & guard):
                break
        else:
            if top:
                p[m] = c
                return p, mult
            r[m] = c
            continue
        budget.spend()
        g = reducers[idx]
        d = gcd(c, g.lc)
        cr = c // d
        lcr = g.lc // d
        if lcr < 0:
            cr, lcr = -cr, -lcr
        if lcr != 1:
            _dict_scale(p, lcr)
            _dict_scale(r, lcr)
            _scale_rep(rep, lcr)
            mult *= lcr
        q = m - lm
        if (q + g.top) & guard:
            raise _overflow()
        _axpy(p, -cr, q, g.tail)
        _rep_axpy(rep, -cr, q, g, guard)
    return r, mult


def _spoly(gi: _Rec, gj: _Rec, lcm: int, guard: int):
    """S-polynomial of two records; their leading terms cancel at lcm.  Its
    representation is tracked when the records' are."""
    qi = lcm - gi.lm
    qj = lcm - gj.lm
    if (qi + gi.top) & guard or (qj + gj.top) & guard:
        raise _overflow()
    d = gcd(gi.lc, gj.lc)
    ci = gj.lc // d
    cj = gi.lc // d
    out: dict = {}
    _axpy(out, ci, qi, gi.tail)
    _axpy(out, -cj, qj, gj.tail)
    rep = None
    if gi.rep is not None:
        rep = {}
        _rep_axpy(rep, ci, qi, gi, guard)
        _rep_axpy(rep, -cj, qj, gj, guard)
    return out, rep


def _strip(terms: dict, rep):
    """Content-1, positive leading coefficient; rep stripped jointly."""
    if not terms:
        return terms, rep
    vals = list(terms.values())
    if rep is not None:
        for d in rep.values():
            vals.extend(d.values())
    g = int_content(vals)
    if terms[max(terms)] < 0:
        g = -g
    if g != 1:
        for m in list(terms):
            terms[m] //= g
        if rep is not None:
            for d in rep.values():
                for m in list(d):
                    d[m] //= g
    return terms, rep


class GroebnerBasis:
    """Reduced Groebner basis: monic elements, descending by leading monomial.

    Stored as engine records, read through `_records`: reduced and
    descending (`_recs`), or a run's, ascending and not yet reduced (`_run`),
    which the first read tail-reduces (`_reduce_records`) under the reader's
    budget.  A basis built from elements packs its records on first read, and
    elements are unpacked from the records on first read.  A finish sets the
    records before it drops the run, so threads that read one basis at once
    only replace missing values with equal ones.
    """

    __slots__ = ("ring", "order", "_elements", "_recs", "_run")

    def __init__(self, ring: RingContext, order: MonomialOrder, elements: tuple | None,
                 _records: tuple | None = None, _run: list | None = None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_recs", _records)
        object.__setattr__(self, "_run", _run)

    def __setattr__(self, *_):
        raise AttributeError("GroebnerBasis is immutable")

    @property
    def _records(self) -> tuple:
        run = self._run          # read first: a finish drops it after the records
        recs = self._recs
        if recs is None:
            lay = _layout(self.order, self.ring.arity)
            if run is None:
                recs = tuple(_Rec(_to_engine(lay, g)[0], lay.guard) for g in self._elements)
            else:
                recs = tuple(_reduce_records(run, lay, _budget()))
            object.__setattr__(self, "_recs", recs)
            object.__setattr__(self, "_run", None)
        return recs

    @property
    def elements(self) -> tuple:
        elements = self._elements
        if elements is None:
            lay = _layout(self.order, self.ring.arity)
            elements = tuple(_from_engine(self.ring, lay, rec.items(), Fraction(1, rec.lc))
                             for rec in self._records)
            object.__setattr__(self, "_elements", elements)
        return elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if other.__class__ is not GroebnerBasis:
            return NotImplemented
        return ((self.ring, self.order, self.elements)
                == (other.ring, other.order, other.elements))

    def __hash__(self):
        return hash((self.ring, self.order, self.elements))

    def __repr__(self):
        return (f"GroebnerBasis(ring={self.ring!r}, order={self.order!r},"
                f" elements={self.elements!r})")

    def _lead_words(self) -> list:
        """The packed leading monomials, descending; an unfinished basis gives
        its run's minimal ones, with no finish."""
        run = self._run
        if run is None:
            return [rec.lm for rec in self._records]
        guard = _layout(self.order, self.ring.arity).guard
        return _minimal([rec.lm for rec in run], guard)[::-1]

    @property
    def is_unit_ideal(self) -> bool:
        return self._lead_words() == [0]      # the monomial 1 packs to 0

    def leading_monomials(self) -> list:
        unpack = _layout(self.order, self.ring.arity).unpack
        return [unpack(w) for w in self._lead_words()]


def _update(G: set, B: set, ih: int, ex: list, mono: list, lay: _Layout) -> tuple:
    """Gebauer-Moeller update of the basis indices G and the pair set B by the
    new element ih; returns (G_new, B_new).

    ex[i] is the exponent word of element i's leading monomial and mono[i]
    tells whether element i is a monomial.  A pair is kept as (lcm, i, j)
    with its packed lcm computed once.  A pair of two monomials never enters
    B_new: its S-polynomial is zero.  It still takes part in the chain test
    that builds D, so it changes no other pair's fate.
    """
    guard, emask, eguard = lay.guard, lay.emask, lay.eguard
    shift = FIELD_BITS - 1
    mh = ex[ih]
    mhg = mh | eguard
    # the candidates in the order a copy of G pops them, each with the field-
    # wise max (_fmax) of its word and mh, that is the exponent word of its lcm
    cands = list(set(G))
    lcms = []
    for ig in cands:
        e = ex[ig]
        s = (mhg - e) & eguard
        s -= s >> shift
        lcms.append((mh & s) | (e & ~s))
    # chain test: a candidate whose lcm is divided by the lcm of a later
    # candidate or of a kept one is dropped, unless lm_h and lm_g are coprime
    D = []
    kept = []
    for k, lcm_hg in enumerate(lcms):
        ig = cands[k]
        if mh + ex[ig] != lcm_hg:
            divided = False
            for other in lcms[k + 1:]:
                if not ((lcm_hg - other) & eguard):
                    divided = True
                    break
            if not divided:
                for other in kept:
                    if not ((lcm_hg - other) & eguard):
                        divided = True
                        break
            if divided:
                continue
        D.append(ig)
        kept.append(lcm_hg)
    # an old pair stays unless mh divides its lcm strictly on both sides
    B_new = set()
    for pair in B:
        lcm12 = pair[0] & emask
        if (lcm12 - mh) & eguard:
            B_new.add(pair)
            continue
        for e in (ex[pair[1]], ex[pair[2]]):
            s = (mhg - e) & eguard
            s -= s >> shift
            if (mh & s) | (e & ~s) == lcm12:
                B_new.add(pair)
                break
    # a coprime pair reduces to zero (Buchberger's first criterion)
    mono_h = mono[ih]
    for ig, lcm_hg in zip(D, kept):
        if mh + ex[ig] != lcm_hg and not (mono_h and mono[ig]):
            lcm = lay.pack_exponents(lcm_hg)
            if lcm & guard:
                raise _overflow()
            B_new.add((lcm, ih, ig))
    G_new = {ig for ig in G if (ex[ig] - mh) & eguard}
    G_new.add(ih)
    return G_new, B_new


def _run_buchberger(gens, ring, order, track, hilbert=None, cover=None):
    """(records, scales): the records of a Groebner basis of `gens` under
    `order`, ascending by leading monomial and not yet reduced, and each
    generator's scale.  The caller runs `_reduce_records` on the records it
    keeps.

    `cover`, when given, lists the exponent words of the leading monomials of
    an ideal known to contain `gens`.  Each new record removes from it the
    words its leading monomial divides, and once it is empty the run stops
    with the records it has (see the module docstring).

    A Hilbert-driven run top-reduces its seeds and S-polynomials: only the
    leading monomials steer it, and `_reduce_records` tail-reduces the
    records the caller keeps.
    """
    lay = _layout(order, ring.arity)
    guard, emask, eguard = lay.guard, lay.emask, lay.eguard
    budget = _budget()
    top = hilbert is not None

    seeds = []
    scales = []
    for j, g in enumerate(gens):
        ints, scale = _to_engine(lay, g)
        scales.append(scale)
        if ints:
            rep = {j: {0: 1}} if track else None
            seeds.append((ints, rep))

    # one pass: each seed is reduced by the seeds kept before it, so no kept
    # seed's leading monomial is divisible by a predecessor's, and a second
    # pass would reproduce the first
    f = []        # the records; pairs and G refer to them by index
    lms = []      # the seeds' leading monomials
    for terms, rep in seeds:
        r, _ = _reduce_full(terms, f, lms, guard, budget, rep=rep, top=top)
        if r:
            r, rep = _strip(r, rep)
            f.append(_Rec(r, guard, rep))
            lms.append(f[-1].lm)
            if cover is not None and not _uncover(cover, lms[-1] & emask, eguard):
                return sorted(f, key=attrgetter("lm")), scales

    ex = [lm & emask for lm in lms]             # exponent words of the lms
    mono = [not rec.tail for rec in f]

    G: set = set()
    CP: set = set()
    for i in sorted(range(len(f)), key=lms.__getitem__):
        G, CP = _update(G, CP, i, ex, mono, lay)

    # the reducers are G by ascending leading monomial, rebuilt when G changes
    reducers = sorted((f[j] for j in G), key=lambda rec: rec.lm)
    reducer_lms = [rec.lm for rec in reducers]
    count = None if hilbert is None else hilbert.count(lay, ex)
    batch = []    # a Hilbert-driven run's pairs of the degree under way
    while CP:
        if count is None:
            pair = min(CP)
        else:
            if not batch:
                batch = count.next_batch(CP, emask)
                if not batch:
                    break
            pair = batch.pop()
        budget.spend()
        CP.remove(pair)
        lcm, ig1, ig2 = pair
        s_terms, s_rep = _spoly(f[ig1], f[ig2], lcm, guard)
        if not s_terms:
            continue
        # a nonzero remainder is a new record: no lm in G divides its lm, while
        # some lm in G divides that of every record in f
        r, _ = _reduce_full(s_terms, reducers, reducer_lms, guard, budget,
                            rep=s_rep, top=top)
        if r:
            r, s_rep = _strip(r, s_rep)
            rec = _Rec(r, guard, s_rep)
            f.append(rec)
            ex.append(rec.lm & emask)
            mono.append(not rec.tail)
            G, CP = _update(G, CP, len(f) - 1, ex, mono, lay)
            reducers = sorted((f[j] for j in G), key=lambda rec: rec.lm)
            reducer_lms = [rec.lm for rec in reducers]
            if count is not None and count.add(ex[-1]):
                # the degree has all its leading monomials: the rest reduce to 0
                CP.difference_update(batch)
                batch = []
            if cover is not None and not _uncover(cover, ex[-1], eguard):
                break

    if count is not None:
        count.finish()
    return reducers, scales


def _uncover(cover: list, e: int, eguard: int) -> list:
    """Drop from `cover`, in place, the exponent words that the word `e`
    divides; returns what is left."""
    cover[:] = [w for w in cover if (w - e) & eguard]
    return cover


def _reduce_records(recs, lay: _Layout, budget, below=()) -> list:
    """The reduced basis from the records of a Groebner basis, descending.

    `recs` must be ascending by leading monomial; no S-pair is formed.  Walking
    up, a record whose leading monomial that of a kept one divides is dropped,
    and every other record is tail-reduced by the reduced records built before
    it.  A term of its tail is below its leading monomial, so only a record
    with a smaller leading monomial can act on it; those are already reduced,
    so no reduction cascades.  `below`, the result of this walk on records
    that all lie below `recs`, is where the walk resumes: it is not reduced
    again, and it ends the result.
    """
    guard = lay.guard
    final = list(reversed(below))
    lms = [rec.lm for rec in final]
    for rec in recs:
        for lm in lms:
            if not ((rec.lm - lm) & guard):
                break
        else:
            rep = None if rec.rep is None else {j: dict(d) for j, d in rec.rep.items()}
            r, _ = _reduce_full(dict(rec.items()), final, lms, guard, budget, rep=rep)
            r, rep = _strip(r, rep)
            final.append(_Rec(r, guard, rep))
            lms.append(rec.lm)
    final.reverse()
    return final


def _monomial_basis(ring: RingContext, order: MonomialOrder, words) -> GroebnerBasis:
    """The reduced basis under `order` of the monomial ideal of the packed
    monomials `words`: its minimal generators (`_minimal`), monic and
    descending.  Each word dropped as non-minimal
    spends one unit, the engine's one reduction step for such a seed; no
    S-pair is taken, as a pair of monomials never enters the engine's pair
    set.
    """
    lay = _layout(order, ring.arity)
    guard = lay.guard
    words = set(words)
    if any(w & guard for w in words):
        raise _overflow()
    kept = _minimal(words, lay.eguard)
    _budget().spend(len(words) - len(kept))
    return GroebnerBasis(ring, order, None,
                         _records=tuple(_Rec({w: 1}, guard) for w in reversed(kept)))


def buchberger(source, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of an Ideal or a generator list.

    An Ideal whose `_derived["hilbert"]` holds its `hilbert.HilbertSeries`
    gets a Hilbert-driven run.  An Ideal B whose `_derived["within"]` holds
    an Ideal A containing it, with A's basis under `order` already cached,
    gets a run that stops once its lead ideal covers A's; its basis must
    then be A's.  Single-term generators with no recorded series need no
    run: their basis is the minimal generators of their monomial ideal
    (`_monomial_basis`), held to the same check against A.
    """
    gb = _basis(source, order)
    gb._records          # finishes a run's records
    return gb


def _basis(source, order: MonomialOrder | None = None) -> GroebnerBasis:
    """`buchberger`'s basis, left unfinished (see GroebnerBasis) when a run
    makes it and no check against a containing ideal reads it."""
    gens, ring = _as_gens(source)
    order = order or ring.order
    lay = _layout(order, ring.arity)
    derived = source._derived if isinstance(source, Ideal) else {}
    outer = derived["within"]._gb_cache.get(order) if "within" in derived else None
    if "hilbert" not in derived and all(len(g.coeffs) <= 1 for g in gens):
        pack = lay.pack
        gb = _monomial_basis(ring, order, [pack(m) for g in gens for m in g.coeffs])
        _check_within(gb, outer, lay)
        return gb
    cover = _cover(outer, lay)
    recs, _ = _run_buchberger(gens, ring, order, track=False,
                              hilbert=derived.get("hilbert"), cover=cover)
    gb = GroebnerBasis(ring, order, None, _run=recs)
    if cover == [] and gb.elements != outer.elements:
        raise AssertionError(_NOT_WITHIN)
    return gb


_NOT_WITHIN = ("an ideal recorded as within another has the other's lead ideal but"
               " not its basis")


def _cover(outer: GroebnerBasis | None, lay: _Layout) -> list | None:
    """The exponent words of the leading monomials of `outer`, the cached
    basis of an ideal known to contain the one at hand; None when there is
    none, or it is the zero ideal's."""
    if outer is None or not outer._records:
        return None
    return [rec.lm & lay.emask for rec in outer._records]


def _check_within(gb: GroebnerBasis, outer: GroebnerBasis | None, lay: _Layout) -> None:
    """The check on a basis `gb` made with no run, of an ideal recorded as
    within one whose basis under the same order is `outer` (None when it is
    not cached): AssertionError when gb's leading monomials cover outer's
    but gb is not outer."""
    cover = _cover(outer, lay)
    if cover is None:
        return
    for rec in gb._records:
        _uncover(cover, rec.lm & lay.emask, lay.eguard)
    if not cover and gb.elements != outer.elements:
        raise AssertionError(_NOT_WITHIN)


def _lead_basis(I: Ideal) -> GroebnerBasis:
    """I's basis under its ring's order for a reader of its leading monomials
    only: the cached one, or else `_basis`'s, cached unfinished, which a later
    `groebner` returns and its first full read finishes."""
    order = I.ring.order
    gb = I._gb_cache.get(order)
    if gb is None:
        gb = _basis(I, order)
        I._gb_cache[order] = gb
    return gb


def _eliminated(I: Ideal, gone: Sequence[int], target: RingContext) -> Ideal:
    """I ∩ k[variables not in `gone`] in `target`, which lists those
    variables in their order in `I.ring`, given by its reduced basis under
    the order `I.ring.elim_order_vars(gone)` restricts to them (`_free_ideal`).

    One run under that order, Hilbert-driven when I records its series; only
    the kept records, an ascending prefix (`_free_prefix`), are tail-reduced
    and unpacked: their tails are free of `gone` too, so no other record
    acts on them.
    """
    ring = I.ring
    order = ring.elim_order_vars(gone)
    lay = _layout(order, ring.arity)
    recs, _ = _run_buchberger(I.gens, ring, order, track=False,
                              hilbert=I._derived.get("hilbert"))
    kept = _reduce_records(_free_prefix(recs, lay, gone), lay, _budget())
    return _free_ideal(kept, lay, order, [i for i in range(ring.arity) if i not in gone],
                       target)


def _free_ideal(kept, lay: _Layout, order: MonomialOrder, keep: Sequence[int],
                target: RingContext) -> Ideal:
    """The ideal in `target`, whose variables are those at `keep`, given by
    `kept`: the reduced records, descending, of a basis under `order` that are
    free of the other variables, which `order` puts first.  By the
    elimination theorem they are its reduced basis under `order` restricted
    to `keep`, so they enter its Groebner cache when that is `target`'s own
    order (grevlex targets; not lex ones)."""
    out = Ideal(target, [_from_engine(target, lay, rec.items(), Fraction(1, rec.lc), keep)
                         for rec in kept])
    if order.restrict(keep) == target.order:
        out._gb_cache[target.order] = GroebnerBasis(target, target.order, out.gens)
    return out


@lru_cache(maxsize=16)
def _move_plan(src: _Layout, dst: _Layout) -> tuple:
    """((mask, shift), ...) such that a monomial packed under `src` packs
    under `dst` as the sum of (word & mask) >> shift, when `dst`'s
    variables are the first of `src`'s, every row of `dst`'s order is one of
    `src`'s with a zero column at each other variable, and the monomial has
    no other variable (or has it set to 1).  Each exponent field stays
    where it is, and each row field moves down to its row's place in `dst`;
    the fields that move by one distance share one mask."""
    n, ns = len(dst.shifts), len(src.shifts)
    top, stop = n + len(dst.rows) - 1, ns + len(src.rows) - 1
    pad = (0,) * (ns - n)
    down = dict.fromkeys(range(n), 0)     # dst field -> fields it moves down
    for r, row in enumerate(dst.rows):
        down[top - r] = stop - src.rows.index(row + pad) - (top - r)
    masks: dict = {}
    for f, d in down.items():
        masks[d] = masks.get(d, 0) | _FIELD_MASK << FIELD_BITS * (f + d)
    return tuple((mask, FIELD_BITS * d) for d, mask in masks.items())


def _moved(recs, plan: tuple, lay: _Layout, iv: int) -> list:
    """The records `recs` moved to `lay` by `plan` (`_move_plan`), each
    divided by its content in the variable at `iv`, ascending by leading
    monomial.  That content is the exponent of the leading monomial, as the
    records are homogeneous in that variable's block, in grevlex with it
    last (see `_saturated`).  Every moved term is checked against the guard
    bits."""
    sv, xv, guard = lay.shifts[iv], lay.var[iv], lay.guard
    out = []
    for rec in recs:
        kx = ((rec.lm >> sv) & _FIELD_MASK) * xv
        terms = {sum((m & mask) >> s for mask, s in plan) - kx: c for m, c in rec.items()}
        # every row of `lay` is a row of the source order, so this bound holds
        # already; it is checked as at every other entry into a layout
        if any(m & guard for m in terms):
            raise _overflow()
        out.append(_Rec(terms, guard))
    out.sort(key=attrgetter("lm"))
    return out


def _saturated(H: Ideal, ring: RingContext, first: Sequence[int]) -> tuple:
    """(finish, contraction) for I : v^infinity, v the variable at first[-1]
    and `first` its block, where H is homogeneous and is I, or I homogenized
    by a last variable h (`ring` is H's without h): `finish()` returns the
    reduced basis of I : v^infinity under `ring.elim_order_vars(first)`, and
    the contraction is the ideal of its elements free of the block
    (`_free_ideal`).

    One run under `H.ring.elim_order_vars(first)`, Hilbert-driven when H
    records its series.  Its records move to `ring`'s layout on their packed
    words (`_move_plan`, `_moved`), which drops h's field and sets h = 1,
    and lose their v-content; they are homogeneous, so no two terms meet at
    h = 1 and each keeps its leading monomial (see
    `ideal_ops.saturate_by_variable`).  They are also homogeneous in v's
    block, in grevlex with v last, so v^d is the least monomial of block
    degree d: a record is free of the block once divided by its v-content
    exactly when the block part of its leading monomial is a power of v.
    Moved, those records lie below the others and only they act on one
    another, so they are moved and tail-reduced (`_reduce_records`) at once
    and give the contraction.  The other records stay as the run left them
    until `finish` moves them and tail-reduces them on top of the free ones,
    under its caller's budget; each call does so anew.
    """
    order_h = H.ring.elim_order_vars(first)
    recs, _ = _run_buchberger(H.gens, H.ring, order_h, track=False,
                              hilbert=H._derived.get("hilbert"))
    order = ring.elim_order_vars(first)
    lay = _layout(order, ring.arity)
    plan = _move_plan(_layout(order_h, H.ring.arity), lay)
    others = sum(_FIELD_MASK << lay.shifts[i] for i in first[:-1])
    free = _reduce_records(_moved([rec for rec in recs if not rec.lm & others],
                                  plan, lay, first[-1]), lay, _budget())
    rest = [rec for rec in recs if rec.lm & others]

    def finish() -> GroebnerBasis:
        moved = _moved(rest, plan, lay, first[-1])
        return GroebnerBasis(ring, order, None,
                             _records=tuple(_reduce_records(moved, lay, _budget(), free)))

    keep = [i for i in range(ring.arity) if i not in first]
    return finish, _free_ideal(free, lay, order, keep, ring.subring(keep))


def _free_prefix(recs, lay: _Layout, gone: Sequence[int]) -> list:
    """The records of `recs`, ascending by leading monomial, that are free of
    the variables `gone`, under an order whose first group is `gone`.

    The top field of a packed monomial is then its first order row, the sum
    of its exponents in `gone`.  A record is free of `gone` when its leading
    monomial is, since every other term is smaller, and so exactly when that
    field is 0; those records are a prefix, below the smallest word with a 1
    there.  With no `gone` the order is grevlex, whose first row is the total
    degree, and every record is kept.
    """
    if not gone:
        return list(recs)
    top = 1 << FIELD_BITS * (len(lay.shifts) + len(lay.rows) - 1)
    return recs[:bisect_left(recs, top, key=attrgetter("lm"))]


def _untracked(ring: RingContext, lay: _Layout, final) -> GroebnerBasis:
    """The basis under the ring's order whose records are untracked copies of
    the tracked records `final`, each stripped to content 1."""
    return GroebnerBasis(ring, ring.order, None, _records=tuple(
        _Rec(_strip(dict(rec.items()), None)[0], lay.guard) for rec in final))


def buchberger_tracked(source):
    """(GroebnerBasis, A) with A[k][j] satisfying  basis[k] == sum_j A[k][j]*gens[j].

    The basis is under the ring's order and carries untracked copies of the
    run's records.
    """
    ring, lay, _, final, scales = _tracked_run(source)
    A = [_rep_row(ring, lay, rec.rep, scales, Fraction(1, rec.lc)) for rec in final]
    return _untracked(ring, lay, final), A


def _rep_row(ring, lay: _Layout, rep: dict, scales, c) -> list:
    """c * rep as coefficients of the generators whose scales are `scales`.

    The engine tracks each generator g_j as its content-1 integer part
    g_j / scales[j], so entry j is c * rep[j] / scales[j].
    """
    return [_from_engine(ring, lay, rep[j].items(), c / scale) if j in rep
            else ring.zero for j, scale in enumerate(scales)]


def _primitive_scale(rep: dict, scales) -> Fraction:
    """c such that the row c * rep (see _rep_row) has content 1 over Q and its
    first nonzero entry a positive leading coefficient."""
    num, den = 0, 1
    for j, d in rep.items():
        cont = Fraction(int_content(d.values()), abs(scales[j]))
        num = gcd(num, cont.numerator)
        den = lcm(den, cont.denominator)
    j = min(rep)
    c = Fraction(den, num)
    return -c if (rep[j][max(rep[j])] < 0) != (scales[j] < 0) else c


def _tracked_run(source):
    """(ring, layout, budget, final records, scales) of one tracked run under
    the ring's order; the records are reduced and descending, as `division`
    sees them.  The run also gives an Ideal `source` its reduced basis under
    the ring's order, when its Groebner cache lacks one or holds it
    unfinished: untracked copies of the records, so `groebner` on it runs no
    Buchberger and finishes nothing."""
    gens, ring = _as_gens(source)
    lay = _layout(ring.order, ring.arity)
    budget = _budget()
    recs, scales = _run_buchberger(gens, ring, ring.order, track=True)
    final = _reduce_records(recs, lay, budget)
    if isinstance(source, Ideal):
        cached = source._gb_cache.get(ring.order)
        if cached is None or cached._run is not None:
            source._gb_cache[ring.order] = _untracked(ring, lay, final)
    return ring, lay, budget, final, scales


def syzygy_lifts(gens: Sequence[Polynomial] | Ideal) -> list:
    """Rows over `gens` that generate their first syzygy module.

    One tracked run gives a basis G = F*A of F = gens.  Generator i reduced to
    zero by G, its representation seeded as the unit row e_i, leaves a
    multiple of row i of B*A - Id (F = G*B by that reduction); each basis pair
    that the chain criterion keeps leaves its S-polynomial's syzygy pulled
    back along A (Schreyer 1980).  Zero rows are dropped; each row is scaled
    to content 1 with its first nonzero entry's leading coefficient positive.
    An Ideal's generators are read, and its cache gets G (`_tracked_run`).
    """
    ring, lay, budget, final, scales = _tracked_run(gens)
    guard, emask, eguard = lay.guard, lay.emask, lay.eguard
    lms = [rec.lm for rec in final]
    rows = []

    def lift(terms, rep, what):
        if _reduce_full(terms, final, lms, guard, budget, rep=rep)[0]:
            raise AssertionError(f"{what} did not reduce to zero against its basis")
        if rep:
            rows.append(_rep_row(ring, lay, rep, scales, _primitive_scale(rep, scales)))

    for i, g in enumerate(gens):
        lift(_to_engine(lay, g)[0], {i: {0: 1}}, "generator")

    # pair (k, l) is skipped when some lm_j divides lcm_kl and neither
    # lcm_kj nor lcm_jl equals it; pairs are taken in `combinations` order
    ex = [rec.lm & emask for rec in final]
    lcms = {}
    for k, l in combinations(range(len(final)), 2):
        lcms[k, l] = lcms[l, k] = _fmax(ex[k], ex[l], eguard)
    for k, l in combinations(range(len(final)), 2):
        lcm = lcms[k, l]
        if any(j != k and j != l and not ((lcm - e) & eguard)
               and lcms[k, j] != lcm and lcms[j, l] != lcm for j, e in enumerate(ex)):
            continue
        packed = lay.pack_exponents(lcm)
        if packed & guard:
            raise _overflow()
        lift(*_spoly(final[k], final[l], packed, guard), "S-polynomial")
    return rows


def member_lifts(targets: Sequence[Polynomial],
                 gens: Sequence[Polynomial] | Ideal) -> list:
    """For each target a, a row c with a == sum_j c[j] * gens[j], or None when
    a is not in the ideal of `gens`.

    One tracked run serves every target: a is reduced by the basis with an
    empty representation, which ends as minus the quotients pulled back
    along the basis's representation, times the reduction's multiplier.  An
    Ideal's generators are read, and its cache gets the basis (`_tracked_run`).
    """
    ring, lay, budget, final, scales = _tracked_run(gens)
    lms = [rec.lm for rec in final]
    rows = []
    for a in targets:
        if a.ring != ring:
            raise RingError("ring mismatch")
        terms, scale = _to_engine(lay, a)
        rep: dict = {}
        r, mult = _reduce_full(terms, final, lms, lay.guard, budget, rep=rep)
        rows.append(None if r else _rep_row(ring, lay, rep, scales, -scale / mult))
    return rows


def _as_gens(source):
    if isinstance(source, Ideal):
        return list(source.gens), source.ring
    gens = list(source)
    if not gens:
        raise RingError("cannot infer ring from an empty generator list")
    return gens, gens[0].ring


def groebner(I: Ideal, order: MonomialOrder | None = None) -> GroebnerBasis:
    """buchberger with a per-Ideal cache keyed by the order."""
    order = order or I.ring.order
    cached = I._gb_cache.get(order)
    if cached is None:
        cached = buchberger(I, order)
        I._gb_cache[order] = cached
    return cached


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of p on full division by G; linear in p, idempotent."""
    if p.ring != G.ring:
        raise RingError("ring mismatch")
    lay = _layout(G.order, G.ring.arity)
    ints, scale = _to_engine(lay, p)
    recs = G._records
    r, mult = _reduce_full(ints, recs, [rec.lm for rec in recs], lay.guard, _budget())
    return _from_engine(G.ring, lay, r.items(), scale / mult)


def division(p: Polynomial, G: GroebnerBasis):
    """(normal form, quotients aligned with G.elements):  p = sum q_i g_i + nf."""
    if p.ring != G.ring:
        raise RingError("ring mismatch")
    lay = _layout(G.order, G.ring.arity)
    ints, scale = _to_engine(lay, p)
    # record i represents itself, so p's representation ends as minus the
    # quotients; g_i == scales[i] * (record i as an integer polynomial)
    recs = [_Rec(dict(rec.items()), lay.guard, {i: {0: 1}})
            for i, rec in enumerate(G._records)]
    scales = [g.scale * g.coeffs[lay.unpack(rec.lm)] / rec.lc
              for g, rec in zip(G.elements, recs)]
    rep: dict = {}
    r, mult = _reduce_full(ints, recs, [rec.lm for rec in recs], lay.guard, _budget(),
                           rep=rep)
    return (_from_engine(G.ring, lay, r.items(), scale / mult),
            _rep_row(G.ring, lay, rep, scales, -scale / mult))


def ideal_member(p: Polynomial, source) -> bool:
    """p in the ideal, decided by a zero normal form."""
    if isinstance(source, GroebnerBasis):
        gb = source
    else:
        gb = groebner(source if isinstance(source, Ideal)
                      else Ideal(p.ring, list(source)))
    return normal_form(p, gb).is_zero


def rabinowitsch(I: Ideal, p: Polynomial) -> Ideal:
    """(I, 1 - t*p) on I's ring plus a fresh auxiliary variable t, the last."""
    ext, t = I.ring.with_aux("_t")
    return Ideal(ext, [g.transport(ext) for g in I.gens] + [ext.one - t * p.transport(ext)])


def radical_member(p: Polynomial, I: Ideal) -> bool:
    """Rabinowitsch test: 1 in (I, 1 - t*p) over a fresh auxiliary variable."""
    if p.ring != I.ring:
        raise RingError("ring mismatch")
    if p.is_zero:
        return ideal_member(p, I)
    return buchberger(rabinowitsch(I, p), GREVLEX).is_unit_ideal
