"""Presentations of the symmetric, Rees and embedded Aluffi algebras of a
pair J inside I, with the derived invariants: Valabrega-Valla torsion pieces,
the linear-type test, Artin-Rees numbers, standard-base verification,
relation type, analytic spread and algebra dimension.

Conventions.  For I = (b_1..b_n) in R the fiber ring is R[T_1..T_n]; the Rees
ideal is the kernel of T_i -> b_i*u computed by eliminating u (a
Hilbert-driven run for homogeneous b_i, see `_rees_kernel`); the symmetric
ideal is generated by the linear forms attached to the syzygies of the b_i;
with certificates a = sum c_j b_j for each generator a of J, the companion
form a~ = sum c_j T_j lets the three algebras live in one ring:

    sym   = (syzygy forms) + (J, J~)        -- Sym_{R/J}(I/J)
    rees  = kernel of T_i -> b_i u          -- Rees_R(I)
    aluffi = rees + (J, J~)                 -- the embedded Aluffi algebra

The Aluffi series.  For J = (f) with f, the b_i and the certificate
homogeneous, R[T]/aluffi is graded by the Rees weights (1 for each variable
of R, deg b_i + 1 for T_i), and with d = deg f

    HS(R[T]/aluffi) = (1 - t^(d+1)) HS(R[T]/rees) - t^d HS(R).

Proof: in B = R[T]/rees = R[Iu] the ideal (f, f~) is (f*u)B + fR, whose two
summands lie in u-degrees >= 1 and 0; R is a domain and f is in I, so
multiplying by f*u (of degree d + 1) is injective on B, and by f on R.
`aluffi_presentation` records this series on the Aluffi ideal, from the
leading monomials of the Rees ideal's cached basis (`_aluffi_series`), so
its basis is a Hilbert-driven run (see `groebner`), and `aluffi_dimension`
reads the algebra's dimension off the series with no run (`dimension`).

Caching.  The Rees ideal depends on I alone, so it lives on the Ideal object:
`rees_ideal` stores it in `I._derived["rees"]`, next to I's Groebner cache,
and every caller holding that object (the presentation, the linear-type test,
the relation type, the analytic spread) shares one elimination.  A PairInput
builds its `i_ideal` and `j_ideal` once, so each pair has one I object and one
J object.  A fresh Ideal with equal generators pays for its own kernel.
When `make_pair` solves the certificates, it hands that I object the reduced
basis the tracked run found.
What depends on J as well stays in `pair._cache`: the powers I^t for t >= 2
under ("power", t), each built from I^(t-1) when first read (I^1 is I
itself; see `_pair_power` for the powers of the maximal ideal m and of a
monomial I, which take no Buchberger run), the meets
J cap I^t under ("meet", t) (read by the torsion pieces, the Artin-Rees
number and the standard-base check; J cap I is J), the products J * I^(t-1)
for t >= 2 under ("lower", t) (read by the torsion pieces as the lower
filtration ideal, by the Artin-Rees number as (J cap I) * I^(t-1) for k = 1,
since J <= I, and by the standard-base check when every I-order is 1), the
relative Rees ideal under "relrees", the syzygy matrix under "syz" and its
fiber forms under "symforms".  Since the ideals are shared, so are their
Groebner caches: each basis is computed once per pair.
An ideal compared with J cap I^t (the lower filtration ideal, an Artin-Rees
product, a standard-base right-hand side) lies in it and is recorded as
within it, as the symmetric ideal is within the Rees ideal, so its Groebner
run stops once its lead ideal covers the larger ideal's (see `groebner`).
The products J * I^(t-1), (J cap I^k) * I^(t-k) and I^k * (w) of two ideals
whose reduced bases are monomial come from products of basis words, as the
powers do (`_word_product`, through `hilbert._combine_words`, which also
serves the meets), held to the same check against J cap I^t.  A meet
J cap I^t with I^t = m^d and J homogeneous is J's part in degrees >= d,
read off J's basis with no tag variable (`intersect`, through
`hilbert._meet_max_power`).  A product compared with a meet, J * I^(t-1)
or (J cap I^k) * I^(t-k), with I^(t-1) or I^(t-k) = m^d and the other
side generated in one degree s, is that side's part in degrees >= s + d,
read off its basis the same way and held to the same check (`_product`,
through `hilbert._max_power_product`).  A part is kept on the ideal it is
cut from (`hilbert._part`), so when J * I^(t-1) and J cap I^t are the same
part of J, ("lower", t) and ("meet", t) hold one Ideal, which records no
containment.  A degree whose meet and lower ideal have equal reduced bases
has a zero torsion piece, and `vv_pieces` looks for no witness there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import mul
from typing import Sequence

from .groebner import GroebnerBasis, groebner, member_lifts, normal_form, radical_member
from .hilbert import (
    HilbertSeries,
    _combine_words,
    _filled_power,
    _max_power_product,
    _may_fill,
    _shift_add,
    hilbert_numerator,
)
from .ideal_ops import (
    DimensionReport,
    dimension,
    eliminate_vars,
    ideal_contains,
    ideal_equal,
    ideal_power_step,
    ideal_product,
    intersect,
    minimal_homogeneous_generators,
)
from .rings import Ideal, Polynomial, RingContext, RingError
from .syzygy import PolyMatrix, apply_row, syzygies

DEFAULT_DEGREE_BOUND = 4


class CertificateError(ValueError):
    """A containment certificate does not reproduce its generator."""


def solve_certificates(js: Sequence[Polynomial],
                       i_gens: Sequence[Polynomial] | Ideal) -> list:
    """For each a in `js`, coefficients c with a = sum c_j * i_gens[j].

    One tracked basis of `i_gens` serves every element: each is reduced by it
    inside the engine with its representation tracked (`member_lifts`).  An
    Ideal's generators are read, and its cache gets the basis.
    """
    if not js:
        return []
    rows = member_lifts(js, i_gens)
    for a, row in zip(js, rows):
        if row is None:
            raise CertificateError(f"{a} is not in the ideal of the given generators")
    return rows


@dataclass(frozen=True)
class PairInput:
    """A pair J <= I with explicit containment certificates for J's generators.

    `i_ideal` and `j_ideal` are built once, with the pair, so the caches they
    carry are shared by every invariant of the pair.
    """

    ring: RingContext
    i_gens: tuple
    j_gens: tuple
    certificates: tuple      # one coefficient row per J generator
    fiber_ring: RingContext = field(compare=False)
    fiber_names: tuple = field(compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    i_ideal: Ideal = field(init=False, compare=False, repr=False)
    j_ideal: Ideal = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "i_ideal", Ideal(self.ring, self.i_gens))
        object.__setattr__(self, "j_ideal", Ideal(self.ring, self.j_gens))


def make_pair(ring: RingContext, i_gens: Sequence[Polynomial],
              j_gens: Sequence[Polynomial],
              certificates: Sequence[Sequence[Polynomial]] | None = None) -> PairInput:
    """Validate J <= I, solving for certificates when they are not supplied."""
    i_gens = tuple(i_gens)
    j_gens = tuple(j_gens)
    if not i_gens or all(g.is_zero for g in i_gens):
        raise RingError("I must be nonzero")
    if any(g.is_zero for g in i_gens):
        # `i_ideal` drops zeros, and its Rees ideal must live on fiber_ring
        raise RingError("the generators of I must be nonzero")
    i_ideal = Ideal(ring, i_gens)
    if certificates is None:
        # the tracked run leaves I's reduced basis in i_ideal's cache
        certificates = tuple(tuple(row) for row in solve_certificates(j_gens, i_ideal))
    else:
        certificates = tuple(tuple(row) for row in certificates)
    if len(certificates) != len(j_gens):
        raise CertificateError("one certificate row per J generator required")
    for a, row in zip(j_gens, certificates):
        if len(row) != len(i_gens):
            raise CertificateError("certificate arity mismatch")
        if apply_row(i_gens, row) != a:
            raise CertificateError(f"certificate does not reproduce {a}")
    fiber_ring, fiber_names = _fiber(ring, len(i_gens))
    pair = PairInput(ring, i_gens, j_gens, certificates, fiber_ring, fiber_names)
    pair.i_ideal._gb_cache.update(i_ideal._gb_cache)
    return pair


def _fiber(ring: RingContext, n: int) -> tuple:
    """(R[T_1..T_n], the names T_i): the fiber ring of n generators."""
    names = tuple(_fiber_names(ring, n))
    return ring.extend(names, "fiber"), names


def _fiber_names(ring: RingContext, n: int) -> list:
    taken = set(ring.names)
    out = []
    stem = "T"
    while any(f"{stem}{i}" in taken for i in range(1, n + 1)):
        stem = stem + "_"
    for i in range(1, n + 1):
        out.append(f"{stem}{i}")
    return out


# ---------------------------------------------------------------------------
# the three presentation ideals


def _rees_kernel(ring: RingContext, i_gens: Sequence[Polynomial], J: Ideal) -> Ideal:
    """(J, T_i - b_i*u) ∩ R[T], by eliminating u.

    When every b_i and every generator of J is homogeneous, the input is
    homogeneous for deg T_i = deg b_i + 1 and every other variable of degree
    1, and R[T, u]/(J, T_i - b_i*u) is R[u]/J (T_i -> b_i*u).  Its Hilbert
    numerator is then that of R[T, u]/(in(J) + (T_1..T_n)), which is
    N(in J) * prod_i (1 - t^(deg b_i + 1)), with N(in J) = 1 for J = (); the
    input ideal records it, so the elimination is a Hilbert-driven run.
    """
    ext, names = _fiber(ring, len(i_gens))
    ext2, u = ext.with_aux("_u")
    gens = [a.transport(ext2) for a in J.gens]
    gens += [ext2.var(t) - b.transport(ext2) * u for t, b in zip(names, i_gens)]
    kernel = Ideal(ext2, gens)
    degs = [b.is_homogeneous() for b in i_gens]
    if all(d.homogeneous for d in degs) and all(a.is_homogeneous().homogeneous
                                                for a in J.gens):
        n = len(i_gens)
        tail = (0,) * (n + 1)
        lead = [m + tail for m in groebner(J).leading_monomials()] if J.gens else []
        lead += [(0,) * ring.arity + tuple(int(i == j) for j in range(n)) + (0,)
                 for i in range(n)]
        weights = (1,) * ring.arity + tuple(d.degree + 1 for d in degs) + (1,)
        numerator = hilbert_numerator(lead, weights)
        kernel._derived["hilbert"] = HilbertSeries(weights, numerator)
    return eliminate_vars(kernel, [ext2.names[-1]]).transport(ext)


def rees_ideal(source) -> Ideal:
    """Kernel of R[T] -> R[I*u], T_i -> b_i*u, by eliminating u.

    `source` is an Ideal I or a PairInput, whose `i_ideal` is read.  The
    kernel is computed once per Ideal object and kept in `I._derived["rees"]`.
    """
    I = source.i_ideal if isinstance(source, PairInput) else source
    if I.is_zero:
        raise RingError("I must be nonzero")
    if "rees" not in I._derived:
        I._derived["rees"] = _rees_kernel(I.ring, I.gens, Ideal(I.ring, ()))
    return I._derived["rees"]


def pair_syzygies(pair: PairInput) -> PolyMatrix:
    """The first syzygy matrix of the b_i, computed once per pair; its engine
    run also leaves I's reduced basis in `pair.i_ideal`'s Groebner cache."""
    if "syz" not in pair._cache:
        pair._cache["syz"] = syzygies(pair.i_ideal)
    return pair._cache["syz"]


def sym_forms(pair: PairInput) -> list:
    """Linear fiber forms sum_i phi[i][c] * T_i from the syzygies of the b_i."""
    if "symforms" not in pair._cache:
        forms = _fiber_forms(pair, pair_syzygies(pair).columns())
        pair._cache["symforms"] = [f for f in forms if not f.is_zero]
    return pair._cache["symforms"]


def sym_ideal(pair: PairInput) -> Ideal:
    """Presentation of Sym_R(I) on R[T]: the degree-one part of the Rees ideal."""
    return Ideal(pair.fiber_ring, sym_forms(pair))


def tilde_gens(pair: PairInput) -> list:
    """a~ = sum_j c_j T_j for each generator a of J."""
    return _fiber_forms(pair, pair.certificates)


def _fiber_forms(pair: PairInput, rows) -> list:
    """sum_i row[i] * T_i on R[T] for each row of polynomials on R."""
    ext = pair.fiber_ring
    tvars = [ext.var(t) for t in pair.fiber_names]
    return [apply_row([c.transport(ext) for c in row], tvars) for row in rows]


@dataclass(frozen=True)
class AluffiPresentation:
    """sym/rees/aluffi ideals on R[T] with the generator-to-fiber dictionary."""

    pair: PairInput
    ring: RingContext          # R[T]
    fiber_names: tuple
    sym_ideal: Ideal           # syzygy forms + (J, J~)
    rees_ideal: Ideal
    aluffi_ideal: Ideal        # rees + (J, J~)
    tilde_j: tuple


def aluffi_presentation(pair: PairInput) -> AluffiPresentation:
    ext = pair.fiber_ring
    rees = rees_ideal(pair)
    forms = sym_forms(pair)
    tildes = tilde_gens(pair)
    jlift = [a.transport(ext) for a in pair.j_gens]
    sym = Ideal(ext, forms + jlift + tildes)
    aluffi = Ideal(ext, list(rees.gens) + jlift + tildes)
    series = _aluffi_series(pair, rees, aluffi)
    if series is not None:
        aluffi._derived["hilbert"] = series
    return AluffiPresentation(pair, ext, pair.fiber_names, sym, rees, aluffi,
                              tuple(tildes))


def _aluffi_series(pair: PairInput, rees: Ideal, aluffi: Ideal) -> HilbertSeries | None:
    """The Hilbert series of R[T]/aluffi for J = (f), from the Rees ideal K.

    Recorded only when J has one nonzero generator f, every b_i is
    homogeneous, and every generator of `aluffi` is homogeneous for the Rees
    weights (1 for each variable of R, deg b_i + 1 for T_i), and when K's
    basis under R[T]'s order is cached, so no run is made here.  Then (see
    the module docstring), with d = deg f,

        N = (1 - t^(d+1)) * N(in K) - t^d * prod_i (1 - t^(deg b_i + 1)).
    """
    if len(pair.j_ideal.gens) != 1:
        return None
    degs = [b.is_homogeneous() for b in pair.i_gens]
    if not all(d.homogeneous for d in degs):
        return None
    weights = (1,) * pair.ring.arity + tuple(d.degree + 1 for d in degs)
    if not all(len({sum(map(mul, m, weights)) for m in g.coeffs}) == 1
               for g in aluffi.gens):
        return None
    kernel = rees._gb_cache.get(pair.fiber_ring.order)
    if kernel is None:
        return None
    d = pair.j_ideal.gens[0].degree()
    rees_num = hilbert_numerator(kernel.leading_monomials(), weights)
    num: dict = {}
    _shift_add(num, rees_num, 1, 0)
    _shift_add(num, rees_num, -1, d + 1)
    fiber = {0: 1}
    for w in weights[pair.ring.arity:]:
        _shift_add(fiber, dict(fiber), -1, w)
    _shift_add(num, fiber, -1, d)
    return HilbertSeries(weights, num)


def relative_rees_ideal(pair: PairInput) -> Ideal:
    """Presentation on R[T] of the Rees algebra of (I/J) over R/J."""
    if "relrees" not in pair._cache:
        pair._cache["relrees"] = _rees_kernel(pair.ring, pair.i_gens, pair.j_ideal)
    return pair._cache["relrees"]


def is_linear_type(pair: PairInput) -> bool:
    """The syzygy forms generate the whole Rees ideal.

    They lie in it, so the symmetric ideal is recorded as within the Rees
    ideal, whose basis the elimination leaves cached (`groebner.buchberger`).
    """
    sym = sym_ideal(pair)
    rees = rees_ideal(pair)
    sym._derived["within"] = rees
    return ideal_equal(sym, rees)


# ---------------------------------------------------------------------------
# torsion (Valabrega-Valla) pieces


@dataclass(frozen=True)
class TorsionPiece:
    degree: int
    nonzero: bool
    witnesses: tuple             # generators of J cap I^t outside J*I^(t-1)
    internal_dims: tuple         # ((internal degree, dim), ...), may be empty
    annihilator_exponents: tuple  # per witness: least k <= bound with I^k*w inside J*I^(t-1)


@dataclass(frozen=True)
class TorsionReport:
    bound: int
    pieces: tuple                # TorsionPiece per degree 2..bound

    @property
    def all_zero(self) -> bool:
        return all(not p.nonzero for p in self.pieces)

    def piece(self, t: int) -> TorsionPiece:
        for p in self.pieces:
            if p.degree == t:
                return p
        raise KeyError(t)


def _pair_power(pair: PairInput, t: int) -> Ideal:
    """I^t, built once per pair and degree under `("power", t)`; I^1 is
    `pair.i_ideal` itself, which has `ideal_power(I, 1)`'s generators.

    When I is generated in one degree e and I^(t-1) is known to be
    m^((t-1)e), m the ideal of all variables, I^t is m^(te)
    (`hilbert._filled_power`).  Else, when I's reduced basis is monomial, I^t
    is the monomial ideal of the products of I^(t-1)'s basis with I's
    (`_word_product`).  Either way its generators are its reduced basis,
    which its Groebner cache holds, and no Buchberger run is made.
    Otherwise each level is formed from the one below it by
    `ideal_power_step`, so the generators and their term order are those of
    `ideal_power(I, t)`; when I is m-primary and the level has as many
    generators as the monomials of its degree (`hilbert._may_fill`), its
    basis is taken, so the next level can tell whether it is a power of m.
    """
    I = pair.i_ideal
    if t == 1:
        return I
    key = ("power", t)
    if key not in pair._cache:
        if t == 0:
            power = Ideal(I.ring, [I.ring.one])
        else:
            prev = _pair_power(pair, t - 1)
            groebner(I)          # I's reduced basis decides the route
            power = _filled_power(I, prev)
            if power is None:
                power = _word_product(prev, I)
            if power is None:
                power = ideal_power_step(I, prev, t)
                if _may_fill(I, power):
                    groebner(power)     # the next level reads it
        pair._cache[key] = power
    return pair._cache[key]


def _word_product(A: Ideal, B: Ideal, within: Ideal | None = None) -> Ideal | None:
    """A * B from products of basis words (`hilbert._combine_words`) when
    both reduced bases are monomial and known, else None; `within`, an ideal
    known to contain A * B, is held to the check a run would make."""
    return _combine_words(A, B, A.ring.order, meet=False, within=within)


def _product(A: Ideal, B: Ideal, within: Ideal | None = None) -> Ideal:
    """A * B, recorded as within `within` when given: from basis words when
    both bases are monomial (`_word_product`), else `ideal_product`'s
    generators.  A product compared with a meet (`within` given) whose one
    side is m^d and other side H is generated in one degree s is H's part in
    degrees >= s + d instead (`hilbert._max_power_product`), read off H's
    basis and held to the same check; that part may be shared with a meet,
    and holds its basis already, so it gets no record.
    """
    product = _word_product(A, B, within)
    if product is None and within is not None:
        product = _max_power_product(A, B, within)
        if product is not None:
            return product
    if product is None:
        product = ideal_product(A, B)
    if within is not None:
        product._derived["within"] = within
    return product


def _pair_meet(pair: PairInput, t: int) -> Ideal:
    """J cap I^t, computed once per pair and degree under `("meet", t)`.

    `vv_pieces`, `artin_rees_number` and `standard_base_check` share these
    ideals and so their Groebner caches too.  J cap I is J itself, since
    `make_pair` checked J <= I by certificate.
    """
    if ("meet", t) not in pair._cache:
        pair._cache[("meet", t)] = (pair.j_ideal if t == 1 else
                                    intersect(pair.j_ideal, _pair_power(pair, t)))
    return pair._cache[("meet", t)]


def _pair_lower(pair: PairInput, t: int) -> Ideal:
    """J * I^(t-1), built once per pair and degree under `("lower", t)`.

    Since J <= I it lies in J cap I^t, and is recorded as within that meet
    (`groebner.buchberger`), which is built first if it is not yet.  When
    I^(t-1) is m^d and J is generated in one degree s, it is J's part in
    degrees >= s + d (`_product`), the same Ideal as the meet when that is
    J's part in the same degrees.  J * I^0 is J itself, so it shares J's
    Groebner cache and needs no record.
    """
    if t == 1:
        return pair.j_ideal
    if ("lower", t) not in pair._cache:
        pair._cache[("lower", t)] = _product(pair.j_ideal, _pair_power(pair, t - 1),
                                             _pair_meet(pair, t))
    return pair._cache[("lower", t)]


def _graded_dims(gb: GroebnerBasis, cap: int) -> list:
    """[dim_Q K_d for 0 <= d <= cap] for a homogeneous ideal K with reduced basis `gb`.

    K and in(K) have the same Hilbert function under any monomial order
    (Macaulay), so each entry counts the degree-d monomials of in(K): the
    union of lm * (monomials of degree d - deg lm) over the leading monomials,
    which are read once.
    """
    n = gb.ring.arity
    lms = gb.leading_monomials()
    dims = []
    for d in range(cap + 1):
        found = set()
        for lm in lms:
            e = d - sum(lm)
            if e < 0:
                continue
            for combo in combinations_with_replacement(range(n), e):
                m = list(lm)
                for i in combo:
                    m[i] += 1
                found.add(tuple(m))
        dims.append(len(found))
    return dims


def vv_pieces(pair: PairInput, bound: int = DEFAULT_DEGREE_BOUND) -> TorsionReport:
    """The pieces (J cap I^t)/(J * I^(t-1)) for 2 <= t <= bound.

    When I and J are homogeneous, `internal_dims` lists the nonzero
    dim (J cap I^t)_d - dim (J * I^(t-1))_d for 0 <= d <= the piece's cap,
    the larger of 2 * (largest degree of a generator of I) and the largest
    degree of the piece's witnesses, so a nonzero piece lists the degrees
    of its witnesses.  Each is read off the leading monomials of the two
    reduced bases.  When those bases are equal (read only for homogeneous
    I and J, which read them anyway), the two ideals are equal and the
    piece is 0: no witness, dimension or annihilator is computed.
    """
    if bound < 2:
        raise RingError("torsion bound must be at least 2")
    I, J = pair.i_ideal, pair.j_ideal
    homog = all(g.is_homogeneous().homogeneous for g in list(I.gens) + list(J.gens))
    internal_cap = 2 * max(g.degree() for g in I.gens) if homog else None
    pieces = []
    for t in range(2, bound + 1):
        meet = _pair_meet(pair, t)
        lower = _pair_lower(pair, t)
        if homog and ideal_equal(meet, lower):
            # no witness, and every dimension difference is 0
            pieces.append(TorsionPiece(t, False, (), (), ()))
            continue
        gb_lower = groebner(lower)
        witnesses = tuple(g for g in meet.gens
                          if not normal_form(g, gb_lower).is_zero)
        dims = ()
        if homog:
            cap = max([internal_cap] + [w.degree() for w in witnesses])
            dims = tuple((d, a - b) for d, (a, b) in enumerate(zip(
                _graded_dims(groebner(meet), cap),
                _graded_dims(gb_lower, cap))) if a != b)
        annos = []
        for w in witnesses:
            found = None
            for k in range(1, bound + 1):
                wk = _product(_pair_power(pair, k), Ideal(pair.ring, [w]))
                if ideal_contains(lower, wk):
                    found = k
                    break
            annos.append(found)
        pieces.append(TorsionPiece(t, bool(witnesses), witnesses, dims,
                                   tuple(annos)))
    return TorsionReport(bound, tuple(pieces))


# ---------------------------------------------------------------------------
# Artin-Rees number and standard bases


def artin_rees_number(pair: PairInput, bound: int = DEFAULT_DEGREE_BOUND) -> int | None:
    """Least k <= bound with J cap I^t = (J cap I^k) I^(t-k) for k <= t <= bound.

    Each right-hand side lies in J cap I^t and is recorded as within it, so
    its basis run stops once its lead ideal covers the meet's
    (`groebner.buchberger`).
    """
    if bound < 1:
        raise RingError("bound must be at least 1")
    # k >= 1 and t >= k, so J cap I^0 is never read
    meets = {t: _pair_meet(pair, t) for t in range(1, bound + 1)}
    for k in range(1, bound + 1):
        ok = True
        for t in range(k, bound + 1):
            if t == k:              # I^0 = (1)
                rhs = meets[k]
            elif k == 1:            # J <= I, so J cap I = J
                rhs = _pair_lower(pair, t)
            else:
                rhs = _product(meets[k], _pair_power(pair, t - k), meets[t])
            if not ideal_equal(meets[t], rhs):
                ok = False
                break
        if ok:
            return k
    return None


@dataclass(frozen=True)
class StandardBaseReport:
    orders: tuple                # nu_i per J generator; bound+1 means ">= bound+1"
    per_degree: tuple            # (t, equality holds) for 1 <= t <= bound
    passed: bool


def standard_base_check(pair: PairInput,
                        bound: int = DEFAULT_DEGREE_BOUND) -> StandardBaseReport:
    """Test J cap I^t = sum_i a_i I^(t - nu_i) with nu_i the I-order of a_i.

    Each a_i lies in J and in I^nu_i, so the right-hand side lies in
    J cap I^t and is recorded as within it (`groebner.buchberger`).
    """
    if bound < 1:
        raise RingError("bound must be at least 1")
    orders = []
    for a in pair.j_gens:
        nu = 0
        for t in range(1, bound + 2):
            # the power's _gb_cache keeps each basis for the next generator
            gb = groebner(_pair_power(pair, t))
            if normal_form(a, gb).is_zero:
                nu = t
            else:
                break
        orders.append(nu)
    rows = []
    passed = True
    for t in range(1, bound + 1):
        meet = _pair_meet(pair, t)
        if all(nu == 1 for nu in orders):
            # the same generator list as J * I^(t-1)
            rhs = _pair_lower(pair, t)
        else:
            rhs = Ideal(pair.ring, [a * g for a, nu in zip(pair.j_gens, orders)
                                    for g in _pair_power(pair, max(t - nu, 0)).gens])
            rhs._derived["within"] = meet
        eq = ideal_equal(meet, rhs)
        rows.append((t, eq))
        passed = passed and eq
    return StandardBaseReport(tuple(orders), tuple(rows), passed)


# ---------------------------------------------------------------------------
# relation type, analytic spread, dimension


def relation_type(source, bound: int = 10) -> int | None:
    """Largest fiber degree among minimal homogeneous Rees-ideal generators.

    `source` is an Ideal or a PairInput, read as in `rees_ideal`; None when
    it exceeds `bound`, which must be at least 1.
    """
    if bound < 1:
        raise RingError("bound must be at least 1")
    rees = rees_ideal(source)
    if rees.is_zero:
        return 0
    mingens = minimal_homogeneous_generators(rees, "fiber")
    rt = max(d for _, d in mingens)
    return rt if rt <= bound else None


def special_fiber(I: Ideal) -> Ideal:
    """The special fiber ideal (K + (x)) ∩ k[T] of I's Rees ideal K, in k[T].

    Read by substitution, with no elimination: f in (K + (x)) ∩ k[T] equals
    f|x=0, which lies in K|x=0; and g|x=0 = g - (g - g|x=0) lies in K + (x).
    So the ideal is K|x=0, generated by the images of K's generators with the
    base variables set to 0.  K is the Ideal's cached `rees_ideal`.
    """
    rees = rees_ideal(I)
    n = I.ring.arity
    fiber = rees.ring.subring(range(n, rees.ring.arity))
    return Ideal(fiber, [Polynomial.from_ints(
        fiber, {m[n:]: c for m, c in g.coeffs.items() if not any(m[:n])},
        g.scale) for g in rees.gens])


def analytic_spread(I: Ideal) -> int:
    """dim of the special fiber Rees(I)/(variables)Rees(I).

    That ring is k[T]/F with F = (K + (x)) ∩ k[T] = K|x=0 for the Rees ideal
    K (see `special_fiber`), so a call on an Ideal whose Rees ideal is cached
    runs no elimination.
    """
    for g in I.gens:
        if g.constant_term() != 0:
            raise RingError("analytic spread needs I inside the irrelevant ideal")
    return dimension(special_fiber(I)).dim


def aluffi_dimension(pres: AluffiPresentation) -> DimensionReport:
    return dimension(pres.aluffi_ideal)


# ---------------------------------------------------------------------------
# candidate component verification


@dataclass(frozen=True)
class ComponentRow:
    candidate: Ideal
    contains_presentation: bool
    dim: DimensionReport


@dataclass(frozen=True)
class ComponentReport:
    rows: tuple
    radical_forward: bool    # every presentation generator in rad(cap candidates)
    radical_backward: bool   # every generator of cap candidates in rad(presentation)
    covers: bool             # both radical checks passed

    @property
    def all_contain(self) -> bool:
        return all(r.contains_presentation for r in self.rows)


def verify_component_list(pres: AluffiPresentation,
                          candidates: Sequence[Ideal]) -> ComponentReport:
    """Containment and dimension checks for a claimed minimal-prime list.

    Completeness of the list is only asserted when the radical comparison of
    the intersection against the presentation ideal passes in both directions.
    """
    rows = []
    for P in candidates:
        contains = ideal_contains(P, pres.aluffi_ideal)
        rows.append(ComponentRow(P, contains, dimension(P)))
    meet = None
    for P in candidates:
        meet = P if meet is None else intersect(meet, P)
    if meet is None:
        return ComponentReport((), False, False, False)
    forward = all(radical_member(g, meet) for g in pres.aluffi_ideal.gens)
    backward = all(radical_member(g, pres.aluffi_ideal) for g in meet.gens)
    return ComponentReport(tuple(rows), forward, backward, forward and backward)
