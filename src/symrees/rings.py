"""Exact multivariate polynomial arithmetic over Q with block-structured rings.

Variables live in named blocks ("geom", "param", "fiber", "aux", ...) so that
the same machinery serves plain polynomial rings k[x,y,z], parameter rings
k[u][x,y,z] and fiber extensions R[T1..Tn].  Monomials are exponent tuples.
A polynomial is one Fraction scale times a sparse exponent->int map of content
1 whose coefficient at the lexicographically largest exponent is positive (the
Buchberger engine's coefficient form, so it crosses into the engine without
conversion), and everything is immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .budget import _budget

Monom = tuple  # exponent tuple, length == ring arity
Coeff = Union[int, Fraction]


class RingError(ValueError):
    """Raised on ring mismatches, unknown variables and malformed contexts."""


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-order on monomials, defined by its rows alone.

    kind is one of "lex", "grevlex", "block".  A block order carries index
    groups compared left to right, each ordered by grevlex on its indices in
    the order they are listed; a block order whose first groups cover a
    variable block is an elimination order for that block.  Every term order
    is given by such rows (Robbiano, EUROCAL 1985): `rows` is the one
    definition of each kind, and `key_func` and the engine's packed
    monomials are derived from it.
    """

    kind: str
    groups: tuple = ()       # block: tuple of index tuples

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise RingError(f"unknown order kind {self.kind!r}")
        seen = [i for g in self.groups for i in g]
        if len(seen) != len(set(seen)):
            raise RingError("block order groups overlap")

    def key_func(self, arity: int) -> Callable[[Monom], int]:
        """Return a key function: larger key == larger monomial."""
        return _order_key(self, arity)

    def rows(self, arity: int) -> tuple:
        """The order as 0/1 linear forms, compared left to right.

        m < m' exactly when the row values of m come lexicographically before
        those of m'.  A group g_1..g_k gives the grevlex rows, the prefix sums
        e_g1+..+e_gk, e_g1+..+e_g(k-1), .., e_g1, and the groups' rows are
        concatenated.  lex is one group per variable (unit rows), grevlex one
        group of all variables.
        """
        groups = {"lex": tuple((i,) for i in range(arity)),
                  "grevlex": (tuple(range(arity)),)}.get(self.kind, self.groups)
        if sorted(i for g in groups for i in g) != list(range(arity)):
            raise RingError("block order does not cover the ring")
        return tuple(tuple(int(i in grp[:k]) for i in range(arity))
                     for grp in groups for k in range(len(grp), 0, -1))

    def restrict(self, keep: Sequence[int]) -> "MonomialOrder":
        """The induced order on the subring spanned by `keep` (old indices)."""
        if self.kind != "block":
            return self
        pos = {old: new for new, old in enumerate(keep)}
        return block_order(*(tuple(pos[i] for i in grp if i in pos)
                             for grp in self.groups))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
ORDERS = {"grevlex": GREVLEX, "lex": LEX}   # the orders an input may name

KEY_BITS = 64
KEY_MAX = (1 << KEY_BITS) - 1   # largest row value an order key may hold


@lru_cache(maxsize=64)
def _order_key(order: MonomialOrder, arity: int) -> Callable[[Monom], int]:
    """The row values of a monomial packed into one int, KEY_BITS per row.

    Rows are non-negative, so the packed ints compare as the row vectors do
    as long as no row value exceeds KEY_MAX; a larger one raises RingError.
    Each row entry is 0 or 1, so no row value exceeds the total degree.
    """
    rows = order.rows(arity)
    cols = tuple(sum(row[i] << (KEY_BITS * r) for r, row in enumerate(reversed(rows)))
                 for i in range(arity))

    def key(m):
        if sum(m) > KEY_MAX and any(sum(map(mul, row, m)) > KEY_MAX for row in rows):
            raise RingError(f"monomial exceeds the order key's bound: a row value"
                            f" (such as the total degree) is above {KEY_MAX}")
        return sum(map(mul, m, cols))

    return key


def block_order(*groups: tuple) -> MonomialOrder:
    """The block order on index groups, each in grevlex as listed.

    Empty groups are dropped, and one group in ascending order is GREVLEX.
    """
    groups = tuple(tuple(g) for g in groups if g)
    flat = tuple(i for g in groups for i in g)
    if len(groups) <= 1 and flat == tuple(range(len(flat))):
        return GREVLEX
    return MonomialOrder("block", groups=groups)


# ---------------------------------------------------------------------------
# ring contexts


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_name(name: str):
    if not name or name[0].isdigit() or not set(name) <= _IDENT_OK:
        raise RingError(f"bad variable name {name!r}")


@dataclass(frozen=True)
class RingContext:
    """An ordered list of named variables partitioned into named blocks."""

    names: tuple
    blocks: tuple            # tuple of (block_name, tuple_of_indices)
    order: MonomialOrder

    def __post_init__(self):
        for n in self.names:
            _check_name(n)
        if len(set(self.names)) != len(self.names):
            raise RingError("duplicate variable names")
        covered = sorted(i for _, idxs in self.blocks for i in idxs)
        if covered != list(range(len(self.names))):
            raise RingError("blocks must partition the variables")
        if len(set(b for b, _ in self.blocks)) != len(self.blocks):
            raise RingError("duplicate block names")
        self.order.key_func(len(self.names))  # validates arity fit

    # -- introspection ------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r}") from None

    def block_indices(self, block: str) -> tuple:
        for b, idxs in self.blocks:
            if b == block:
                return idxs
        raise RingError(f"unknown block {block!r}")

    def has_block(self, block: str) -> bool:
        return any(b == block for b, _ in self.blocks)

    # -- element constructors -------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return _make(self, {}, _ONE)

    @property
    def one(self) -> "Polynomial":
        return _make(self, {(0,) * self.arity: 1}, _ONE)

    def constant(self, c: Coeff) -> "Polynomial":
        return self.monomial((0,) * self.arity, c)

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        m = tuple(1 if j == i else 0 for j in range(self.arity))
        return _make(self, {m: 1}, _ONE)

    def gens(self) -> list:
        return [self.var(n) for n in self.names]

    def monomial(self, exps: Sequence[int], coeff: Coeff = 1) -> "Polynomial":
        m = tuple(exps)
        if len(m) != self.arity or any(e < 0 for e in m):
            raise RingError("bad exponent vector")
        c = Fraction(coeff)
        return _make(self, {m: 1}, c) if c else self.zero

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    # -- derived rings --------------------------------------------------------

    def extend(self, new_names: Sequence[str], block: str) -> "RingContext":
        """Append fresh variables as a new (or existing) trailing block."""
        new_names = tuple(new_names)
        for n in new_names:
            if n in self.names:
                raise RingError(f"variable {n!r} already present")
        names = self.names + new_names
        added = tuple(range(self.arity, self.arity + len(new_names)))
        blocks = list(self.blocks)
        for i, (b, idxs) in enumerate(blocks):
            if b == block:
                blocks[i] = (b, idxs + added)
                break
        else:
            blocks.append((block, added))
        return RingContext(names, tuple(blocks), GREVLEX)

    def subring(self, keep: Sequence[int]) -> "RingContext":
        """Subring on the variables at `keep` (old indices, in order)."""
        keep = list(keep)
        names = tuple(self.names[i] for i in keep)
        pos = {old: new for new, old in enumerate(keep)}
        blocks = []
        for b, idxs in self.blocks:
            sub = tuple(pos[i] for i in idxs if i in pos)
            if sub:
                blocks.append((b, sub))
        return RingContext(names, tuple(blocks), self.order.restrict(keep))

    def drop_block(self, block: str) -> "RingContext":
        gone = set(self.block_indices(block))
        return self.subring([i for i in range(self.arity) if i not in gone])

    def with_aux(self, stem: str) -> tuple:
        """(ring plus one fresh variable in the trailing "aux" block, that variable).

        The variable is named `stem`, or `stem0`, `stem1`, ... if that is taken.
        """
        name, k = stem, 0
        while name in self.names:
            name, k = f"{stem}{k}", k + 1
        ext = self.extend([name], "aux")
        return ext, ext.var(name)

    def elim_order_vars(self, indices: Sequence[int]) -> MonomialOrder:
        """The block order with `indices` first (as listed), then the rest."""
        first = tuple(indices)
        gone = set(first)
        return block_order(first, tuple(i for i in range(self.arity) if i not in gone))

    def __repr__(self):
        bl = "; ".join(f"{b}: {','.join(self.names[i] for i in idxs)}"
                       for b, idxs in self.blocks)
        return f"RingContext({bl})"


def make_ring(geom: Sequence[str], params: Sequence[str] = (),
              order: MonomialOrder | str = GREVLEX) -> RingContext:
    """k[params][geom] with the geometric block first in the variable list."""
    if isinstance(order, str):
        order = ORDERS[order]
    geom = tuple(geom)
    params = tuple(params)
    blocks = [("geom", tuple(range(len(geom))))]
    if params:
        blocks.append(("param", tuple(range(len(geom), len(geom) + len(params)))))
    return RingContext(geom + params, tuple(blocks), order)


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class HomogeneityReport:
    homogeneous: bool
    degree: int | None
    is_zero: bool = False


class Polynomial:
    """Sparse exact polynomial over Q, stored as one scale times an integer part.

    `coeffs` maps exponent tuples to nonzero ints whose gcd is 1, and `scale`
    is a nonzero Fraction, so the polynomial is  scale * sum c_m x^m.  Normal
    form: the int at the lexicographically largest exponent tuple is positive.
    The rule does not depend on the ring's order, so each polynomial has one
    (coeffs, scale) and equality and hashing are structural.  The zero
    polynomial has empty coeffs and scale 1.  By Gauss's lemma a product of
    two such integer parts is again one, so products need no gcd pass.

    `Polynomial(ring, terms)` takes a monomial -> int/Fraction mapping; the
    `terms` view maps monomials to Fraction coefficients, in the insertion
    order of `coeffs`, and is built on first read.
    """

    __slots__ = ("ring", "coeffs", "scale", "_terms", "_hash")

    def __init__(self, ring: RingContext, terms: Mapping[Monom, Coeff]):
        den = 1
        for c in terms.values():
            den = lcm(den, c.denominator)
        ints = {m: c.numerator * (den // c.denominator)
                for m, c in terms.items() if c}
        _init(self, ring, *_normalize(ints, Fraction(1, den)))

    @classmethod
    def from_ints(cls, ring: RingContext, ints: dict, scale: Fraction) -> "Polynomial":
        """scale * ints, for a dict of nonzero ints that the result takes over."""
        return _make(ring, *_normalize(ints, scale))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping[Monom, Fraction]:
        """Read-only monomial -> Fraction view, built on first read."""
        t = self._terms
        if t is None:
            s = self.scale
            t = MappingProxyType({m: s * c for m, c in self.coeffs.items()})
            _set_terms(self, t)
        return t

    # -- basic protocol -------------------------------------------------------

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring.names, self.scale, frozenset(self.coeffs.items())))
            _set_hash(self, h)
        return h

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.scale == other.scale and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    # -- arithmetic -----------------------------------------------------------

    def _add(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over one common scale."""
        b = other.coeffs
        if not b:
            return self
        sb = other.scale if sign > 0 else -other.scale
        a = self.coeffs
        if not a:
            return _make(self.ring, b, sb)
        sa = self.scale
        if sa == sb:
            ka = kb = 1
            scale = sa
        else:
            # scale = gcd(sa, sb) as rationals, so ka and kb are ints
            n = gcd(sa.numerator, sb.numerator)
            d = lcm(sa.denominator, sb.denominator)
            ka = sa.numerator // n * (d // sa.denominator)
            kb = sb.numerator // n * (d // sb.denominator)
            scale = Fraction(n, d)
        out = dict(a) if ka == 1 else {m: ka * c for m, c in a.items()}
        get = out.get
        for m, c in b.items():
            s = get(m, 0) + kb * c
            if s:
                out[m] = s
            else:
                del out[m]
        return _make(self.ring, *_normalize(out, scale))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if not self.coeffs:
            return self
        return _make(self.ring, self.coeffs, -self.scale)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.coeffs:
                return self.ring.zero
            return _make(self.ring, self.coeffs, self.scale * other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self.ring.zero
        out = {}
        _mul_into(out, a, b)
        # primitive times primitive is primitive (Gauss), and the lex-largest
        # term of a product is the product of the lex-largest terms
        return _make(self.ring, out, self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n by squaring."""
        if n < 0:
            raise RingError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    # -- structure ------------------------------------------------------------

    def degree(self, block: str | None = None) -> int | None:
        """Total degree (in a block if given); None for the zero polynomial."""
        if not self.coeffs:
            return None
        if block is None:
            return max(sum(m) for m in self.coeffs)
        idxs = self.ring.block_indices(block)
        return max(sum(m[i] for i in idxs) for m in self.coeffs)

    def is_homogeneous(self, block: str | None = None) -> HomogeneityReport:
        if not self.coeffs:
            return HomogeneityReport(False, None, is_zero=True)
        if block is None:
            degs = {sum(m) for m in self.coeffs}
        else:
            idxs = self.ring.block_indices(block)
            degs = {sum(m[i] for i in idxs) for m in self.coeffs}
        if len(degs) == 1:
            return HomogeneityReport(True, degs.pop())
        return HomogeneityReport(False, None)

    def leading(self, order: MonomialOrder | None = None):
        """(monomial, coefficient) maximal for the order (default: ring order)."""
        if not self.coeffs:
            raise RingError("zero polynomial has no leading term")
        key = (order or self.ring.order).key_func(self.ring.arity)
        m = max(self.coeffs, key=key)
        return m, self.scale * self.coeffs[m]

    def coefficient(self, m: Monom) -> Fraction:
        c = self.coeffs.get(tuple(m))
        return self.scale * c if c else Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.ring.arity)

    def content(self) -> Fraction:
        """gcd of coefficients, signed so self/content has positive leading coeff."""
        if not self.coeffs:
            return Fraction(1)
        _, lc = self.leading()
        return -abs(self.scale) if lc < 0 else abs(self.scale)

    def primitive(self) -> "Polynomial":
        if not self.coeffs:
            return self
        return self * (1 / self.content())

    def monic(self, order: MonomialOrder | None = None) -> "Polynomial":
        if not self.coeffs:
            return self
        _, lc = self.leading(order)
        return self * (1 / lc)

    # -- calculus and substitution ---------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        i = self.ring.index(var)
        out = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
               for m, c in self.coeffs.items() if m[i]}
        return _make(self.ring, *_normalize(out, self.scale))

    def evaluate_block(self, block: str, values: Sequence[Coeff]) -> "Polynomial":
        """Substitute rationals for a block's variables; lands in the subring."""
        if not self.ring.has_block(block) and not values:
            return self
        idxs = self.ring.block_indices(block)
        if len(values) != len(idxs):
            raise RingError(f"block {block!r} needs {len(idxs)} values")
        vals = {i: Fraction(v) for i, v in zip(idxs, values)}
        target = self.ring.drop_block(block)
        keep = [i for i in range(self.ring.arity) if i not in vals]
        out = {}
        for m, c in self.terms.items():
            for i, v in vals.items():
                if m[i]:
                    c = c * v ** m[i]
            if not c:
                continue
            m2 = tuple(m[i] for i in keep)
            s = out.get(m2, 0) + c
            if s:
                out[m2] = s
            else:
                del out[m2]
        return Polynomial(target, out)

    def transport(self, target: RingContext) -> "Polynomial":
        """Re-home by variable name; nonzero exponents must map somewhere."""
        if target == self.ring:
            return self
        mapping = []
        for i, n in enumerate(self.ring.names):
            mapping.append(target.names.index(n) if n in target.names else None)
        # names are distinct, so distinct monomials keep distinct images
        out = {}
        for m, c in self.coeffs.items():
            m2 = [0] * target.arity
            for i, e in enumerate(m):
                if not e:
                    continue
                j = mapping[i]
                if j is None:
                    raise RingError(
                        f"variable {self.ring.names[i]!r} has no image in target ring")
                m2[j] = e
            out[tuple(m2)] = c
        return _make(target, *_normalize(out, self.scale))

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<{poly_str(self)}>"


_ONE = Fraction(1)
_new = object.__new__
_set_ring = Polynomial.ring.__set__
_set_coeffs = Polynomial.coeffs.__set__
_set_scale = Polynomial.scale.__set__
_set_terms = Polynomial._terms.__set__
_set_hash = Polynomial._hash.__set__


def int_content(values) -> int:
    """gcd of the ints in `values`, 1 when there are none."""
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g or 1


def _mul_into(out: dict, a: dict, b: dict, k: int = 1) -> None:
    """Add k * a * b into `out`, all integer parts keyed by exponent tuple.

    The one product kernel: before it forms a term it spends one unit of the
    context's work budget per pair of terms it multiplies.
    """
    _budget().spend(len(a) * len(b))
    get = out.get
    for m1, c1 in a.items():
        kc1 = k * c1
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            s = get(m, 0) + kc1 * c2
            if s:
                out[m] = s
            else:
                del out[m]


def _normalize(ints: dict, scale: Fraction) -> tuple:
    """(coeffs, scale) in normal form for the polynomial scale * ints."""
    if not ints:
        return ints, _ONE
    g = int_content(ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
        scale = scale * g
    return ints, scale


def _init(p: Polynomial, ring: RingContext, coeffs: dict, scale: Fraction) -> Polynomial:
    _set_ring(p, ring)
    _set_coeffs(p, coeffs)
    _set_scale(p, scale)
    _set_terms(p, None)
    _set_hash(p, None)
    return p


def _make(ring: RingContext, coeffs: dict, scale: Fraction) -> Polynomial:
    """A Polynomial from (coeffs, scale) already in normal form."""
    return _init(_new(Polynomial), ring, coeffs, scale)


def _decimal(q) -> str:
    """str(q) for an int or Fraction q >= 0 of any size.

    An int past 2000 bits (603 digits, under any int-to-str limit Python
    allows) is split by a power of ten, so that limit is neither hit nor set.
    """
    n, d = q.numerator, q.denominator
    if d != 1:
        return f"{_decimal(n)}/{_decimal(d)}"
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20      # about half of n's decimal digits
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def poly_str(p: Polynomial) -> str:
    if not p.coeffs:
        return "0"
    key = p.ring.order.key_func(p.ring.arity)
    num, den = p.scale.numerator, p.scale.denominator
    names = p.ring.names
    parts = []
    for m, k in sorted(p.coeffs.items(), key=lambda mc: key(mc[0]), reverse=True):
        c = num * k
        mag = abs(c) if den == 1 else abs(Fraction(c, den))
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        if not factors:
            body = _decimal(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_decimal(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A finite generator list in a ring context; zero generators discarded.

    Each object carries two caches that are filled on first use and never
    invalidated (an Ideal is immutable): `_gb_cache` maps a monomial order to
    the reduced Groebner basis, and `_derived` maps a name to an ideal derived
    from this one alone, such as the Rees ideal under "rees" or its part in
    degrees >= d under ("part", order, d) (see `hilbert._part`), or to a fact
    known about it, such as its weighted Hilbert series under "hilbert"
    (see `hilbert`) or an Ideal known to contain it under "within" (see
    `groebner.buchberger`).  A fact is recorded by the code that builds the
    Ideal, before anything reads it.

    An Ideal that the engine hands back by its reduced basis (`_of_basis`,
    for `hilbert._given_by`) holds that basis, with its final engine records,
    under `_basis`, and its `gens` are the basis's elements, unpacked on the
    first read of `gens` (or of anything that reads them: iteration, len,
    equality, hash, repr, transport); `is_zero` is read off the records
    (`len` of the basis).
    Such a first read spends no work units and makes no engine run.  Threads
    that make the first read at once each store an equal tuple.  An Ideal
    built from generators has `_basis` None and holds `gens` from the start.
    """

    # a part cut from an ideal refers back to it weakly (`hilbert._part`)
    __slots__ = ("ring", "gens", "_gb_cache", "_derived", "_basis", "__weakref__")

    def __init__(self, ring: RingContext, gens: Iterable[Polynomial]):
        gens = tuple(g for g in gens if g and not g.is_zero)
        for g in gens:
            if g.ring != ring:
                raise RingError("generator not in the stated ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_gb_cache", {})
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "_basis", None)

    @classmethod
    def _of_basis(cls, basis) -> "Ideal":
        """The ideal given by the elements of `basis`, a reduced Groebner
        basis whose records are final, with `gens` left to its first read."""
        out = cls.__new__(cls)
        object.__setattr__(out, "ring", basis.ring)
        object.__setattr__(out, "_gb_cache", {})
        object.__setattr__(out, "_derived", {})
        object.__setattr__(out, "_basis", basis)
        return out

    def __getattr__(self, name):
        # reached when lookup fails, as for the unset `gens` slot of an ideal
        # given by its basis, which this fills
        basis = self._basis if name == "gens" else None
        if basis is None:
            raise AttributeError(f"'Ideal' object has no attribute {name!r}")
        gens = basis.elements
        object.__setattr__(self, "gens", gens)
        return gens

    def __setattr__(self, *_):
        raise AttributeError("Ideal is immutable")

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.ring.names, self.gens))

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    @property
    def is_zero(self) -> bool:
        basis = self._basis
        return not (self.gens if basis is None else len(basis))

    def transport(self, target: RingContext) -> "Ideal":
        if target == self.ring:
            return self  # the same ideal, Groebner cache included
        return Ideal(target, [g.transport(target) for g in self.gens])

    def __repr__(self):
        body = ", ".join(poly_str(g) for g in self.gens) or "0"
        return f"Ideal({body})"


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    """A syntax error at offset `pos` of `text`, reported by 1-based line and
    column; `origin` is where the text's first character stands in a larger
    input, such as a payload within an input file."""

    def __init__(self, msg: str, pos: int, text: str = "", origin: tuple = (1, 1)):
        line = text.count("\n", 0, pos)
        col = pos - (text.rfind("\n", 0, pos) + 1) + (1 if line else origin[1])
        line += origin[0]
        super().__init__(f"{msg} at line {line}, column {col}")
        self.msg = msg
        self.pos = pos
        self.line = line
        self.col = col


# After any whitespace: an ASCII integer, an identifier (a word character other
# than a decimal digit, then word characters), an operator, or any other
# character, which is an error.
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<ident>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


class _Tokens:
    """The tokens `(kind, value, offset)` of a polynomial's text; an
    operator's kind is itself, and an integer's value is its int."""

    def __init__(self, text: str):
        self.toks = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            val, pos = m[kind], m.start(kind)
            if kind == "int":
                try:
                    val = int(val)
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise ParseError(f"integer of {len(val)} digits is too long",
                                     pos, text) from None
            elif kind == "bad":
                raise ParseError(f"unexpected character {val!r}", pos, text)
            self.toks.append((val if kind == "op" else kind, val, pos))
        self.toks.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t


MAX_NESTING = 100   # parentheses and unary minus signs a factor may nest


def parse_polynomial(ring: RingContext, text: str) -> Polynomial:
    """Parse `x^2*y + 3/2*z - 4`; `*` is optional between factors.

    The parser recurses once per nesting level of a factor, so input nested
    deeper than MAX_NESTING is refused with a ParseError.  Its products and
    powers spend from the context's work budget like every product, so the
    input cannot outrun the caller's work limit.
    """
    toks = _Tokens(text)

    def parse_expr(depth):
        acc = parse_signed_term(depth)
        while toks.peek()[0] in ("+", "-"):
            acc = acc + parse_signed_term(depth)
        return acc

    def parse_signed_term(depth):
        sign = 1
        while toks.peek()[0] in ("+", "-"):
            if toks.next()[0] == "-":
                sign = -sign
        return parse_term(depth) * sign

    def parse_term(depth):
        acc = parse_factor(depth)
        while toks.peek()[0] in ("*", "int", "ident", "("):
            if toks.peek()[0] == "*":
                toks.next()
            acc = acc * parse_factor(depth)
        return acc

    def parse_factor(depth):
        kind, val, pos = toks.next()
        if kind in ("(", "-") and depth >= MAX_NESTING:
            raise ParseError("expression nested too deeply", pos, text)
        if kind == "int":
            k2, _, _ = toks.peek()
            if k2 == "/":
                toks.next()
                k3, den, p3 = toks.next()
                if k3 != "int":
                    raise ParseError("expected integer denominator", p3, text)
                if den == 0:
                    raise ParseError("zero denominator", p3, text)
                base = ring.constant(Fraction(val, den))
            else:
                base = ring.constant(val)
        elif kind == "ident":
            if val not in ring.names:
                raise ParseError(f"unknown variable {val!r}", pos, text)
            base = ring.var(val)
        elif kind == "(":
            base = parse_expr(depth + 1)
            k2, _, p2 = toks.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2, text)
        elif kind == "-":
            return -parse_factor(depth + 1)
        else:
            raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                             pos, text)
        kind2, _, _ = toks.peek()
        if kind2 == "^":
            toks.next()
            k3, v3, p3 = toks.next()
            if k3 != "int":
                raise ParseError("expected integer exponent", p3, text)
            base = base ** v3
        return base

    result = parse_expr(0)
    kind, val, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos, text)
    return result


def parse_ring_header(line: str) -> RingContext:
    """`ring: x,y,z | params: u1,u2 | order: grevlex` -> RingContext."""
    geom: list = []
    params: list = []
    order = "grevlex"
    seen = set()
    for piece in line.split("|"):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise RingError(f"malformed ring header clause {piece!r}")
        key, _, rest = piece.partition(":")
        key = key.strip().lower()
        if key in seen:
            raise RingError(f"ring header declares `{key}:` more than once")
        seen.add(key)
        vals = [v.strip() for v in rest.split(",") if v.strip()]
        if key == "ring":
            geom = vals
        elif key == "params":
            params = vals
        elif key == "order":
            if len(vals) != 1 or vals[0] not in ORDERS:
                raise RingError(f"unsupported order {rest.strip()!r}")
            order = vals[0]
        else:
            raise RingError(f"unknown ring header key {key!r}")
    if not geom:
        raise RingError("ring header declares no variables")
    return make_ring(geom, params, order)
