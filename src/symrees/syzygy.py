"""First syzygies, polynomial matrices, minors and Jacobians.

Syzygies of (g_1..g_m) are lifted inside the engine (`groebner.syzygy_lifts`):
with G = F*A from one tracked Groebner run and F = G*B by reduction, the
kernel of F is generated by the rows of B*A - Id together with the pullbacks
A^t * s of the S-pair syzygies s of G (Schreyer 1980).  Each is a
fraction-free reduction on the engine's records with its representation
tracked, so neither B nor A is formed.  A basis pair (k, l) is skipped when
some third element g_j has lm(g_j) | lcm(k, l) and lcm(k, j), lcm(j, l) both
differ from lcm(k, l): then S_kl is a monomial combination of S_kj and S_jl,
whose lcms strictly divide lcm(k, l), so by induction on the lcm the kept
pairs still generate (Buchberger's chain criterion, Gebauer-Moller, J. Symb.
Comp. 1988).  Pairs whose lcms tie are kept.  Columns are content-normalized
and deduplicated but not minimalized; the entry ideal I_1 is independent of
that choice.  A zero generator needs no case of its own: the engine drops it
from the run, and reduced to zero with its representation seeded as e_i it
leaves the unit column e_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add
from typing import Sequence

from .groebner import syzygy_lifts
from .rings import Ideal, Polynomial, RingContext, RingError


@dataclass(frozen=True)
class PolyMatrix:
    """Immutable matrix of polynomials in a common ring."""

    ring: RingContext
    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols
                                                 for r in self.entries):
            raise RingError("matrix shape mismatch")
        for row in self.entries:
            for e in row:
                if e.ring != self.ring:
                    raise RingError("matrix entry in the wrong ring")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)


def matrix_from_columns(ring: RingContext, columns: Sequence[Sequence[Polynomial]]) -> PolyMatrix:
    if not columns:
        return PolyMatrix(ring, 0, 0, ())
    rows = len(columns[0])
    ent = tuple(tuple(col[i] for col in columns) for i in range(rows))
    return PolyMatrix(ring, rows, len(columns), ent)


def jacobian(gens: Sequence[Polynomial]) -> PolyMatrix:
    """Rows indexed by the geometric block's variables, columns by generators."""
    if not gens:
        raise RingError("empty generator list")
    ring = gens[0].ring
    var_names = [ring.names[i] for i in ring.block_indices("geom")]
    ent = tuple(tuple(g.derivative(v) for g in gens) for v in var_names)
    return PolyMatrix(ring, len(var_names), len(gens), ent)


def hessian(f: Polynomial) -> PolyMatrix:
    """Second derivatives in the geometric block's variables."""
    ring = f.ring
    var_names = [ring.names[i] for i in ring.block_indices("geom")]
    ent = tuple(tuple(f.derivative(v).derivative(w) for w in var_names)
                for v in var_names)
    return PolyMatrix(ring, len(var_names), len(var_names), ent)


def _det(ring, rows):
    """Cofactor determinant of a small square list-of-lists."""
    n = len(rows)
    if n == 0:
        return ring.one
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero
    rest = rows[1:]
    for j in range(n):
        minor_rows = [[r[k] for k in range(n) if k != j] for r in rest]
        term = rows[0][j] * _det(ring, minor_rows)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def minors(M: PolyMatrix, r: int) -> Ideal:
    """Ideal of all r x r minors; I_1 is the ideal of entries."""
    if r < 1 or r > min(M.rows, M.cols):
        raise RingError(f"minor size {r} out of range for {M.rows}x{M.cols}")
    gens = []
    for rows in combinations(range(M.rows), r):
        for cols in combinations(range(M.cols), r):
            sub = [[M.entries[i][j] for j in cols] for i in rows]
            gens.append(_det(M.ring, sub))
    return Ideal(M.ring, gens)


def entry_ideal(M: PolyMatrix) -> Ideal:
    """I_1(M): the distinct nonzero entries, row-major by first occurrence."""
    return Ideal(M.ring, dict.fromkeys(e for row in M.entries for e in row))


def syzygies(gens: Sequence[Polynomial]) -> PolyMatrix:
    """Matrix whose columns generate the first syzygy module of `gens`."""
    gens = list(gens)
    if not gens:
        raise RingError("empty generator list")
    cols = list(dict.fromkeys(map(tuple, syzygy_lifts(gens))))
    degs = lambda c: max((p.degree() or 0) for p in c if not p.is_zero)
    cols.sort(key=lambda c: (degs(c), tuple(str(p) for p in c)))
    return matrix_from_columns(gens[0].ring, cols)


def apply_row(gens: Sequence[Polynomial], col: Sequence[Polynomial]) -> Polynomial:
    """sum gens[i] * col[i]; zero exactly when col is a syzygy.

    The integer parts of the products are summed into one dict over the
    common denominator of their scales, and a pair with a zero factor is
    skipped: certificate rows and syzygy columns are mostly zero.
    """
    ring = gens[0].ring
    live = []
    den = 1
    for g, c in zip(gens, col):
        if g.ring != ring or c.ring != ring:
            raise RingError("ring mismatch")
        if g.coeffs and c.coeffs:
            scale = g.scale * c.scale
            den = lcm(den, scale.denominator)
            live.append((g.coeffs, c.coeffs, scale))
    out: dict = {}
    get = out.get
    for a, b, scale in live:
        k = scale.numerator * (den // scale.denominator)
        for m1, c1 in a.items():
            kc1 = k * c1
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                s = get(m, 0) + kc1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return Polynomial.from_ints(ring, out, Fraction(1, den))
