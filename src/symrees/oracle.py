"""Independent brute-force oracles: monomial-ideal set operations by direct
enumeration, and degree-bounded linear algebra over Q for graded membership,
syzygy completeness and vector-space dimensions of graded pieces.  One
fraction-free elimination on sparse integer rows, `echelon`, does every rank,
kernel and span test.

Everything here deliberately avoids the Groebner engine so the two routes can
be compared against each other in tests.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import gcd, lcm
from typing import Sequence

from .rings import Monom, Polynomial, RingError


# ---------------------------------------------------------------------------
# monomial-ideal brute force


def monomials_up_to(arity: int, degree: int) -> list:
    ranges = [range(degree + 1)] * arity
    return [m for m in product(*ranges) if sum(m) <= degree]


def monomials_of_degree(arity: int, degree: int) -> list:
    """The exponent tuples of total degree `degree`, in lexicographic order."""
    return sorted(tuple(combo.count(i) for i in range(arity))
                  for combo in combinations_with_replacement(range(arity), degree))


def _mono_divides(a: Monom, b: Monom) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_members(gens: Sequence[Monom], arity: int, degree: int) -> set:
    """All monomials of total degree <= degree inside the monomial ideal."""
    univ = monomials_up_to(arity, degree)
    return {m for m in univ if any(_mono_divides(g, m) for g in gens)}


def monomial_quotient(A: Sequence[Monom], B: Sequence[Monom], arity: int,
                      degree: int) -> set:
    """Monomials m with m*b in (A) for every b in B, degree-bounded."""
    univ = monomials_up_to(arity, degree)
    out = set()
    for m in univ:
        ok = True
        for b in B:
            mb = tuple(x + y for x, y in zip(m, b))
            if not any(_mono_divides(g, mb) for g in A):
                ok = False
                break
        if ok:
            out.add(m)
    return out


SATURATION_POWER = 12


def monomial_saturation(A: Sequence[Monom], B: Sequence[Monom], arity: int,
                        degree: int) -> set:
    """Degree-bounded member set of A : B^infinity, as A : B^SATURATION_POWER.

    The chain A : B^k is stationary once k >= |B|(e - 1) + 1, e the largest
    exponent in A: then each product of k generators of B has a factor b^e,
    and A : b^e = A : b^infinity.  The callers' B have at most 2 generators
    and their A exponents at most 4, so k = 12 is past that point.
    """
    bk = []
    for combo in combinations_with_replacement(B, SATURATION_POWER):
        m = tuple(0 for _ in range(arity))
        for b in combo:
            m = tuple(x + y for x, y in zip(m, b))
        bk.append(m)
    return monomial_quotient(A, bk, arity, degree)


# ---------------------------------------------------------------------------
# exact linear algebra


def echelon(rows) -> dict:
    """Fraction-free echelon form of sparse integer rows {column: value}.

    Each row is copied, then reduced on its largest column by the pivot row
    kept there; returns the pivot rows, each of content 1, by pivot column, so
    their number is the rank.  Columns need only be mutually comparable.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                content = gcd(*row.values())
                pivots[col] = {k: v // content for k, v in row.items()}
                break
            f, g = pivot[col], row[col]
            common = gcd(f, g)
            f, g = f // common, g // common
            if f != 1:
                row = {k: f * v for k, v in row.items()}
            for k, v in pivot.items():
                s = row.get(k, 0) - g * v
                if s:
                    row[k] = s
                else:
                    del row[k]
    return pivots


def _integral(row: dict) -> dict:
    """The sparse rational row times the lcm of its denominators."""
    den = lcm(*(v.denominator for v in row.values()))
    return {k: int(v * den) for k, v in row.items() if v}


def kernel(columns: Sequence[dict]) -> list:
    """Basis of the kernel of the Q-linear map e_j -> columns[j], each column
    a sparse {key: value}; vectors {j: int}.

    Row j is column j at the columns (1, key) plus the identity entry (0, j),
    which sorts below them, scaled to integers as a whole: a combination of
    the rows has zero (1, key) part exactly when its identity part is in the
    kernel.  So the pivot rows that end on a (0, j) column span the kernel.
    """
    rows = [_integral({**{(1, k): v for k, v in col.items()}, (0, j): 1})
            for j, col in enumerate(columns)]
    return [{j: v for (_, j), v in row.items()}
            for (kind, _), row in echelon(rows).items() if kind == 0]


def _shifted(m: Monom, terms: dict) -> dict:
    """The terms {monomial: coefficient} times x^m."""
    return {tuple(a + b for a, b in zip(m, mm)): c for mm, c in terms.items()}


def graded_piece_dimension(gens: Sequence[Polynomial], degree: int) -> int:
    """dim_Q of the degree-d part of the ideal (gens), standard grading.

    Spanning set: g * (monomials of degree d - deg g) for each homogeneous g,
    each taken as its integer part, since scales do not change the rank.
    Only valid when every generator is homogeneous.
    """
    if not gens:
        return 0
    arity = gens[0].ring.arity
    rows = []
    for g in gens:
        rep = g.is_homogeneous()
        if rep.is_zero:
            continue
        if not rep.homogeneous:
            raise RingError("graded piece of a non-homogeneous generator")
        d = degree - rep.degree
        if d < 0:
            continue
        rows.extend(_shifted(m, g.coeffs) for m in monomials_of_degree(arity, d))
    return len(echelon(rows))


def syzygies_up_to_degree(gens: Sequence[Polynomial], degree: int) -> list:
    """Basis of syzygy vectors (h_1..h_m), deg h_i + deg g_i <= degree.

    The kernel of the map that sends the unknown (i, m) to x^m * g_i on the
    monomial coefficient space; the generators need not be homogeneous (total
    degree bounds are used).
    """
    if not gens:
        return []
    ring = gens[0].ring
    unknowns = [(i, m) for i, g in enumerate(gens) if not g.is_zero
                for m in monomials_up_to(ring.arity, degree - g.degree())]
    columns = [_shifted(m, gens[i].terms) for i, m in unknowns]
    out = []
    for vec in kernel(columns):
        terms = [{} for _ in gens]
        for j, v in vec.items():
            i, m = unknowns[j]
            terms[i][m] = v
        out.append([Polynomial(ring, t) for t in terms])
    return out


def _column_degree(c, gen_degrees):
    """D with deg c_i = D - d_i on the support; None if inconsistent/zero."""
    D = None
    for i, p in enumerate(c):
        if p.is_zero:
            continue
        rep = p.is_homogeneous()
        if not rep.homogeneous:
            raise RingError("column entries must be homogeneous")
        cand = rep.degree + gen_degrees[i]
        if D is None:
            D = cand
        elif D != cand:
            return None
    return D


def column_in_span(col: Sequence[Polynomial], columns: Sequence[Sequence[Polynomial]],
                   gen_degrees: Sequence[int] | None = None) -> bool:
    """Graded module membership: col in sum R*columns over a standard-graded ring.

    Syzygy columns of generators with degrees d_i are graded with a single
    column degree D (entry i has degree D - d_i), so membership is a rank
    test in column degree D: one row per unknown x^mono * columns[j] of that
    degree, and col is in their span when adding it leaves the rank alone.
    """
    live = [p for p in col if not p.is_zero]
    if not live:
        return True
    if not columns:
        return False
    arity = live[0].ring.arity
    if gen_degrees is None:
        gen_degrees = [0] * len(col)
    D_target = _column_degree(col, gen_degrees)
    if D_target is None:
        raise RingError("target column is not graded for the given degrees")

    rows = []
    for cj in columns:
        Dj = _column_degree(cj, gen_degrees)
        if Dj is None or Dj > D_target:
            continue
        for mono in monomials_of_degree(arity, D_target - Dj):
            rows.append(_integral({(i, key): c for i, p in enumerate(cj)
                                   for key, c in _shifted(mono, p.terms).items()}))
    if not rows:
        return False
    target = _integral({(i, mm): c for i, p in enumerate(col) for mm, c in p.terms.items()})
    return len(echelon(rows + [target])) == len(echelon(rows))
