"""Independent brute-force oracles: monomial-ideal set operations by direct
enumeration, and degree-bounded linear algebra over Q for graded membership,
syzygy completeness and vector-space dimensions of graded pieces.  Ranks come
from fraction-free elimination on sparse integer rows (`echelon`); kernel
bases from a Gauss-Jordan elimination over Fractions (`_rref`), since their
callers read the reduced rows.

Everything here deliberately avoids the Groebner engine so the two routes can
be compared against each other in tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Sequence

from .rings import Ideal, Monom, Polynomial, RingContext, RingError


# ---------------------------------------------------------------------------
# monomial-ideal brute force


def monomials_up_to(arity: int, degree: int) -> list:
    ranges = [range(degree + 1)] * arity
    return [m for m in product(*ranges) if sum(m) <= degree]


def monomials_of_degree(arity: int, degree: int) -> list:
    if arity == 0:
        return [()] if degree == 0 else []
    out = []
    def rec(prefix, left):
        if len(prefix) == arity - 1:
            out.append(tuple(prefix) + (left,))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)
    rec([], degree)
    return out


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
    from itertools import combinations_with_replacement
    bk = []
    for combo in combinations_with_replacement(B, SATURATION_POWER):
        m = tuple(0 for _ in range(arity))
        for b in combo:
            m = tuple(x + y for x, y in zip(m, b))
        bk.append(m)
    return monomial_quotient(A, bk, arity, degree)


# ---------------------------------------------------------------------------
# exact linear algebra


def _rref(rows: list) -> list:
    """Reduced row echelon form over Q, in place; returns pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def echelon(rows) -> dict:
    """Fraction-free echelon form of sparse integer rows {column: value}.

    Each row is reduced on its largest column by the pivot row kept there;
    returns the pivot rows, each of content 1, by pivot column, so their
    number is the rank.
    """
    pivots = {}
    for row in rows:
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


def rank(rows: list) -> int:
    """Rank over Q of rows of ints or Fractions, by `echelon` on the sparse
    integer rows left when each row's denominators are cleared."""
    sparse = []
    for row in rows:
        den = lcm(*(v.denominator for v in row if v))
        sparse.append({c: int(v * den) for c, v in enumerate(row) if v})
    return len(echelon(sparse))


def graded_piece_dimension(gens: Sequence[Polynomial], degree: int) -> int:
    """dim_Q of the degree-d part of the ideal (gens), standard grading.

    Spanning set: g * (monomials of degree d - deg g) for each homogeneous g.
    Only valid when every generator is homogeneous.
    """
    if not gens:
        return 0
    ring = gens[0].ring
    arity = ring.arity
    basis = monomials_of_degree(arity, degree)
    index = {m: i for i, m in enumerate(basis)}
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
        for m in monomials_of_degree(arity, d):
            row = [Fraction(0)] * len(basis)
            for mm, c in g.terms.items():
                key = tuple(a + b for a, b in zip(m, mm))
                row[index[key]] = c
            rows.append(row)
    return rank(rows)


def syzygies_up_to_degree(gens: Sequence[Polynomial], degree: int) -> list:
    """Basis of syzygy vectors (h_1..h_m), deg h_i + deg g_i <= degree.

    Linear-algebra kernel over the monomial coefficient space; the generators
    need not be homogeneous (total degree bounds are used).
    """
    if not gens:
        return []
    ring = gens[0].ring
    arity = ring.arity
    cols = []  # (gen index, monomial) unknowns
    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        room = degree - g.degree()
        if room < 0:
            continue
        for m in monomials_up_to(arity, room):
            cols.append((i, m))
    target = sorted(monomials_up_to(arity, degree))
    tindex = {m: k for k, m in enumerate(target)}
    # matrix: rows = target monomials, columns = unknowns
    matrix = [[Fraction(0)] * len(cols) for _ in target]
    for cidx, (i, m) in enumerate(cols):
        for mm, c in gens[i].terms.items():
            key = tuple(a + b for a, b in zip(m, mm))
            matrix[tindex[key]][cidx] = c
    kern = kernel_basis(matrix)
    out = []
    for vec in kern:
        col = [ring.zero] * len(gens)
        for cidx, (i, m) in enumerate(cols):
            if vec[cidx]:
                col[i] = col[i] + ring.monomial(m, vec[cidx])
        out.append(col)
    return out


def kernel_basis(matrix: list) -> list:
    """Basis of the right kernel of a Q-matrix given as list of rows."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    work = [list(map(Fraction, row)) for row in matrix]
    pivots = _rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        out.append(vec)
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
    column degree D (entry i has degree D - d_i), which turns membership into
    one exact linear solve per candidate coefficient degree.
    """
    live = [p for p in col if not p.is_zero]
    if not live:
        return True
    if not columns:
        return False
    ring = live[0].ring
    arity = ring.arity
    m = len(col)
    if gen_degrees is None:
        gen_degrees = [0] * m
    D_target = _column_degree(col, gen_degrees)
    if D_target is None:
        raise RingError("target column is not graded for the given degrees")

    unknowns = []
    for j, cj in enumerate(columns):
        Dj = _column_degree(cj, gen_degrees)
        if Dj is None:
            continue
        dj = D_target - Dj
        if dj < 0:
            continue
        for mono in monomials_of_degree(arity, dj):
            unknowns.append((j, mono))
    if not unknowns:
        return False

    keys: dict = {}

    def keyof(i, mono):
        k = (i, mono)
        if k not in keys:
            keys[k] = len(keys)
        return keys[k]

    cols_mat = []
    for (j, mono) in unknowns:
        colvec = {}
        for i in range(m):
            p = columns[j][i]
            for mm, c in p.terms.items():
                kk = keyof(i, tuple(a + b for a, b in zip(mono, mm)))
                colvec[kk] = colvec.get(kk, 0) + c
        cols_mat.append(colvec)
    rhs = {}
    for i, p in enumerate(col):
        for mm, c in p.terms.items():
            rhs[keyof(i, mm)] = c
    matrix = [[Fraction(0)] * (len(unknowns) + 1) for _ in range(len(keys))]
    for cidx, colvec in enumerate(cols_mat):
        for r, v in colvec.items():
            matrix[r][cidx] = v
    for r, v in rhs.items():
        matrix[r][len(unknowns)] = v
    a_only = [row[:-1] for row in matrix]
    return rank(a_only) == rank(matrix)
