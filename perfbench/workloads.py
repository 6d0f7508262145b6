"""The benchmark's workloads: inputs built from a seed, items, and references.

`build(name, seed)` is the set-up: it parses the fixtures, samples parameters
and generates the seeded pairs, and returns the items.  Each item's `run`
creates fresh `Ideal`/`PairInput` objects, so no per-object cache of the
program carries over from one pass to the next; a command-line user pays that
cost on every run.  Each item's `check` compares the outputs with references
written down from the fixtures' stated claims and the acceptance criteria,
never taken from a run of the code, and returns the list of mismatches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import symrees
from symrees import fixtures, oracle, syzygy
from symrees.curves import sample_parameters

TORSION_BOUND = 4
REGULAR_SEQUENCE_PAIRS = 6


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# catalog: criterion 6, the thirteen rational-quartic families


def _catalog_item(fam, seed: int) -> Item:
    F = fam.family()
    avoid = fam.constraint_polys()
    columns = []
    for col in fam.columns:
        f = F if col.at is None else F.evaluate_block(
            "param", [col.at[p] for p in fam.params])
        columns.append((f, [f.ring.parse(e) for e in col.entries]))

    def run():
        annihilates = []
        for f, vec in columns:
            parts = [f.derivative(v) for v in ("x", "y", "z")]
            annihilates.append(syzygy.apply_row(parts, vec).is_zero)
        report = symrees.analyze_family(F, seed=seed, avoid=avoid)
        return annihilates, report

    def check(out):
        annihilates, report = out
        bad = [f"regression column {i + 1} does not annihilate the gradient"
               for i, ok in enumerate(annihilates) if not ok]
        if not report.consistent:
            bad.append("three-way degeneration equivalence is inconsistent")
        if not (report.legs[0] and report.legs[2]):
            bad.append("generic member not certified linear type")
        return bad

    return Item(f"family-{fam.key}", run, check)


def catalog(seed: int) -> list:
    return [_catalog_item(fam, seed) for fam in fixtures.FAMILIES]


# ---------------------------------------------------------------------------
# curves: criterion 9, the curve fixtures and one seeded member per family


def _curve_item(name: str, f, expected: str | None) -> Item:
    LT = symrees.Verdict.LINEAR_TYPE

    def run():
        gp = symrees.gradient_pair(f)
        cert = symrees.linear_type_certificate(gp)
        pres = symrees.aluffi_presentation(gp.pair)
        dim = symrees.aluffi_dimension(pres).dim
        linear = symrees.is_linear_type(gp.pair)
        spread = (symrees.analytic_spread(gp.pair.i_ideal)
                  if cert.verdict == LT else None)
        return cert.verdict, dim, linear, spread

    def check(out):
        verdict, dim, linear, spread = out
        bad = []
        if expected is not None and verdict.value != expected:
            bad.append(f"verdict {verdict.value}, fixture states {expected}")
        if dim != 3:
            bad.append(f"embedded algebra dimension {dim}, not 3")
        if (verdict == LT) != linear:
            bad.append("certificate disagrees with the Rees/Sym comparison")
        if verdict == LT and spread != 3:
            bad.append(f"analytic spread {spread}, not 3")
        return bad

    return Item(name, run, check)


def curves(seed: int) -> list:
    items = [_curve_item(c.slug, c.curve(), c.expected) for c in fixtures.CURVES]
    for fam in fixtures.FAMILIES:
        alpha = sample_parameters(fam.ring(), fam.constraint_polys(), seed=seed)
        f = fam.family().evaluate_block("param", alpha)
        items.append(_curve_item(f"family-{fam.key}-member", f, None))
    return items


# ---------------------------------------------------------------------------
# torsion: the pair fixtures with shuffled generators, plus regular sequences


def _graded_rank(gens, degree: int) -> int:
    return oracle.graded_piece_dimension(list(gens), degree)


def _four_points_check(ring, i_gens, j_gens):
    """Criterion 1: torsion exactly in fiber degree 2, carried by two quartics."""
    residues = [ring.parse("x*z^2*(x - z)"), ring.parse("y*z^2*(y - z)")]

    def check(report):
        bad = []
        for piece in report.pieces:
            if piece.nonzero != (piece.degree == 2):
                bad.append(f"degree-{piece.degree} piece nonzero={piece.nonzero}")
        # Linear algebra in internal degree 4 (the oracle, not the engine):
        # each residue lies outside J*I and inside J*I + (witnesses).
        ji = [a * b for a in j_gens for b in i_gens]
        witnesses = list(report.piece(2).witnesses)
        base = _graded_rank(ji, 4)
        spanned = _graded_rank(ji + witnesses, 4)
        for w in residues:
            if _graded_rank(ji + [w], 4) == base:
                bad.append(f"{w} lies in J*I")
            if _graded_rank(ji + witnesses + [w], 4) != spanned:
                bad.append(f"{w} is not a degree-2 witness")
        return bad

    return check


def _torsion_free_check(report):
    return [f"degree-{p.degree} piece is nonzero" for p in report.pieces if p.nonzero]


def _torsion_item(name: str, ring, i_gens, j_gens, check_report) -> Item:
    def run():
        pair = symrees.make_pair(ring, i_gens, j_gens)
        report = symrees.vv_pieces(pair, TORSION_BOUND)
        ar = symrees.artin_rees_number(pair, TORSION_BOUND)
        symrees.standard_base_check(pair, TORSION_BOUND)
        return report, ar

    def check(out):
        report, ar = out
        bad = check_report(report)
        if (ar == 1) != report.all_zero:
            bad.append(f"Artin-Rees number {ar} with all_zero={report.all_zero}")
        return bad

    return Item(name, run, check)


def torsion(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for name, (ctor, _) in fixtures.PAIR_FIXTURES.items():
        pair = ctor()
        i_gens, j_gens = list(pair.i_gens), list(pair.j_gens)
        # Reduced bases are unique, so the order must not change a verdict.
        rng.shuffle(i_gens)
        rng.shuffle(j_gens)
        check = (_four_points_check(pair.ring, i_gens, j_gens)
                 if name == "four-points" else _torsion_free_check)
        items.append(_torsion_item(name, pair.ring, i_gens, j_gens, check))
    # Criterion 8(i): regular sequences have no torsion.
    for k in range(REGULAR_SEQUENCE_PAIRS):
        ring = symrees.make_ring(["x", "y", "z"])
        x, y, z = ring.gens()
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        j_gens = [x ** a] if rng.random() < 0.5 else [x ** a, y ** b]
        i_gens = [x ** a, y ** b, z ** c]
        items.append(_torsion_item(f"regular-sequence-{k + 1}", ring, i_gens,
                                   j_gens, _torsion_free_check))
    return items


WORKLOADS = {"catalog": catalog, "curves": curves, "torsion": torsion}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)
