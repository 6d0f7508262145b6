"""Gradient ideals of projective hypersurfaces, the linear-type certificate
via syzygy 1-minors, and the parameter-family degeneration analyzer.

For a form f of degree d the gradient pair is J = (f) inside I_f = (partials)
with the Euler certificate f = sum (x_i/d) df/dx_i.  The certificate routine
decides linear type for an isolated-singularity plane curve by the height of
the entry ideal of the syzygy matrix.  The family analyzer reads the same data
off the family's gradient pair over k[u][x,y,z] (`pair_syzygies`,
`entry_ideal`), saturates the entry ideal by (x,y,z), contracts to k[u] and
cross-checks three equivalent degeneration criteria, the third being the
certificate of one sampled member (`evaluate_member`).

The saturation is the intersection of the saturations I : v^inf for v in
x, y, z.  The entry ideal is homogeneous in x, y, z, so `saturate_by_variable`
gives each I : v^inf and its contraction to k[u] from one Buchberger run.
Since (A ∩ B) ∩ k[u] = (A ∩ k[u]) ∩ (B ∩ k[u]), the contraction is reached
without the saturation: the three contractions are intersected in k[u].
`FamilyReport.saturation` itself is only intersected, in the full ring, when
it is first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .blowup import PairInput, make_pair, pair_syzygies
from .groebner import groebner
from .ideal_ops import (
    DimensionReport,
    dimension,
    intersect,
    saturate_by_variable,
)
from .rings import Ideal, Polynomial, RingContext, RingError
from .syzygy import PolyMatrix, entry_ideal

SAMPLE_TRIES = 2000   # draws `sample_parameters` makes before giving up


class Verdict(Enum):
    LINEAR_TYPE = "linear-type"
    NOT_LINEAR_TYPE = "not-linear-type"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GradientPair:
    f: Polynomial
    degree: int
    pair: PairInput

    @property
    def gradient_ideal(self) -> Ideal:
        return self.pair.i_ideal


def gradient_pair(f: Polynomial) -> GradientPair:
    """J = (f) inside the gradient ideal, with the exact Euler certificate."""
    ring = f.ring
    rep = f.is_homogeneous("geom")
    if rep.is_zero or not rep.homogeneous or rep.degree < 1:
        raise RingError("gradient pairs need a nonconstant form")
    d = rep.degree
    gens, certs = [], []
    for i in ring.block_indices("geom"):
        v = ring.names[i]
        p = f.derivative(v)
        if not p.is_zero:
            c = p.content()
            gens.append(p * (1 / c))
            certs.append(ring.var(v) * (c / d))
    if not gens:
        raise RingError("zero gradient; the ground field characteristic would divide the degree")
    return GradientPair(f, d, make_pair(ring, gens, [f], [certs]))


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    reason: str
    codim_gradient: int
    singular_dim: int
    threshold: int | None
    codim_entry_ideal: int | None
    syzygy_matrix: PolyMatrix | None
    # the entries of syzygy_matrix as an Ideal, with the basis its height used
    entry_ideal: Ideal | None = field(default=None, compare=False, repr=False)


def linear_type_certificate(gp: GradientPair) -> Certificate:
    """Decide linear type of the gradient ideal by the entry-ideal height.

    With isolated singularities (dim ring/I_f = 1) the gradient ideal is an
    almost complete intersection and linear type holds exactly when the ideal
    of syzygy-matrix entries has height ht(I_f) + 1; a smooth curve
    short-circuits since its gradient ideal is a regular sequence.
    """
    ring = gp.f.ring
    n = len(ring.block_indices("geom"))
    rep = dimension(gp.gradient_ideal)
    if rep.empty:
        return Certificate(Verdict.INCONCLUSIVE, "unit gradient ideal",
                           rep.codim, rep.dim, None, None, None)
    if rep.codim == n:
        return Certificate(Verdict.LINEAR_TYPE, "regular sequence",
                           rep.codim, rep.dim, None, None, None)
    if rep.dim != 1:
        return Certificate(
            Verdict.INCONCLUSIVE,
            "singular locus is not a nonempty set of points",
            rep.codim, rep.dim, None, None, None)
    phi = pair_syzygies(gp.pair)
    script = entry_ideal(phi)
    srep = dimension(script)
    threshold = rep.codim + 1
    if srep.codim_at_least(threshold):
        verdict, reason = Verdict.LINEAR_TYPE, "entry ideal reaches the critical height"
    else:
        verdict, reason = Verdict.NOT_LINEAR_TYPE, "entry ideal below the critical height"
    codim_script = None if srep.empty else srep.codim
    return Certificate(verdict, reason, rep.codim, rep.dim, threshold,
                       codim_script, phi, script)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class MemberReport:
    alpha: tuple
    gradient: GradientPair
    certificate: Certificate


@dataclass(frozen=True)
class FamilyReport:
    family: Polynomial
    gradient_gens: tuple
    syzygy_matrix: PolyMatrix
    entry_ideal: Ideal
    codim_gradient: int
    codim_entry: int
    contraction: Ideal
    contraction_dim: DimensionReport
    member: MemberReport
    generic_linear_type: bool
    legs: tuple                  # the three equivalent criteria, as booleans
    consistent: bool
    warnings: tuple
    _saturations: tuple = field(compare=False, repr=False)  # (I : v^inf) per v

    @cached_property
    def saturation(self) -> Ideal:
        """The entry ideal saturated by (x, y, z); intersected on first read.

        Each piece enters the meets by its reduced basis under the ring's
        order: the tag-variable elimination on the block-order bases that
        `saturate_by_variable` returns can run for minutes (family a).
        """
        sat, *rest = (Ideal(satv.ring, groebner(satv).elements)
                      for satv in self._saturations)
        for satv in rest:
            sat = intersect(sat, satv)
        return sat


def _content_one_certified(F: Polynomial, ring: RingContext) -> bool:
    """Sufficient test that F has unit content over the parameters: some
    geometric monomial's coefficient in k[u] is a nonzero constant."""
    pidx = ring.block_indices("param") if ring.has_block("param") else ()
    if not pidx:
        return True
    constant: dict = {}
    for m in F.coeffs:
        geom_part = tuple(0 if i in pidx else e for i, e in enumerate(m))
        constant[geom_part] = (constant.get(geom_part, True)
                               and not any(m[i] for i in pidx))
    return any(constant.values())


def sample_parameters(ring: RingContext, avoid: Sequence[Polynomial],
                      seed: int = 0) -> tuple:
    """Deterministic rational sample off the loci where `avoid` members vanish."""
    if not ring.has_block("param"):
        return ()
    pidx = ring.block_indices("param")
    if not pidx:
        return ()
    rng = random.Random(seed)
    pnames = [ring.names[i] for i in pidx]
    for _ in range(SAMPLE_TRIES):
        alpha = tuple(Fraction(rng.randint(-9, 9)) for _ in pnames)
        if all(a == 0 for a in alpha):
            continue
        if all(_eval_params(g, pnames, alpha) != 0 for g in avoid):
            return alpha
    raise RingError("could not sample parameters off the excluded loci")


def _eval_params(g: Polynomial, pnames, alpha) -> Fraction:
    """Evaluate a parameter-only polynomial at alpha (by variable name)."""
    total = Fraction(0)
    for m, c in g.terms.items():
        v = c
        for i, e in enumerate(m):
            if e:
                name = g.ring.names[i]
                if name not in pnames:
                    raise RingError("constraint uses a non-parameter variable")
                v = v * alpha[pnames.index(name)] ** e
        total += v
    return total


def analyze_family(F: Polynomial, *, seed: int = 0,
                   avoid: Sequence[Polynomial] = ()) -> FamilyReport:
    """Degeneration analysis of a parameterized plane-curve family."""
    ring = F.ring
    warnings = []
    rep = F.is_homogeneous("geom")
    if rep.is_zero or not rep.homogeneous:
        raise RingError("the family polynomial must be a form in the geometric block")
    if not _content_one_certified(F, ring):
        warnings.append("parameter content could not be certified equal to 1")

    geom = [ring.names[i] for i in ring.block_indices("geom")]
    gp = gradient_pair(F)
    grep = dimension(gp.gradient_ideal)
    if grep.codim != 2:
        warnings.append(f"gradient ideal has codimension {grep.codim}, not 2")

    phi = pair_syzygies(gp.pair)
    gidx = set(ring.block_indices("geom"))
    if any(not any(m[i] for i in gidx)
           for col in phi.columns() for p in col for m in p.coeffs):
        warnings.append("syzygy coordinate with a geometric-degree-0 term")
    script = entry_ideal(phi)
    srep = dimension(script)

    # saturation by the irrelevant ideal, one variable at a time; contracting
    # commutes with intersecting, so each piece is contracted to k[u] first
    base = Ideal(ring, list(groebner(script).elements))
    sats, contractions = zip(*(saturate_by_variable(base, v) for v in geom))
    contraction, *rest = contractions
    for cv in rest:
        contraction = intersect(contraction, cv)
    crep = dimension(contraction)

    alpha = sample_parameters(ring, avoid, seed)
    member = evaluate_member(F, alpha)

    leg_codim = srep.codim_at_least(3)
    leg_contraction = crep.codim_at_least(1) if not contraction.is_zero else False
    leg_member = member.certificate.verdict == Verdict.LINEAR_TYPE
    legs = (leg_codim, leg_contraction, leg_member)
    return FamilyReport(
        family=F, gradient_gens=gp.pair.i_gens, syzygy_matrix=phi,
        entry_ideal=script, codim_gradient=grep.codim, codim_entry=srep.codim,
        contraction=contraction, contraction_dim=crep,
        member=member,
        generic_linear_type=leg_codim,
        legs=legs, consistent=len(set(legs)) == 1, warnings=tuple(warnings),
        _saturations=sats)


def evaluate_member(F: Polynomial, alpha: Sequence[Fraction]) -> MemberReport:
    """Specialize the parameters and certify the member's gradient ideal."""
    ring = F.ring
    alpha = tuple(Fraction(a) for a in alpha)
    if ring.has_block("param"):
        if len(alpha) != len(ring.block_indices("param")):
            raise RingError("parameter value arity mismatch")
        f = F.evaluate_block("param", alpha)
    else:
        if alpha:
            raise RingError("this family has no parameters")
        f = F
    gp = gradient_pair(f)
    return MemberReport(alpha, gp, linear_type_certificate(gp))
