"""Built-in fixture catalog: the thirteen rational-quartic families with their
verified syzygy regression columns, the named single curves, and the
monomial-pair fixtures used by the torsion checks.

Every syzygy column stored here annihilates the corresponding gradient
generators exactly; columns are re-verified by the regression suite.  A
column's `at` field tells where it applies: None means over the family ring,
otherwise the parameter assignment to evaluate first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blowup import PairInput, make_pair
from .oracle import monomials_of_degree
from .rings import Ideal, Polynomial, RingContext, make_ring
from .syzygy import apply_row, jacobian, minors


@dataclass(frozen=True)
class SyzygyColumn:
    at: dict | None          # parameter assignment, None = family ring
    entries: tuple           # three polynomial strings


@dataclass(frozen=True)
class FamilyFixture:
    key: str                 # catalog letter
    slug: str
    name: str
    params: tuple
    poly: str
    constraints: tuple       # parameter polynomials that must not vanish
    columns: tuple           # SyzygyColumn regression vectors
    claim: str

    def ring(self) -> RingContext:
        return make_ring(["x", "y", "z"], self.params)

    def param_ring(self) -> RingContext:
        return make_ring([], self.params)

    def family(self) -> Polynomial:
        return self.ring().parse(self.poly)

    def constraint_polys(self) -> list:
        pr = self.param_ring()
        return [pr.parse(c) for c in self.constraints]

    def column_checks(self) -> list:
        """One bool per regression column: does it annihilate the gradient?"""
        F = self.family()
        out = []
        for col in self.columns:
            f = F if col.at is None else F.evaluate_block(
                "param", [col.at[p] for p in self.params])
            parts = [f.derivative(v) for v in ["x", "y", "z"]]
            vec = [f.ring.parse(e) for e in col.entries]
            out.append(apply_row(parts, vec).is_zero)
        return out


FAMILIES = (
    FamilyFixture(
        "a", "three-nodes", "three nodes", ("u4", "u5", "u6"),
        "y^2*z^2 + x^2*z^2 + x^2*y^2 + 2*x*y*z*(u4*x + u5*y + u6*z)",
        ("u4^2 - 1", "u5^2 - 1", "u6^2 - 1",
         "2*u4*u5*u6 - u4^2 - u5^2 - u6^2 + 1"),
        (SyzygyColumn({"u4": 0, "u5": 0, "u6": 0},
                      ("x*y^2 - x*z^2", "-y^3 - y*z^2", "y^2*z + z^3")),
         SyzygyColumn({"u4": 0, "u5": 0, "u6": 0},
                      ("-x^3 - x*z^2", "x^2*y - y*z^2", "x^2*z + z^3"))),
        "general quartic with three nodes has gradient ideal of linear type"),
    FamilyFixture(
        "b", "two-nodes-cusp", "two nodes and one cusp", ("u4", "u5"),
        "y^2*z^2 + x^2*z^2 + x^2*y^2 + 2*x*y*z^2 + 2*x*y*z*(u4*x + u5*y)",
        ("u4^2 - 1", "u5^2 - 1", "u4 - u5"),
        (SyzygyColumn(None, (
            "-(x^2*(u4^2 - 1) + x*y*(u4*u5 - 1) + 2*x*z*(u4 - u5) + y*z*(u4 - u5))",
            "y^2*(u5^2 - 1) + x*y*(u4*u5 - 1) + x*z*(u5 - u4) + 2*y*z*(u5 - u4)",
            "3*z^2*(u4 - u5) + x*y*(u4 - u5) + x*z*(2*u4^2 - u4*u5 - 1)"
            " + y*z*(-2*u5^2 + u4*u5 + 1)")),),
        "general quartic with two nodes and a cusp has gradient ideal of linear type"),
    FamilyFixture(
        "c", "node-two-cusps", "one node and two cusps", ("u4",),
        "y^2*z^2 + x^2*z^2 + x^2*y^2 + 2*x*y^2*z + 2*x*y*z^2 + 2*u4*x^2*y*z",
        ("u4^2 - 1",),
        (SyzygyColumn(None, (
            "-x*y + x*z",
            "3*y^2 + 2*u4*x*y + 2*x*z + 3*y*z",
            "-3*z^2 - 2*u4*x*z - 2*x*y - 3*y*z")),
         SyzygyColumn(None, (
            "(u4 + 1)*x^2 + 3/2*x*y + 3/2*x*z + y*z",
            "-(u4 + 1)*x*y - 3/2*y^2 + 1/2*y*z",
            "-(u4 + 1)*x*z + 1/2*y*z - 3/2*z^2"))),
        "general quartic with a node and two cusps has gradient ideal of linear type"),
    FamilyFixture(
        "d", "three-cusps", "three cusps", (),
        "y^2*z^2 + x^2*z^2 + x^2*y^2 - 2*x*y*z*(x + y + z)",
        (),
        (SyzygyColumn(None, (
            "x^2 + x*y + 2/3*x*z - 2/3*y*z",
            "-x*y - y^2 + 2/3*x*z - 2/3*y*z",
            "-1/3*x*z + 1/3*y*z")),
         SyzygyColumn(None, (
            "x*y + x*z - 2/3*y*z", "-y^2 + 1/3*y*z", "1/3*y*z - z^2"))),
        "the tricuspidal quartic has gradient ideal of linear type"),
    FamilyFixture(
        "e", "tacnode-cusp", "one tacnode and one cusp", ("u5",),
        "x^2*z^2 + y^4 + 2*y^3*z + 2*u5*x*y^2*z",
        ("u5^2 - 1",),
        (SyzygyColumn({"u5": 0}, ("2*x^2 - 3*y^2", "x*z", "-2*x*z")),
         SyzygyColumn({"u5": 0}, ("2*x*y + 3*x*z", "y*z", "-2*y*z - 3*z^2"))),
        "general quartic with a tacnode and a cusp has gradient ideal of linear type"),
    FamilyFixture(
        "f", "tacnode-node", "one tacnode and one node", ("u4", "u5"),
        "z^2*(x^2 + y^2) + y^4 + 2*y^2*z*(u4*y + 2*u5*x)",
        ("u5^2 - 1", "u4^2 + u5^2 - 1"),
        (SyzygyColumn({"u4": 0, "u5": 0}, ("x^2 + y^2", "0", "-x*z")),
         SyzygyColumn({"u4": 0, "u5": 0},
                      ("2*x*y^2 + x*z^2", "y*z^2", "-2*y^2*z - z^3"))),
        "general quartic with a tacnode and a node has gradient ideal of linear type"),
    FamilyFixture(
        "g", "ramphoid-cusp-node", "one ramphoid cusp and one node", ("u2",),
        "x^2*z^2 + y^4 + 2*z*y^3 + 2*x*y^2*z + u2*z^2*y^2",
        ("u2",),
        (SyzygyColumn({"u2": 1},
                      ("5*x*y + y^2 + x*z + y*z", "-x*z + y*z", "-3*y*z - z^2")),),
        "every member with u2 nonzero has gradient ideal of linear type;"
        " u2^2 lies in the saturation contraction"),
    FamilyFixture(
        "h", "ramphoid-cusp-cusp", "one ramphoid cusp and one cusp", (),
        "x^2*z^2 + y^4 + 2*z*y^3 + 2*x*y^2*z",
        (),
        (SyzygyColumn(None, ("2*y^2 - 3*x*z", "-y*z", "3*z^2")),
         SyzygyColumn(None, (
            "x^2 - 27/50*x*z",
            "1/5*x*y + 1/5*y^2 + 3/25*x*z - 9/50*y*z",
            "-2/5*y^2 - x*z - 6/25*y*z + 27/50*z^2"))),
        "the ramphoid-cusp-plus-cusp quartic has gradient ideal of linear type"),
    FamilyFixture(
        "i", "oscnode", "one oscnode", ("u3",),
        "(y^2 - x*z)^2 + y^2*z^2 + u3*z^4",
        ("u3",),
        (),
        "every member with u3 nonzero has gradient ideal of linear type;"
        " u3 lies in the saturation contraction"),
    FamilyFixture(
        "j", "a6-singularity", "one singularity of type A6", (),
        "(y^2 - x*z)^2 + 2*y*z^3",
        (),
        (SyzygyColumn(None, ("6*y^2 + x*z", "3*y*z", "-z^2")),
         SyzygyColumn(None, ("7*x^2 + 18*y*z", "3*x*y", "6*y^2 - 7*x*z"))),
        "the A6 quartic has gradient ideal of linear type"),
    FamilyFixture(
        "k", "ordinary-triple-point", "an ordinary triple point", ("u1", "u2"),
        "x*(y^2 - x^2)*z + y^4 + x^2*y*(u1*y + u2*x)",
        (),
        (SyzygyColumn({"u1": 0, "u2": 0},
                      ("x^2 - 2/3*y^2 + 1/6*x*z", "1/6*y*z", "-3*x*z - 1/2*z^2")),),
        "general quartic with an ordinary triple point has gradient ideal of linear type"),
    FamilyFixture(
        "l", "triple-point-double-tangent", "a triple point with double tangent",
        ("u1",),
        "x*y^2*z + x^4 + y^4 + u1*x^3*y",
        (),
        (SyzygyColumn({"u1": 0}, ("0", "x*y", "-4*y^2 - 2*x*z")),),
        "general quartic with a double-tangent triple point has gradient ideal of linear type"),
    FamilyFixture(
        "m", "higher-cusp", "a higher cusp", ("u1",),
        "y^3*z + x^4 + u1*x^2*y^2",
        (),
        (SyzygyColumn({"u1": 0}, ("0", "y", "-3*z")),),
        "general quartic with a higher cusp has gradient ideal of linear type"),
)


def family_by_name(name: str) -> FamilyFixture:
    for fam in FAMILIES:
        if name in (fam.key, fam.slug):
            return fam
    raise KeyError(f"no family fixture named {name!r}")


# ---------------------------------------------------------------------------
# single curves


@dataclass(frozen=True)
class CurveFixture:
    slug: str
    name: str
    poly: str
    expected: str            # "linear-type" / "not-linear-type"
    claim: str

    def curve(self) -> Polynomial:
        return make_ring(["x", "y", "z"]).parse(self.poly)


CURVES = (
    CurveFixture("three-node-quartic", "plane quartic with three ordinary nodes",
                 "x^2*y^2 + x^2*z^2 + y^2*z^2", "linear-type",
                 "gradient ideal of linear type; embedded algebra dimension 3"),
    CurveFixture("bad-quintic", "rational quintic with non-linear-type gradient ideal",
                 "y^4*z + x^5 + x^3*y^2", "not-linear-type",
                 "symmetric, embedded and relative-blowup algebras all distinct,"
                 " all of dimension 3"),
    CurveFixture("bad-quintic-embedded", "quintic whose embedded algebra has embedded primes",
                 "z*y^2*(x^2 + y^2) + x^5 + y^5 + x^3*y^2", "not-linear-type",
                 "second quintic with non-linear-type gradient ideal"),
    CurveFixture("fermat-quartic", "smooth Fermat quartic",
                 "x^4 + y^4 + z^4", "linear-type",
                 "smooth curve: the gradient ideal is a regular sequence"),
)


def curve_by_name(name: str) -> CurveFixture:
    for c in CURVES:
        if name == c.slug:
            return c
    raise KeyError(f"no curve fixture named {name!r}")


# ---------------------------------------------------------------------------
# torsion pair fixtures


def four_points_pair() -> PairInput:
    """Defining ideal of four general plane points and its Jacobian-minor ideal."""
    ring = make_ring(["x", "y", "z"])
    j_gens = [ring.parse("x^2 - x*z"), ring.parse("y^2 - y*z")]
    theta = jacobian(j_gens)
    i_gens = list(j_gens) + list(minors(theta, 2).gens)
    return make_pair(ring, i_gens, j_gens)


def coordinate_points_pair() -> PairInput:
    """Square-free quadrics of the three coordinate points plus the squares."""
    ring = make_ring(["x", "y", "z"])
    xs = ring.gens()
    j_gens = [xs[i] * xs[j] for i in range(3) for j in range(i + 1, 3)]
    i_gens = list(j_gens) + [x ** 2 for x in xs]
    return make_pair(ring, i_gens, j_gens)


def product_partials_pair() -> PairInput:
    """Partials of x*y*z plus the squared mixed second partials."""
    names = ["x", "y", "z"]
    ring = make_ring(names)
    x, y, z = ring.gens()
    prod = x * y * z
    j_gens = [prod.derivative(v) for v in names]
    sq = []
    for i in range(3):
        for j in range(i + 1, 3):
            delta = j_gens[j].derivative(names[i])
            sq.append(delta * delta)
    return make_pair(ring, j_gens + sq, j_gens)


def forms_pair() -> PairInput:
    """Equigenerated quadrics J with I = (J, m^2)."""
    ring = make_ring(["x", "y", "z"])
    x, y, z = ring.gens()
    j_gens = [x * x - y * z, y * y - x * z]
    mr = [ring.monomial(m, 1) for m in monomials_of_degree(3, 2)]
    return make_pair(ring, j_gens + mr, j_gens)


PAIR_FIXTURES = {
    "four-points": (four_points_pair,
                    "nonzero torsion in fiber degree 2, generated by two quartic residues"),
    "coordinate-points": (coordinate_points_pair,
                          "torsion-free pair: square-free quadrics and pure powers"),
    "product-partials": (product_partials_pair,
                         "torsion-free pair: monomial partials and squared mixed partials"),
    "equigenerated-forms": (forms_pair,
                            "torsion-free pair: same-degree forms with a power of the"
                            " irrelevant ideal"),
}


def pair_by_name(name: str) -> PairInput:
    ctor, _ = PAIR_FIXTURES[name]
    return ctor()
