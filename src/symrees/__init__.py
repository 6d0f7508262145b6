"""symrees: exact symmetric/Rees/Aluffi algebra presentations over Q.

Layers, bottom up: budget (the work budget), rings (sparse rational
polynomials in block-structured rings), groebner (the Buchberger engine),
hilbert (Hilbert series of monomial ideals, for Hilbert-driven runs),
ideal_ops (set operations and dimension), syzygy (first syzygies, minors,
Jacobians), blowup (algebra presentations and invariants of a pair J <= I),
curves (gradient ideals, linear-type certificates, family analysis),
fixtures (built-in worked examples) and cli (the command-line front end).

All values are immutable after construction and safe to share across
threads; per-object caches only ever replace missing entries, or a basis
left unfinished (see `groebner`), with equivalent computed values.  The
work budget is context-scoped: `with work_limit(n):` gives the engine calls
and polynomial products in its block one shared budget of n units, held in
a ContextVar, so concurrent threads never see each other's budget (a new
thread starts outside every block).
"""

from .rings import (
    GREVLEX,
    LEX,
    HomogeneityReport,
    Ideal,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    block_order,
    make_ring,
    parse_ring_header,
    poly_str,
)
from .budget import WorkLimitExceeded, work_limit
from .groebner import (
    GroebnerBasis,
    buchberger,
    buchberger_tracked,
    division,
    groebner,
    ideal_member,
    normal_form,
    radical_member,
)
from .ideal_ops import (
    DimensionReport,
    dimension,
    eliminate,
    ideal_contains,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    minimal_homogeneous_generators,
    quotient,
    saturate,
    saturate_by_variable,
    saturate_principal,
)
from .syzygy import PolyMatrix, entry_ideal, hessian, jacobian, minors, syzygies
from .blowup import (
    AluffiPresentation,
    PairInput,
    TorsionReport,
    aluffi_dimension,
    aluffi_presentation,
    analytic_spread,
    artin_rees_number,
    is_linear_type,
    make_pair,
    rees_ideal,
    relation_type,
    relative_rees_ideal,
    standard_base_check,
    sym_ideal,
    verify_component_list,
    vv_pieces,
)
from .curves import (
    Certificate,
    FamilyReport,
    GradientPair,
    MemberReport,
    Verdict,
    analyze_family,
    evaluate_member,
    gradient_pair,
    linear_type_certificate,
)
from .fixtures import CURVES, FAMILIES, curve_by_name, family_by_name

__all__ = [name for name in dir() if not name.startswith("_")]
