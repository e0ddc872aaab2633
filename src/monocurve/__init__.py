"""Exact invariants of plane-branch space monomial curves.

From the minimal generators of a plane-branch semigroup this package
computes, in exact integer/rational arithmetic: the semigroup invariants,
the combinatorial embedded Q-resolution dual graph obtained by weighted
blow-ups, the monodromy zeta function and characteristic polynomial, the
candidate poles of the motivic Igusa zeta function, and a certified check
that every pole induces a monodromy eigenvalue.  The closed forms are
cross-validated against independent computations or brute-force oracles,
at run time or in the tests, except the candidate pole values: only a
regrouping of their own formula checks those.
"""

from .conjecture import (
    ConjectureReport,
    PoleEntry,
    candidate_poles,
    pk_factorization,
    verify_conjecture,
)
from .crosscheck import cross_check
from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    IllFormed,
    InternalInconsistency,
    MonocurveError,
    NotCoprime,
    NotDivisible,
    NotPlane,
    NotPolynomial,
    NotRepresentable,
)
from .oracle import (
    EnumerationBudget,
    enum_count_solutions,
    enum_digits,
    expand_and_verify,
    grid_discrepancies,
)
from .qspace import (
    CyclicQuotientType,
    WeightedCurveSpec,
    count_solutions_fixed_tail,
    count_solutions_total,
    curve_axis_intersections,
    curve_component_count,
    curve_open_euler,
    divisor_multiplicity,
    l_factor,
)
from .resolution import (
    GraphLevel,
    LocalType,
    ResolutionGraph,
    Stratum,
    build_resolution,
    export_graph,
    zeta_from_graph,
)
from .semigroup import (
    BRecursionTable,
    PlaneSemigroup,
    b_table,
    build_semigroup,
    decompose,
    min_last_generator,
    random_semigroup,
)
from .zeta import (
    CharacteristicPolynomial,
    FactorProduct,
    characteristic_polynomial,
    cyclotomic_exponent,
    milnor_number,
    negative_cyclotomic_orders,
    resolution_multiplicities,
    zeta_closed_form,
)

__version__ = "1.0.0"

__all__ = [
    "BRecursionTable",
    "BudgetExceeded",
    "CharacteristicPolynomial",
    "ConjectureReport",
    "CyclicQuotientType",
    "EnumerationBudget",
    "FactorProduct",
    "GraphLevel",
    "HypothesisViolated",
    "IllFormed",
    "InternalInconsistency",
    "LocalType",
    "MonocurveError",
    "NotCoprime",
    "NotDivisible",
    "NotPlane",
    "NotPolynomial",
    "NotRepresentable",
    "PlaneSemigroup",
    "PoleEntry",
    "ResolutionGraph",
    "Stratum",
    "WeightedCurveSpec",
    "b_table",
    "build_resolution",
    "build_semigroup",
    "candidate_poles",
    "characteristic_polynomial",
    "count_solutions_fixed_tail",
    "count_solutions_total",
    "cross_check",
    "curve_axis_intersections",
    "curve_component_count",
    "curve_open_euler",
    "cyclotomic_exponent",
    "decompose",
    "divisor_multiplicity",
    "enum_count_solutions",
    "enum_digits",
    "expand_and_verify",
    "export_graph",
    "grid_discrepancies",
    "l_factor",
    "milnor_number",
    "min_last_generator",
    "negative_cyclotomic_orders",
    "pk_factorization",
    "random_semigroup",
    "resolution_multiplicities",
    "verify_conjecture",
    "zeta_closed_form",
    "zeta_from_graph",
]
