"""Exact invariants of plane-branch space monomial curves.

From the minimal generators of a plane-branch semigroup this package
computes, in exact integer/rational arithmetic: the semigroup invariants,
the combinatorial embedded Q-resolution dual graph obtained by weighted
blow-ups, the monodromy zeta function and characteristic polynomial, the
candidate poles of the motivic Igusa zeta function, and a certified check
that every pole induces a monodromy eigenvalue.  The closed forms are
cross-validated against independent computations or brute-force oracles,
at run time or in the tests.  Of the candidate pole values, the first
level has an independent check in the tests (a monomial valuation on the
binomial equations of the monomial curve); at the levels ``k >= 2`` only
the integer numerator of the formula is compared with that of a regrouped
form.

The package namespace holds the calculator (pipeline functions, report and
graph types, errors, cyclic-quotient solution counts); every other public name
is imported from its module, e.g. ``from monocurve.semigroup import random_semigroup``.
"""

from .conjecture import (
    ConjectureReport,
    PoleEntry,
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
from .oracle import enum_count_solutions
from .qspace import (
    CyclicQuotientType,
    count_solutions_fixed_tail,
    count_solutions_total,
)
from .resolution import (
    GraphLevel,
    ResolutionGraph,
    Stratum,
    build_resolution,
)
from .semigroup import (
    PlaneSemigroup,
    build_semigroup,
)
from .zeta import (
    CharacteristicPolynomial,
    FactorProduct,
    characteristic_polynomial,
    zeta_closed_form,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetExceeded",
    "CharacteristicPolynomial",
    "ConjectureReport",
    "CyclicQuotientType",
    "FactorProduct",
    "GraphLevel",
    "HypothesisViolated",
    "IllFormed",
    "InternalInconsistency",
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
    "build_resolution",
    "build_semigroup",
    "characteristic_polynomial",
    "count_solutions_fixed_tail",
    "count_solutions_total",
    "cross_check",
    "enum_count_solutions",
    "verify_conjecture",
    "zeta_closed_form",
]
