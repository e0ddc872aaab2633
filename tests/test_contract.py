"""The refusal contract: hostile input gets one documented error and one message.

The first tables cover a solution system ``x_i^{k_i} = c_i`` in ``X(d; a)``.

Each row is one hostile exponent or one hostile set of type rows, put into a
system that is otherwise well formed.  Built through :class:`CyclicQuotientType`,
the system must be refused by both closed-form counts and by the enumeration
oracle in both modes, each with :class:`IllFormed` and the row's one message.
A second table holds hostile constant vectors, which the oracle alone takes.
The base group order is past the oracle's default budget, so a refusal that
ran after the budget check would show as :class:`BudgetExceeded`, and no row
reaches an enumeration.

The last table starts from one valid call of each semigroup function, of the
exhaustive digit search, of each :class:`FactorProduct` constructor, of the
quotient-type and curve-spec constructors, of :func:`cyclotomic_exponent`, of
the dense expansion and its verifier, of the enumeration budget and grid, of
the exact-division helper, of the graph export and of the factor rendering,
and puts one hostile value into one argument at a time.  Each row names the
error class and the message; the class is a ``ValueError`` that the
function's docstring names, or a :class:`MonocurveError` subclass.  An int
past the int-to-str digit limit (``HUGE``) is refused with the function's own
error, its message showing the int's bit length wherever it sits: a tuple or
list shows it item by item, and any other value holding it shows as a
placeholder naming its type.
"""

import sys
from fractions import Fraction

import pytest

from monocurve.errors import (
    BudgetExceeded, IllFormed, InternalInconsistency, NotCoprime, NotDivisible, NotPlane,
    NotPolynomial, NotRepresentable, _exact_div,
)
from monocurve.oracle import (
    DEFAULT_BUDGET, EnumerationBudget, enum_count_solutions, enum_digits, expand_and_verify,
    grid_discrepancies,
)
from monocurve.qspace import (
    CyclicQuotientType, WeightedCurveSpec, count_solutions_fixed_tail, count_solutions_total,
)
from monocurve.resolution import build_resolution, export_graph
from monocurve.semigroup import (
    build_semigroup, decompose, min_last_generator, plane_semigroups, random_semigroup,
)
from monocurve.zeta import (
    CharacteristicPolynomial, FactorProduct, characteristic_polynomial, cyclotomic_exponent,
)

D = DEFAULT_BUDGET.max_group_order + 1
TYPE = ((D,), ((1, 1),))  # X(D; 1, 1); exponent D at each coordinate is well formed
CONSTANTS = (Fraction(0), Fraction(1, 2))

# (label, value) of each hostile value that is not an int
NON_INTS = [
    ("bool", True), ("integral float", 2.0), ("float", 2.5), ("nan", float("nan")),
    ("inf", float("inf")), ("fraction", Fraction(5, 2)), ("str", "4"), ("None", None),
]
ONE_ROW = "counting requires a one-row type"
# (id, type arguments (d, A), exponent at coordinate 0, message)
ROWS = [
    *[
        (name, TYPE, x, f"exponents must be integers, got {x!r}")
        for name, x in NON_INTS
    ],
    ("zero", TYPE, 0, "exponents must be >= 1, got 0"),
    ("negative", TYPE, -1, "exponents must be >= 1, got -1"),
    ("non-iterable orders", (D, ((1, 1),)), D, ONE_ROW),
    ("zero rows", ((), ()), D, ONE_ROW),
    ("two rows", ((D, D), ((1, 1), (1, 1))), D, ONE_ROW),
]

# (id, constants, message)
CONSTANT_ROWS = [
    ("None", None, "constants must be a sequence of rationals, got None"),
    ("int", 0, "constants must be a sequence of rationals, got 0"),
]

CALLS = {
    "total": lambda t, x: count_solutions_total(t, (x, D)),
    "fixed tail": lambda t, x: count_solutions_fixed_tail(t, x),
    "oracle total": lambda t, x: enum_count_solutions(t, (x, D), CONSTANTS, "total"),
    "oracle fixed tail": lambda t, x: enum_count_solutions(t, (x, D), CONSTANTS, "fixed_tail"),
}


def test_base_system_is_well_formed_and_past_the_budget():
    t = CyclicQuotientType(*TYPE)
    assert count_solutions_total(t, (D, D)) == D
    assert count_solutions_fixed_tail(t, D) == D
    with pytest.raises(BudgetExceeded):
        enum_count_solutions(t, (D, D), CONSTANTS)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("rows, x, message", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_one_refusal(rows, x, message, call):
    # Every call builds its type from the row, so a type row is refused by the constructor.
    with pytest.raises(IllFormed) as info:
        call(CyclicQuotientType(*rows), x)
    assert type(info.value) is IllFormed
    assert str(info.value) == message


@pytest.mark.parametrize("mode", ["total", "fixed_tail"])
@pytest.mark.parametrize("c, message", [r[1:] for r in CONSTANT_ROWS],
                         ids=[r[0] for r in CONSTANT_ROWS])
def test_one_constant_refusal(c, message, mode):
    with pytest.raises(IllFormed) as info:
        enum_count_solutions(CyclicQuotientType(*TYPE), (D, D), c, mode)
    assert type(info.value) is IllFormed
    assert str(info.value) == message



SG = build_semigroup((4, 6, 13))
NOT_INT = "{name} must be an integer, got {x!r}"
PAIRS = "factors must be (a, e_a) pairs, got {x!r}"
MAPPING = "factors must be a mapping, got {x!r}"
HUGE = 10**5000  # past the default int-to-str digit limit of 4300 digits
LIMITED = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                             reason="no int-to-str digit limit")
SHOWN = "<int of 16610 bits>"  # how a message shows HUGE, HUGE + 1 or HUGE + 2
# (label, a value holding HUGE, how a message shows it); repr raises on each
HELD = [("Fraction(HUGE, 3)", Fraction(HUGE, 3), "<Fraction object>"),
        ("[HUGE]", [HUGE], f"[{SHOWN}]"), ("{HUGE}", {HUGE}, "<set object>")]
WIDE_N1 = 10**4400  # n_1 = e_0/e_1 of WIDE, past the digit limit
WIDE = build_semigroup((2 * WIDE_N1, 2 * WIDE_N1 + 2, WIDE_N1 * (2 * WIDE_N1 + 2) + 1))
SMALL_BUDGET = EnumerationBudget(1, 1, 1)
GRAPH = build_resolution(SG)
FP = FactorProduct(((2, 1),))  # 1 - t^2
# g = 3 with n_2 = n_3 = MANY, so E_1 has r_1 = MANY components, past the digit limit
MANY = 10**4400
MANY_GRAPH = build_resolution(build_semigroup(
    (2 * MANY**2, 3 * MANY**2, MANY * (6 * MANY + 1), MANY**2 * (6 * MANY + 1) + 1)))
SPEC = (2, (1, 0, 0), (1, 1, 1), (2, 2, 2))  # x_0^2 + x_1^2 + x_2^2 = 0 in X(2; 1, 0, 0)
POSITIVE = "orders, weights and exponents must be positive"
BOUNDS = "all budget bounds must be positive"

# (function, the arguments of one valid call)
VALID_CALLS = [
    (build_semigroup, ((4, 6, 13),)), (decompose, (SG, 26, 2)), (enum_digits, (26, 2, SG)),
    (min_last_generator, (2,)), (random_semigroup, (0, 2, 100)), (plane_semigroups, (13,)),
    (FactorProduct, ((),)), (FactorProduct.from_map, ({},)),
    (FactorProduct.from_t_minus_one, ({},)), (_exact_div, (6, 2, "b_{0}", 1)),
    (CyclicQuotientType, ((2,), ((1, 1),))), (WeightedCurveSpec, SPEC),
    (cyclotomic_exponent, (FactorProduct(((2, 1),)), 2)),
    (characteristic_polynomial(SG).expand, ()), (EnumerationBudget, (1, 1, 1)),
    (grid_discrepancies, (SMALL_BUDGET, 1, 0)), (expand_and_verify, (FP,)),
    (export_graph, (GRAPH, "dot")), (FP.render, ("t_minus_one",)),
]


def _rows(func, name, args_of, values, error, message, marks=()):
    """One row per ``(label, x)`` of ``values``: ``func(*args_of(x))`` raises
    ``error`` with ``message`` formatted with ``name`` and ``x``."""
    return [
        pytest.param(func, args_of(x), error, message.format(name=name, x=x),
                     id=f"{func.__qualname__}({name}={label})", marks=marks)
        for label, x in values
    ]


def _values(*xs):
    return [(repr(x), x) for x in xs]


def _held_rows(func, name, args_of, error, message):
    """One row per value of ``HELD``, the ``{x!r}`` of ``message`` read as its shown text."""
    return [
        pytest.param(func, args_of(x), error, message.replace("{x!r}", shown).format(name=name),
                     id=f"{func.__qualname__}({name}={label})", marks=LIMITED)
        for label, x, shown in HELD
    ]


ARGUMENT_ROWS = [
    # build_semigroup(gens): a non-iterable is refused like a bad entry, never with TypeError.
    *_rows(build_semigroup, "gens", lambda x: (x,), _values(None, 5, 2.5), ValueError,
           "generators must be a sequence of integers, got {x!r}"),
    *_rows(build_semigroup, "b_2", lambda x: ((4, 6, x),), [*NON_INTS, ("nested", (13,))],
           ValueError, "generators must be integers, got {x!r}"),
    *_rows(build_semigroup, "gens", lambda x: (x,), _values("4613"), ValueError,
           "generators must be integers, got '4'"),
    *_rows(build_semigroup, "gens", lambda x: (x,), _values((), (4, 6)), ValueError,
           "need at least three generators (g >= 2)"),
    *_rows(build_semigroup, "b_2", lambda x: ((4, 6, x),), _values(0, -1), ValueError,
           "generators must be positive"),
    *_rows(build_semigroup, "gens", lambda x: (x,), [("HUGE", HUGE)], ValueError,
           f"generators must be a sequence of integers, got {SHOWN}", marks=LIMITED),
    *_rows(build_semigroup, "b_2", lambda x: ((4, 6, x),), [("(HUGE,)", (HUGE,))], ValueError,
           f"generators must be integers, got ({SHOWN},)", marks=LIMITED),
    *_held_rows(build_semigroup, "b_2", lambda x: ((4, 6, x),), ValueError,
                "generators must be integers, got {x!r}"),
    *_rows(build_semigroup, "b_2", lambda x: ((4, 6, x),), [("HUGE + 2", HUGE + 2)], NotCoprime,
           f"gcd of (4, 6, {SHOWN}) is 2, expected 1", marks=LIMITED),
    *_rows(build_semigroup, "b_1", lambda x: ((4, x, 6),), [("HUGE + 2", HUGE + 2)], NotPlane,
           f"generators must be strictly increasing: (4, {SHOWN}, 6)", marks=LIMITED),
    # decompose(sg, s, i) and enum_digits(s, i, sg) share one level rule.
    *_rows(decompose, "s", lambda x: (SG, x, 2), NON_INTS, ValueError, NOT_INT),
    *_rows(decompose, "index i", lambda x: (SG, 26, x), NON_INTS, ValueError, NOT_INT),
    *_rows(decompose, "i", lambda x: (SG, 26, x), _values(0, -1, 3), ValueError,
           "index i must be in 1..2, got {x}"),
    *_rows(decompose, "s", lambda x: (SG, x, 2), _values(-1), NotRepresentable,
           "-1 is negative"),
    *_rows(decompose, "s", lambda x: (SG, x, 2), [("HUGE + 1", HUGE + 1)], NotRepresentable,
           f"{SHOWN} is not divisible by e_1 = 2", marks=LIMITED),
    *_rows(decompose, "i", lambda x: (SG, 26, x), [("HUGE + 1", HUGE + 1)], ValueError,
           f"index i must be in 1..2, got {SHOWN}", marks=LIMITED),
    *_held_rows(decompose, "s", lambda x: (SG, x, 2), ValueError, NOT_INT),
    *_rows(enum_digits, "s", lambda x: (x, 2, SG), NON_INTS, ValueError, NOT_INT),
    *_rows(enum_digits, "index i", lambda x: (26, x, SG), NON_INTS, ValueError, NOT_INT),
    *_rows(enum_digits, "i", lambda x: (26, x, SG), _values(0, -1, 3), ValueError,
           "index i must be in 1..2, got {x}"),
    *_rows(enum_digits, "s", lambda x: (x, 2, SG), _values(-1), NotRepresentable,
           "-1 has no digit representation at level 2"),
    *_rows(enum_digits, "s", lambda x: (x, 2, SG), [("HUGE + 1", HUGE + 1)], NotRepresentable,
           f"{SHOWN} has no digit representation at level 2", marks=LIMITED),
    *_rows(min_last_generator, "g", lambda x: (x,), NON_INTS, ValueError, NOT_INT),
    *_rows(min_last_generator, "g", lambda x: (x,), _values(0, -1), ValueError,
           "g must be >= 1"),
    # random_semigroup(seed, g, max_size); tests/test_semigroup.py refuses a huge g.
    *_rows(random_semigroup, "seed", lambda x: (x, 2, 100), NON_INTS, ValueError, NOT_INT),
    *_rows(random_semigroup, "g", lambda x: (0, x, 100), NON_INTS, ValueError, NOT_INT),
    *_rows(random_semigroup, "max_size", lambda x: (0, 2, x), NON_INTS, ValueError, NOT_INT),
    *_rows(random_semigroup, "g", lambda x: (0, x, 100), _values(1, 0, -1), ValueError,
           "g must be >= 2"),
    *_rows(random_semigroup, "max_size", lambda x: (0, 2, x), _values(12, 0, -1), ValueError,
           "no plane semigroup with g=2 has generators <= {x}"),
    *_rows(random_semigroup, "max_size", lambda x: (0, 2, x), [("-HUGE", -HUGE)], ValueError,
           f"no plane semigroup with g=2 has generators <= -{SHOWN}", marks=LIMITED),
    *_rows(random_semigroup, "g", lambda x: (0, x, 100), [("HUGE", HUGE)], ValueError,
           f"no plane semigroup with g={SHOWN} has generators <= 100", marks=LIMITED),
    # plane_semigroups(max_last) refuses at the call.  A bound below 13 is no
    # refusal, by design: it lists nothing, which is the true answer.
    *_rows(plane_semigroups, "max_last", lambda x: (x,), NON_INTS, ValueError, NOT_INT),
    # FactorProduct(factors, sign), from_map(factors, sign) and from_t_minus_one(factors).
    *_rows(FactorProduct, "factors", lambda x: (x,),
           _values(5, None, 2.5, (1, (2,)), ((1,),), ((1, 2, 3),)), ValueError, PAIRS),
    *_rows(FactorProduct, "factor exponent of t", lambda x: (((x, 1),),), NON_INTS,
           ValueError, NOT_INT),
    *_rows(FactorProduct, "factor multiplicity", lambda x: (((1, x),),), NON_INTS,
           ValueError, NOT_INT),
    *_rows(FactorProduct, "a", lambda x: (((x, 1),),), _values(0, -1), ValueError,
           "factor exponent of t must be positive, got {x}"),
    *_rows(FactorProduct, "sign", lambda x: ((), x), NON_INTS, ValueError, NOT_INT),
    *_rows(FactorProduct, "sign", lambda x: ((), x), _values(0, 2, -2), ValueError,
           "sign must be +1 or -1"),
    *_rows(FactorProduct.from_map, "factors", lambda x: (x,),
           _values(None, 5, (), ((1, 2),), "4"), ValueError, MAPPING),
    *_rows(FactorProduct.from_map, "factor exponent of t", lambda x: ({x: 1},), NON_INTS,
           ValueError, NOT_INT),
    *_rows(FactorProduct.from_map, "factor multiplicity", lambda x: ({1: x},), NON_INTS,
           ValueError, NOT_INT),
    *_rows(FactorProduct.from_map, "sign", lambda x: ({}, x), NON_INTS, ValueError, NOT_INT),
    *_held_rows(FactorProduct.from_map, "factor multiplicity", lambda x: ({1: x},), ValueError,
                NOT_INT),
    *_rows(FactorProduct.from_t_minus_one, "factors", lambda x: (x,), _values(None, 5, ()),
           ValueError, MAPPING),
    *_rows(FactorProduct.from_t_minus_one, "factor multiplicity", lambda x: ({1: x},),
           NON_INTS, ValueError, NOT_INT),
    # CyclicQuotientType(d, A): the row order d_0 and the weight a_0; each refusal is IllFormed.
    *_rows(CyclicQuotientType, "d_0", lambda x: ((x,), ((1, 1),)), NON_INTS, IllFormed,
           "row orders must be integers, got {x!r}"),
    *_rows(CyclicQuotientType, "d_0", lambda x: ((x,), ((1, 1),)), _values(0, -1), IllFormed,
           "row order must be >= 1, got {x}"),
    *_rows(CyclicQuotientType, "d_0", lambda x: ((x,), ((1, 1),)), [("-HUGE", -HUGE)],
           IllFormed, f"row order must be >= 1, got -{SHOWN}", marks=LIMITED),
    *_rows(CyclicQuotientType, "d", lambda x: (x, ((1, 1),)), _values(None, 2), IllFormed,
           ONE_ROW),
    *_rows(CyclicQuotientType, "a_0", lambda x: ((2,), ((x, 1),)), NON_INTS, IllFormed,
           "weights must be integers, got {x!r}"),
    *_rows(CyclicQuotientType, "A_0", lambda x: ((2,), (x,)), _values(None, 2), IllFormed,
           "weights must be a sequence of integers, got {x!r}"),
    *_rows(CyclicQuotientType, "A", lambda x: ((2,), x), _values(None, 2), IllFormed, ONE_ROW),
    # The one system check of both counts and the oracle, on X(2; 1).
    *_rows(count_solutions_total, "k_0", lambda x: (CyclicQuotientType((2,), ((1,),)), (x,)),
           [("-HUGE", -HUGE)], IllFormed, f"exponents must be >= 1, got -{SHOWN}",
           marks=LIMITED),
    *_rows(count_solutions_total, "k_0", lambda x: (CyclicQuotientType((2,), ((1,),)), (x,)),
           [("HUGE + 1", HUGE + 1)], IllFormed,
           f"system not well defined: d=2 does not divide a_0*k_0={SHOWN}", marks=LIMITED),
    # WeightedCurveSpec(d, a, p, m); True and 2.0 as d and True as an exponent are
    # tests/test_qspace.py's SPEC_TYPE_CASES.
    *_rows(WeightedCurveSpec, "d", lambda x: (x, *SPEC[1:]), NON_INTS[2:], IllFormed,
           "orders must be integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "d", lambda x: (x, *SPEC[1:]), _values(0, -1), IllFormed,
           POSITIVE),
    *_rows(WeightedCurveSpec, "a_1", lambda x: (2, (1, x, 0), (1, 1, 1), (2, 2, 2)), NON_INTS,
           IllFormed, "action weights must be integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "a", lambda x: (2, x, (1, 1, 1), (2, 2, 2)), _values(None, 2),
           IllFormed, "action weights must be a sequence of integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "p_0", lambda x: (2, (1, 0, 0), (x, 1, 1), (2, 2, 2)), NON_INTS,
           IllFormed, "weights must be integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "p_0", lambda x: (2, (1, 0, 0), (x, 1, 1), (2, 2, 2)),
           _values(0, -1), IllFormed, POSITIVE),
    *_rows(WeightedCurveSpec, "p", lambda x: (2, (1, 0, 0), x, (2, 2, 2)), _values(None, 2),
           IllFormed, "weights must be a sequence of integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "m_0", lambda x: (2, (1, 0, 0), (1, 1, 1), (x, 2, 2)),
           NON_INTS[1:], IllFormed, "exponents must be integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "m_0", lambda x: (2, (1, 0, 0), (1, 1, 1), (x, 2, 2)),
           _values(0, -1), IllFormed, POSITIVE),
    *_rows(WeightedCurveSpec, "m", lambda x: (2, (1, 0, 0), (1, 1, 1), x), _values(None, 2),
           IllFormed, "exponents must be a sequence of integers, got {x!r}"),
    *_rows(WeightedCurveSpec, "m_0", lambda x: (2, (1, 0, 0), (1, 1, 1), (x, 2, 2)),
           [("HUGE + 1", HUGE + 1)], IllFormed, f"d=2 does not divide a_0*m_0={SHOWN}",
           marks=LIMITED),
    # FactorProduct's exponent sign past the digit limit, cyclotomic_exponent(fp, d) and the
    # dense expansion's cap on the degree mu.
    *_rows(FactorProduct, "factors", lambda x: (x,), [("HUGE", HUGE)], ValueError,
           f"factors must be (a, e_a) pairs, got {SHOWN}", marks=LIMITED),
    *_rows(FactorProduct.from_map, "factors", lambda x: (x,), [("HUGE", HUGE)], ValueError,
           f"factors must be a mapping, got {SHOWN}", marks=LIMITED),
    *_rows(FactorProduct, "a", lambda x: (((x, 1),),), [("-HUGE", -HUGE)], ValueError,
           f"factor exponent of t must be positive, got -{SHOWN}", marks=LIMITED),
    *_rows(cyclotomic_exponent, "cyclotomic order", lambda x: (FactorProduct(((2, 1),)), x),
           NON_INTS, ValueError, NOT_INT),
    *_rows(cyclotomic_exponent, "d", lambda x: (FactorProduct(((2, 1),)), x), _values(0, -1),
           ValueError, "cyclotomic order must be positive, got {x}"),
    *_rows(cyclotomic_exponent, "d", lambda x: (FactorProduct(((2, 1),)), x),
           [("-HUGE", -HUGE)], ValueError, f"cyclotomic order must be positive, got -{SHOWN}",
           marks=LIMITED),
    *_held_rows(cyclotomic_exponent, "cyclotomic order", lambda x: (FP, x), ValueError, NOT_INT),
    *_rows(CharacteristicPolynomial.expand, "mu",
           lambda x: (CharacteristicPolynomial(FactorProduct(), x),), [("HUGE + 1", HUGE + 1)],
           BudgetExceeded, f"dense expansion of degree {SHOWN} exceeds cap 1000000",
           marks=LIMITED),
    # A huge (1 - t^a) under the cap leaves a remainder; a negative mu disagrees with Delta.
    *_rows(CharacteristicPolynomial.expand, "a",
           lambda x: (CharacteristicPolynomial(FactorProduct(((1, 1), (x, -1))), 1),),
           [("HUGE", HUGE)], NotPolynomial, f"cannot divide degree 1 by (1 - t^{SHOWN})",
           marks=LIMITED),
    *_rows(CharacteristicPolynomial.expand, "mu",
           lambda x: (CharacteristicPolynomial(FactorProduct(), x),), [("-HUGE", -HUGE)],
           InternalInconsistency, f"expansion degree 0 != mu = -{SHOWN}", marks=LIMITED),
    # expand_and_verify(fp) caps the numerator degree before expanding.
    *_rows(expand_and_verify, "a", lambda x: (FactorProduct(((x, 1),)),), [("HUGE", HUGE)],
           BudgetExceeded, f"numerator degree {SHOWN} exceeds 5000", marks=LIMITED),
    # EnumerationBudget(max_group_order, max_exponent, max_rank).
    *_rows(EnumerationBudget, "max_group_order", lambda x: (x, 1, 1), NON_INTS, ValueError,
           NOT_INT),
    *_rows(EnumerationBudget, "max_exponent", lambda x: (1, x, 1), NON_INTS, ValueError,
           NOT_INT),
    *_rows(EnumerationBudget, "max_rank", lambda x: (1, 1, x), NON_INTS, ValueError, NOT_INT),
    *_rows(EnumerationBudget, "max_group_order", lambda x: (x, 1, 1), _values(0, -1),
           ValueError, BOUNDS),
    *_rows(EnumerationBudget, "max_exponent", lambda x: (1, x, 1), _values(0, -1), ValueError,
           BOUNDS),
    *_rows(EnumerationBudget, "max_rank", lambda x: (1, 1, x), _values(0, -1), ValueError,
           BOUNDS),
    # The oracle's messages past the digit limit: the constants, d, then an exponent, over
    # the default budget, and the digit search's cap on WIDE, whose level 2 lists n_1 sums.
    *_rows(enum_count_solutions, "c", lambda x: (CyclicQuotientType(*TYPE), (D, D), x),
           [("HUGE", HUGE)], IllFormed, f"constants must be a sequence of rationals, got {SHOWN}",
           marks=LIMITED),
    *_rows(enum_count_solutions, "c_1", lambda x: (CyclicQuotientType(*TYPE), (D, D), (0, x)),
           [("[HUGE]", [HUGE])], IllFormed, f"constants must be rational, got [{SHOWN}]",
           marks=LIMITED),
    *_rows(enum_count_solutions, "mode",
           lambda x: (CyclicQuotientType((2,), ((1, 1),)), (2, 2), (0, 0), x), [("HUGE", HUGE)],
           ValueError, f"unknown mode {SHOWN}", marks=LIMITED),
    *_rows(enum_count_solutions, "d_0",
           lambda x: (CyclicQuotientType((x,), ((0,),)), (1,), (0,)), [("HUGE", HUGE)],
           BudgetExceeded, f"group order {SHOWN} exceeds 12", marks=LIMITED),
    *_rows(enum_count_solutions, "k_0", lambda x: (CyclicQuotientType((1,), ((0,),)), (x,), (0,)),
           [("HUGE", HUGE)], BudgetExceeded, f"exponent in ({SHOWN},) exceeds 6", marks=LIMITED),
    *_rows(enum_digits, "sg", lambda x: (2 * x.gens[2], 2, x), [("WIDE", WIDE)], BudgetExceeded,
           f"digit search lists <int of {WIDE_N1.bit_length()} bits> tail sums, over 10000",
           marks=LIMITED),
    # grid_discrepancies(budget, draws, seed); any int is a seed.
    *_rows(grid_discrepancies, "draws", lambda x: (SMALL_BUDGET, x, 0), NON_INTS, ValueError,
           NOT_INT),
    *_rows(grid_discrepancies, "draws", lambda x: (SMALL_BUDGET, x, 0), _values(0, -1),
           ValueError, "draws must be >= 1, got {x}"),
    *_rows(grid_discrepancies, "draws", lambda x: (SMALL_BUDGET, x, 0), [("-HUGE", -HUGE)],
           ValueError, f"draws must be >= 1, got -{SHOWN}", marks=LIMITED),
    *_rows(grid_discrepancies, "seed", lambda x: (SMALL_BUDGET, 1, x), NON_INTS, ValueError,
           NOT_INT),
    # export_graph(graph, format) and FactorProduct.render(convention) name an unknown choice;
    # both exports list the components first and cap their number.
    *_rows(export_graph, "format", lambda x: (GRAPH, x), [*NON_INTS, *_values("xml")],
           ValueError, "unknown format {x!r}"),
    *_rows(export_graph, "format", lambda x: (GRAPH, x), [("HUGE", HUGE)], ValueError,
           f"unknown format {SHOWN}", marks=LIMITED),
    *_rows(export_graph, "graph", lambda x: (x, "dot"), [("r_1 = MANY", MANY_GRAPH)],
           BudgetExceeded, f"<int of {(MANY + 2).bit_length()} bits> exceptional components "
           "exceed the cap 65536", marks=LIMITED),
    *_rows(FP.render, "convention", lambda x: (x,), [*NON_INTS, *_values("xml")], ValueError,
           "unknown convention {x!r}"),
    *_rows(FP.render, "convention", lambda x: (x,), [("HUGE", HUGE)], ValueError,
           f"unknown convention {SHOWN}", marks=LIMITED),
    # _exact_div(num, den, what, *args) formats its operands only on the failure branch.
    *_rows(_exact_div, "num", lambda x: (x, 2, "b_{0}", 1), [("HUGE + 1", HUGE + 1)],
           NotDivisible, f"b_1: {SHOWN} not divisible by 2", marks=LIMITED),
]


@pytest.mark.parametrize("func, args", VALID_CALLS, ids=[f.__qualname__ for f, _ in VALID_CALLS])
def test_base_call_is_valid(func, args):
    func(*args)


@pytest.mark.parametrize("func, args, error, message", ARGUMENT_ROWS)
def test_one_argument_refusal(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert type(info.value) is error
    assert str(info.value) == message
