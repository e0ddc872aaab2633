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
exhaustive digit search, of each :class:`FactorProduct` constructor and of
the exact-division helper, and puts one hostile value into one argument at a
time.  Each row names the error class and the message; the class is a
``ValueError`` that the function's docstring names, or a
:class:`MonocurveError` subclass.  An int past the int-to-str digit limit
(``HUGE``) is refused with the function's own error, its message showing the
int's bit length.
"""

import sys
from fractions import Fraction

import pytest

from monocurve.errors import (
    BudgetExceeded, IllFormed, NotCoprime, NotDivisible, NotPlane, NotRepresentable, _exact_div,
)
from monocurve.oracle import DEFAULT_BUDGET, enum_count_solutions, enum_digits
from monocurve.qspace import CyclicQuotientType, count_solutions_fixed_tail, count_solutions_total
from monocurve.semigroup import (
    build_semigroup, decompose, min_last_generator, plane_semigroups, random_semigroup,
)
from monocurve.zeta import FactorProduct

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

# (function, the arguments of one valid call)
VALID_CALLS = [
    (build_semigroup, ((4, 6, 13),)), (decompose, (SG, 26, 2)), (enum_digits, (26, 2, SG)),
    (min_last_generator, (2,)), (random_semigroup, (0, 2, 100)), (plane_semigroups, (13,)),
    (FactorProduct, ((),)), (FactorProduct.from_map, ({},)),
    (FactorProduct.from_t_minus_one, ({},)), (_exact_div, (6, 2, "b_{0}", 1)),
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
    *_rows(FactorProduct.from_t_minus_one, "factors", lambda x: (x,), _values(None, 5, ()),
           ValueError, MAPPING),
    *_rows(FactorProduct.from_t_minus_one, "factor multiplicity", lambda x: ({1: x},),
           NON_INTS, ValueError, NOT_INT),
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
