"""One refusal contract for a solution system ``x_i^{k_i} = c_i`` in ``X(d; a)``.

Each row is one hostile exponent or one hostile set of type rows, put into a
system that is otherwise well formed.  Built through :class:`CyclicQuotientType`,
the system must be refused by both closed-form counts and by the enumeration
oracle in both modes, each with :class:`IllFormed` and the row's one message.
The base group order is past the oracle's default budget, so a refusal that
ran after the budget check would show as :class:`BudgetExceeded`, and no row
reaches an enumeration.
"""

from fractions import Fraction

import pytest

from monocurve.errors import BudgetExceeded, IllFormed
from monocurve.oracle import DEFAULT_BUDGET, enum_count_solutions
from monocurve.qspace import CyclicQuotientType, count_solutions_fixed_tail, count_solutions_total

D = DEFAULT_BUDGET.max_group_order + 1
TYPE = ((D,), ((1, 1),))  # X(D; 1, 1); exponent D at each coordinate is well formed
CONSTANTS = (Fraction(0), Fraction(1, 2))

ONE_ROW = "counting requires a one-row type"
# (id, type arguments (d, A), exponent at coordinate 0, message)
ROWS = [
    *[
        (name, TYPE, x, f"exponents must be integers, got {x!r}")
        for name, x in [
            ("bool", True), ("integral float", 2.0), ("float", 2.5), ("nan", float("nan")),
            ("inf", float("inf")), ("fraction", Fraction(5, 2)), ("str", "4"), ("None", None),
        ]
    ],
    ("zero", TYPE, 0, "exponents must be >= 1, got 0"),
    ("negative", TYPE, -1, "exponents must be >= 1, got -1"),
    ("non-iterable orders", (D, ((1, 1),)), D, ONE_ROW),
    ("zero rows", ((), ()), D, ONE_ROW),
    ("two rows", ((D, D), ((1, 1), (1, 1))), D, ONE_ROW),
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
