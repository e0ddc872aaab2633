"""Tests for the brute-force enumeration oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from monocurve.errors import BudgetExceeded, NotPolynomial, NotRepresentable
from monocurve.oracle import (
    EnumerationBudget,
    cyclotomic_polynomial,
    enum_count_solutions,
    enum_digits,
    expand_and_verify,
    grid_discrepancies,
)
from monocurve.qspace import (
    CyclicQuotientType,
    count_solutions_fixed_tail,
    count_solutions_total,
)
from monocurve.semigroup import build_semigroup, decompose, random_semigroup
from monocurve.zeta import (
    FactorProduct,
    characteristic_polynomial,
    cyclotomic_exponent,
    milnor_number,
    zeta_closed_form,
)


def one_row(d, *a):
    return CyclicQuotientType((d,), (tuple(a),))


class TestEnumCountSolutions:
    def test_square_roots_mod_sign(self):
        t = one_row(2, 1, 1)
        k = (2, 2)
        c = (Fraction(0), Fraction(0))
        assert enum_count_solutions(t, k, c) == 2
        assert enum_count_solutions(t, k, c) == count_solutions_total(t, k)

    def test_trivial_group(self):
        t = one_row(1, 0)
        for k0 in (1, 2, 5):
            assert enum_count_solutions(t, (k0,), (Fraction(1, 3),)) == k0

    def test_free_action(self):
        t = one_row(6, 2, 3)
        rng = random.Random(0)
        for _ in range(20):
            c = tuple(Fraction(rng.randrange(6), 6) for _ in range(2))
            assert enum_count_solutions(t, (3, 2), c) == 1

    def test_fixed_tail(self):
        t = one_row(2, 1, 1)
        c = (Fraction(0), Fraction(1, 2))
        got = enum_count_solutions(t, (2, 2), c, mode="fixed_tail")
        assert got == count_solutions_fixed_tail(t, 2) == 2

    def test_budget_group_order(self):
        d = EnumerationBudget().max_group_order + 1
        with pytest.raises(BudgetExceeded):
            enum_count_solutions(one_row(d, 1), (d,), (Fraction(0),))

    def test_budget_exponent(self):
        with pytest.raises(BudgetExceeded):
            enum_count_solutions(one_row(1, 0), (7,), (Fraction(0),))

    def test_budget_rank(self):
        t = one_row(1, 0, 0, 0, 0, 0)
        with pytest.raises(BudgetExceeded):
            enum_count_solutions(t, (1,) * 5, (Fraction(0),) * 5)


def listed_count(d, a, k, c, mode):
    """Reference count: every group element applied to every point.

    A point is a tuple of residues mod 1, each a ``Fraction`` kept as its
    (numerator, denominator) pair.  In ``"fixed_tail"`` mode only the points
    carrying the first root of each tail constant are listed, so two of them
    are identified exactly when an element fixing the tail maps one to the
    other.
    """
    def residue(q):
        q %= 1
        return q.numerator, q.denominator

    roots = [[residue((ci + j) / ki) for j in range(ki)] for ki, ci in zip(k, c)]
    if mode == "total":
        points = list(itertools.product(*roots))
    else:
        points = [(x0, *(row[0] for row in roots[1:])) for x0 in roots[0]]
    # moved[i][x][u]: root x of coordinate i under the group element u.
    moved = [
        {x: [residue(Fraction(*x) + Fraction(u * ai, d)) for u in range(d)] for x in row}
        for row, ai in zip(roots, a)
    ]
    seen = set()
    orbits = 0
    for pt in points:
        if pt in seen:
            continue
        orbits += 1
        seen.update(zip(*(table[x] for table, x in zip(moved, pt))))
    return orbits


BUDGET_12 = EnumerationBudget(max_group_order=12)


class TestAgainstListing:
    def test_seeded_systems(self):
        rng = random.Random(2024)
        checked = {"total": 0, "fixed_tail": 0}
        kinds = set()
        for _ in range(2000):
            d = rng.randint(1, 12)
            pairs = [(a, k) for a in range(-d, d) for k in range(1, 7) if a * k % d == 0]
            combo = [rng.choice(pairs) for _ in range(rng.randint(1, 4))]
            a = tuple(x for x, _ in combo)
            k = tuple(x for _, x in combo)
            c = tuple(Fraction(rng.randrange(-6, 12), rng.randint(1, 6)) for _ in k)
            t = one_row(d, *a)
            for mode in ("total", "fixed_tail")[: min(len(k), 2)]:
                got = enum_count_solutions(t, k, c, mode, BUDGET_12)
                assert got == listed_count(d, a, k, c, mode), (d, a, k, c, mode)
                checked[mode] += 1
            # Order of the generator on each coordinate's roots: a_i/d mod 1.
            orders = {d // math.gcd(ai, d) for ai, ki in zip(a, k) if ki > 1}
            kinds.add(("d=1", d == 1))
            kinds.add(("unequal cycles", len(orders) > 1))
            kinds.add(("not free", math.lcm(*orders) < d if orders else d > 1))
        assert min(checked.values()) >= 1000
        assert kinds == {(name, flag) for name in ("d=1", "unequal cycles", "not free")
                         for flag in (False, True)}

    def test_hand_computed_non_free(self):
        # X(12; 6, 4, 0) with k = (2, 3, 5), c = 0: the generator moves x0 by 1/2,
        # x1 by 1/3 and fixes x2, so u = 6 fixes every point.  The 30 points
        # fall into orbits of size 6: 5 orbits.  With the tail (x1, x2) = (0, 0)
        # fixed, u = 3 still acts and swaps the two roots of x0: 1 class.
        t = one_row(12, 6, 4, 0)
        k, c = (2, 3, 5), (Fraction(0),) * 3
        assert enum_count_solutions(t, k, c, "total", BUDGET_12) == 5
        assert enum_count_solutions(t, k, c, "fixed_tail", BUDGET_12) == 1
        assert count_solutions_total(t, k) == 5
        assert count_solutions_fixed_tail(t, k[0]) == 1


class TestEnumDigits:
    def test_matches_decompose(self):
        sg = build_semigroup((4, 6, 13))
        assert enum_digits(26, 2, sg) == (5, 1)
        assert enum_digits(26, 2, sg) == decompose(sg, 26, 2)

    def test_not_representable(self):
        sg = build_semigroup((4, 6, 13))
        with pytest.raises(NotRepresentable):
            enum_digits(1, 1, sg)

    def test_fuzzed_agreement(self):
        rng = random.Random(5)
        for seed in range(30):
            sg = random_semigroup(seed, 2 + seed % 3, 10**4)
            for _ in range(5):
                i = rng.randint(1, sg.g)
                digits = tuple(
                    rng.randrange(sg.n[j]) if j else rng.randrange(4)
                    for j in range(i)
                )
                s = sum(c * b for c, b in zip(digits, sg.gens))
                try:
                    assert enum_digits(s, i, sg) == decompose(sg, s, i) == digits
                except BudgetExceeded:
                    pass


class TestCyclotomicPolynomial:
    def test_small(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


class TestExpandAndVerify:
    def test_delta_example(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        coeffs, mults = expand_and_verify(delta.product)
        assert len(coeffs) == 17
        assert coeffs == delta.expand()
        # (t-1)(t^6-1)(t^26-1) / (t^2-1)^2 (t^13-1) = Phi_3 Phi_6 Phi_26
        assert mults == {3: 1, 6: 1, 26: 1}

    def test_trivial_quotient(self):
        fp = FactorProduct.from_map({1: 1}) / FactorProduct.from_map({1: 1})
        coeffs, mults = expand_and_verify(fp)
        assert coeffs == (1,)
        assert mults == {}

    def test_zeta_not_polynomial(self):
        with pytest.raises(NotPolynomial):
            expand_and_verify(zeta_closed_form(build_semigroup((4, 6, 13))))

    def test_budget(self):
        fp = FactorProduct.from_map({5001: 2})
        with pytest.raises(BudgetExceeded):
            expand_and_verify(fp)

    def test_fuzzed_delta_agreement(self):
        # Seeded draws with b_g up to 200, past the exhaustive b_g <= 60
        # stratum yet small enough to expand: the Phi_d multiplicities are
        # the closed form's c_d at every divisor of a factor exponent.
        for seed in range(60):
            sg = random_semigroup(seed, 2 + seed % 2, 200)
            delta = characteristic_polynomial(sg)
            coeffs, mults = expand_and_verify(delta.product)
            assert len(coeffs) == milnor_number(sg) + 1
            assert coeffs == delta.expand()
            orders = {d for a, _ in delta.product.factors for d in range(1, a + 1) if a % d == 0}
            expected = {d: cyclotomic_exponent(delta.product, d) for d in orders}
            assert mults == {d: c for d, c in expected.items() if c}, sg.gens


class TestGrid:
    def test_tiny_grid_clean(self):
        budget = EnumerationBudget(
            max_group_order=4, max_exponent=3, max_rank=2, max_poly_degree=100
        )
        assert grid_discrepancies(budget, draws=2, seed=1) == []

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_group_order=0)
