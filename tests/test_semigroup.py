"""Tests for semigroup validation, digit decomposition and the b-recursion."""

import itertools
import math

import pytest

from monocurve.errors import (
    BudgetExceeded,
    NotCoprime,
    NotPlane,
    MonocurveError,
    NotRepresentable,
)
from monocurve.semigroup import (
    b_table,
    build_semigroup,
    decompose,
    min_last_generator,
    random_semigroup,
)


class TestBuildSemigroup:
    def test_example_g2(self):
        sg = build_semigroup((4, 6, 13))
        assert sg.e == (4, 2, 1)
        assert sg.n == (3, 2, 2)
        assert sg.digits == ((3,), (5, 1))
        assert sg.g == 2
        assert sg.order == 12

    def test_example_g3(self):
        sg = build_semigroup((8, 12, 26, 53))
        assert sg.e == (8, 4, 2, 1)
        assert sg.n == (3, 2, 2, 2)
        assert sg.digits == ((3,), (5, 1), (10, 0, 1))

    def test_strictness_rejected(self):
        # 5 < n_1*b_1 = 6 violates the gap condition between levels.
        with pytest.raises(NotPlane):
            build_semigroup((2, 3, 5))

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            build_semigroup((4, 6, 14))

    def test_unit_quotient_rejected(self):
        # gcd becomes 1 too early: n_2 would be 1.
        with pytest.raises(NotPlane):
            build_semigroup((2, 3, 7))

    def test_too_few_generators(self):
        with pytest.raises(ValueError):
            build_semigroup((4, 6))

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            build_semigroup((0, 6, 13))

    def test_not_increasing(self):
        with pytest.raises(NotPlane):
            build_semigroup((6, 4, 13))

    @pytest.mark.parametrize(
        "gens",
        [(4.7, 6, 13), (4, 6, 13.9), ("4", 6, 13), (True, 6, 13), (4.0, 6, 13)],
    )
    def test_non_integer_entry_rejected(self, gens):
        # int() would truncate 4.7 to 4, parse "4" and turn True into 1
        # (then reported as a misleading NotPlane).
        with pytest.raises(ValueError, match="must be integers"):
            build_semigroup(gens)

    def test_invariants_recompute(self):
        sg = build_semigroup((8, 12, 26, 53))
        for i in range(1, sg.g + 1):
            assert sg.e[i] == math.gcd(sg.e[i - 1], sg.gens[i])
            assert sg.n[i] == sg.e[i - 1] // sg.e[i]
            row = sg.digits[i - 1]
            assert sum(c * b for c, b in zip(row, sg.gens)) == sg.n[i] * sg.gens[i]
            assert all(0 <= row[j] < sg.n[j] for j in range(1, i))
        assert math.gcd(sg.n[0], sg.n[1]) == 1
        # Every n_j with j > i divides b_i.
        for i in range(sg.g + 1):
            for j in range(i + 1, sg.g + 1):
                assert sg.gens[i] % sg.n[j] == 0


class TestDecompose:
    def test_level_one(self):
        sg = build_semigroup((4, 6, 13))
        assert decompose(sg, 12, 1) == (3,)

    def test_level_two(self):
        sg = build_semigroup((4, 6, 13))
        assert decompose(sg, 26, 2) == (5, 1)

    def test_zero(self):
        sg = build_semigroup((4, 6, 13))
        assert decompose(sg, 0, 1) == (0,)

    def test_not_representable(self):
        sg = build_semigroup((4, 6, 13))
        with pytest.raises(NotRepresentable):
            decompose(sg, 1, 1)

    def test_round_trip_exhaustive(self):
        sg = build_semigroup((8, 12, 26, 53))
        for i in range(1, sg.g + 1):
            for c0 in range(6):
                for tail in _digit_tails(sg, i):
                    digits = (c0, *tail)
                    s = sum(c * b for c, b in zip(digits, sg.gens))
                    assert decompose(sg, s, i) == digits


def _digit_tails(sg, i):
    import itertools

    return itertools.product(*(range(sg.n[j]) for j in range(1, i)))


class TestBTable:
    def test_closed_form_g2(self):
        sg = build_semigroup((4, 6, 13))
        bt = b_table(sg)
        assert bt.get(2, 1) == 26 - 12  # n_2*b_2 - n_1*b_1

    def test_closed_form_g3(self):
        sg = build_semigroup((8, 12, 26, 53))
        bt = b_table(sg)
        assert bt.get(3, 2) == 106 - 52

    def test_base_case(self):
        for gens in ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37)):
            sg = build_semigroup(gens)
            assert b_table(sg).get(1, 0) == sg.order

    def test_entries_positive(self):
        for seed in range(25):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            bt = b_table(sg)
            for (i, k), val in bt.entries.items():
                assert val > (1 if k >= 1 else 0)
                if k == i - 1:
                    assert val % sg.e[i - 1] == 0


class TestRandomSemigroup:
    def test_validates(self):
        for seed in range(100):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            assert build_semigroup(sg.gens) == sg
            assert max(sg.gens) <= 10**6

    def test_deterministic(self):
        a = random_semigroup(1, 2, 100)
        b = random_semigroup(1, 2, 100)
        assert a == b

    def test_budget_exceeded(self):
        # 853 admits exactly one g = 5 semigroup, 32,48,104,212,426,853, which
        # the sampler does not draw within its attempt budget.
        with pytest.raises(BudgetExceeded):
            random_semigroup(2, 5, 853)

    def test_infeasible_size_is_value_error(self):
        # No g = 5 plane semigroup has b_5 <= 500 (the smallest b_5 is 853).
        with pytest.raises(ValueError, match="g=5"):
            random_semigroup(0, 5, 500)

    def test_g_too_small(self):
        with pytest.raises(ValueError):
            random_semigroup(0, 1, 100)


class TestMinLastGenerator:
    def test_all_two_chains(self):
        chains = [(4, 6, 13), (8, 12, 26, 53), (16, 24, 52, 106, 213),
                  (32, 48, 104, 212, 426, 853)]
        for g, gens in enumerate(chains, start=2):
            assert min_last_generator(g) == gens[-1]
            assert build_semigroup(gens).n[1:] == (2,) * g

    @pytest.mark.parametrize("only", [(4, 6, 13), (8, 12, 26, 53)], ids=["g2", "g3"])
    def test_minimal_by_filtering_every_tuple(self, only):
        g = len(only) - 1
        accepted = []
        for gens in itertools.combinations(range(1, min_last_generator(g) + 1), g + 1):
            try:
                build_semigroup(gens)
            except (MonocurveError, ValueError):
                continue
            accepted.append(gens)
        assert accepted == [only]
