"""Tests for semigroup validation, digit decomposition and the b-recursion."""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from monocurve.errors import (
    NotCoprime,
    NotPlane,
    MonocurveError,
    NotRepresentable,
)
from monocurve.resolution import _b_prev
from monocurve.semigroup import (
    _iroot,
    build_semigroup,
    decompose,
    min_last_generator,
    plane_semigroups,
    random_semigroup,
)
from monocurve.zeta import resolution_multiplicities


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

    @pytest.mark.parametrize("s, i, shown", [
        (12.0, 1, "s must be an integer, got 12.0"),
        (12, 1.5, "index i must be an integer, got 1.5"),
        (12, True, "index i must be an integer, got True"),
    ])
    def test_arguments_not_integers(self, s, i, shown):
        # Never run on a float or a bool: 12.0 at level 1 gave the digits (3.0,).
        with pytest.raises(ValueError) as info:
            decompose(build_semigroup((4, 6, 13)), s, i)
        assert str(info.value) == shown

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


def _recursion(sg):
    """The paper's recursion for every ``b_i^(k)``, ``0 <= k < i <= g``, in rationals.

    ``b_i^(0) = c_{i0} * n_1 * ... * n_g`` and, for ``k >= 1``,
    ``b_i^(k) = b_i^(k-1) + (c_{ik}/n_k + ... + c_{i,i-1}/n_{i-1} - 1) * b_k^(k-1)``.
    """
    b = {}
    for i in range(1, sg.g + 1):
        row = sg.digits[i - 1]
        b[i, 0] = Fraction(row[0] * sg.order, sg.n[0])
        for k in range(1, i):
            slack = sum(Fraction(row[j], sg.n[j]) for j in range(k, i)) - 1
            b[i, k] = b[i, k - 1] + slack * b[k, k - 1]
    return b


def _closed_form(sg, i, k):
    """``b_i^(k) = (n_i b_i - n_k b_k) - sum_{k<j<i} (c_ij/n_j) (n_j b_j - n_k b_k)``, ``k >= 1``."""
    nb = [n * b for n, b in zip(sg.n, sg.gens)]
    row = sg.digits[i - 1]
    return nb[i] - nb[k] - sum(
        Fraction(row[j], sg.n[j]) * (nb[j] - nb[k]) for j in range(k + 1, i)
    )


@functools.cache
def _reference_semigroups():
    return (*plane_semigroups(120),
            *(random_semigroup(i, 2 + i % 4, 10**6) for i in range(200)))


class TestBTable:
    """The recursion is the reference for the diagonal the resolution reads."""

    def test_closed_form_g2(self):
        sg = build_semigroup((4, 6, 13))
        assert _recursion(sg)[2, 1] == 26 - 12 == _b_prev(sg, 2)  # n_2*b_2 - n_1*b_1

    def test_closed_form_g3(self):
        sg = build_semigroup((8, 12, 26, 53))
        assert _recursion(sg)[3, 2] == 106 - 52 == _b_prev(sg, 3)

    def test_base_case(self):
        for sg in _reference_semigroups():
            assert _recursion(sg)[1, 0] == sg.order

    def test_entries_positive(self):
        for sg in _reference_semigroups():
            for (i, k), val in _recursion(sg).items():
                assert val.denominator == 1
                assert val > (1 if k >= 1 else 0)
                if k == i - 1:
                    assert val % sg.e[i - 1] == 0

    def test_entries_equal_closed_form(self):
        for sg in _reference_semigroups():
            for (i, k), val in _recursion(sg).items():
                if k >= 1:
                    assert val == _closed_form(sg, i, k), (sg.gens, i, k)

    def test_diagonal_is_the_resolution_value(self):
        levels = 0
        for sg in _reference_semigroups():
            b = _recursion(sg)
            for k in range(2, sg.g + 1):
                assert b[k, k - 1] == _b_prev(sg, k), (sg.gens, k)
                levels += 1
        assert levels > 3286


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

    def test_draws_the_only_semigroup_at_853(self):
        # 853 admits exactly one g = 5 semigroup, the all-2 chain.
        sg = random_semigroup(2, 5, 853)
        assert sg.gens == (32, 48, 104, 212, 426, 853)

    def test_infeasible_size_is_value_error(self):
        # No g = 5 plane semigroup has b_5 <= 500 (the smallest b_5 is 853).
        with pytest.raises(ValueError, match="g=5"):
            random_semigroup(0, 5, 500)

    def test_g_too_small(self):
        with pytest.raises(ValueError):
            random_semigroup(0, 1, 100)

    @pytest.mark.parametrize("g, max_size, name", [
        (2, 1e6, "max_size"), (2.0, 10**6, "g"), (True, 10**6, "g"), (2, False, "max_size"),
        (2, "1000000", "max_size"), (2, 10**6 + 0.5, "max_size"),
        # A seed row holds the seed in the g column and draws with g = 2.
        (None, 10**6, "seed"), (1.5, 10**6, "seed"), ("x", 10**6, "seed"), (True, 10**6, "seed"),
    ])
    def test_non_int_argument_is_value_error(self, g, max_size, name):
        # A None seed would draw from system entropy, a new semigroup on each call.
        seed, g = (g, 2) if name == "seed" else (0, g)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            random_semigroup(seed, g, max_size)

    def test_integer_root(self):
        for k in (1, 3, 5, 11):
            for x in (*range(1, 300), 10**30 - 1, 10**30, 10**400, 2**4000 - 1):
                r = _iroot(x, k)
                assert r**k <= x < (r + 1) ** k, (x, k)

    def test_never_fails_at_a_feasible_size(self):
        # From the least size up to 10^400, past the float range, every draw
        # is a plane semigroup under the size: the least chain of the prefix
        # always fits.
        for g in range(2, 7):
            for size in (min_last_generator(g), 10**6, 10**30, 10**100, 10**300, 10**400):
                for seed in range(200):
                    sg = random_semigroup(seed, g, size)
                    assert sg.g == g
                    assert build_semigroup(sg.gens) == sg
                    assert max(sg.gens) <= size, (seed, g, size)


class TestMinLastGenerator:
    def test_all_two_chains(self):
        chains = [(4, 6, 13), (8, 12, 26, 53), (16, 24, 52, 106, 213),
                  (32, 48, 104, 212, 426, 853)]
        for g, gens in enumerate(chains, start=2):
            assert min_last_generator(g) == gens[-1]
            assert build_semigroup(gens).n[1:] == (2,) * g

    @pytest.mark.parametrize("only", [(4, 6, 13), (8, 12, 26, 53)], ids=["g2", "g3"])
    def test_minimal_by_filtering_every_tuple(self, only):
        # One filtering pass up to 60 checks both the minimum and the
        # enumerator's g-term chains.
        g = len(only) - 1
        accepted = []
        for gens in itertools.combinations(range(1, 61), g + 1):
            try:
                build_semigroup(gens)
            except (MonocurveError, ValueError):
                continue
            accepted.append(gens)
        assert [gens for gens in accepted if gens[-1] <= min_last_generator(g)] == [only]
        assert accepted == [sg.gens for sg in plane_semigroups(60) if sg.g == g]

    def test_minimal_g4_by_enumeration(self):
        assert [sg.gens for sg in plane_semigroups(213) if sg.g == 4] == [(16, 24, 52, 106, 213)]

    @pytest.mark.parametrize("g", [2.5, 2.0, True, "3", None])
    def test_non_int_g_is_value_error(self, g):
        with pytest.raises(ValueError, match="^g must be an integer, got "):
            min_last_generator(g)

    def test_g_below_one_is_value_error(self):
        assert min_last_generator(1) == 3
        with pytest.raises(ValueError, match="^g must be >= 1$"):
            min_last_generator(0)


class TestPlaneSemigroups:
    def test_counts(self):
        assert sum(1 for _ in plane_semigroups(60)) == 340
        assert sum(1 for _ in plane_semigroups(120)) == 3086

    def test_lexicographic(self):
        gens = [sg.gens for sg in plane_semigroups(120)]
        assert gens == sorted(set(gens))
        assert gens[0] == (4, 6, 13)
        assert max(b[-1] for b in gens) <= 120

    def test_too_small_is_empty(self):
        assert list(plane_semigroups(12)) == []
        assert [sg.gens for sg in plane_semigroups(13)] == [(4, 6, 13)]

    @pytest.mark.parametrize("max_last", [20.5, 13.0, True, "60", None])
    def test_non_int_bound_is_value_error_at_the_call(self, max_last):
        # Refused when called, before any iteration.
        with pytest.raises(ValueError, match="^max_last must be an integer, got "):
            plane_semigroups(max_last)


class TestLcmTails:
    def test_every_semigroup_up_to_120(self):
        for sg in plane_semigroups(120):
            g = sg.g
            assert len(sg.L) == g + 2
            for k in range(1, g + 2):
                assert sg.L[k] == math.lcm(*sg.n[k:])
            assert sg.L[g + 1] == 1
            assert resolution_multiplicities(sg)[0][0] == sg.L[1]

    def test_computed_once(self):
        sg = build_semigroup((12, 18, 37))
        assert sg.L is sg.L
        assert sg.L[1:] == (6, 6, 1)
