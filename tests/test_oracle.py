"""Tests for the brute-force enumeration oracles."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import monocurve.crosscheck
from monocurve.crosscheck import cross_check
from monocurve.errors import (
    BudgetExceeded,
    IllFormed,
    InternalInconsistency,
    NotPolynomial,
    NotRepresentable,
)
from monocurve.oracle import (
    DIGIT_LIST_CAP,
    EnumerationBudget,
    _count_orbits,
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
from monocurve.semigroup import (
    _next_generator,
    build_semigroup,
    decompose,
    plane_semigroups,
    random_semigroup,
)
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

    @pytest.mark.parametrize("t, k, c, mode, error, message", [
        (((2, 3), ((1, 0), (1, 0))), (2, 3), (0, 0), "total",
         IllFormed, "counting requires a one-row type"),
        (((2,), ((1, 1),)), (2,), (0, 0), "total",
         IllFormed, "one exponent per coordinate required"),
        (((2,), ((1, 1),)), (2, 2), (0,), "total",
         IllFormed, "one constant per coordinate required"),
        (((13,), ((1,),)), (13,), (0,), "total", BudgetExceeded, "group order 13 exceeds 12"),
        (((1,), ((0,) * 5,)), (1,) * 5, (0,) * 5, "total",
         BudgetExceeded, "rank 4 exceeds 3"),
        (((1,), ((0, 0),)), (2, 7), (0, 0), "total",
         BudgetExceeded, "exponent in (2, 7) exceeds 6"),
        (((4,), ((1, 2),)), (4, 3), (0, 0), "total",
         IllFormed, "system not well defined: d=4 does not divide a_1*k_1=6"),
        (((2,), ((1, 1),)), (2, 2), (0, 0), "all", ValueError, "unknown mode 'all'"),
        (((2,), ((1,),)), (2,), (0,), "fixed_tail",
         IllFormed, "fixed-tail count needs at least two coordinates"),
        # Two bad inputs: the check that runs first wins.  The system's own
        # checks come first, then the constants, the budget and the mode.
        (((13,), ((1,),)), (2,), (0,), "total",
         IllFormed, "system not well defined: d=13 does not divide a_0*k_0=2"),
        (((1,), ((0,) * 5,)), (1,) * 5, (0,) * 5, "all",
         BudgetExceeded, "rank 4 exceeds 3"),
        (((4,), ((1, 2),)), (4, 3), (0, 0), "all",
         IllFormed, "system not well defined: d=4 does not divide a_1*k_1=6"),
        (((4,), ((2,),)), (1,), (0,), "fixed_tail",
         IllFormed, "system not well defined: d=4 does not divide a_0*k_0=2"),
        (((2,), ((1, 1),)), (0,), (0,), "total",
         IllFormed, "one exponent per coordinate required"),
        (((13,), ((1,),)), (13,), ("x",), "total",
         IllFormed, "constants must be rational, got 'x'"),
        (((13,), ((1,),)), (13,), (0, 0), "total",
         IllFormed, "one constant per coordinate required"),
        (((13,), ((1,),)), (13,), (0,), "fixed_tail",
         BudgetExceeded, "group order 13 exceeds 12"),
    ], ids=["two rows", "short k", "short c", "group order", "rank", "exponent",
            "divisibility", "unknown mode", "fixed tail, one coordinate",
            "divisibility before group order", "rank before mode",
            "divisibility before mode", "divisibility before fixed tail",
            "length before exponent sign", "constant type before budget",
            "constant count before budget", "budget before fixed tail"])
    def test_refusals(self, t, k, c, mode, error, message):
        # t holds the (d, A) arguments: a type with two rows is refused as it is built.
        with pytest.raises(error) as info:
            enum_count_solutions(CyclicQuotientType(*t), k, c, mode)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("t, k", [
        (one_row(2, 1, 1), (0, 2)),
        (one_row(2, 1, 1), (-2, 2)),
        (one_row(13, 1), (0,)),
    ], ids=["zero", "negative", "before the budget"])
    def test_nonpositive_exponent_refused(self, t, k):
        # count_solutions_total refuses the same exponents with the same error.
        message = f"exponents must be >= 1, got {min(k)}"
        with pytest.raises(IllFormed, match=f"^{message}$"):
            count_solutions_total(t, k)
        c = (Fraction(0),) * len(k)
        for mode in ("total", "fixed_tail")[: len(k)]:
            with pytest.raises(IllFormed) as info:
                enum_count_solutions(t, k, c, mode)
            assert str(info.value) == message

    @pytest.mark.parametrize("k, shown", [
        ((2.9, 2), "2.9"),
        ((Fraction(5, 2), 2), "Fraction(5, 2)"),
        ((2, 2.5), "2.5"),
        (("2", 1.5), "'2'"),
        ((float("inf"), 2), "inf"),
        ((2, float("nan")), "nan"),
        (("a", 2), "'a'"),
        ((2.0, 2), "2.0"),
    ], ids=["float", "fraction", "second coordinate", "str that int() converts", "inf", "nan",
            "str", "integral float"])
    def test_non_integral_exponent_refused(self, k, shown):
        # No exponent is converted: one that int() would truncate, convert or
        # fail on is refused, by the oracle as by count_solutions_total.
        t = one_row(2, 1, 1)
        message = f"exponents must be integers, got {shown}"
        with pytest.raises(IllFormed, match=f"^{re.escape(message)}$"):
            count_solutions_total(t, k)
        for mode in ("total", "fixed_tail"):
            with pytest.raises(IllFormed) as info:
                enum_count_solutions(t, k, (0, 0), mode)
            assert str(info.value) == message

    @pytest.mark.parametrize("c, shown", [
        ((float("inf"), 0), "inf"),
        ((0, float("nan")), "nan"),
        (("x", 0), "'x'"),
        (("1/0", 0), "'1/0'"),
    ], ids=["inf", "nan", "str", "zero denominator"])
    def test_non_rational_constant_refused(self, c, shown):
        # Fraction() fails on each with OverflowError, ValueError or ZeroDivisionError.
        for mode in ("total", "fixed_tail"):
            with pytest.raises(IllFormed) as info:
                enum_count_solutions(one_row(2, 1, 1), (2, 2), c, mode)
            assert str(info.value) == f"constants must be rational, got {shown}"

    def test_converted_inputs_accepted(self):
        # Constants convert to a Fraction; exponents are refused unless they are ints.
        t = one_row(2, 1, 1)
        assert enum_count_solutions(t, (2, 2), (0, "1/2")) == 2
        assert enum_count_solutions(t, (2, 2), (1, Fraction(3, 2))) == 2
        assert enum_count_solutions(t, (2, 2), (0.5, 0), "fixed_tail") == 2
        assert enum_count_solutions(one_row(3, 1, 1), (3, 3), ("-2/3", 0)) == 3
        for k in (("2", 2), (2, 2.0)):
            with pytest.raises(IllFormed, match="^exponents must be integers, got "):
                enum_count_solutions(t, k, (0, 0))


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

        def seeded():
            for _ in range(2000):
                d = rng.randint(1, 12)
                pairs = [(a, k) for a in range(-d, d) for k in range(1, 7) if a * k % d == 0]
                combo = [rng.choice(pairs) for _ in range(rng.randint(1, 4))]
                a = tuple(x for x, _ in combo)
                k = tuple(x for _, x in combo)
                yield d, a, k, tuple(Fraction(rng.randrange(-6, 12), rng.randint(1, 6)) for _ in k)

        # The budget's edges: d = 12 with four coordinates at every k_i = 6 (1296 points),
        # negative weights and denominators up to 6; and d = 1 with one coordinate.
        edges = [
            (12, a, (6,) * 4, tuple(Fraction(*x) for x in c))
            for a in ((-2, -4, -6, -10), (2, -8, 0, -6), (-10, 4, -4, 2))
            for c in (((-1, 1), (1, 2), (-2, 3), (5, 6)), ((7, 4), (-1, 5), (0, 1), (11, 6)))
        ] + [(1, (0,), (k0,), (Fraction(p, q),)) for k0, p, q in ((1, 0, 1), (6, -5, 6), (4, 3, 4))]
        checked = {"total": 0, "fixed_tail": 0}
        kinds = set()
        for d, a, k, c in itertools.chain(seeded(), edges):
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

    def test_count_orbits_on_hand_built_permutations(self):
        # The identity, one long cycle, and interleaved cycles of lengths 1, 2 and 3:
        # 0 -> 3 -> 0, 1 -> 4 -> 6 -> 1, and the fixed points 2 and 5.
        assert _count_orbits(list(range(7))) == 7
        assert _count_orbits([*range(1, 12), 0]) == 1
        assert _count_orbits([3, 4, 2, 0, 6, 5, 1]) == 4

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

    @pytest.mark.parametrize("s, i, shown", [
        (12.0, 1, "s must be an integer, got 12.0"),
        (12, 1.5, "index i must be an integer, got 1.5"),
        (12, True, "index i must be an integer, got True"),
    ])
    def test_arguments_not_integers(self, s, i, shown):
        # Never run on a float or a bool: 12.0 at level 1 gave the digits (3.0,).
        with pytest.raises(ValueError) as info:
            enum_digits(s, i, build_semigroup((4, 6, 13)))
        assert str(info.value) == shown

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

    def test_matches_the_product_scan(self):
        # The old scan over itertools.product, kept here as the reference:
        # equal tuples, or the same exception type and message, at every
        # level of every semigroup with b_g <= 120.
        def product_scan(s, i, sg):
            hits = []
            for tail in itertools.product(*(range(sg.n[j]) for j in range(1, i))):
                rest = s - sum(cj * bj for cj, bj in zip(tail, sg.gens[1:i]))
                if rest >= 0 and rest % sg.gens[0] == 0:
                    hits.append((rest // sg.gens[0], *tail))
            if not hits:
                raise NotRepresentable(f"{s} has no digit representation at level {i}")
            if len(hits) > 1:
                raise InternalInconsistency(f"digit representation of {s} is not unique")
            return hits[0]

        def outcome(search, s, i, sg):
            try:
                return search(s, i, sg)
            except (NotRepresentable, InternalInconsistency) as exc:
                return type(exc), str(exc)

        rng = random.Random(13)
        outcomes = {"digits": 0, "raised": 0}
        for sg in plane_semigroups(120):
            for i in range(1, sg.g + 1):
                top = sg.n[i] * sg.gens[i]
                for s in (top, *(rng.randrange(2 * top) for _ in range(3))):
                    got = outcome(enum_digits, s, i, sg)
                    assert got == outcome(product_scan, s, i, sg), (sg.gens, s, i)
                    outcomes["raised" if isinstance(got[0], type) else "digits"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_non_unique_raises(self):
        # Not a plane semigroup: with b_0 = 2 and b_1 = 1 < n_1 = 3, the sum
        # s = 4 = 2*2 + 0*1 = 1*2 + 2*1 has two digit vectors at level 2.
        stand_in = SimpleNamespace(g=2, n=(1, 3, 2), gens=(2, 1, 5))
        with pytest.raises(InternalInconsistency, match="not unique"):
            enum_digits(4, 2, stand_in)

    def test_split_matches_the_product_scan(self, monkeypatch):
        # The b_g <= 120 stratum has at most 16 tails per level, too few to
        # split.  Stand-ins with n_j in 3..5 over 3 or 4 tail levels have 27
        # to 625, and arbitrary generators give sums with no, one and several
        # digit vectors: the split search must give the product scan's outcome.
        def outcome(search, s, i, sg):
            try:
                return search(s, i, sg)
            except (NotRepresentable, InternalInconsistency) as exc:
                return type(exc), str(exc)

        parts = []

        def counted(s, sg, levels):
            parts.append(levels)
            return honest(s, sg, levels)

        honest = monocurve.oracle._tail_sums
        monkeypatch.setattr(monocurve.oracle, "_tail_sums", counted)
        rng = random.Random(29)
        outcomes = Counter()
        for _ in range(600):
            g = rng.randint(4, 5)
            sg = SimpleNamespace(g=g, n=(1, *(rng.randint(3, 5) for _ in range(g))),
                                 gens=tuple(rng.randint(2, 60) for _ in range(g + 1)))
            s = rng.randrange(400)
            parts.clear()
            got = outcome(enum_digits, s, g, sg)
            assert len(parts) == 2, (sg, s)
            assert got == outcome(_product_scan, s, g, sg), (sg, s)
            outcomes[got[0] if isinstance(got[0], type) else "digits"] += 1
        assert min(outcomes.values()) >= 100 and len(outcomes) == 3, outcomes

    def test_non_unique_raises_across_the_split(self, monkeypatch):
        # Not a plane semigroup: at level 3 the 25 tails over b_1 = 1 and
        # b_2 = 3 split into one level each.  s = 4 = 2*2 + 0 + 0 = 0*2 + 1 + 3
        # = 1*2 + 2 + 0 = 0*2 + 4 + 0, three of them from one bucket of lower
        # sums; s = 1 = 0*2 + 1 + 0 alone.
        stand_in = SimpleNamespace(g=3, n=(1, 5, 5, 2), gens=(2, 1, 3, 7))
        listed = []
        honest = monocurve.oracle._tail_sums
        monkeypatch.setattr(monocurve.oracle, "_tail_sums",
                            lambda s, sg, levels: listed.append(levels) or honest(s, sg, levels))
        with pytest.raises(InternalInconsistency, match="^digit representation of 4 is not unique$"):
            enum_digits(4, 3, stand_in)
        assert enum_digits(1, 3, stand_in) == (0, 1, 0)
        assert listed == [range(1, 2), range(2, 3)] * 2

    def test_budget_threshold(self):
        # The charge is the number of tail sums the search lists.  Level 2 of
        # n = (10**4, 2) has a single tail level, so it scans all of its
        # n_1 sums: DIGIT_LIST_CAP of them run, one more raises.
        sg = least_chain([DIGIT_LIST_CAP, 2])
        assert enum_digits(sg.n[2] * sg.gens[2], 2, sg) == sg.digits[1]
        sg = least_chain([DIGIT_LIST_CAP + 1, 2])
        with pytest.raises(BudgetExceeded, match="^digit search lists 10001 tail sums, over 10000$"):
            enum_digits(sg.n[2] * sg.gens[2], 2, sg)

    def test_split_charged_with_the_sums_it_lists(self, monkeypatch):
        # Level 3 of n = (5000, 5000, 2) has 25 * 10**6 tails and splits into
        # two lists of 5000 sums: DIGIT_LIST_CAP in all, so it is searched.
        # With n_2 = 5001 the two lists hold one sum over the cap.
        sg = least_chain([5000, 5000, 2])
        listed = []

        def counted(s, sg, levels):
            sums, radices = honest(s, sg, levels)
            listed.append(len(sums))
            return sums, radices

        honest = monocurve.oracle._tail_sums
        monkeypatch.setattr(monocurve.oracle, "_tail_sums", counted)
        assert enum_digits(sg.n[3] * sg.gens[3], 3, sg) == sg.digits[2]
        assert listed == [5000, 5000]
        sg = least_chain([5000, 5001, 2])
        with pytest.raises(BudgetExceeded, match="^digit search lists 10001 tail sums, over 10000$"):
            enum_digits(sg.n[3] * sg.gens[3], 3, sg)

    def test_searches_past_10_to_the_4_tails(self):
        # Level 6 of n = (10, 10, 10, 10, 2, 2) has 2 * 10**4 tails, which the
        # split lists as 10**2 + 2 * 10**2 sums, so it runs.  So does level 3
        # of n = (5001, 2, 2): its 10002 tails are too few for the split to
        # halve them, but only the split, 5001 + 2 sums, fits the cap.
        sg = least_chain([10, 10, 10, 10, 2, 2])
        assert enum_digits(sg.n[6] * sg.gens[6], 6, sg) == sg.digits[5]
        sg = least_chain([5001, 2, 2])
        assert enum_digits(sg.n[3] * sg.gens[3], 3, sg) == sg.digits[2]

    def test_split_lists_the_square_root(self, monkeypatch):
        # At level 5 of the same chain the 10**4 tails split into two parts of
        # 10**2 sums each: the search lists 200 sums, not 10**4.
        sg = least_chain([10, 10, 10, 10, 2, 2])
        listed = []

        def counted(s, sg, levels):
            sums, radices = honest(s, sg, levels)
            listed.append(len(sums))
            return sums, radices

        honest = monocurve.oracle._tail_sums
        monkeypatch.setattr(monocurve.oracle, "_tail_sums", counted)
        assert enum_digits(sg.n[5] * sg.gens[5], 5, sg) == sg.digits[4]
        assert sum(listed) <= 2 * 10**2, listed

    def test_runs_every_level_of_a_2000_bit_chain(self, monkeypatch):
        # Small n_i and b_g of about 2000 bits: the list is short at every
        # level, so the digit leg of cross_check runs at all of them.
        ns = [2, 3, 2, 5, 3, 2, 7]
        gens = [math.prod(ns)]
        for k in range(1, len(ns) + 1):
            gens.append(_next_generator(ns, gens, 2 ** (286 * k)))
        sg = build_semigroup(gens)
        assert 2000 <= sg.gens[-1].bit_length() <= 2010
        ran = []

        def recorded(s, i, sg):
            digits = enum_digits(s, i, sg)
            ran.append(i)
            return digits

        monkeypatch.setattr(monocurve.crosscheck, "enum_digits", recorded)
        assert cross_check(sg) == []
        assert ran == list(range(1, sg.g + 1))


def _product_scan(s, i, sg):
    """The digit search over itertools.product, with the search's exceptions."""
    hits = []
    for tail in itertools.product(*(range(sg.n[j]) for j in range(1, i))):
        rest = s - sum(cj * bj for cj, bj in zip(tail, sg.gens[1:i]))
        if rest >= 0 and rest % sg.gens[0] == 0:
            hits.append((rest // sg.gens[0], *tail))
    if not hits:
        raise NotRepresentable(f"{s} has no digit representation at level {i}")
    if len(hits) > 1:
        raise InternalInconsistency(f"digit representation of {s} is not unique")
    return hits[0]


def least_chain(ns):
    """The plane semigroup with these n_i whose every b_k is least admissible."""
    gens = [math.prod(ns)]
    while len(gens) <= len(ns):
        gens.append(_next_generator(ns, gens, 0))
    return build_semigroup(gens)


MOEBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0}

PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


class TestCyclotomicPolynomial:
    def test_small(self):
        # Phi_d = prod_{e | d} (t^e - 1)^{mu(d/e)} expands to its pinned
        # coefficients and deflates to Phi_d once with a unit cofactor.
        for d, coeffs in PHI.items():
            fp = FactorProduct.from_t_minus_one({e: MOEBIUS[d // e] for e in MOEBIUS if d % e == 0})
            assert expand_and_verify(fp) == (coeffs, {d: 1}), d


class TestExpandAndVerify:
    def test_delta_example(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        coeffs, mults = expand_and_verify(delta.product)
        assert len(coeffs) == 17
        # (t-1)(t^6-1)(t^26-1) / (t^2-1)^2 (t^13-1) = Phi_3 Phi_6 Phi_26
        assert mults == {3: 1, 6: 1, 26: 1}

    def test_trivial_quotient(self):
        # (1 - t) / (1 - t): the quotient's exponent map is the difference.
        exponents = Counter(dict(FactorProduct.from_map({1: 1}).factors))
        exponents.subtract(dict(FactorProduct.from_map({1: 1}).factors))
        fp = FactorProduct.from_map(exponents)
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
            orders = {d for a, _ in delta.product.factors for d in range(1, a + 1) if a % d == 0}
            expected = {d: cyclotomic_exponent(delta.product, d) for d in orders}
            assert mults == {d: c for d, c in expected.items() if c}, sg.gens


class TestGrid:
    def test_tiny_grid_clean(self):
        budget = EnumerationBudget(max_group_order=4, max_exponent=3, max_rank=2)
        assert grid_discrepancies(budget, draws=2, seed=1) == []

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_group_order=0)

    @pytest.mark.parametrize("bounds, shown", [
        ({"max_group_order": 2.5}, "max_group_order must be an integer, got 2.5"),
        ({"max_rank": True}, "max_rank must be an integer, got True"),
        ({"max_group_order": "3"}, "max_group_order must be an integer, got '3'"),
    ])
    def test_bound_not_an_integer(self, bounds, shown):
        with pytest.raises(ValueError) as info:
            EnumerationBudget(**bounds)
        assert str(info.value) == shown

    @pytest.mark.parametrize("draws", [0, -1])
    def test_no_draws_rejected(self, draws):
        with pytest.raises(ValueError, match="draws must be >= 1"):
            grid_discrepancies(draws=draws)

    @pytest.mark.parametrize("draws", [1.5, True])
    def test_draws_not_an_integer(self, draws):
        with pytest.raises(ValueError) as info:
            grid_discrepancies(draws=draws)
        assert str(info.value) == f"draws must be an integer, got {draws!r}"

    @pytest.mark.parametrize("seed", [None, 1.5, "x", True])
    def test_seed_not_an_integer(self, seed):
        # None would draw the constants from system entropy, so the grid would
        # not repeat; the small budget keeps a missed refusal fast.
        budget = EnumerationBudget(max_group_order=2, max_exponent=2, max_rank=1)
        with pytest.raises(ValueError) as info:
            grid_discrepancies(budget, draws=1, seed=seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"
