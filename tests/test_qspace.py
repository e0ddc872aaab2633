"""Tests for quotient-space arithmetic and weighted-curve counting."""

import math
import random

import pytest

from monocurve import qspace
from monocurve.errors import HypothesisViolated, IllFormed, InternalInconsistency, NotDivisible
from monocurve.qspace import (
    CyclicQuotientType,
    WeightedCurveSpec,
    count_solutions_fixed_tail,
    count_solutions_total,
    curve_component_count,
    curve_open_euler,
)
from monocurve.resolution import _homogeneous_spec, build_resolution
from monocurve.semigroup import build_semigroup, plane_semigroups, random_semigroup


def one_row(d, *a):
    return CyclicQuotientType((d,), (tuple(a),))


def axis_count(spec, axis):
    """Intersections of one component of ``spec`` with ``{x_axis = 0}``."""
    return qspace._axis_count(spec, axis, math.gcd(*spec.p[2:]))


# Malformed specs whose entries are all ints, each with its one exception.
SPEC_VALUE_CASES = [
    pytest.param(*case, id=name) for name, case in [
        ("r=1", (1, (0, 0), (1, 1), (1, 1), IllFormed,
                 "curve specs need at least three coordinates")),
        ("short a", (1, (0, 0), (1, 1, 1), (2, 2, 2), IllFormed,
                     "a, p, m must have equal length")),
        ("short m", (1, (0, 0, 0), (1, 1, 1), (2, 2), IllFormed,
                     "a, p, m must have equal length")),
        ("d=0", (0, (0, 0, 0), (1, 1, 1), (2, 2, 2), IllFormed,
                 "orders, weights and exponents must be positive")),
        ("weight 0", (1, (0, 0, 0), (1, 0, 1), (2, 2, 2), IllFormed,
                      "orders, weights and exponents must be positive")),
        ("negative exponent", (1, (0, 0, 0), (1, 1, 1), (2, -2, 2), IllFormed,
                               "orders, weights and exponents must be positive")),
        ("d does not divide a_1*m_1", (4, (0, 1, 2), (1, 1, 1), (2, 2, 2), IllFormed,
                                       "d=4 does not divide a_1*m_1=2")),
        ("d does not divide a_3*m_3", (3, (0, 3, 3, -1), (1, 1, 1, 1), (3, 3, 3, 2), IllFormed,
                                       "d=3 does not divide a_3*m_3=-2")),
        ("not homogeneous", (1, (0, 0, 0), (1, 1, 1), (2, 2, 3), IllFormed,
                             "curve is not weighted homogeneous: p_i*m_i differ")),
        ("commutation at j=2", (2, (0, 1, 0), (1, 1, 1), (2, 2, 2), HypothesisViolated,
                                "commutation a_1*p_2 = a_2*p_1 fails exactly")),
        ("commutation at j=3", (1, (0, 1, 1, 2), (1, 1, 1, 1), (1, 1, 1, 1), HypothesisViolated,
                                "commutation a_1*p_3 = a_3*p_1 fails exactly")),
    ]
]
# Specs with an entry that is not an int or is a bool, refused before any
# value check.
SPEC_TYPE_CASES = [
    pytest.param(*case, IllFormed, message, id=name) for name, case, message in [
        ("float order", (2.0, (0, 0, 0), (1, 1, 1), (2, 2, 2)),
         "orders must be integers, got 2.0"),
        ("bool order", (True, (0, 0, 0), (1, 1, 1), (2, 2, 2)),
         "orders must be integers, got True"),
        ("float action weight", (1, (0, 0.5, 0), (1, 1, 1), (2, 2, 2)),
         "action weights must be integers, got 0.5"),
        ("float weight", (1, (0, 0, 0), (3.9, 1, 1), (2, 2, 2)),
         "weights must be integers, got 3.9"),
        ("bool exponent", (1, (0, 0, 0), (1, 1, 1), (2, True, 2)),
         "exponents must be integers, got True"),
    ]
]


class TestValidation:
    """Each malformed type or spec raises one exception class with one message."""

    @pytest.mark.parametrize("d, A, message", [
        ((2, 3), ((1, 0),), "counting requires a one-row type"),
        ((2,), ((1,), (1,)), "counting requires a one-row type"),
        ((0,), ((1,),), "row order must be >= 1, got 0"),
        ((-2,), ((1,),), "row order must be >= 1, got -2"),
        ((2, 3), ((1, 0), (1,)), "counting requires a one-row type"),
        ((2, 3, 5), ((1,), (1,), ()), "counting requires a one-row type"),
        ((6.9,), ((1.7, 2.2),), "row orders must be integers, got 6.9"),
        ((True,), ((1,),), "row orders must be integers, got True"),
        ((4,), ((1, 2.5),), "weights must be integers, got 2.5"),
        ((4,), ((False, 3),), "weights must be integers, got False"),
        ((4,), (("1",),), "weights must be integers, got '1'"),
        ((2, 3), ((1.5,),), "counting requires a one-row type"),
        ((0,), ((1.5,),), "row order must be >= 1, got 0"),
        ((2, 3, 5), ((1,), (1, 2), (2.5,)), "counting requires a one-row type"),
        ((), (), "counting requires a one-row type"),
        (2, ((1,),), "counting requires a one-row type"),
        ((2,), 1, "counting requires a one-row type"),
        ((2,), (1,), "weights must be a sequence of integers, got 1"),
        ((2,), (None,), "weights must be a sequence of integers, got None"),
    ], ids=["fewer rows", "fewer orders", "order 0", "negative order",
            "short second row", "empty third row", "float order", "bool order",
            "float weight", "bool weight", "string weight",
            "row count before weight type", "order before weight type",
            "row count before weight type, three rows", "zero rows",
            "non-iterable orders", "non-iterable rows", "non-iterable row", "row None"])
    def test_malformed_type(self, d, A, message):
        # A type has exactly one order and one weight row; any other count is refused.
        with pytest.raises(IllFormed) as info:
            CyclicQuotientType(d, A)
        assert str(info.value) == message

    @pytest.mark.parametrize("d, a, p, m, error, message", SPEC_VALUE_CASES + SPEC_TYPE_CASES)
    def test_malformed_spec(self, d, a, p, m, error, message):
        with pytest.raises(error) as info:
            WeightedCurveSpec(d=d, a=a, p=p, m=m)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("count, t, k, bad", [
        (count_solutions_total, one_row(4, 2, 2), (2.9, 2.5), "2.9"),
        (count_solutions_total, one_row(2, 1, 1), (True, 2), "True"),
        (count_solutions_fixed_tail, one_row(2, 1, 1), 2.9, "2.9"),
        (count_solutions_fixed_tail, one_row(1, 0, 0), True, "True"),
    ], ids=["total, float exponents", "total, bool exponent", "fixed tail, float exponent",
            "fixed tail, bool exponent"])
    def test_malformed_count(self, count, t, k, bad):
        # A float exponent is rejected, not truncated; a bool is not read as 0 or 1.
        with pytest.raises(IllFormed) as info:
            count(t, k)
        assert str(info.value) == f"exponents must be integers, got {bad}"

    @pytest.mark.parametrize("k", [None, 2], ids=["None", "int"])
    def test_exponents_not_iterable(self, k):
        with pytest.raises(IllFormed) as info:
            count_solutions_total(one_row(2, 1), k)
        assert str(info.value) == f"exponents must be a sequence of integers, got {k!r}"

    @pytest.mark.parametrize("d, A, reduced", [
        ((4,), ((-1, 5, 4, 0),), ((3, 1, 0, 0),)),
        ([3], [[-1, 7]], ((2, 1),)),
        ((1,), ((-5, 9),), ((0, 0),)),
        ((3,), ((),), ((),)),
    ], ids=["negative and out of range", "lists", "trivial group", "empty type"])
    def test_type_weights_reduced_mod_row_order(self, d, A, reduced):
        t = CyclicQuotientType(d, A)
        assert t.d == tuple(d)
        assert t.A == reduced
        assert all(type(x) is tuple for x in (t.d, t.A, *t.A))

    def test_empty_type_is_trivial(self):
        # A type with no coordinates: one solution class, the empty point.
        t = CyclicQuotientType([1], [[]])
        assert t == one_row(1)
        assert count_solutions_total(t, ()) == 1

    def test_spec_keeps_action_weights_unreduced(self):
        spec = WeightedCurveSpec(d=2, a=[-1, 4, 4], p=[1, 1, 1], m=[2, 2, 2])
        assert (spec.a, spec.p, spec.m) == ((-1, 4, 4), (1, 1, 1), (2, 2, 2))
        assert spec.r == 2

    def test_commutation_matches_cross_multiplication(self):
        # _check decides a_1*p_j = a_j*p_1 from the products a_i*m_i; on specs
        # that fail at each check in turn, r = 2..4, the outcome is the one of
        # the cross-multiplied test.
        rng = random.Random(0)
        seen = set()
        for _ in range(3000):
            d, a, p, m = _drawn_spec(rng)
            want = _cross_multiplied_outcome(d, a, p, m)
            seen.add(want and want[1])
            try:
                WeightedCurveSpec(d, a, p, m)
                got = None
            except (IllFormed, HypothesisViolated) as exc:
                got = type(exc), str(exc)
            assert got == want, (d, a, p, m)
        for prefix in ("a, p, m", "orders", "d=2 does not divide", "curve is not",
                       *(f"commutation a_1*p_{j} " for j in (2, 3, 4))):
            assert any(msg and msg.startswith(prefix) for msg in seen), prefix
        assert None in seen


def _drawn_spec(rng):
    """A spec with r = 2..4 that passes every check, then broken at one check or none."""
    r = rng.randint(2, 4)
    m = [rng.randint(1, 6) for _ in range(r + 1)]
    P = math.lcm(*m) * rng.randint(1, 2)
    p = [P // mi for mi in m]
    C = math.lcm(*m[1:]) * rng.randint(-3, 3)  # a_j*m_j = C for j >= 1
    a = [rng.randint(-6, 6)] + [C // mi for mi in m[1:]]
    g = math.gcd(a[0] * m[0], C)
    d = rng.choice([x for x in range(1, g + 1) if g % x == 0] if g else range(1, 7))
    broken = rng.choice(["none", "length", "positivity", "divisibility", "homogeneity",
                         "commutation"])
    if broken == "length":
        rng.choice([a, m]).pop()
    elif broken == "positivity":
        d = rng.choice([d, 0])
        rng.choice([p, m])[rng.randrange(r + 1)] = rng.randint(-1, 0)
    elif broken == "divisibility":
        d = 2
        a[rng.randrange(r + 1)] = 1
    elif broken == "homogeneity":
        p[rng.randrange(r + 1)] += 1
    elif broken == "commutation":
        for j in rng.sample(range(1, r + 1), rng.randint(1, r)):
            a[j] += d * rng.choice([-2, -1, 1, 2])  # keeps d | a_j*m_j
    return d, tuple(a), tuple(p), tuple(m)


def _cross_multiplied_outcome(d, a, p, m):
    """``WeightedCurveSpec``'s value checks with ``a_1*p_j = a_j*p_1`` tested as written."""
    r = len(p) - 1
    if r < 2:
        return IllFormed, "curve specs need at least three coordinates"
    if not (len(a) == len(p) == len(m)):
        return IllFormed, "a, p, m must have equal length"
    if d < 1 or min(p) < 1 or min(m) < 1:
        return IllFormed, "orders, weights and exponents must be positive"
    for i in range(r + 1):
        if a[i] * m[i] % d:
            return IllFormed, f"d={d} does not divide a_{i}*m_{i}={a[i] * m[i]}"
    if len({pi * mi for pi, mi in zip(p, m)}) > 1:
        return IllFormed, "curve is not weighted homogeneous: p_i*m_i differ"
    for j in range(2, r + 1):
        if a[1] * p[j] != a[j] * p[1]:
            return HypothesisViolated, f"commutation a_1*p_{j} = a_{j}*p_1 fails exactly"
    return None


class TestLFactorAndMultiplicity:
    """The one divisor-multiplicity formula ``m / l`` with ``l = d / gcd(d, a)``."""

    def test_trivial_action_on_coordinate(self):
        assert qspace._one_row_multiplicity(7, 5, 0, 0) == 7

    def test_one_row(self):
        assert qspace._one_row_multiplicity(8, 4, 1, 0) == 2
        assert qspace._one_row_multiplicity(8, 4, 2, 1) == 4
        # The weight need not be reduced mod d.
        assert qspace._one_row_multiplicity(8, 4, -3, 0) == 2
        assert qspace._one_row_multiplicity(8, 4, 6, 1) == 4

    def test_multiplicity(self):
        assert qspace._one_row_multiplicity(12, 4, 1, 0) == 3
        assert qspace._one_row_multiplicity(7, 1, 0, 0) == 7
        with pytest.raises(NotDivisible):
            qspace._one_row_multiplicity(13, 4, 1, 0)

    def test_multiplicity_first_divisor_type(self):
        # Multiplicity of the first exceptional divisor at its boundary
        # points on the axis {x_1 = 0}, from the recorded chart type.
        sg = build_semigroup((4, 6, 13))
        n = sg.order
        d = math.gcd(*(n // sg.n[i] for i in range(1, sg.g + 1)))
        assert qspace._one_row_multiplicity(n, d, -1, 1) == math.lcm(*sg.n[1:])


class TestCountSolutions:
    def test_trivial_group(self):
        assert count_solutions_total(one_row(1, 0, 0, 0), (2, 3, 4)) == 24
        assert count_solutions_fixed_tail(one_row(1, 0, 0), 5) == 5

    def test_examples(self):
        assert count_solutions_total(one_row(2, 1, 1), (2, 2)) == 2
        assert count_solutions_total(one_row(6, 2, 3), (3, 2)) == 1
        assert count_solutions_fixed_tail(one_row(2, 1, 1), 2) == 2
        assert count_solutions_fixed_tail(one_row(4, 2, 2), 2) == 2

    def test_ill_formed(self):
        with pytest.raises(IllFormed):
            count_solutions_total(one_row(4, 1, 2), (2, 2))
        with pytest.raises(IllFormed):
            count_solutions_fixed_tail(one_row(4, 1, 2), 3)
        with pytest.raises(IllFormed):
            count_solutions_total(one_row(2, 1, 1), (0, 2))

    @pytest.mark.parametrize("count, t, k, message", [
        (count_solutions_total, ((2, 3), ((1,), (1,))), (True,),
         "counting requires a one-row type"),
        (count_solutions_total, ((2,), ((1, 1),)), (True,),
         "exponents must be integers, got True"),
        (count_solutions_total, ((2,), ((1, 1),)), (0,), "one exponent per coordinate required"),
        (count_solutions_total, ((4,), ((1, 2),)), (0, 3), "exponents must be >= 1, got 0"),
        (count_solutions_total, ((4,), ((1, 2),)), (4, 3),
         "system not well defined: d=4 does not divide a_1*k_1=6"),
        (count_solutions_total, ((4,), ((2, 1, 2),)), (1, 4, 3),
         "system not well defined: d=4 does not divide a_0*k_0=2"),
        (count_solutions_fixed_tail, ((2, 3), ((1,), (1,))), 2.5,
         "counting requires a one-row type"),
        (count_solutions_fixed_tail, ((2,), ((1,),)), 2.5,
         "fixed-tail count needs at least two coordinates"),
        (count_solutions_fixed_tail, ((2,), ((1, 1),)), -1.5,
         "exponents must be integers, got -1.5"),
        (count_solutions_fixed_tail, ((4,), ((1, 2),)), 0, "exponents must be >= 1, got 0"),
        (count_solutions_fixed_tail, ((4,), ((1, 2),)), 3,
         "system not well defined: d=4 does not divide a_0*k_0=3"),
    ], ids=["total, rows before type", "total, type before length",
            "total, length before sign", "total, sign before divisibility",
            "total, divisibility", "total, first failing coordinate",
            "fixed tail, rows before type", "fixed tail, coordinates before type",
            "fixed tail, type before sign", "fixed tail, sign before divisibility",
            "fixed tail, divisibility"])
    def test_refusal_order(self, count, t, k, message):
        # t holds the (d, A) arguments: a type with two rows is refused as it is built.
        with pytest.raises(IllFormed) as info:
            count(CyclicQuotientType(*t), k)
        assert str(info.value) == message

    def test_empty_system(self):
        assert count_solutions_total(one_row(3), ()) == 1


def _e1_spec(gens):
    sg = build_semigroup(gens)
    return _homogeneous_spec(sg, build_resolution(sg).levels[0])


class TestCurveCounts:
    def test_component_count_g3(self):
        spec = _e1_spec((8, 12, 26, 53))
        assert curve_component_count(spec) == 2  # n2*n3/lcm(n2,n3)

    def test_component_count_r2(self):
        assert curve_component_count(_e1_spec((4, 6, 13))) == 1

    def test_coprime_exponents_single_component(self):
        spec = WeightedCurveSpec(
            d=1, a=(0, 0, 0, 0), p=(12, 6, 4, 3), m=(1, 2, 3, 4)
        )
        assert curve_component_count(spec) == 1

    def test_axis_intersections_g2(self):
        spec = _e1_spec((4, 6, 13))
        assert curve_component_count(spec) == 1
        assert axis_count(spec, 0) == 2  # meets previous axis
        assert axis_count(spec, 1) == 1

    def test_axis_intersections_g3(self):
        spec = _e1_spec((8, 12, 26, 53))
        assert axis_count(spec, 0) * curve_component_count(spec) == 4
        assert axis_count(spec, 1) * curve_component_count(spec) == 2

    def test_commutation_flag(self):
        with pytest.raises(HypothesisViolated):
            WeightedCurveSpec(d=2, a=(0, 1, 0), p=(1, 1, 1), m=(2, 2, 2))

    def test_not_weighted_homogeneous(self):
        with pytest.raises(IllFormed):
            WeightedCurveSpec(d=1, a=(0, 0, 0), p=(1, 1, 1), m=(2, 2, 3))


class TestChartChecksAtThreeTailCoordinates:
    # E_1 of 8,12,26,53 has r = 3 exactly, the least r at which the chart
    # checks run: a chart count one too high on the named chart must raise.
    @pytest.fixture
    def spec(self):
        spec = _e1_spec((8, 12, 26, 53))
        assert spec.r == 3
        return spec

    @pytest.mark.parametrize("chart", [2, 3])
    def test_component_count_chart_mismatch(self, monkeypatch, spec, chart):
        honest = qspace._chart_component_count
        monkeypatch.setattr(qspace, "_chart_component_count",
                            lambda spec, c: honest(spec, c) + (c == chart))
        with pytest.raises(InternalInconsistency,
                           match=f"^component count differs on chart {chart}: 3 != 2$"):
            curve_component_count(spec)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_axis_count_chart_3_mismatch(self, monkeypatch, spec, axis):
        honest = qspace._axis_count_chart
        per = axis_count(spec, axis)
        monkeypatch.setattr(qspace, "_axis_count_chart",
                            lambda *args: honest(*args) + (args[2] == 3))
        with pytest.raises(InternalInconsistency,
                           match=f"^axis-{axis} count differs on chart 3: {per + 1} != {per}$"):
            axis_count(spec, axis)


class TestEulerCharacteristics:
    def test_curve_examples(self):
        assert curve_open_euler(_e1_spec((4, 6, 13))) == -2  # -n_1 b_1 / N_1
        assert curve_open_euler(_e1_spec((8, 12, 26, 53))) == -4


def _product_axis_count(spec, axis):
    """The per-component axis count with ``P = p_2*...*p_r``, ``Q = a_2*p_3*...*p_r``."""
    d, a, p, m = spec.d, spec.a, spec.p, spec.m
    w = 1 - axis
    P, Q = math.prod(p[2:]), a[2] * math.prod(p[3:])
    head_gcd, tail_gcd = math.gcd(p[w], *p[2:]), math.gcd(*p[2:])
    num = m[w] * math.gcd(d * P * head_gcd, abs(a[w] * P - p[w] * Q) * tail_gcd)
    assert num % (d * P * tail_gcd) == 0
    return num // (d * P * tail_gcd)


def _product_open_euler(spec):
    """The open Euler characteristic with ``P = p_1*...*p_r``, ``Q = a_1*p_2*...*p_r``."""
    d, a, p, m = spec.d, spec.a, spec.p, spec.m
    P, Q = math.prod(p[1:]), a[1] * math.prod(p[2:])
    num = math.prod(m[1:]) * math.gcd(
        d * P * math.gcd(*p), abs(p[0] * Q - a[0] * P) * math.gcd(*p[1:])
    )
    assert num % (d * p[0] * P) == 0
    return -num // (d * p[0] * P)


class TestChartIndependence:
    # curve_component_count runs the chart checks (x2 != 0 vs x3 != 0) of
    # the component count and raises on a mismatch; qspace._axis_count takes
    # its per-component count on chart x2 != 0 and checks it against chart
    # x3 != 0.  The axis counts and the open Euler characteristic
    # use level-local P and Q; each is also compared with its product form,
    # whose common factor cancels.
    @staticmethod
    def _check_levels(sg):
        levels = build_resolution(sg).levels[:-1]
        for level in levels:
            spec = _homogeneous_spec(sg, level)
            # The trusted core skips the type checks that the public constructor makes.
            assert WeightedCurveSpec(spec.d, spec.a, spec.p, spec.m) == spec
            n_comp = curve_component_count(spec)
            assert n_comp == level.r
            for axis in (0, 1):
                assert axis_count(spec, axis) == _product_axis_count(spec, axis)
            assert curve_open_euler(spec) == _product_open_euler(spec) == level.chi_open
        return len(levels)

    def test_fuzzed_specs(self):
        for seed in range(60):
            self._check_levels(random_semigroup(seed, 3 + seed % 3, 10**6))

    def test_every_level_of_the_small_stratum(self):
        # Every level k < g of the 3086 semigroups with b_g <= 120.
        assert sum(self._check_levels(sg) for sg in plane_semigroups(120)) == 3393
