"""Tests for quotient-space arithmetic and weighted-curve counting."""

import math

import pytest

from monocurve.errors import HypothesisViolated, IllFormed, NotDivisible
from monocurve.qspace import (
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
from monocurve.resolution import _homogeneous_spec, build_resolution
from monocurve.semigroup import build_semigroup, random_semigroup


def one_row(d, *a):
    return CyclicQuotientType((d,), (tuple(a),))


class TestLFactorAndMultiplicity:
    def test_trivial_action_on_coordinate(self):
        assert l_factor(one_row(5, 0, 3), 0) == 1

    def test_one_row(self):
        assert l_factor(one_row(4, 1, 2), 0) == 4
        assert l_factor(one_row(4, 1, 2), 1) == 2

    def test_two_rows(self):
        t = CyclicQuotientType((2, 3), ((1, 0), (1, 0)))
        assert l_factor(t, 0) == 6

    def test_multiplicity(self):
        assert divisor_multiplicity(12, one_row(4, 1, 2), 0) == 3
        assert divisor_multiplicity(7, one_row(1, 0, 0), 0) == 7
        with pytest.raises(NotDivisible):
            divisor_multiplicity(13, one_row(4, 1, 2), 0)

    def test_multiplicity_first_divisor_type(self):
        # Multiplicity of the first exceptional divisor at its boundary
        # points on the axis {x_1 = 0}, from the recorded chart type.
        sg = build_semigroup((4, 6, 13))
        n = sg.order
        d = math.gcd(*(n // sg.n[i] for i in range(1, sg.g + 1)))
        t = one_row(d, n // sg.n[0], -1)
        assert divisor_multiplicity(n, t, 1) == math.lcm(*sg.n[1:])


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
        assert curve_axis_intersections(spec, 0) == (2, 2)  # meets previous axis
        assert curve_axis_intersections(spec, 1) == (1, 1)

    def test_axis_intersections_g3(self):
        spec = _e1_spec((8, 12, 26, 53))
        assert curve_axis_intersections(spec, 0)[1] == 4
        per, total = curve_axis_intersections(spec, 1)
        assert total == per * curve_component_count(spec)

    def test_commutation_flag(self):
        with pytest.raises(HypothesisViolated):
            WeightedCurveSpec(d=2, a=(0, 1, 0), p=(1, 1, 1), m=(2, 2, 2))

    def test_not_weighted_homogeneous(self):
        with pytest.raises(IllFormed):
            WeightedCurveSpec(d=1, a=(0, 0, 0), p=(1, 1, 1), m=(2, 2, 3))


class TestEulerCharacteristics:
    def test_curve_examples(self):
        assert curve_open_euler(_e1_spec((4, 6, 13))) == -2  # -n_1 b_1 / N_1
        assert curve_open_euler(_e1_spec((8, 12, 26, 53))) == -4


class TestChartIndependence:
    def test_fuzzed_specs(self):
        for seed in range(60):
            sg = random_semigroup(seed, 3 + seed % 3, 10**6)
            for level in build_resolution(sg).levels[:-1]:
                spec = _homogeneous_spec(sg, level)
                # Internal chart checks (x2 != 0 vs x3 != 0) raise on mismatch.
                n_comp = curve_component_count(spec)
                for axis in (0, 1):
                    per, total = curve_axis_intersections(spec, axis)
                    assert total == per * n_comp
