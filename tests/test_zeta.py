"""Tests for factor-product arithmetic, the zeta function and Delta."""

import contextlib
import io
import random
import time

import pytest

from monocurve.cli import main
from monocurve.conjecture import pk_factorization
from monocurve.errors import BudgetExceeded, NotPolynomial
from monocurve.semigroup import build_semigroup, random_semigroup
from monocurve.zeta import (
    FactorProduct,
    characteristic_polynomial,
    cyclotomic_exponent,
    milnor_number,
    negative_cyclotomic_orders,
    resolution_multiplicities,
    to_cyclotomic,
    zeros_and_poles,
    zeta_closed_form,
)

PINNED = ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37))


class TestFactorProduct:
    def test_canonical(self):
        fp = FactorProduct.from_map({3: 2, 2: 0, 5: -1})
        assert fp.factors == ((3, 2), (5, -1))

    def test_mul_div(self):
        a = FactorProduct.from_map({2: 1, 3: 1})
        b = FactorProduct.from_map({3: 1, 5: -2})
        assert (a * b).as_map() == {2: 1, 3: 2, 5: -2}
        assert (a / b).as_map() == {2: 1, 5: 2}
        assert a / a == FactorProduct.one()

    def test_idempotent_canonicalization(self):
        fp = FactorProduct.from_map({2: 3})
        assert fp * FactorProduct.from_map({7: 0}) == fp

    def test_sign_convention(self):
        # One (t^a - 1) factor flips the sign once.
        fp = FactorProduct.from_t_minus_one({4: 1})
        assert fp.sign == -1
        assert FactorProduct.from_t_minus_one({4: 1, 6: 1}).sign == 1
        assert FactorProduct.from_t_minus_one({4: 1, 6: -2}).sign == -1

    def test_render(self):
        fp = FactorProduct.from_map({2: 2, 13: 1, 6: -1, 26: -1})
        assert fp.render() == "(1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)"
        assert FactorProduct.one().render() == "1"
        assert FactorProduct.from_map({1: 1}).render("t_minus_one") == "-(t-1)"

    def test_json(self):
        fp = FactorProduct.from_map({2: 2, 6: -1})
        assert fp.to_json() == {"num": [[2, 2]], "den": [[6, 1]], "sign": 1}


class TestZetaClosedForm:
    def test_example_g2(self):
        sg = build_semigroup((4, 6, 13))
        z = zeta_closed_form(sg)
        assert z.as_map() == {2: 2, 13: 1, 6: -1, 26: -1}
        assert z.render() == "(1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)"

    def test_example_g3(self):
        z = zeta_closed_form(build_semigroup((8, 12, 26, 53)))
        assert z.render() == "(1-t^2)^4 (1-t^53) / (1-t^6)^2 (1-t^26) (1-t^106)"

    def test_multiplicities(self):
        M, N = resolution_multiplicities(build_semigroup((4, 6, 13)))
        assert M == (2, 6, 13)
        assert N == (6, 26)


class TestCyclotomic:
    def test_simple(self):
        vec = to_cyclotomic(FactorProduct.from_map({2: 1}))
        assert vec.as_map() == {1: 1, 2: 1}
        assert vec.sign == -1  # 1 - t^2 = -(t - 1)(t + 1)

    def test_delta_exponents(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        vec = delta.cyclotomic()
        assert vec.get(2) == 0
        assert vec.get(6) == 1
        assert vec.get(26) == 1

    def test_zeros_and_poles(self):
        zp = zeros_and_poles(zeta_closed_form(build_semigroup((4, 6, 13))))
        assert zp[1] == 1  # zero at t = 1
        assert zp[26] == -1  # pole at the primitive 26th roots
        assert 2 not in zp

    def test_empty(self):
        assert zeros_and_poles(FactorProduct.one()) == {}

    def test_get_outside_support(self):
        vec = to_cyclotomic(FactorProduct.from_map({6: 1, 4: -1}))
        assert vec.as_map() == {3: 1, 4: -1, 6: 1}
        assert [vec.get(d) for d in (1, 2, 3, 4, 5, 6, 7, 12)] == [0, 0, 1, -1, 0, 1, 0, 0]


def _products(sg):
    """Delta, Z and every P_k of ``sg``: the products the pipeline reads c_q from."""
    return [characteristic_polynomial(sg).product, zeta_closed_form(sg), *pk_factorization(sg)]


def _seeded_semigroups():
    return [random_semigroup(seed, 2 + seed % 4, 10**6) for seed in range(30)]


class TestSparseCyclotomic:
    """The pipeline's sparse ``c_q`` and gcd-closure check against the full vector."""

    def _assert_exponents_agree(self, fp):
        vec = to_cyclotomic(fp)
        support = [d for d, _ in vec.entries]
        exponents = [a for a, _ in fp.factors]
        outside = [max(exponents) + 1, 2 * max(exponents), 7919]
        outside += [a + 1 for a in exponents if vec.get(a + 1) == 0]
        for d in support + outside:
            assert cyclotomic_exponent(fp, d) == vec.get(d), (fp, d)

    def test_exponent_matches_vector_pinned(self):
        for gens in PINNED:
            for fp in _products(build_semigroup(gens)):
                self._assert_exponents_agree(fp)

    def test_exponent_matches_vector_seeded(self):
        for sg in _seeded_semigroups():
            for fp in _products(sg):
                self._assert_exponents_agree(fp)

    def test_pipeline_products_are_polynomials(self):
        for sg in _seeded_semigroups():
            delta, z, *pks = _products(sg)
            assert negative_cyclotomic_orders(delta) == []
            assert all(negative_cyclotomic_orders(pk) == [] for pk in pks)
            # Z has its poles at the orders where Delta has zeros.
            assert negative_cyclotomic_orders(z) != []

    def test_closure_catches_non_factor_order(self):
        # c_1 = 1 but c_2 = -1, and 2 is not a factor exponent: only the
        # gcd-closure (gcd(4, 6) = 2) reaches the negative order.
        fp = FactorProduct.from_map({4: -1, 6: -1, 12: 1, 5: 2})
        assert cyclotomic_exponent(fp, 1) == 1
        assert cyclotomic_exponent(fp, 2) == -1
        assert [a for a, _ in fp.factors if cyclotomic_exponent(fp, a) < 0] == []
        assert negative_cyclotomic_orders(fp) == [2]
        assert [d for d, c in to_cyclotomic(fp).entries if c < 0] == [2]

    def test_closure_agrees_with_full_vector_on_random_products(self):
        rng = random.Random(20191213)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            factors: dict[int, int] = {}
            # Quotients (t^{a*m} - 1)/(t^a - 1) are polynomials; one optional
            # signed extra factor may break that.
            for _ in range(rng.randint(1, 4)):
                a, m = rng.randint(1, 30), rng.randint(1, 6)
                factors[a * m] = factors.get(a * m, 0) + 1
                factors[a] = factors.get(a, 0) - 1
            if rng.random() < 0.5:
                a = rng.randint(1, 120)
                factors[a] = factors.get(a, 0) + rng.choice((-2, -1, 1, 2))
            fp = FactorProduct.from_map(factors)
            full_negatives = {d for d, c in to_cyclotomic(fp).entries if c < 0}
            closure_negatives = negative_cyclotomic_orders(fp)
            assert (closure_negatives == []) == (not full_negatives), fp
            assert set(closure_negatives) <= full_negatives
            outcomes[closure_negatives == []] += 1
        # Both verdicts occur often enough for the agreement to mean something.
        assert min(outcomes.values()) >= 50, outcomes

    def test_empty_product(self):
        assert negative_cyclotomic_orders(FactorProduct.one()) == []
        assert cyclotomic_exponent(FactorProduct.one(), 3) == 0


class TestLargeGenerators:
    def test_74_bit_analyze_is_fast(self):
        # Trial-division divisor enumeration takes minutes on these inputs.
        argv = ["analyze", "--gens", "200000000006,200000000008,20000000001400000000057"]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.getvalue().strip().endswith("conjecture: pass")
        assert elapsed < 1.0, elapsed


class TestCharacteristicPolynomial:
    def test_milnor_numbers(self):
        assert milnor_number(build_semigroup((4, 6, 13))) == 16
        assert milnor_number(build_semigroup((8, 12, 26, 53))) == 84

    def test_factors_g2(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        assert delta.product.as_map() == {1: 1, 6: 1, 26: 1, 2: -2, 13: -1}
        assert delta.mu == 16

    def test_expansion_well_formed(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        coeffs = delta.expand()
        assert len(coeffs) == delta.mu + 1
        assert coeffs[-1] == 1
        assert coeffs[0] in (1, -1)
        assert all(isinstance(c, int) for c in coeffs)

    def test_expansion_cap(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        with pytest.raises(BudgetExceeded):
            delta.expand(max_degree=5)

    def test_degree_accounting(self):
        for seed in range(40):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            delta = characteristic_polynomial(sg)
            assert delta.product.degree() == milnor_number(sg)
            assert delta.cyclotomic().degree() == delta.mu

    def test_delta_vs_zeta_convention(self):
        # At every d > 1 the cyclotomic exponent of Delta is minus that of Z.
        for seed in range(40):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            dvec = characteristic_polynomial(sg).cyclotomic().as_map()
            zvec = to_cyclotomic(zeta_closed_form(sg)).as_map()
            keys = set(dvec) | set(zvec)
            for d in keys:
                if d > 1:
                    assert dvec.get(d, 0) == -zvec.get(d, 0)

    def test_dense_division_error(self):
        fp = FactorProduct.from_map({13: 1, 2: -1})
        from monocurve.zeta import CharacteristicPolynomial

        with pytest.raises(NotPolynomial):
            CharacteristicPolynomial(product=fp, mu=11).expand()
