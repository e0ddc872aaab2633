"""Tests for factor-product arithmetic, the zeta function and Delta."""

import contextlib
import io
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from monocurve import zeta
from monocurve.cli import main
from monocurve.conjecture import verify_conjecture
from monocurve.errors import BudgetExceeded, NotPolynomial
from monocurve.oracle import expand_and_verify
from monocurve.semigroup import build_semigroup, plane_semigroups, random_semigroup
from monocurve.zeta import (
    CharacteristicPolynomial,
    FactorProduct,
    _div_one_minus_ta,
    _mul_comb,
    _sparse_product,
    characteristic_polynomial,
    cyclotomic_exponent,
    milnor_number,
    negative_cyclotomic_orders,
    resolution_multiplicities,
    zeta_closed_form,
)


def _product(*fps: FactorProduct) -> FactorProduct:
    """The product of ``fps``: its exponent map is the sum of their ``factors``."""
    exponents = Counter()
    for fp in fps:
        exponents.update(dict(fp.factors))
    return FactorProduct.from_map(exponents, math.prod(fp.sign for fp in fps))


class TestFactorProduct:
    def test_canonical(self):
        fp = FactorProduct.from_map({3: 2, 2: 0, 5: -1})
        assert fp.factors == ((3, 2), (5, -1))

    def test_mul_div(self):
        # A product's exponent map is the sum of its factors' maps, a quotient's
        # the difference; from_map drops the exponents that cancel.
        a = FactorProduct.from_map({2: 1, 3: 1})
        b = FactorProduct.from_map({3: 1, 5: -2})
        assert dict(_product(a, b).factors) == {2: 1, 3: 2, 5: -2}
        quotient = Counter(dict(a.factors))
        quotient.subtract(dict(b.factors))
        assert dict(FactorProduct.from_map(quotient).factors) == {2: 1, 5: 2}
        quotient = Counter(dict(a.factors))
        quotient.subtract(dict(a.factors))
        assert FactorProduct.from_map(quotient) == FactorProduct()

    def test_idempotent_canonicalization(self):
        fp = FactorProduct.from_map({2: 3})
        assert _product(fp, FactorProduct.from_map({7: 0})) == fp

    def test_sign_convention(self):
        # One (t^a - 1) factor flips the sign once.
        fp = FactorProduct.from_t_minus_one({4: 1})
        assert fp.sign == -1
        assert FactorProduct.from_t_minus_one({4: 1, 6: 1}).sign == 1
        assert FactorProduct.from_t_minus_one({4: 1, 6: -2}).sign == -1
        assert FactorProduct.from_t_minus_one({4: 1, 6: 0}).sign == -1
        assert FactorProduct.from_t_minus_one({}).sign == 1

    def test_render(self):
        fp = FactorProduct.from_map({2: 2, 13: 1, 6: -1, 26: -1})
        assert fp.render() == "(1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)"
        assert FactorProduct().render() == "1"
        assert FactorProduct.from_map({1: 1}).render("t_minus_one") == "-(t-1)"

    def test_json(self):
        fp = FactorProduct.from_map({2: 2, 6: -1})
        assert fp.to_json() == {"num": [[2, 2]], "den": [[6, 1]], "sign": 1}


class TestFromMap:
    @pytest.mark.parametrize("factors", [
        {3: 2, 2: 0, 5: -1}, Counter({7: -1, 1: 3}), {4: 0}, {},
    ])
    def test_same_factors_as_the_constructor(self, factors):
        fp = FactorProduct.from_map(factors, -1)
        assert fp == FactorProduct(tuple(factors.items()), -1)
        assert fp.factors == tuple(sorted((a, e) for a, e in factors.items() if e))

    @pytest.mark.parametrize("factors, bad", [({0: 1}, 0), ({3: 1, -2: 0}, -2), ({0: 0}, 0)])
    def test_rejects_a_nonpositive_key_of_any_exponent(self, factors, bad):
        message = f"factor exponent of t must be positive, got {bad}"
        with pytest.raises(ValueError, match=message):
            FactorProduct.from_map(factors)
        with pytest.raises(ValueError, match=message):
            FactorProduct(tuple(factors.items()))

    def test_rejects_a_bad_sign(self):
        # A bool or a float sign was accepted, and to_json then wrote it.
        for sign, message in [
            (0, "sign must be +1 or -1"),
            (True, "sign must be an integer, got True"),
            (1.0, "sign must be an integer, got 1.0"),
            (-1.0, "sign must be an integer, got -1.0"),
        ]:
            for build in (lambda: FactorProduct.from_map({2: 1}, sign),
                          lambda: FactorProduct(((2, 1),), sign)):
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == message

    @pytest.mark.parametrize("factors, message", [
        ({2.5: 1}, "factor exponent of t must be an integer, got 2.5"),
        ({True: 2}, "factor exponent of t must be an integer, got True"),
        ({"3": 1}, "factor exponent of t must be an integer, got '3'"),
        ({2: 1.0}, "factor multiplicity must be an integer, got 1.0"),
        ({2: True}, "factor multiplicity must be an integer, got True"),
        ({2: Fraction(1)}, "factor multiplicity must be an integer, got Fraction(1, 1)"),
        ({3: 1, 2: 0.0}, "factor multiplicity must be an integer, got 0.0"),
        ({2: "1"}, "factor multiplicity must be an integer, got '1'"),
    ])
    def test_rejects_a_non_int_exponent_or_multiplicity(self, factors, message):
        # A float, a bool, a string or a fraction is refused, never rounded or
        # read as 0 and 1; the constructor, from_map and from_t_minus_one
        # refuse alike (the last checks the types before its sign-parity sum).
        for build in (FactorProduct.from_map, lambda f: FactorProduct(tuple(f.items())),
                      FactorProduct.from_t_minus_one):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(factors)

    @pytest.mark.parametrize("pairs, message", [
        (((1, 1), (True, 1)), "factor exponent of t must be an integer, got True"),
        (((2, 1), (2, True)), "factor multiplicity must be an integer, got True"),
    ])
    def test_constructor_refuses_a_bool_that_merging_would_hide(self, pairs, message):
        # True == 1 and 0 + True == 1, so the check runs before a repeated a merges.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FactorProduct(pairs)


class TestConstructorRepeatedExponent:
    """The constructor's pairs denote a product, so a repeated ``a`` adds its exponents."""

    @pytest.mark.parametrize("pairs, factors", [
        (((3, 1), (2, 2), (3, 1)), ((2, 2), (3, 2))),
        (((2, 1), (2, -1)), ()),
        (((5, -1), (1, 1), (5, 3), (5, -2)), ((1, 1),)),
        (((4, 2), (4, 0)), ((4, 2),)),
    ])
    def test_exponents_add(self, pairs, factors):
        fp = FactorProduct(pairs, -1)
        assert fp.factors == factors
        assert fp == FactorProduct.from_map(dict(factors), -1)

    @pytest.mark.parametrize("pairs, bad", [
        (((0, 1), (0, -1)), 0), (((3, 1), (-1, 2), (-1, -2)), -1),
    ])
    def test_nonpositive_a_rejected_even_when_cancelled(self, pairs, bad):
        with pytest.raises(ValueError, match=f"factor exponent of t must be positive, got {bad}"):
            FactorProduct(pairs)


class TestZetaClosedForm:
    def test_example_g2(self):
        sg = build_semigroup((4, 6, 13))
        z = zeta_closed_form(sg)
        assert dict(z.factors) == {2: 2, 13: 1, 6: -1, 26: -1}
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
        fp = FactorProduct.from_map({2: 1})
        assert [cyclotomic_exponent(fp, d) for d in (1, 2, 3)] == [1, 1, 0]
        # 1 - t^2 = -(t - 1)(t + 1)
        assert expand_and_verify(fp) == ((1, 0, -1), {1: 1, 2: 1})

    def test_delta_exponents(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        assert cyclotomic_exponent(delta.product, 2) == 0
        assert cyclotomic_exponent(delta.product, 6) == 1
        assert cyclotomic_exponent(delta.product, 26) == 1

    def test_zeros_and_poles(self):
        z = zeta_closed_form(build_semigroup((4, 6, 13)))
        assert cyclotomic_exponent(z, 1) == 1  # zero at t = 1
        assert cyclotomic_exponent(z, 26) == -1  # pole at the primitive 26th roots
        assert cyclotomic_exponent(z, 2) == 0

    def test_empty(self):
        assert expand_and_verify(FactorProduct()) == ((1,), {})

    def test_get_outside_support(self):
        fp = FactorProduct.from_map({6: 1, 4: -1})
        exponents = [cyclotomic_exponent(fp, d) for d in (1, 2, 3, 4, 5, 6, 7, 12)]
        assert exponents == [0, 0, 1, -1, 0, 1, 0, 0]

    @pytest.mark.parametrize("d", [2.5, 2.0, True, "2", Fraction(2)])
    def test_non_int_order_rejected(self, d):
        fp = FactorProduct.from_map({6: 1, 3: -1})
        message = f"cyclotomic order must be an integer, got {d!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cyclotomic_exponent(fp, d)

    @pytest.mark.parametrize("d", [0, -3])
    def test_order_below_one_rejected(self, d):
        fp = FactorProduct.from_map({6: 1, 3: -1})
        with pytest.raises(ValueError, match=f"got {d}$"):
            cyclotomic_exponent(fp, d)


PINNED = ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37))


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _divisor_sum_vector(fp):
    """``{d: c_d}`` with ``c_d != 0``, summing ``e_a`` over every divisor ``d`` of every ``a``."""
    vec: dict[int, int] = {}
    for a, e in fp.factors:
        for d in _divisors(a):
            vec[d] = vec.get(d, 0) + e
    return {d: c for d, c in vec.items() if c}


def _negative_orders_by_scan(fp):
    """Every ``d <= max a`` with ``c_d < 0``: the scan the gcd-closure replaces."""
    top = max((a for a, _ in fp.factors), default=0)
    return [d for d in range(1, top + 1) if cyclotomic_exponent(fp, d) < 0]


class TestSparseCyclotomic:
    """The pipeline's sparse ``c_q`` and gcd-closure check against independent routes."""

    def _assert_exponents_agree(self, fp, reference):
        # ``reference`` holds every nonzero c_d; orders outside it must read 0.
        exponents = [a for a, _ in fp.factors]
        outside = [max(exponents) + 1, 2 * max(exponents), 7919]
        outside += [a + 1 for a in exponents if a + 1 not in reference]
        for d in [*reference, *outside]:
            assert cyclotomic_exponent(fp, d) == reference.get(d, 0), (fp, d)

    def test_exponent_matches_vector_pinned(self):
        # Reference: repeated Phi_d division of the dense expansion.  Z is
        # read from Delta through Delta * Z = 1 - t.
        for gens in PINNED:
            sg = build_semigroup(gens)
            delta = characteristic_polynomial(sg).product
            z = zeta_closed_form(sg)
            assert dict(_product(delta, z).factors) == {1: 1}
            _, delta_mults = expand_and_verify(delta)
            z_mults = {d: (d == 1) - delta_mults.get(d, 0) for d in {1, *delta_mults}}
            self._assert_exponents_agree(delta, delta_mults)
            self._assert_exponents_agree(z, {d: c for d, c in z_mults.items() if c})
            for pk in verify_conjecture(sg).delta.pk:
                self._assert_exponents_agree(pk, expand_and_verify(pk)[1])

    def test_exponent_matches_vector_seeded(self):
        # These draws are too large for the dense route.  The reference is
        # the full divisor-sum vector, which the sparse lookup must match at
        # every order in its support and read 0 off it.
        for seed in range(30):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            products = [characteristic_polynomial(sg).product, zeta_closed_form(sg),
                        *verify_conjecture(sg).delta.pk]
            for fp in products:
                self._assert_exponents_agree(fp, _divisor_sum_vector(fp))

    def test_exponents_match_dense_phi_division(self):
        # The dense expansion and its Phi_d deflation to a unit cofactor
        # share no formula with the sum over factors; every semigroup with
        # b_g <= 120 is small enough for them, so none is skipped.  Each
        # product is expanded once: Delta and every P_k are polynomials of
        # their factor degree.
        checked = 0
        for sg in plane_semigroups(120):
            report = verify_conjecture(sg)
            for i, fp in enumerate([report.delta.product, *report.delta.pk]):
                coeffs, mults = expand_and_verify(fp)
                assert len(coeffs) == fp.degree() + 1, (sg.gens, i)
                orders = {d for a, _ in fp.factors for d in _divisors(a)}
                assert set(mults) <= orders
                for d in orders:
                    assert mults.get(d, 0) == cyclotomic_exponent(fp, d), (sg.gens, i, d)
            checked += 1
        assert checked == 3086

    def test_pipeline_products_are_polynomials(self):
        for seed in range(30):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            assert negative_cyclotomic_orders(characteristic_polynomial(sg).product) == []
            pks = verify_conjecture(sg).delta.pk
            assert all(negative_cyclotomic_orders(pk) == [] for pk in pks)
            # Z has its poles at the orders where Delta has zeros.
            assert negative_cyclotomic_orders(zeta_closed_form(sg)) != []

    def test_closure_catches_non_factor_order(self):
        # c_1 = 1 but c_2 = -1, and 2 is not a factor exponent: only the
        # gcd-closure (gcd(4, 6) = 2) reaches the negative order.
        fp = FactorProduct.from_map({4: -1, 6: -1, 12: 1, 5: 2})
        assert cyclotomic_exponent(fp, 1) == 1
        assert cyclotomic_exponent(fp, 2) == -1
        assert [a for a, _ in fp.factors if cyclotomic_exponent(fp, a) < 0] == []
        assert negative_cyclotomic_orders(fp) == [2]
        assert _negative_orders_by_scan(fp) == [2]

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
            full_negatives = set(_negative_orders_by_scan(fp))
            closure_negatives = negative_cyclotomic_orders(fp)
            assert (closure_negatives == []) == (not full_negatives), fp
            assert set(closure_negatives) <= full_negatives
            outcomes[closure_negatives == []] += 1
        # Both verdicts occur often enough for the agreement to mean something.
        assert min(outcomes.values()) >= 50, outcomes

    def test_empty_product(self):
        assert negative_cyclotomic_orders(FactorProduct()) == []
        assert cyclotomic_exponent(FactorProduct(), 3) == 0


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
        assert dict(delta.product.factors) == {1: 1, 6: 1, 26: 1, 2: -2, 13: -1}
        assert delta.mu == 16

    def test_not_the_plane_branch_alexander_polynomial(self):
        # Delta belongs to the curve as a Cartier divisor on a generic
        # embedding surface.  The classical Alexander polynomial of the plane
        # branch 4,6,13, (1-t)(1-t^12)(1-t^26) / (1-t^4)(1-t^6)(1-t^13), has
        # the same degree mu but other cyclotomic factors, and the candidate
        # pole 8/6 needs the Phi_3 that only Delta has.
        sg = build_semigroup((4, 6, 13))
        delta = characteristic_polynomial(sg)
        alexander = FactorProduct.from_map({1: 1, 12: 1, 26: 1, 4: -1, 6: -1, 13: -1})
        assert _divisor_sum_vector(delta.product) == {3: 1, 6: 1, 26: 1}
        assert _divisor_sum_vector(alexander) == {12: 1, 26: 1}
        assert delta.product.degree() == alexander.degree() == delta.mu == 16
        pole = verify_conjecture(sg).poles[1]
        assert (pole.k, pole.display, pole.order, pole.delta_mult) == (1, "8/6", 3, 1)
        assert cyclotomic_exponent(alexander, 3) == 0

    def test_expansion_well_formed(self):
        delta = characteristic_polynomial(build_semigroup((4, 6, 13)))
        coeffs = delta.expand()
        assert len(coeffs) == delta.mu + 1
        assert coeffs[-1] == 1
        assert coeffs[0] in (1, -1)
        assert all(isinstance(c, int) for c in coeffs)

    def test_expansion_cap(self):
        delta = characteristic_polynomial(build_semigroup((2000006, 2000008, 2000014000057)))
        assert delta.mu > 10**6
        with pytest.raises(BudgetExceeded):
            delta.expand()

    def test_degree_accounting(self):
        for seed in range(40):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            delta = characteristic_polynomial(sg)
            assert delta.product.degree() == milnor_number(sg)

    def test_gap_count_oracle(self):
        # mu is the conductor and twice the number of gaps.  Sieve the
        # semigroup as a bitset up to mu + b_0: mu - 1 is a gap and the b_0
        # numbers from mu on all lie in it, so every gap is below mu.
        checked = 0
        for sg in plane_semigroups(120):
            mu = milnor_number(sg)
            size = mu + sg.gens[0]
            members = 1
            for b in sg.gens:
                shift = b
                while shift < size:
                    members |= (members << shift) & ((1 << size) - 1)
                    shift *= 2
            assert members >> mu == (1 << sg.gens[0]) - 1, sg.gens
            assert not members >> (mu - 1) & 1, sg.gens
            gaps = mu - bin(members & ((1 << mu) - 1)).count("1")
            assert 2 * gaps == mu == characteristic_polynomial(sg).product.degree(), sg.gens
            checked += 1
        assert checked == 3086

    def test_delta_vs_zeta_convention(self):
        # Delta = (t - 1) / Z as factor products: at every d > 1 the
        # cyclotomic exponent of Delta is minus that of Z.
        for seed in range(40):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            product = _product(characteristic_polynomial(sg).product, zeta_closed_form(sg))
            assert dict(product.factors) == {1: 1}

    def test_dense_division_error(self):
        fp = FactorProduct.from_map({13: 1, 2: -1})
        with pytest.raises(NotPolynomial):
            CharacteristicPolynomial(product=fp, mu=11).expand()

    @pytest.mark.parametrize("factors, coeffs", [
        ({12: 1, 2: 1, 4: -1, 6: -1}, (1, 0, -1, 0, 1)),
        ({30: 1, 15: -1, 10: -1, 6: -1, 5: 1, 3: 1, 2: 1, 1: -1}, (1, 1, 0, -1, -1, -1, 0, 1, 1)),
    ])
    def test_expands_cyclotomic_quotients(self, factors, coeffs):
        # Phi_12 and Phi_30: the last dividend is shorter than a*a, so the
        # block-wise division runs and its last block is partial.
        delta = CharacteristicPolynomial(FactorProduct.from_map(factors), len(coeffs) - 1)
        assert delta.expand() == coeffs

    @pytest.mark.parametrize("p, a", [([1, -1, -1], 2), ([1] + [0] * 7 + [1], 7)])
    def test_short_inexact_division_is_not_polynomial(self, p, a):
        with pytest.raises(NotPolynomial):
            _div_one_minus_ta(p, a)


def _scalar_product(p, fp):
    """The scalar recurrences the slice kernels replaced: every
    multiplication, then every division, in ascending order of ``a``."""
    coeffs = [fp.sign * c for c in p]
    for a, e in fp.numerator_factors():
        for _ in range(e):
            out = coeffs + [0] * a
            for i, c in enumerate(coeffs):
                out[i + a] -= c
            coeffs = out
    for a, e in fp.denominator_factors():
        for _ in range(e):
            if len(coeffs) <= a:
                raise NotPolynomial(a)
            q = [0] * (len(coeffs) - a)
            for i in range(len(q)):
                q[i] = coeffs[i] + (q[i - a] if i >= a else 0)
            for i in range(len(q), len(coeffs)):
                if coeffs[i] != (-q[i - a] if i >= a else 0):
                    raise NotPolynomial(a)
            coeffs = q
    return coeffs


class TestSparseKernels:
    """The slice kernels and the paired division order against the scalar recurrences."""

    @staticmethod
    def _random_case(rng):
        factors: dict[int, int] = {}
        # (1 - t^b)/(1 - t^a) with a | b is a polynomial; signed extra
        # factors may break that, or be cancelled by a factor of p.
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(1, 12)
            b = a * rng.randint(1, 5)
            factors[b] = factors.get(b, 0) + 1
            factors[a] = factors.get(a, 0) - 1
        for _ in range(rng.randint(0, 2)):
            a = rng.randint(1, 40)
            factors[a] = factors.get(a, 0) + rng.choice((-1, 1))
        fp = FactorProduct.from_map(factors, rng.choice((1, -1)))
        p = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
        p.append(rng.choice((-2, -1, 1, 2)))
        if fp.denominator_factors() and rng.random() < 0.3:
            a, _ = rng.choice(fp.denominator_factors())
            p = _scalar_product(p, FactorProduct.from_map({a: 1}))
        return p, fp

    def test_matches_scalar_recurrences(self, monkeypatch):
        divisions = []
        paths = Counter()

        def recorded(p, a):
            divisions.append((len(p), a))
            return _div_one_minus_ta(p, a)

        def recorded_comb(p, a, b):
            before = len(divisions)
            out = _mul_comb(p, a, b)
            n, m = len(p), b // a
            fallback = len(divisions) > before
            assert fallback == (n > a and (m - 1) * n > 2 * n + b), (p, a, b)
            paths["disjoint copies" if n <= a else "fallback" if fallback else "shifted adds"] += 1
            return out

        monkeypatch.setattr(zeta, "_div_one_minus_ta", recorded)
        monkeypatch.setattr(zeta, "_mul_comb", recorded_comb)
        rng = random.Random(20260418)
        outcomes = {True: 0, False: 0}
        for _ in range(600):
            p, fp = self._random_case(rng)
            try:
                expected = _scalar_product(p, fp)
            except NotPolynomial:
                expected = None
            if expected is None:
                with pytest.raises(NotPolynomial):
                    _sparse_product(p, fp)
            else:
                assert _sparse_product(p, fp) == expected, (p, fp)
            outcomes[expected is None] += 1
        assert min(outcomes.values()) >= 100, outcomes
        # Each path of the paired step: copies of p that do not overlap,
        # shifted adds, and the multiply-and-divide pair.
        assert len(paths) == 3 and min(paths.values()) >= 20, paths
        # a = 1, a dividend no longer than a, one shorter than 2a, and both
        # division loops (a*a < n by residue, else by block).
        cases = {
            "a = 1": sum(a == 1 for _, a in divisions),
            "n <= a": sum(n <= a for n, a in divisions),
            "a < n < 2a": sum(a < n < 2 * a for n, a in divisions),
            "a*a < n": sum(a * a < n for n, a in divisions),
            "a*a >= n > a": sum(a < n <= a * a for n, a in divisions),
        }
        assert min(cases.values()) >= 20, cases

    @pytest.mark.parametrize("factors", [
        {8: 1, 4: -1},  # n = 3 <= a: disjoint copies
        {2: 1, 1: -1},  # (m-1)*n = 3 <= 2n + b: shifted adds
        {10: 1, 1: -1},  # (m-1)*n = 27 > 2n + b: multiply and divide
        {5: 1},
        {1: -1},
    ], ids=["disjoint copies", "shifted adds", "fallback", "unpaired mul", "unpaired div"])
    def test_input_list_unchanged(self, factors):
        p = [1, 1, -2]
        fp = FactorProduct.from_map(factors)
        assert _sparse_product(p, fp) == _scalar_product([1, 1, -2], fp)
        assert p == [1, 1, -2]
