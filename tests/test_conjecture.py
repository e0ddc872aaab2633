"""Tests for candidate poles, the P_k splitting and the verification report."""

import dataclasses
import inspect
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from monocurve import zeta
from monocurve.conjecture import PoleEntry, candidate_poles, verify_conjecture
from monocurve.errors import InternalInconsistency, NotPolynomial
from monocurve.oracle import expand_and_verify
from monocurve.semigroup import build_semigroup, plane_semigroups, random_semigroup
from monocurve.zeta import (
    FactorProduct,
    characteristic_polynomial,
    resolution_multiplicities,
    zeta_closed_form,
)


def delta_quotients(sg, M, N):
    """Delta's exponents ``n_k*b_k/N_k`` (k = 1..g) and ``b_k/M_k`` (k = 0..g)."""
    return ([sg.n[k] * sg.gens[k] // N[k - 1] for k in range(1, sg.g + 1)],
            [b // m for b, m in zip(sg.gens, M)])


class TestCandidatePoles:
    def test_example_g2(self):
        sg = build_semigroup((4, 6, 13))
        assert candidate_poles(sg) == [2, Fraction(4, 3), Fraction(37, 26)]

    def test_example_g3(self):
        sg = build_semigroup((8, 12, 26, 53))
        assert candidate_poles(sg) == [
            3,
            Fraction(11, 6),
            Fraction(25, 13),
            Fraction(235, 106),
        ]

    def test_integer_pole(self):
        sg = build_semigroup((12, 18, 37))
        assert candidate_poles(sg)[1] == 1

    def test_first_level_is_a_monomial_valuation(self):
        # Second route to nu_1/N_1, read from n, order and digits alone: the
        # monomial valuation v(x_j) = order/n_j on the binomials
        # f_j = x_j^{n_j} - prod_i x_i^{c_i} of the monomial curve.  It is
        # also the least candidate, the bound sum_j 1/n_j on the lct.
        checked = 0
        for sg in plane_semigroups(120):
            v = [sg.order // nj for nj in sg.n]
            v_f = [
                min(sg.n[j] * v[j], sum(c * vi for c, vi in zip(sg.digits[j - 1], v)))
                for j in range(1, len(sg.n))
            ]
            assert min(v_f) == sg.order, sg.gens
            poles = candidate_poles(sg)
            assert Fraction(sum(v), min(v_f)) == poles[1] == min(poles), sg.gens
            checked += 1
        assert checked == 3086


def _poles_formula(sg):
    """[g, nu_1/N_1, ..., nu_g/N_g] as the paper writes them, one Fraction per term."""
    g, b, n = sg.g, sg.gens, sg.n
    return [Fraction(g)] + [
        Fraction(sum(b[: k + 1]) - sum(n[l] * b[l] for l in range(1, k)), n[k] * b[k])
        + (k - 1)
        + sum(Fraction(1, n[l]) for l in range(k + 1, g + 1))
        for k in range(1, g + 1)
    ]


class TestPolesAgainstFormula:
    """The integer-numerator poles equal the paper's Fraction sum, and each
    display ``nu/N_k`` is that value over the level's ``N_k``."""

    @staticmethod
    def check(sg):
        assert candidate_poles(sg) == _poles_formula(sg), sg.gens
        _, N = resolution_multiplicities(sg)
        for p in verify_conjecture(sg).poles[1:]:
            nu, Nk = p.display.split("/")
            assert int(Nk) == N[p.k - 1], sg.gens
            assert Fraction(int(nu), int(Nk)) == p.value, sg.gens

    def test_all_small(self):
        checked = 0
        for sg in plane_semigroups(120):
            self.check(sg)
            checked += 1
        assert checked == 3086

    def test_random_draws(self):
        gs = Counter()
        for seed in range(200):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            self.check(sg)
            gs[sg.g] += 1
        assert gs == {2: 50, 3: 50, 4: 50, 5: 50}


class TestPkFactorization:
    def test_example_g2(self):
        sg = build_semigroup((4, 6, 13))
        p1, p2 = verify_conjecture(sg).pk
        assert p1.as_map() == {6: 1, 2: -1}
        assert p2.as_map() == {26: 1, 1: 1, 13: -1, 2: -1}

    def test_product_is_delta(self):
        for seed in range(40):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            pks = verify_conjecture(sg).pk
            exponents = Counter()
            for pk in pks:
                exponents.update(pk.as_map())
            product = FactorProduct.from_map(exponents, math.prod(pk.sign for pk in pks))
            assert product == characteristic_polynomial(sg).product

    @pytest.mark.parametrize("alter", ["extra factor", "sign"])
    def test_product_check_rejects_a_wrong_delta(self, alter):
        sg = build_semigroup((8, 12, 26, 53))
        M, N = resolution_multiplicities(sg)
        quotients = delta_quotients(sg, M, N)
        built = characteristic_polynomial(sg)
        delta = built.product
        assert zeta._pk_factors(sg, M, N, *quotients, delta) == built.pk
        if alter == "extra factor":
            exponents = Counter(delta.as_map())
            exponents[7] += 1
            wrong = FactorProduct.from_map(exponents, delta.sign)
        else:
            wrong = FactorProduct(delta.factors, -delta.sign)
        with pytest.raises(
            InternalInconsistency, match=r"^product of P_k factors differs from Delta$"
        ):
            zeta._pk_factors(sg, M, N, *quotients, wrong)

    def test_a_factor_that_is_not_a_polynomial_is_refused(self, monkeypatch):
        # The P_k closures are Delta's one polynomiality certificate, so a
        # negative order reported for P_2 alone stops characteristic_polynomial.
        sg = build_semigroup((8, 12, 26, 53))
        p2 = characteristic_polynomial(sg).pk[1]
        monkeypatch.setattr(zeta, "negative_cyclotomic_orders",
                            lambda fp: [13] if fp == p2 else [])
        with pytest.raises(
            NotPolynomial, match=r"^P_2 has negative cyclotomic exponents at \[13\]$"
        ):
            characteristic_polynomial(sg)

    def test_last_factor_carries_t_minus_one(self):
        # The (t - 1) factor of Delta sits in P_g via the L_{g+1} = 1 term.
        for gens in ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37)):
            pks = verify_conjecture(build_semigroup(gens)).pk
            assert pks[-1].as_map().get(1) == 1
            for pk in pks[:-1]:
                assert 1 not in pk.as_map()

    def test_factors_are_polynomials(self):
        # Exact dense division (NotPolynomial on a remainder) on every
        # semigroup with b_g <= 60.
        for sg in plane_semigroups(60):
            for pk in verify_conjecture(sg).pk:
                coeffs, _ = expand_and_verify(pk)
                assert len(coeffs) == pk.degree() + 1


class TestVerifyConjecture:
    def test_example_g2(self):
        report = verify_conjecture(build_semigroup((4, 6, 13)))
        assert report.passed
        assert [p.display for p in report.poles] == ["2", "8/6", "37/26"]
        assert [p.case for p in report.poles] == ["trivial", "ii", "i"]
        assert [p.order for p in report.poles] == [1, 3, 26]
        assert all(p.delta_mult >= 1 for p in report.poles if not p.integer)

    def test_example_g3(self):
        report = verify_conjecture(build_semigroup((8, 12, 26, 53)))
        assert report.passed
        assert [p.display for p in report.poles] == ["3", "11/6", "50/26", "235/106"]
        assert [p.case for p in report.poles] == ["trivial", "ii", "ii", "i"]

    def test_integer_pole_case(self):
        report = verify_conjecture(build_semigroup((12, 18, 37)))
        assert report.passed
        entry = report.poles[1]
        assert entry.integer and entry.case == "trivial" and entry.display == "6/6"
        assert report.poles[2].case == "i"
        assert report.poles[2].order == 222

    def test_case_ii_side_property(self):
        # Whenever the order divides M_k, that level has N_k = M_k and the
        # zeta pole at N_k strictly dominates the zero at M_k.
        for seed in range(80):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            M, N = resolution_multiplicities(sg)
            for p in verify_conjecture(sg).poles:
                if p.case == "ii":
                    k = p.k
                    assert N[k - 1] == M[k]
                    assert sg.n[k] * sg.gens[k] // N[k - 1] > sg.gens[k] // M[k]

    def test_fuzzed_all_pass(self):
        for seed in range(80):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            report = verify_conjecture(sg)
            assert report.passed
            assert len(report.poles) == sg.g + 1

    def test_json_shape(self):
        report = verify_conjecture(build_semigroup((4, 6, 13)))
        doc = json.loads(report.to_json_text())
        assert doc["gens"] == [4, 6, 13]
        assert doc["pass"] is True
        assert len(doc["poles"]) == 3
        entry = doc["poles"][1]
        assert set(entry) == {
            "k", "value", "integer", "order", "case", "delta_mult", "verdict"
        }
        assert entry["value"] == "8/6"
        assert entry["verdict"] is True


def _pk_formula(sg):
    """P_1..P_g read straight off the paper's formula, with L_k = lcm(n_k..n_g)."""
    M, N = resolution_multiplicities(sg)
    L = [math.lcm(*sg.n[k:]) for k in range(1, sg.g + 1)] + [1]
    out = []
    for k in range(1, sg.g + 1):
        exps = Counter()
        exps[N[k - 1]] += sg.n[k] * sg.gens[k] // N[k - 1]
        exps[L[k]] += sg.e[k] // L[k]
        exps[M[k]] -= sg.gens[k] // M[k]
        exps[L[k - 1]] -= sg.e[k - 1] // L[k - 1]
        out.append(FactorProduct.from_t_minus_one(dict(exps)))
    return out


class TestReportCarriesQuantities:
    """The report's Z and Delta equal what the stand-alone functions build, and
    its P_k what the paper's formula gives."""

    @staticmethod
    def semigroups():
        pinned = [build_semigroup(g) for g in ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37))]
        drawn = [random_semigroup(1000 + seed, 2 + seed % 4, 10**6) for seed in range(30)]
        return pinned + drawn

    def test_zeta_delta_and_pk(self):
        for sg in self.semigroups():
            report = verify_conjecture(sg)
            assert report.zeta == zeta_closed_form(sg)
            assert report.delta == characteristic_polynomial(sg)
            assert report.pk is report.delta.pk
            assert list(report.pk) == _pk_formula(sg)


class TestPoleEntryRecord:
    def test_keeps_the_dataclass_contract(self):
        # PoleEntry's __init__ is written by hand; the generated behaviour stays.
        names = [f.name for f in dataclasses.fields(PoleEntry)]
        assert names == ["k", "value", "display", "integer", "order", "case",
                         "delta_mult", "verdict"]
        assert list(inspect.signature(PoleEntry).parameters) == names
        for entry in verify_conjecture(build_semigroup((12, 18, 37))).poles:
            assert list(vars(entry)) == names
            same = PoleEntry(*[getattr(entry, name) for name in names])
            assert same == entry and hash(same) == hash(entry) and same is not entry
            assert repr(same) == repr(entry)
            assert PoleEntry(**vars(entry)) == entry
            changed = dataclasses.replace(entry, verdict=not entry.verdict)
            assert changed != entry and list(vars(changed)) == names
            assert dataclasses.replace(changed, verdict=entry.verdict) == entry
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(entry, name, None)
            assert same == entry
