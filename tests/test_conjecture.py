"""Tests for candidate poles, the P_k splitting and the verification report."""

import json
from fractions import Fraction

from monocurve.conjecture import candidate_poles, pk_factorization, verify_conjecture
from monocurve.oracle import expand_and_verify
from monocurve.semigroup import build_semigroup, plane_semigroups, random_semigroup
from monocurve.zeta import (
    FactorProduct,
    characteristic_polynomial,
    resolution_multiplicities,
    zeta_closed_form,
)


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


class TestPkFactorization:
    def test_example_g2(self):
        sg = build_semigroup((4, 6, 13))
        p1, p2 = pk_factorization(sg)
        assert p1.as_map() == {6: 1, 2: -1}
        assert p2.as_map() == {26: 1, 1: 1, 13: -1, 2: -1}

    def test_product_is_delta(self):
        for seed in range(40):
            sg = random_semigroup(seed, 2 + seed % 4, 10**6)
            product = FactorProduct.one()
            for pk in pk_factorization(sg):
                product = product * pk
            assert product == characteristic_polynomial(sg).product

    def test_last_factor_carries_t_minus_one(self):
        # The (t - 1) factor of Delta sits in P_g via the L_{g+1} = 1 term.
        for gens in ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37)):
            pks = pk_factorization(build_semigroup(gens))
            assert pks[-1].as_map().get(1) == 1
            for pk in pks[:-1]:
                assert 1 not in pk.as_map()

    def test_factors_are_polynomials(self):
        # Exact dense division (NotPolynomial on a remainder) on every
        # semigroup with b_g <= 60.
        for sg in plane_semigroups(60):
            for pk in pk_factorization(sg):
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


class TestReportCarriesQuantities:
    """The report's Z, Delta and P_k equal what the stand-alone functions build."""

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
            assert list(report.pk) == pk_factorization(sg)
