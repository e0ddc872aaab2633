"""Tests for the cross-check battery: each quantity built once, failures reported."""

import sys
from collections import Counter

import pytest

import monocurve.conjecture
import monocurve.crosscheck
from monocurve import resolution, zeta
from monocurve.cli import main
from monocurve.conjecture import verify_conjecture
from monocurve.crosscheck import DENSE_MU_CAP, campaign, cross_check
from monocurve.errors import BudgetExceeded, InternalInconsistency
from monocurve.resolution import build_resolution, zeta_from_graph
from monocurve.semigroup import b_table, build_semigroup, plane_semigroups


def count_calls(monkeypatch, module_name: str, name: str) -> list:
    """Wrap ``module_name.name`` in every ``monocurve`` namespace binding it.

    Returns a list that grows by one entry per call.
    """
    original = getattr(sys.modules[module_name], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "monocurve" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


GENS = ((4, 6, 13), (8, 12, 26, 53), (12, 18, 37))


class TestComputedOnce:
    @pytest.mark.parametrize("gens", GENS)
    def test_verify_conjecture_builds_delta_once(self, monkeypatch, gens):
        calls = count_calls(monkeypatch, "monocurve.zeta", "characteristic_polynomial")
        monocurve.conjecture.verify_conjecture(build_semigroup(gens))
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_analyze_builds_delta_once(self, monkeypatch, capsys, fmt):
        calls = count_calls(monkeypatch, "monocurve.zeta", "characteristic_polynomial")
        assert main(["analyze", "--gens", "8,12,26,53", "--format", fmt]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("gens", GENS)
    def test_cross_check_builds_delta_once(self, monkeypatch, gens):
        calls = count_calls(monkeypatch, "monocurve.zeta", "characteristic_polynomial")
        assert cross_check(build_semigroup(gens)) == []
        assert len(calls) == 1

    @pytest.mark.parametrize("gens", GENS)
    def test_cross_check_reads_stored_digits(self, monkeypatch, gens):
        sg = build_semigroup(gens)
        calls = count_calls(monkeypatch, "monocurve.semigroup", "decompose")
        assert cross_check(sg) == []
        assert calls == []

    @pytest.mark.parametrize("gens, mu, expansions", [
        ((4, 6, 13), 16, 1),
        ((100, 150, 301), 14800, 0),
    ])
    def test_dense_expansion_gated_by_mu(self, monkeypatch, gens, mu, expansions):
        sg = build_semigroup(gens)
        assert zeta.milnor_number(sg) == mu
        assert (mu <= DENSE_MU_CAP) == (expansions == 1)
        original = zeta.CharacteristicPolynomial.expand
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(self.mu)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(zeta.CharacteristicPolynomial, "expand", counted)
        assert cross_check(sg) == []
        assert len(calls) == expansions

    @pytest.mark.parametrize("gens", GENS)
    def test_cross_check_builds_zeta_once(self, monkeypatch, gens):
        calls = count_calls(monkeypatch, "monocurve.zeta", "zeta_closed_form")
        assert cross_check(build_semigroup(gens)) == []
        assert len(calls) == 1

    @pytest.mark.parametrize("gens", GENS)
    def test_cross_validation_reads_graph_weights(self, monkeypatch, gens):
        sg = build_semigroup(gens)
        graph = build_resolution(sg)
        calls = count_calls(monkeypatch, "monocurve.resolution", "_weights")
        resolution._cross_validate(sg, b_table(sg), graph)
        assert calls == []

    def test_graph_zeta_does_not_revalidate(self, monkeypatch):
        graph = build_resolution(build_semigroup((8, 12, 26, 53)))
        calls = count_calls(monkeypatch, "monocurve.semigroup", "build_semigroup")
        assert zeta_from_graph(graph) == zeta.zeta_closed_form(graph.semigroup)
        assert calls == []


class TestFailureLines:
    def test_pk_failure_is_one_line(self, monkeypatch):
        def broken(*args):
            raise InternalInconsistency("P_1 is not a polynomial")

        monkeypatch.setattr(monocurve.conjecture, "_pk_factors", broken)
        failures = cross_check(build_semigroup((4, 6, 13)))
        assert len(failures) == 1
        assert "Delta, P_k and pole verification: P_1 is not a polynomial" in failures[0]

    def test_dense_expansion_failure_is_one_line(self, monkeypatch):
        def broken(self, max_degree=None):
            raise InternalInconsistency("expansion degree 15 != mu = 16")

        monkeypatch.setattr(zeta.CharacteristicPolynomial, "expand", broken)
        failures = cross_check(build_semigroup((4, 6, 13)))
        assert failures == [
            "gens=(4, 6, 13): dense expansion of Delta: expansion degree 15 != mu = 16"
        ]

    def test_graph_zeta_mismatch_is_one_line(self, monkeypatch):
        wrong = zeta.FactorProduct.from_map({1: 1})
        monkeypatch.setattr(monocurve.crosscheck, "_stratum_product", lambda graph: wrong)
        failures = cross_check(build_semigroup((4, 6, 13)))
        assert failures == [
            "gens=(4, 6, 13): resolution graph: graph zeta differs from closed form"
        ]

    def test_digit_mismatch_is_one_line(self, monkeypatch):
        original = monocurve.crosscheck.enum_digits

        def wrong_at_level_2(s, i, sg):
            digits = original(s, i, sg)
            return (digits[0] + 1, *digits[1:]) if i == 2 else digits

        monkeypatch.setattr(monocurve.crosscheck, "enum_digits", wrong_at_level_2)
        sg = build_semigroup((4, 6, 13))
        search = original(sg.n[2] * sg.gens[2], 2, sg)
        failures = cross_check(sg)
        assert failures == [
            f"gens=(4, 6, 13): digit decomposition at level 2: "
            f"search {(search[0] + 1, *search[1:])} != modular {sg.digits[1]}"
        ]


class TestCampaign:
    def test_lines_carry_the_instance_index(self, monkeypatch):
        monkeypatch.setattr(monocurve.crosscheck, "cross_check",
                            lambda sg: [f"gens={sg.gens}: a", "b"] if sg.g == 3 else [])
        stream = [build_semigroup((4, 6, 13)), BudgetExceeded("nothing drawn"),
                  build_semigroup((8, 12, 26, 53))]
        assert campaign(stream) == [
            "FAIL instance 1: sampling: nothing drawn",
            "FAIL instance 2: gens=(8, 12, 26, 53): a",
            "FAIL instance 2: b",
        ]

    def test_every_semigroup_up_to_120_is_clean(self):
        stratum = list(plane_semigroups(120))
        assert campaign(stratum) == []
        # Coverage: the dense leg runs on every instance, and every pole case
        # occurs, including integer poles at k >= 1, which the seeded
        # 1000-instance campaign never draws.
        cases = Counter()
        for sg in stratum:
            report = verify_conjecture(sg)
            assert report.delta.mu <= DENSE_MU_CAP
            for pole in report.poles:
                if pole.k >= 1:
                    cases["integer" if pole.integer else pole.case] += 1
        assert cases == {"i": 4614, "ii": 1439, "iii": 303, "iv": 95, "integer": 28}
