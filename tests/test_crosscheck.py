"""Tests for the cross-check battery: each quantity built once, failures reported."""

import functools
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
from monocurve.semigroup import build_semigroup, plane_semigroups, random_semigroup


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
    def test_delta_is_certified_by_its_factors_alone(self, monkeypatch, gens):
        sg = build_semigroup(gens)
        calls = count_calls(monkeypatch, "monocurve.zeta", "negative_cyclotomic_orders")
        delta = zeta.characteristic_polynomial(sg)
        assert [args[0] for args in calls] == list(delta.pk)
        assert len(calls) == sg.g
        assert all(args[0] != delta.product for args in calls)

    @pytest.mark.parametrize("gens", GENS)
    def test_delta_divides_each_exponent_once(self, monkeypatch, gens):
        # Delta's 2g + 1 quotients, then the split's two L exponents per level:
        # the split reads n_k*b_k/N_k and b_k/M_k from Delta.
        sg = build_semigroup(gens)
        calls = count_calls(monkeypatch, "monocurve.zeta", "_exact_div")
        zeta.characteristic_polynomial(sg)
        assert len(calls) == 4 * sg.g + 1

    @pytest.mark.parametrize("gens", GENS)
    def test_verify_conjecture_divides_the_closed_form_once(self, monkeypatch, gens):
        # Delta's 4g + 1 divisions, and none for Z, which is read from Delta.
        sg = build_semigroup(gens)
        calls = count_calls(monkeypatch, "monocurve.zeta", "_exact_div")
        monocurve.conjecture.verify_conjecture(sg)
        assert len(calls) == 4 * sg.g + 1

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
        # Z is read once from the report's Delta; the closed form is not called.
        original = zeta.CharacteristicPolynomial.zeta.func
        built = []

        def counted(self):
            built.append(self)
            return original(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(zeta.CharacteristicPolynomial, "zeta")
        monkeypatch.setattr(zeta.CharacteristicPolynomial, "zeta", prop)
        calls = count_calls(monkeypatch, "monocurve.zeta", "zeta_closed_form")
        assert cross_check(build_semigroup(gens)) == []
        assert calls == []
        assert len(built) == 1

    @pytest.mark.parametrize("argv", [
        *([command, "--gens", "8,12,26,53", "--format", fmt] for command, fmt in (
            ("analyze", "text"), ("analyze", "json"), ("zeta", "text"), ("zeta", "json"),
            ("conjecture", "text"), ("conjecture", "json"), ("graph", "json"))),
        ["fuzz", "--count", "3"],
        ["oracle", "--max-group-order", "3", "--max-exponent", "2", "--max-rank", "1",
         "--draws", "1"],
    ])
    def test_commands_read_zeta_from_delta(self, monkeypatch, capsys, argv):
        calls = count_calls(monkeypatch, "monocurve.zeta", "zeta_closed_form")
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("gens", GENS)
    def test_cross_validation_reads_graph_weights(self, monkeypatch, gens):
        sg = build_semigroup(gens)
        graph = build_resolution(sg)
        calls = count_calls(monkeypatch, "monocurve.resolution", "_weights")
        resolution._cross_validate(sg, graph)
        assert calls == []

    def test_graph_zeta_does_not_revalidate(self, monkeypatch):
        # The stratum product is the second route to Z: it neither rebuilds
        # the semigroup nor reads the closed form it is compared with.
        sg = build_semigroup((8, 12, 26, 53))
        graph = build_resolution(sg)
        expected = zeta.zeta_closed_form(sg)
        rebuilt = count_calls(monkeypatch, "monocurve.semigroup", "build_semigroup")
        closed = count_calls(monkeypatch, "monocurve.zeta", "zeta_closed_form")
        assert zeta_from_graph(graph) == expected
        assert rebuilt == []
        assert closed == []


class TestFailureLines:
    def test_pk_failure_is_one_line(self, monkeypatch):
        def broken(*args):
            raise InternalInconsistency("P_1 is not a polynomial")

        monkeypatch.setattr(zeta, "_pk_factors", broken)
        failures = cross_check(build_semigroup((4, 6, 13)))
        assert len(failures) == 1
        assert "Delta, P_k and pole verification: P_1 is not a polynomial" in failures[0]

    def test_dense_expansion_failure_is_one_line(self, monkeypatch):
        def broken(self):
            raise InternalInconsistency("expansion degree 15 != mu = 16")

        monkeypatch.setattr(zeta.CharacteristicPolynomial, "expand", broken)
        failures = cross_check(build_semigroup((4, 6, 13)))
        assert failures == [
            "gens=(4, 6, 13): dense expansion of Delta: expansion degree 15 != mu = 16"
        ]

    def test_graph_zeta_mismatch_is_one_line(self, monkeypatch):
        wrong = zeta.FactorProduct.from_map({1: 1})
        monkeypatch.setattr(monocurve.crosscheck, "zeta_from_graph", lambda graph: wrong)
        failures = cross_check(build_semigroup((4, 6, 13)))
        assert failures == [
            "gens=(4, 6, 13): resolution graph: graph zeta differs from closed form"
        ]

    def test_delta_zeta_mismatch_is_one_line(self, monkeypatch):
        # The stratum product is checked against the Z read from Delta.
        wrong = zeta.FactorProduct.from_map({1: 1})
        monkeypatch.setattr(zeta.CharacteristicPolynomial, "zeta", property(lambda self: wrong))
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
        stream = [build_semigroup((4, 6, 13)), build_semigroup((12, 18, 37)),
                  build_semigroup((8, 12, 26, 53))]
        assert campaign(stream) == [
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

    def test_digit_search_runs_at_every_level_of_the_fuzz_draws(self, monkeypatch):
        # The draws of `fuzz --seed 0`: the digit leg ran, without a budget
        # skip, at every level of every instance, as recorded by a wrapper.
        original = monocurve.crosscheck.enum_digits
        outcomes = Counter()

        def recorded(s, i, sg):
            try:
                digits = original(s, i, sg)
            except BudgetExceeded:
                outcomes["skipped"] += 1
                raise
            outcomes["ran"] += 1
            return digits

        monkeypatch.setattr(monocurve.crosscheck, "enum_digits", recorded)
        draws = [random_semigroup(i, 2 + i % 4, 10**6) for i in range(1000)]
        assert campaign(draws) == []
        assert outcomes == {"ran": sum(sg.g for sg in draws)} == {"ran": 3500}

    def test_wide_and_deep_draws_are_clean(self):
        # 500 draws with g = 2..16 and b_g up to 2**1024, well past the fuzz
        # defaults (g <= 5, b_g <= 10**6): every check that runs passes.
        draws = (random_semigroup(i, 2 + i % 15, 2**1024) for i in range(500))
        assert campaign(draws) == []
