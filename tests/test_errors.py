"""Tests for the shared text writers in monocurve.errors."""

import json
import sys
from fractions import Fraction

import pytest

import monocurve.cli
import monocurve.conjecture
import monocurve.resolution
from monocurve.cli import main
from monocurve.errors import BudgetExceeded, _int_text, _json_text
from monocurve.semigroup import plane_semigroups

EDGE_CASES = [
    {}, [], (), None, True, False, 0, -1, 10**400, -(10**400), "",
    {"empty": {}, "list": [], "tuple": (), "nested": [{}, [], [[]], {"x": []}]},
    [True, False, None, 0, 1, -2, "1"],
    (1, (2, "x"), (), [3]),
    {"quote": 'say "hi"', "backslash": "a\\b", "control": "\x00\x01\x1f\x7f\n\r\t\b\f",
     "unicode": "Ŷ é 日本 😀", "verdict": True, "multiplicity": None},
    [[[[{"deep": [-(2**70), 2**70]}]]]],
]


class TestJsonText:
    @pytest.mark.parametrize("doc", EDGE_CASES)
    def test_edge_cases_match_json_dumps(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    def test_every_document_matches_json_dumps(self, capsys, monkeypatch):
        """The analyze, zeta, graph and conjecture JSON of every b_g <= 60 semigroup."""
        written = []

        def checked(doc):
            text = _json_text(doc)
            assert text == json.dumps(doc, indent=2)
            written.append(text)
            return text

        for module in (monocurve.cli, monocurve.conjecture, monocurve.resolution):
            monkeypatch.setattr(module, "_json_text", checked)
        count = 0
        for sg in plane_semigroups(60):
            gens = ",".join(map(str, sg.gens))
            for command in ("analyze", "zeta", "graph", "conjecture"):
                assert main([command, "--gens", gens, "--format", "json"]) == 0
                count += 1
                assert len(written) == count
                assert capsys.readouterr().out == written[-1] + "\n"
        assert count == 4 * 340

    @pytest.mark.parametrize("doc", [
        {"value": Fraction(8, 6)}, [1, 2.5], {1: "int key"},
    ], ids=["fraction", "float", "int-key"])
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-to-str digit limit")
class TestDigitLimit:
    def test_past_the_limit_raises_budget_exceeded(self):
        big = 10 ** sys.get_int_max_str_digits()
        assert _int_text(big - 1) == str(big - 1)
        assert _json_text([big - 1]) == json.dumps([big - 1], indent=2)
        for write in (_int_text, lambda n: _json_text({"n": [n]})):
            with pytest.raises(BudgetExceeded, match="int-to-str digit limit"):
                write(big)
