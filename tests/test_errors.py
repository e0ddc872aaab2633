"""Tests for the exact-division helper and the shared text writers in monocurve.errors."""

import ast
import functools
import json
import pathlib
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import monocurve
import monocurve.cli
import monocurve.conjecture
import monocurve.resolution
from monocurve import qspace, zeta
from monocurve.cli import main
from monocurve.crosscheck import cross_check
from monocurve.errors import (
    BudgetExceeded, NotDivisible, _exact_div, _int_text, _json_text, _shown,
)
from monocurve.semigroup import build_semigroup, plane_semigroups

EDGE_CASES = [
    {}, [], (), None, True, False, 0, -1, 10**400, -(10**400), "",
    {"empty": {}, "list": [], "tuple": (), "nested": [{}, [], [[]], {"x": []}]},
    [True, False, None, 0, 1, -2, "1"],
    (1, (2, "x"), (), [3]),
    {"quote": 'say "hi"', "backslash": "a\\b", "control": "\x00\x01\x1f\x7f\n\r\t\b\f",
     "unicode": "Ŷ é 日本 😀", "verdict": True, "multiplicity": None},
    [[[[{"deep": [-(2**70), 2**70]}]]]],
    # The indent table has no depth cap.
    functools.reduce(lambda inner, _: [inner], range(100), 0),
    functools.reduce(lambda inner, _: {"d": inner}, range(100), "leaf"),
    # Items that are not int or str go through the recursive path.
    (True, None, "x", (1, ("y", False))),
    {"int": 7, "str": "s", "true": True, "false": False, "none": None, "big": -(10**30)},
]


# A few keys, so each occurs at several depths and the writer's key table is reused.
KEYS = ["gens", "d", "A", "", 'q"uote', "é", "\x01", "😀"]
STRINGS = ["", "x", 'say "hi"', "a\\b", "\x00\x1f\x7f\n\t", "Ŷ é 日本", "😀", "E_1_2"]


def random_document(rng: random.Random, depth: int = 8, container: bool = True):
    """A seeded JSON value: dicts, lists and tuples nested at most ``depth`` deep."""
    kind = rng.randrange(6 if container else 0, 9 if depth else 6)
    if kind == 0:
        return rng.randint(-(2**70), 2**70)
    if kind == 1:
        return rng.randint(-3, 300)
    if kind == 2:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind in (4, 5):
        return rng.choice([{}, [], ()])
    items = [random_document(rng, depth - 1, False) for _ in range(rng.randrange(1, 5))]
    if kind == 6:
        return {rng.choice(KEYS): v for v in items}
    return items if kind == 7 else tuple(items)


class TestJsonText:
    @pytest.mark.parametrize("doc", EDGE_CASES)
    def test_edge_cases_match_json_dumps(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    def test_random_documents_match_json_dumps(self):
        rng = random.Random(0)
        for _ in range(2000):
            doc = random_document(rng)
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
        writers = (_int_text, lambda n: _json_text({"n": [n]}),
                   lambda n: _json_text({"n": n}), lambda n: _json_text((1, "x", n)))
        for write in writers:
            with pytest.raises(BudgetExceeded, match="int-to-str digit limit"):
                write(big)

    def test_message_ints_past_the_limit_show_their_bit_length(self):
        big = 10 ** sys.get_int_max_str_digits()
        for x in (0, -7, big - 1, (4, 6, 13), (5,), ()):
            assert _shown(x) == str(x)
        shown = f"<int of {big.bit_length()} bits>"
        assert (_shown(big), _shown(-big)) == (shown, "-" + shown)
        assert _shown((1, big)) == f"(1, {shown})"

    def test_message_values_that_are_no_int_show_their_repr(self):
        for x in ("4", None, 2.5, float("nan"), Fraction(5, 2), ("a", 2.0), ((1,),), [1, "2"]):
            assert _shown(x) == repr(x)


def _shapes(n: int) -> list:
    """Values of each shape a message meets, each holding the int ``n``."""
    return [
        n, -n, (n,), (1, (n, "a")), [n], [-n, [n], ()], {n}, frozenset({-n}), {"k": n}, {n: [n]},
        Fraction(n, 3), (None, True, [{"k": (n,)}]),
    ]


class TestShown:
    # The rule: _shown(x) is repr(x) whenever repr succeeds, and a str whatever x is.
    UNDER = [0, 1, -7, True, False, None, "", "4", 'q"', 2.5, float("nan"), (), (5,), [], [1],
             set(), {}, ((1,), [2, (3,)]), {"a": [1, (2,)]}, {(1, 2)}, Fraction(5, 2)]

    def test_under_the_limit_it_is_repr(self):
        big = 10 ** sys.get_int_max_str_digits()
        for x in [*self.UNDER, *_shapes(big - 1)]:
            assert _shown(x) == repr(x)

    def test_past_the_limit_it_is_a_str(self):
        big = 10 ** sys.get_int_max_str_digits()
        for x in _shapes(big):
            assert type(_shown(x)) is str

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no int-to-str digit limit")
    def test_past_the_limit_ints_show_wherever_they_sit(self):
        big = 10 ** sys.get_int_max_str_digits()
        shown = f"<int of {big.bit_length()} bits>"
        assert _shown([big]) == f"[{shown}]"
        assert _shown([-big, [big], ()]) == f"[-{shown}, [{shown}], ()]"
        assert _shown((1, (big, "a"))) == f"(1, ({shown}, 'a'))"
        assert _shown((None, [big])) == f"(None, [{shown}])"
        assert _shown({big}) == "<set object>"
        assert _shown({"k": big}) == "<dict object>"
        assert _shown(Fraction(big, 3)) == "<Fraction object>"

    def test_hostile_values_show_without_raising(self):
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        big = 10 ** sys.get_int_max_str_digits()
        looped = [big]
        looped.append(looped)
        deep = functools.reduce(lambda inner, _: (inner,), range(5000), big)
        assert _shown(Unprintable()) == "<Unprintable object>"
        assert _shown([1, Unprintable()]) == "[1, <Unprintable object>]"
        for x in (looped, deep):
            assert type(_shown(x)) is str


def test_no_raise_message_formats_with_repr_conversion():
    # A raise message shows a caller's value through errors._shown, never with !r.
    found = [
        f"{path.name}:{value.lineno}"
        for path in sorted(pathlib.Path(monocurve.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        for value in ast.walk(node.exc)
        if isinstance(value, ast.FormattedValue) and value.conversion == ord("r")
    ]
    assert found == []


def test_integer_rule_is_defined_once():
    # The rule "an int and not a bool" lives in monocurve.errors; other modules only call it.
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(pathlib.Path(monocurve.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("_ints", "_require_int")
    ]
    assert defined == ["errors.py:_require_int", "errors.py:_ints"]


# At 4,6,13: M = (M_0, M_1, M_2) = (2, 6, 13) and N = (N_1, N_2) = (6, 26).
M_4_6_13, N_4_6_13 = (2, 6, 13), (6, 26)


def _patched_multiplicities(monkeypatch, module, M, N):
    """Make ``module`` see ``(M, N)`` from ``resolution_multiplicities``."""
    monkeypatch.setattr(module, "resolution_multiplicities", lambda sg: (M, N))


class TestExactDiv:
    def test_template_is_formatted_with_args(self):
        assert _exact_div(6, 2, "b_{0} / M_{0}", 3) == 3
        with pytest.raises(NotDivisible) as info:
            _exact_div(7, 2, "b_{0} / M_{0}", 3)
        assert str(info.value) == "b_3 / M_3: 7 not divisible by 2"

    def test_constant_without_args_is_unchanged(self):
        with pytest.raises(NotDivisible) as info:
            _exact_div(7, 2, "two-row order")
        assert str(info.value) == "two-row order: 7 not divisible by 2"

    # Each expected text is the message the same failure gave when every
    # call site passed an f-string.
    def test_qspace_message(self):
        with pytest.raises(NotDivisible) as info:
            qspace._one_row_multiplicity(5, 2, 1, 0)
        assert str(info.value) == "divisor multiplicity at coordinate 0: 5 not divisible by 2"

    def test_zeta_messages(self, monkeypatch):
        sg = build_semigroup((4, 6, 13))
        _patched_multiplicities(monkeypatch, zeta, (2, 4, 13), N_4_6_13)
        with pytest.raises(NotDivisible) as info:
            zeta.zeta_closed_form(sg)
        assert str(info.value) == "b_1 / M_1: 6 not divisible by 4"
        _patched_multiplicities(monkeypatch, zeta, M_4_6_13, (6, 4))
        with pytest.raises(NotDivisible) as info:
            zeta.characteristic_polynomial(sg)
        assert str(info.value) == "n_2*b_2 / N_2: 26 not divisible by 4"

    def test_conjecture_messages(self, monkeypatch):
        # The P_k split runs in zeta.characteristic_polynomial and reads Delta's
        # own quotients, so a wrong M_2 stops at Delta's division; the split
        # divides only its two L exponents.
        sg = build_semigroup((4, 6, 13))
        delta = zeta.characteristic_polynomial(sg).product
        _patched_multiplicities(monkeypatch, zeta, (2, 6, 5), N_4_6_13)
        with pytest.raises(NotDivisible) as info:
            monocurve.conjecture.verify_conjecture(sg)
        assert str(info.value) == "b_2 / M_2: 13 not divisible by 5"
        # The two sites that read L_k and L_{k+1}, through a stand-in with a
        # wrong lcm tail.  Delta's quotients: 12/6, 26/26 and 4/2, 6/6, 13/13.
        for L, text in (((2, 3, 2, 1, 1), "P_1: e_0 / L_1: 4 not divisible by 3"),
                        ((2, 2, 3, 1, 1), "P_1: e_1 / L_2: 2 not divisible by 3")):
            stand_in = SimpleNamespace(g=sg.g, n=sg.n, gens=sg.gens, e=sg.e, L=L)
            with pytest.raises(NotDivisible) as info:
                zeta._pk_factors(stand_in, M_4_6_13, N_4_6_13, [2, 1], [2, 1, 1], delta)
            assert str(info.value) == text

    def test_resolution_messages(self, monkeypatch):
        sg = build_semigroup((4, 6, 13))
        _patched_multiplicities(monkeypatch, monocurve.resolution, M_4_6_13, (18, 26))
        with pytest.raises(NotDivisible) as info:
            monocurve.resolution.build_resolution(sg)
        assert str(info.value) == "chi(E_1): 12 not divisible by 18"
        assert cross_check(sg) == [
            "gens=(4, 6, 13): resolution graph: chi(E_1): 12 not divisible by 18"
        ]
        _patched_multiplicities(monkeypatch, monocurve.resolution, (2, 6, 26), N_4_6_13)
        with pytest.raises(NotDivisible) as info:
            monocurve.resolution.build_resolution(sg)
        assert str(info.value) == "|Q_2|: 13 not divisible by 26"

    def test_no_call_site_passes_an_f_string(self):
        # A passing _exact_div call formats nothing: its name is a template
        # plus arguments, never an f-string built before the call.
        calls, offenders = 0, []
        for path in sorted(pathlib.Path(monocurve.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_exact_div"):
                    continue
                calls += 1
                what = [kw.value for kw in node.keywords if kw.arg == "what"] + node.args[2:3]
                if any(isinstance(w, ast.JoinedStr) for w in what):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
        assert calls >= 20  # the walk found the call sites
