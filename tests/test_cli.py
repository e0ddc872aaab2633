"""Tests for the command-line interface (exit codes, output contract)."""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

import monocurve.cli
import monocurve.crosscheck
from monocurve.cli import build_parser, main
from monocurve.errors import InternalInconsistency
from monocurve.oracle import EnumerationBudget


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gens", "4,6,13")
        assert code == 0
        assert "Z = (1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)" in out
        assert "mu = 16" in out
        assert "conjecture: pass" in out
        assert "37/26" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gens", "4,6,13", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["gens"] == [4, 6, 13]
        assert doc["mu"] == 16
        assert doc["conjecture_pass"] is True
        assert doc["zeta"]["rendered"] == "(1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)"
        assert doc["resolution"]["gens"] == [4, 6, 13]

    def test_invalid_input_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--gens", "2,3,5")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_text_matches_readme_example(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        prompt = "$ monocurve analyze --gens 4,6,13\n"
        start = readme.index(prompt) + len(prompt)
        example = readme[start:readme.index("```", start)]
        code, out, _ = run(capsys, "analyze", "--gens", "4,6,13")
        assert code == 0
        assert out == example

    def test_not_coprime_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--gens", "4,6,14")
        assert code == 2
        assert "NotCoprime" in err


class TestZeta:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "zeta", "--gens", "8,12,26,53")
        assert code == 0
        assert "Z = " in out and "Delta = " in out and "mu = 84" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "zeta", "--gens", "4,6,13", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["mu"] == 16
        assert doc["delta"]["rendered"].startswith("(t-1)")

    # Captured with json.dumps(indent=2), before the package had its own writer.
    @pytest.mark.parametrize("gens, digest", [
        ("4,6,13", "94903754a8a54d321c6fc59b89081138865b390ebe7c2b73625eac4a4c8f2dd7"),
        ("8,12,26,53", "52bdf4174e84350f40e85ffe351467481b7452edddba0938683b36ff9ec5c357"),
        ("12,18,37", "5bcc7e620f28f4dbdb4297c8554c3024a7312514382ed5fe688e0977984662b6"),
    ])
    def test_pinned_json_bytes(self, capsys, gens, digest):
        code, out, _ = run(capsys, "zeta", "--gens", gens, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGraph:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "--gens", "4,6,13")
        assert code == 0
        doc = json.loads(out)
        assert [lvl["N"] for lvl in doc["levels"]] == [6, 26]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--gens", "4,6,13", "--format", "dot")
        assert code == 0
        assert out.startswith("graph resolution {")
        assert '"E_2_1" -- "Yhat"' in out


class TestConjecture:
    def test_examples_pass(self, capsys):
        for gens in ("4,6,13", "8,12,26,53"):
            code, out, _ = run(capsys, "conjecture", "--gens", gens)
            assert code == 0
            assert json.loads(out)["pass"] is True

    def test_trivial_integer_pole(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--gens", "12,18,37")
        assert code == 0
        doc = json.loads(out)
        entry = doc["poles"][1]
        assert entry["k"] == 1
        assert entry["integer"] is True
        assert entry["case"] == "trivial"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--gens", "4,6,13", "--format", "text")
        assert code == 0
        assert out.strip().endswith("pass")

    # Captured with json.dumps(indent=2), before the package had its own writer;
    # 12,18,37 has an integer pole at k = 1.
    @pytest.mark.parametrize("gens, digest", [
        ("4,6,13", "d4092e5ac1033795213bbaf0050d90d148e5f93a0b940c99beae446e364e074b"),
        ("8,12,26,53", "12caa6c432d5aa4281e7b484038a6026975a65280f0876a0c7ba8e06f8152aa6"),
        ("12,18,37", "4d0751928c7f14dbe0ecb09a634df7ab37dfa164144030e4a8d7f15d6df4f92d"),
    ])
    def test_pinned_json_bytes(self, capsys, gens, digest):
        code, out, _ = run(capsys, "conjecture", "--gens", gens, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPinnedTextBytes:
    # Captured before FactorProduct.render became one pass over the factors.
    @pytest.mark.parametrize("argv, gens, digest", [
        (("analyze",), "4,6,13",
         "694e8d56dcf54554a40aa5e1b80083d32439e1ea8da4216769bddacec7c49a87"),
        (("analyze",), "8,12,26,53",
         "4933c6bc228fc7b8662652d080b2a1bfa9f3eaacb8ed12237e71a6b0cc56f099"),
        (("analyze",), "12,18,37",
         "127a5c7b731560e9af494991554087534e9eae0da7af813cc9570bf4b623087d"),
        (("zeta",), "4,6,13",
         "849cbece4459324b5c553a43848b8a35fa5eb886b6dac7d162d927882cbf18bf"),
        (("zeta",), "8,12,26,53",
         "2472e60938cf1b9ea8715b5d5877093de33860879f383861a0ca0da0ee23fa0d"),
        (("zeta",), "12,18,37",
         "a394d9a5b11ab1c569266ca0bf6a8077b683b415ff318c17c24ffcd49a10bb45"),
        (("conjecture", "--format", "text"), "4,6,13",
         "43b793dfe38f28ae86af2d5544dbae6feb9376cd93e52e5bce67e240ff0d7f85"),
        (("conjecture", "--format", "text"), "8,12,26,53",
         "15482e9ab0478d025aad81ead359a9e151e010291728c1a5c8499403aba2a87c"),
        (("conjecture", "--format", "text"), "12,18,37",
         "dfdc8c81fab090e87d0626eaba2dac80743bc52b49a66971b979e5a5b3220371"),
        (("graph", "--format", "dot"), "4,6,13",
         "bd6d77c887ffca4775d66d8a0821b1446690a8a45b046bd349d1f1595176bc6f"),
        (("graph", "--format", "dot"), "8,12,26,53",
         "3f0d985f01786ab320ba69452bf93ae2b0b378f0e078b72b8d6985ede22a303c"),
        (("graph", "--format", "dot"), "12,18,37",
         "3b15424745e2ea01bae711a2741d6985592215961a7bf3fe14c6bd8d6735ae5f"),
    ])
    def test_pinned_text_bytes(self, capsys, argv, gens, digest):
        code, out, _ = run(capsys, *argv, "--gens", gens)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFuzz:
    def test_small_run_clean(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--count", "10", "--seed", "3")
        assert code == 0
        assert out.strip().endswith("fuzz: 10 instances, 0 failures")

    def test_deterministic(self, capsys):
        argv = ("fuzz", "--count", "6", "--seed", "9")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_bad_args(self, capsys):
        code, _, err = run(capsys, "fuzz", "--count", "0")
        assert code == 2
        assert "error:" in err

    def test_infeasible_size_exit_2(self, capsys):
        # No g = 5 plane semigroup has generators <= 500 (the smallest b_5 is 853).
        code, out, err = run(capsys, "fuzz", "--count", "8", "--max-g", "5",
                             "--max-size", "500", "--seed", "0")
        assert code == 2
        assert out == ""
        assert err == "error: no plane semigroup with g=5 has generators <= 500\n"

    def test_size_checked_against_the_largest_g_sampled(self, capsys):
        # One instance samples g = 2 only, whose smallest b_2 is 13.
        code, out, _ = run(capsys, "fuzz", "--count", "1", "--max-g", "5",
                           "--max-size", "13")
        assert code == 0
        assert out == "fuzz: 1 instances, 0 failures\n"
        code, _, err = run(capsys, "fuzz", "--count", "1", "--max-size", "12")
        assert code == 2
        assert err == "error: no plane semigroup with g=2 has generators <= 12\n"

    def test_size_beyond_float_range_exit_0(self, capsys):
        code, out, err = run(capsys, "fuzz", "--count", "1", "--max-size", str(10**400))
        assert code == 0
        assert out == "fuzz: 1 instances, 0 failures\n"
        assert err == ""

    def test_draws_at_10_to_the_100(self, capsys):
        # Runtime grows with the bit length, not the size: 200 draws of g 2-5
        # with generators up to 10^100 cross-check cleanly within seconds.
        start = time.perf_counter()
        code, out, _ = run(capsys, "fuzz", "--count", "200", "--max-size", str(10**100))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out == "fuzz: 200 instances, 0 failures\n"

    # The seed-0, 1000-instance run is criterion 6 of tests/test_acceptance.py.
    @pytest.mark.parametrize("argv, exit_code, stdout", [
        # The two g = 5 draws at 853 are the only g = 5 semigroup there.
        (("--count", "8", "--max-g", "5", "--max-size", "853", "--seed", "0"), 0,
         "fuzz: 8 instances, 0 failures\n"),
    ], ids=["least-g5-size"])
    def test_pinned_stdout(self, capsys, argv, exit_code, stdout):
        code, out, _ = run(capsys, "fuzz", *argv)
        assert code == exit_code
        assert out == stdout


class TestOracle:
    def test_tiny_budget_clean(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--max-group-order", "3", "--max-exponent", "2",
            "--max-rank", "1", "--draws", "1",
        )
        assert code == 0
        assert "0 discrepancies" in out

    def test_defaults_are_the_library_budget(self):
        args = build_parser().parse_args(["oracle"])
        budget = EnumerationBudget()
        assert args.max_group_order == budget.max_group_order
        assert args.max_exponent == budget.max_exponent
        assert args.max_rank == budget.max_rank

    def test_bad_budget(self, capsys):
        code, _, err = run(capsys, "oracle", "--max-rank", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_no_draws_exit_2(self, capsys, draws):
        code, out, err = run(capsys, "oracle", "--draws", draws)
        assert code == 2
        assert out == ""
        assert err == f"error: draws must be >= 1, got {draws}\n"

    def test_poly_degree_flag_rejected_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--max-poly-degree", "10"])
        assert exc.value.code == 2
        assert "--max-poly-degree" in capsys.readouterr().err


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "conjecture", "--gens", "4,6,13", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True

    def test_unwritable_output_exit_1(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        code, out, err = run(
            capsys, "conjecture", "--gens", "4,6,13", "--output", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: FileNotFoundError:")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestLibraryError:
    @pytest.mark.parametrize("command", ["analyze", "zeta", "graph", "conjecture"])
    def test_error_after_parsing_exit_1(self, capsys, monkeypatch, command):
        def broken(*args, **kwargs):
            raise InternalInconsistency("two routes disagree")

        for name in ("verify_conjecture", "zeta_closed_form", "build_resolution"):
            monkeypatch.setattr(monocurve.cli, name, broken)
        code, out, err = run(capsys, command, "--gens", "4,6,13")
        assert code == 1
        assert out == ""
        assert err == "error: InternalInconsistency: two routes disagree\n"

    def test_fuzz_error_exit_1(self, capsys, monkeypatch):
        def broken(sg):
            raise InternalInconsistency("check crashed")

        monkeypatch.setattr(monocurve.crosscheck, "cross_check", broken)
        code, out, err = run(capsys, "fuzz", "--count", "2")
        assert code == 1
        assert out == ""
        assert err == "error: InternalInconsistency: check crashed\n"


class TestComponentCap:
    # The g = 24 chain with every n_i = 2 (48-bit b_g) has 2^23 components.
    GENS = ",".join(str(b) for b in [
        16777216, 25165824, 54525952, 111149056, 223346688, 447217664,
        894697472, 1789526016, 3579117568, 7158267904, 14316552192,
        28633112576, 57266229248, 114532460544, 229064922112, 458129844736,
        916259689728, 1832519379584, 3665038759232, 7330077518496,
        14660155037008, 29320310074024, 58640620148052, 117281240296106,
        234562480592213,
    ])

    @pytest.mark.parametrize("argv", [["graph"], ["analyze", "--format", "json"]])
    def test_too_many_components_exit_1_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--gens", self.GENS)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == (
            "error: BudgetExceeded: 8388608 exceptional components exceed the cap 65536\n"
        )

    def test_json_analyze_refuses_before_the_report(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(monocurve.cli, "verify_conjecture", calls.append)
        code, out, err = run(capsys, "analyze", "--format", "json", "--gens", self.GENS)
        assert calls == []
        assert code == 1
        assert out == ""
        assert err == (
            "error: BudgetExceeded: 8388608 exceptional components exceed the cap 65536\n"
        )

    def test_text_analyze_lists_no_components(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--gens", self.GENS)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert err == ""
        assert out.endswith("conjecture: pass\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-to-str digit limit")
class TestDigitLimit:
    OUTPUTS = [
        ["analyze"], ["analyze", "--format", "json"], ["zeta"], ["zeta", "--format", "json"],
        ["graph"], ["graph", "--format", "dot"], ["conjecture"], ["conjecture", "--format", "text"],
    ]

    @pytest.mark.parametrize("argv", OUTPUTS, ids=[" ".join(a) for a in OUTPUTS])
    def test_output_past_the_limit_exit_1(self, capsys, argv):
        # b_2 has exactly the limit's digits; N_2 = 2*b_2 has one more.
        b2 = 10 ** sys.get_int_max_str_digits() - 1
        code, out, err = run(capsys, *argv, "--gens", f"4,6,{b2}")
        assert code == 1
        assert out == ""
        assert err == (
            f"error: BudgetExceeded: an output integer has more than "
            f"{sys.get_int_max_str_digits()} digits, the int-to-str digit limit\n"
        )

    def test_output_at_the_limit(self, capsys):
        b2 = 10 ** (sys.get_int_max_str_digits() - 1) - 1
        code, out, _ = run(capsys, "zeta", "--gens", f"4,6,{b2}")
        assert code == 0
        assert f"(1-t^{2 * b2})" in out

    def test_generator_past_the_limit_exit_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--gens", "4,6," + "9" * (limit + 1)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.count("error:") == 1
        assert captured.err.endswith(
            f"error: argument --gens: b_2 has {limit + 1} digits, "
            f"more than the int-to-str digit limit of {limit}\n"
        )


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_malformed_gens(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--gens", "4,six,13"])

    @pytest.mark.parametrize("part, shown", [
        ("six", "'six'"),
        ("x" * 5000, f"'{'x' * 20}'... (5000 characters)"),
    ])
    def test_unparsable_part_named_by_index(self, capsys, part, shown):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--gens", f"4,{part},13"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert line.endswith(f"error: argument --gens: b_1 is not an integer: {shown}")
        assert len(line) < 200

    def test_parser_reused_without_leaking_options(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        assert run(capsys, "graph", "--gens", "4,6,13", "--output", str(target))[0] == 0
        code, out, _ = run(capsys, "zeta", "--gens", "4,6,13")
        assert code == 0
        assert out.startswith("Z = ")  # not --output or --format of the first call
        assert monocurve.cli._parser() is monocurve.cli._parser()


# Per command: its options as (option, value) pairs, the first one read by
# every valid argv below, and an abbreviation of that option.
_COMMAND_OPTIONS = {
    **{cmd: ((("--gens", "4,6,13"), ("--gens", "8,12,26,53")), "--gen")
       for cmd in ("analyze", "zeta", "graph", "conjecture")},
    "fuzz": ((("--count", "3"), ("--count", "5")), "--cou"),
    "oracle": ((("--draws", "2"), ("--draws", "4")), "--dr"),
}


def _route_corpus():
    corpus = [[], ["-h"], ["--help"], ["bogus"], ["-x", "analyze"], ["--", "--gens"]]
    for cmd, ((first, second), abbrev) in _COMMAND_OPTIONS.items():
        corpus += [
            [cmd, *first],
            [cmd, "-h"],
            [cmd, *first, "--help"],
            [cmd],
            [cmd, *first, "--format", "bogus"],
            [cmd, *first, "extra"],
            [cmd, "extra", *first],
            [cmd, *first, "--bogus", "1"],
            [cmd, f"{first[0]}={first[1]}"],
            [cmd, abbrev, first[1]],
            [cmd, *first, *second],
            ["--", cmd, *first],
            [cmd, "--", *first],
            [cmd, *first, "--"],
        ]
    return corpus


def _outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParseRoutes:
    @pytest.mark.parametrize("argv", _route_corpus(), ids=" ".join)
    def test_command_route_matches_the_full_parser(self, argv):
        # Command-first argvs skip the top-level parser: each must still give
        # the namespace, or the exit code and output bytes, of the full parse.
        got = _outcome(monocurve.cli._parse, list(argv))
        assert got == _outcome(build_parser().parse_args, list(argv))

    def test_command_argv_skips_the_top_level_parse(self, capsys, monkeypatch):
        def refused(argv=None, namespace=None):
            raise AssertionError(f"top-level parse of {argv}")

        monkeypatch.setattr(monocurve.cli._parser()[0], "parse_args", refused)
        assert main(["analyze", "--gens", "4,6,13"]) == 0
        monkeypatch.setattr(sys, "argv", ["monocurve", "zeta", "--gens", "4,6,13"])
        assert main(None) == 0
        assert capsys.readouterr().out.endswith("mu = 16\n")

    def test_extra_tokens_go_through_the_top_level_parse(self, capsys, monkeypatch):
        top = monocurve.cli._parser()[0]
        seen = []

        def recorded(argv=None, namespace=None, _full=top.parse_args):
            seen.append(argv)
            return _full(argv, namespace)

        monkeypatch.setattr(top, "parse_args", recorded)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--gens", "4,6,13", "extra"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "monocurve: error: unrecognized arguments: extra"
        )
        monkeypatch.setattr(sys, "argv", ["monocurve", "-h"])
        with pytest.raises(SystemExit) as exc:
            main(None)
        assert exc.value.code == 0
        assert seen == [["analyze", "--gens", "4,6,13", "extra"], ["-h"]]


class TestAnalyzeDocument:
    def test_resolution_equals_graph_json(self, capsys):
        for gens in ("4,6,13", "8,12,26,53", "12,18,37"):
            _, analyzed, _ = run(capsys, "analyze", "--gens", gens, "--format", "json")
            _, graph, _ = run(capsys, "graph", "--gens", gens, "--format", "json")
            assert json.loads(analyzed)["resolution"] == json.loads(graph)

    def test_pinned_bytes(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gens", "8,12,26,53", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "35ef5e0cdea7f9947b521b088b62552e2f372e34f29701e60821e9dbd0c55bab"
        )
