"""Tests for the command-line interface (exit codes, output contract)."""

import hashlib
import json
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

    @pytest.mark.parametrize("argv, exit_code, digest", [
        (("--count", "1000", "--seed", "0"), 0,
         "7ae9297bf441eadeca35ac2edbaa1c1f2388f79a8f4bbe6505b6b7e8882e2fe6"),
        # Two g = 5 draws at 853 exhaust the sampler and print sampling lines.
        (("--count", "8", "--max-g", "5", "--max-size", "853", "--seed", "0"), 1,
         "0a2b4fd094dc1b5c01a6892312c42a89e399b2b9de7dc18e70d70843575ac5a7"),
    ], ids=["campaign", "sampling-failures"])
    def test_pinned_stdout(self, capsys, argv, exit_code, digest):
        code, out, _ = run(capsys, "fuzz", *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_malformed_gens(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--gens", "4,six,13"])

    def test_parser_reused_without_leaking_options(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        assert run(capsys, "graph", "--gens", "4,6,13", "--output", str(target))[0] == 0
        code, out, _ = run(capsys, "zeta", "--gens", "4,6,13")
        assert code == 0
        assert out.startswith("Z = ")  # not --output or --format of the first call
        assert monocurve.cli._parser() is monocurve.cli._parser()


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
