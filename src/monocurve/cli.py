"""Command-line front end.

Commands::

    analyze     --gens B0,B1,...   full report (invariants, Z, Delta, poles)
    zeta        --gens B0,B1,...   factor-product rendering of Z and Delta
    graph       --gens B0,B1,...   resolution dual graph as JSON or DOT
    conjecture  --gens B0,B1,...   pole verification report (exit 0 iff pass)
    fuzz        --count N --seed S random semigroups through all cross-checks
    oracle      [budget flags]     closed form vs enumeration over the grid

Exit status: 0 success, 1 verification failure, 2 invalid input.  A library
error after the input was accepted, or an output file that cannot be written,
prints one ``error:`` line to stderr and exits 1.  Output is deterministic
for identical invocations (fuzz given a fixed seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .conjecture import verify_conjecture
from .crosscheck import campaign
from .errors import MonocurveError
from .oracle import EnumerationBudget, grid_discrepancies
from .resolution import _graph_doc, build_resolution, export_graph
from .semigroup import build_semigroup, min_last_generator, random_semigroup
from .zeta import characteristic_polynomial, zeta_closed_form

__all__ = ["main", "build_parser"]


def _parse_gens(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocurve",
        description="Exact invariants of plane-branch monomial curves: "
        "resolution graphs, monodromy zeta functions and pole verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_gens(name, help_text, formats):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--gens", type=_parse_gens, required=True,
                       help="comma-separated semigroup generators, e.g. 4,6,13")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        return p

    with_gens("analyze", "full report", ("text", "json"))
    with_gens("zeta", "zeta function and characteristic polynomial", ("text", "json"))
    with_gens("graph", "resolution dual graph", ("json", "dot"))
    with_gens("conjecture", "pole verification report", ("json", "text"))

    fuzz = sub.add_parser("fuzz", help="random semigroups through all cross-checks")
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-g", type=int, default=5)
    fuzz.add_argument("--max-size", type=int, default=10**6)
    fuzz.add_argument("--output", default=None)

    oracle = sub.add_parser("oracle", help="enumeration oracle over the budget grid")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--draws", type=int, default=3)
    oracle.add_argument("--max-group-order", type=int, default=EnumerationBudget.max_group_order)
    oracle.add_argument("--max-exponent", type=int, default=EnumerationBudget.max_exponent)
    oracle.add_argument("--max-rank", type=int, default=EnumerationBudget.max_rank)
    oracle.add_argument("--output", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process for in-process callers of :func:`main`."""
    return build_parser()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _analyze_doc(sg) -> tuple[dict, bool]:
    graph = build_resolution(sg)
    report = verify_conjecture(sg)
    z, delta = report.zeta, report.delta
    doc = {
        "gens": list(sg.gens),
        "g": sg.g,
        "e": list(sg.e),
        "n": list(sg.n),
        "digits": [list(row) for row in sg.digits],
        "mu": delta.mu,
        "zeta": {"factors": z.to_json(), "rendered": z.render()},
        "delta": {
            "factors": delta.product.to_json(),
            "rendered": delta.product.render("t_minus_one"),
        },
        "resolution": _graph_doc(graph),
        "poles": [p.to_json() for p in report.poles],
        "conjecture_pass": report.passed,
    }
    return doc, report.passed


def _analyze_text(sg) -> tuple[str, bool]:
    report = verify_conjecture(sg)
    z, delta = report.zeta, report.delta
    lines = [
        "gens = " + ", ".join(str(x) for x in sg.gens),
        f"g = {sg.g}",
        "e = " + ", ".join(str(x) for x in sg.e),
        "n = " + ", ".join(str(x) for x in sg.n),
        f"mu = {delta.mu}",
        f"Z = {z.render()}",
        f"Delta = {delta.product.render('t_minus_one')}",
        "poles:",
    ]
    for p in report.poles:
        verdict = "pass" if p.verdict else "FAIL"
        extra = "trivial" if p.integer else f"case {p.case}, eigenvalue order {p.order}"
        lines.append(f"  k={p.k}: {p.display} ({extra}, {verdict})")
    lines.append(f"conjecture: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines), report.passed


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    sg = None
    if args.command in ("analyze", "zeta", "graph", "conjecture"):
        try:
            sg = build_semigroup(args.gens)
        except (MonocurveError, ValueError) as exc:
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
            return 2
    try:
        return _run(args, sg)
    except (MonocurveError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def _draws(args):
    """The ``fuzz`` stream: seeded semigroups, or the error a draw raised."""
    span = max(1, args.max_g - 1)
    for i in range(args.count):
        try:
            yield random_semigroup(args.seed * 1_000_003 + i, 2 + i % span, args.max_size)
        except MonocurveError as exc:
            yield exc


def _run(args, sg) -> int:
    """Execute the parsed command on the validated semigroup ``sg``, if any."""
    if args.command == "analyze":
        if args.format == "json":
            doc, passed = _analyze_doc(sg)
            _emit(json.dumps(doc, indent=2), args.output)
        else:
            text, passed = _analyze_text(sg)
            _emit(text, args.output)
        return 0 if passed else 1

    if args.command == "zeta":
        z = zeta_closed_form(sg)
        delta = characteristic_polynomial(sg)
        if args.format == "json":
            doc = {
                "zeta": {"factors": z.to_json(), "rendered": z.render()},
                "delta": {
                    "factors": delta.product.to_json(),
                    "rendered": delta.product.render("t_minus_one"),
                },
                "mu": delta.mu,
            }
            _emit(json.dumps(doc, indent=2), args.output)
        else:
            _emit(
                f"Z = {z.render()}\n"
                f"Delta = {delta.product.render('t_minus_one')}\n"
                f"mu = {delta.mu}",
                args.output,
            )
        return 0

    if args.command == "graph":
        _emit(export_graph(build_resolution(sg), args.format), args.output)
        return 0

    if args.command == "conjecture":
        report = verify_conjecture(sg)
        if args.format == "json":
            _emit(report.to_json_text(), args.output)
        else:
            lines = []
            for p in report.poles:
                verdict = "pass" if p.verdict else "FAIL"
                lines.append(f"k={p.k}: {p.display} ({p.case}, {verdict})")
            lines.append("pass" if report.passed else "FAIL")
            _emit("\n".join(lines), args.output)
        return 0 if report.passed else 1

    if args.command == "fuzz":
        if args.count < 1 or args.max_g < 2:
            sys.stderr.write("error: count >= 1 and max-g >= 2 required\n")
            return 2
        top_g = min(args.max_g, args.count + 1)  # the largest g sampled
        # b_g > 4^(g-1), so a g past the bit length of max-size needs no bound.
        if (2 * top_g - 2 > args.max_size.bit_length()
                or args.max_size < min_last_generator(top_g)):
            sys.stderr.write(f"error: no plane semigroup with g={top_g} "
                             f"has generators <= {args.max_size}\n")
            return 2
        failures = campaign(_draws(args))
        summary = f"fuzz: {args.count} instances, {len(failures)} failures"
        _emit("\n".join([*failures, summary]), args.output)
        return 0 if not failures else 1

    if args.command == "oracle":
        try:
            budget = EnumerationBudget(
                max_group_order=args.max_group_order,
                max_exponent=args.max_exponent,
                max_rank=args.max_rank,
            )
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        discrepancies = grid_discrepancies(budget, draws=args.draws, seed=args.seed)
        lines = [f"DISCREPANCY {msg}" for msg in discrepancies]
        lines.append(f"oracle grid: {len(discrepancies)} discrepancies")
        _emit("\n".join(lines), args.output)
        return 0 if not discrepancies else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
