"""Command-line front end.

Commands::

    analyze     --gens B0,B1,...   full report (invariants, Z, Delta, poles)
    zeta        --gens B0,B1,...   factor-product rendering of Z and Delta
    graph       --gens B0,B1,...   resolution dual graph as JSON or DOT
    conjecture  --gens B0,B1,...   pole verification report (exit 0 iff pass)
    fuzz        --count N --seed S random semigroups through all cross-checks
    oracle      [budget flags]     closed form vs enumeration over the grid

A command-first argv is parsed by that command's own parser.  Any other argv
(top-level help, a leading ``--``, an unknown command or none), and one with
tokens the command's parser leaves over, goes through the top-level parser,
so its help and error messages stay its own.

Exit status: 0 success, 1 verification failure, 2 invalid input.  A library
error after the input was accepted, or an output file that cannot be written,
prints one ``error:`` line to stderr and exits 1.  Output is deterministic
for identical invocations (fuzz given a fixed seed).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .conjecture import verify_conjecture
from .crosscheck import campaign
from .errors import MonocurveError, _int_text, _json_text
from .oracle import EnumerationBudget, grid_discrepancies
from .resolution import _graph_doc, build_resolution, export_graph
from .semigroup import _require_feasible, build_semigroup, random_semigroup
from .zeta import characteristic_polynomial

__all__ = ["main"]


def _parse_gens(text: str) -> tuple[int, ...]:
    gens = []
    for i, part in enumerate(text.split(",")):
        try:
            gens.append(int(part))
        except ValueError:
            # A signed run of decimal digits fails int() only past the digit limit.
            digits = part.strip()
            if digits[:1] in ("+", "-"):
                digits = digits[1:]
            if digits.isdecimal():
                raise argparse.ArgumentTypeError(
                    f"b_{i} has {len(digits)} digits, more than the int-to-str "
                    f"digit limit of {sys.get_int_max_str_digits()}"
                )
            shown = repr(part)
            if len(part) > 20:
                shown = f"{part[:20]!r}... ({len(part)} characters)"
            raise argparse.ArgumentTypeError(f"b_{i} is not an integer: {shown}")
    return tuple(gens)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the ``{command: parser}`` map of its subparsers.

    Built once per process for in-process callers of :func:`main`.
    """
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
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` as the top-level parser's ``parse_args(argv)`` does.

    The top-level parser has no option but ``-h`` and hands every token after
    the command name, unchanged, to the command's parser, so a command-first
    argv goes straight to that parser.  Tokens it leaves over send the argv
    through the top-level parser, which raises its "unrecognized arguments"
    error."""
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _zeta_delta_doc(delta) -> dict:
    """The ``zeta`` and ``delta`` entries of the ``analyze`` and ``zeta`` JSON."""
    return {
        "zeta": {"factors": delta.zeta.to_json(), "rendered": delta.zeta.render()},
        "delta": {
            "factors": delta.product.to_json(),
            "rendered": delta.product.render("t_minus_one"),
        },
    }


def _analyze(sg, fmt: str) -> tuple[str, bool]:
    """The ``analyze`` report in ``fmt``; both formats build the graph and the report.

    The JSON graph document comes first, so past the listing cap it refuses
    before any of the report is built."""
    graph = build_resolution(sg)
    resolution = _graph_doc(graph) if fmt == "json" else None
    report = verify_conjecture(sg)
    delta = report.delta
    if fmt == "json":
        doc = {
            "gens": sg.gens,
            "g": sg.g,
            "e": sg.e,
            "n": sg.n,
            "digits": sg.digits,
            "mu": delta.mu,
            **_zeta_delta_doc(delta),
            "resolution": resolution,
            "poles": [p.to_json() for p in report.poles],
            "conjecture_pass": report.passed,
        }
        return _json_text(doc), report.passed
    lines = [
        "gens = " + ", ".join(str(x) for x in sg.gens),
        f"g = {sg.g}",
        "e = " + ", ".join(str(x) for x in sg.e),
        "n = " + ", ".join(str(x) for x in sg.n),
        f"mu = {_int_text(delta.mu)}",
        f"Z = {delta.zeta.render()}",
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
    """Run the command in ``argv`` (``sys.argv[1:]`` when None); return the exit status.

    A command-first argv is parsed by that command's own parser; top-level
    help, leftover tokens, an unknown command and a leading ``--`` go through
    the top-level parser."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))

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
    """The ``fuzz`` stream of seeded semigroups."""
    span = max(1, args.max_g - 1)
    for i in range(args.count):
        yield random_semigroup(args.seed * 1_000_003 + i, 2 + i % span, args.max_size)


def _run(args, sg) -> int:
    """Execute the parsed command on the validated semigroup ``sg``, if any."""
    if args.command == "analyze":
        text, passed = _analyze(sg, args.format)
        _emit(text, args.output)
        return 0 if passed else 1

    if args.command == "zeta":
        delta = characteristic_polynomial(sg)
        if args.format == "json":
            doc = {**_zeta_delta_doc(delta), "mu": delta.mu}
            _emit(_json_text(doc), args.output)
        else:
            _emit(
                f"Z = {delta.zeta.render()}\n"
                f"Delta = {delta.product.render('t_minus_one')}\n"
                f"mu = {_int_text(delta.mu)}",
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
        try:
            if args.count < 1 or args.max_g < 2:
                raise ValueError("count >= 1 and max-g >= 2 required")
            _require_feasible(min(args.max_g, args.count + 1), args.max_size)  # largest g drawn
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        failures = campaign(_draws(args))
        summary = f"fuzz: {args.count} instances, {len(failures)} failures"
        _emit("\n".join([*failures, summary]), args.output)
        return 0 if not failures else 1

    if args.command == "oracle":
        try:  # both refuse a bad bound or draw count with ValueError
            budget = EnumerationBudget(
                max_group_order=args.max_group_order,
                max_exponent=args.max_exponent,
                max_rank=args.max_rank,
            )
            discrepancies = grid_discrepancies(budget, draws=args.draws, seed=args.seed)
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        lines = [f"DISCREPANCY {msg}" for msg in discrepancies]
        lines.append(f"oracle grid: {len(discrepancies)} discrepancies")
        _emit("\n".join(lines), args.output)
        return 0 if not discrepancies else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
