"""Full consistency battery: :func:`cross_check` on one semigroup, and
:func:`campaign` over a stream of them, as the ``fuzz`` CLI command and the
property-based tests run it.  Failures are collected as human-readable
strings instead of raising, so a campaign reports every offending instance.
"""

from __future__ import annotations

from collections.abc import Iterable

from .conjecture import verify_conjecture
from .errors import BudgetExceeded, MonocurveError
from .oracle import enum_digits
from .resolution import _stratum_product, build_resolution
from .semigroup import PlaneSemigroup

__all__ = ["cross_check", "campaign", "DENSE_MU_CAP"]

DENSE_MU_CAP = 5000


def cross_check(sg: PlaneSemigroup) -> list[str]:
    """Run every cross-check on ``sg``; return failure descriptions (empty = pass).

    Checks: resolution-graph invariants (divisibility, component counts,
    tree shape, quotient-space cross-validation), :func:`verify_conjecture`
    (which checks Delta for nonnegative cyclotomic exponents and degree mu,
    and the exact per-level factor splitting, once each) with a passing pole
    verdict, the stratum-product zeta of the graph equal to the closed form
    in that report (Z is built once, so this check is skipped when either
    call fails), the dense expansion of that same Delta when mu is at most
    :data:`DENSE_MU_CAP`, and agreement of the modular digits stored in
    ``sg.digits`` with exhaustive search where the search space is small.
    A stage that fails adds one line.
    """
    failures: list[str] = []
    tag = f"gens={sg.gens}"

    graph = None
    try:
        graph = build_resolution(sg)
    except MonocurveError as exc:
        failures.append(f"{tag}: resolution graph: {exc}")

    try:
        report = verify_conjecture(sg)
    except MonocurveError as exc:
        failures.append(f"{tag}: Delta, P_k and pole verification: {exc}")
    else:
        if graph is not None and _stratum_product(graph) != report.zeta:
            failures.append(f"{tag}: resolution graph: graph zeta differs from closed form")
        if not report.passed:
            bad = [p.display for p in report.poles if not p.verdict]
            failures.append(f"{tag}: pole verdict false at {bad}")
        try:
            if report.delta.mu <= DENSE_MU_CAP:
                report.delta.expand()
        except MonocurveError as exc:
            failures.append(f"{tag}: dense expansion of Delta: {exc}")

    for i in range(1, sg.g + 1):
        s = sg.n[i] * sg.gens[i]
        try:
            brute = enum_digits(s, i, sg)
        except BudgetExceeded:
            continue
        except MonocurveError as exc:
            failures.append(f"{tag}: digit search at level {i}: {exc}")
            continue
        if brute != sg.digits[i - 1]:
            failures.append(
                f"{tag}: digit decomposition at level {i}: "
                f"search {brute} != modular {sg.digits[i - 1]}"
            )
    return failures


def campaign(semigroups: Iterable[PlaneSemigroup | MonocurveError]) -> list[str]:
    """Run :func:`cross_check` over a stream; return ``FAIL instance i: ...`` lines.

    ``i`` counts the stream from 0.  An item that is a :class:`MonocurveError`
    stands for a draw that raised instead of giving a semigroup, and adds one
    ``sampling:`` line.
    """
    lines = []
    for i, sg in enumerate(semigroups):
        if isinstance(sg, MonocurveError):
            lines.append(f"FAIL instance {i}: sampling: {sg}")
        else:
            lines.extend(f"FAIL instance {i}: {msg}" for msg in cross_check(sg))
    return lines
