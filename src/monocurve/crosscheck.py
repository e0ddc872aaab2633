"""Full consistency battery: :func:`cross_check` on one semigroup, and
:func:`campaign` over a stream of them, as the ``fuzz`` CLI command and the
property-based tests run it.  Failures are collected as human-readable
strings instead of raising, so a campaign reports every offending instance.
It is the one place where the two routes to Z meet: the closed form read
from the report's Delta and A'Campo's stratum product over the resolution graph.
"""

from __future__ import annotations

from collections.abc import Iterable

from .conjecture import verify_conjecture
from .errors import BudgetExceeded, MonocurveError, _shown
from .oracle import MAX_EXPAND_DEGREE as DENSE_MU_CAP, enum_digits
from .resolution import build_resolution, zeta_from_graph
from .semigroup import PlaneSemigroup

__all__ = ["cross_check", "campaign", "DENSE_MU_CAP"]


def cross_check(sg: PlaneSemigroup) -> list[str]:
    """Run every cross-check on ``sg``; return failure descriptions (empty = pass).

    Checks: resolution-graph invariants (divisibility, component counts,
    the tree shape from those counts, quotient-space cross-validation; no
    component is listed, so this runs at any g), :func:`verify_conjecture`
    (whose one :func:`monocurve.zeta.characteristic_polynomial` call checks
    Delta's degree mu and certifies its polynomiality by the exact per-level
    factor splitting: every ``P_k`` a polynomial, their product Delta) with a
    passing pole verdict, :func:`zeta_from_graph` (A'Campo's stratum product) equal to
    the closed-form ``Z = (t - 1)/Delta`` read from that report's Delta, at every
    order (skipped when either call fails), the dense expansion of that same Delta
    when mu is at most :data:`DENSE_MU_CAP`, and agreement of the modular digits stored in
    ``sg.digits`` with :func:`monocurve.oracle.enum_digits`, an exhaustive search that
    meets in the middle: it lists about ``2*sqrt(n_1*...*n_{i-1})`` tail sums at level
    ``i`` and runs where the sums it lists number at most
    :data:`monocurve.oracle.DIGIT_LIST_CAP`.  A stage that fails adds one line.
    """
    failures: list[str] = []  # each line gets its gens= prefix at the end, on failure only

    graph = None
    try:
        graph = build_resolution(sg)
    except MonocurveError as exc:
        failures.append(f"resolution graph: {exc}")

    try:
        report = verify_conjecture(sg)
    except MonocurveError as exc:
        failures.append(f"Delta, P_k and pole verification: {exc}")
    else:
        if graph is not None and zeta_from_graph(graph) != report.delta.zeta:
            failures.append("resolution graph: graph zeta differs from closed form")
        if not report.passed:
            bad = [p.display for p in report.poles if not p.verdict]
            failures.append(f"pole verdict false at {bad}")
        try:
            if report.delta.mu <= DENSE_MU_CAP:
                report.delta.expand()
        except MonocurveError as exc:
            failures.append(f"dense expansion of Delta: {exc}")

    for i in range(1, sg.g + 1):
        s = sg.n[i] * sg.gens[i]
        try:
            brute = enum_digits(s, i, sg)
        except BudgetExceeded:
            continue
        except MonocurveError as exc:
            failures.append(f"digit search at level {i}: {exc}")
            continue
        if brute != sg.digits[i - 1]:
            failures.append(
                f"digit decomposition at level {i}: "
                f"search {_shown(brute)} != modular {_shown(sg.digits[i - 1])}"
            )
    return [f"gens={_shown(sg.gens)}: {line}" for line in failures]


def campaign(semigroups: Iterable[PlaneSemigroup]) -> list[str]:
    """Run :func:`cross_check` over a stream; return ``FAIL instance i: ...`` lines.

    ``i`` counts the stream from 0.
    """
    lines = []
    for i, sg in enumerate(semigroups):
        lines.extend(f"FAIL instance {i}: {msg}" for msg in cross_check(sg))
    return lines
