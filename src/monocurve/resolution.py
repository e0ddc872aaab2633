"""Combinatorial embedded Q-resolution of the space monomial curve.

From a plane semigroup this module builds the dual graph of the resolution
obtained by ``g`` successive weighted blow-ups on a generic embedding
surface: exceptional divisors ``E_k`` with their component counts ``r_k``,
multiplicities ``N_k``/``M_k``, blow-up weight vectors, special-point strata
with the integers ``(at, d, A)`` of their cyclic-quotient local types ``X(d; A)``
(listed on first read of ``local_types``, which the JSON export writes), and
open-stratum Euler characteristics.  Of the paper's recursion values
``b_i^(k)`` the construction reads only the diagonal ``b_k^(k-1) =
n_k*b_k - n_{k-1}*b_{k-1}``, in its closed form.  Every closed-form count is
cross-validated against the counting machinery of :mod:`monocurve.qspace`.
The one-row chart types' orders and weight rows are computed once per graph;
the checks read them, and so do the local types.
:func:`zeta_from_graph` is A'Campo's route to Z, which
:func:`monocurve.crosscheck.cross_check` compares with the closed form.

The graph holds counts only, and its tree shape is checked from them; only
the exporters list the ``sum(r_k)`` labelled components.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import qspace
from .errors import BudgetExceeded, InternalInconsistency, _exact_div, _int_text, _json_text, _shown
from .qspace import WeightedCurveSpec
from .semigroup import PlaneSemigroup
from .zeta import FactorProduct, resolution_multiplicities

__all__ = [
    "GraphLevel",
    "Stratum",
    "ResolutionGraph",
    "build_resolution",
    "zeta_from_graph",
    "export_graph",
]

# Cap on sum(r_k), the number of exceptional components the exporters list.
# The all-n_i = 2 chains list 2^(g-1) components, exponential in the bit
# length of the input; random draws with generators <= 10^6 stay below 150.
MAX_COMPONENTS = 2**16


# __init__ by hand: one __dict__ fill, not a setattr per field; its order is the JSON's.
@dataclass(frozen=True, init=False)
class GraphLevel:
    """Data of the k-th exceptional divisor ``E_k``."""

    k: int
    r: int
    N: int
    M: int
    weights: tuple[int, ...]
    chi_open: int

    def __init__(self, k, r, N, M, weights, chi_open):
        self.__dict__.update(k=k, r=r, N=N, M=M, weights=weights, chi_open=chi_open)


# __init__ by hand: one __dict__ fill, not a setattr per field; its order is the JSON's.
@dataclass(frozen=True, init=False)
class Stratum:
    """A group of special points: kind is ``"Q0"``, ``"Qk"`` or ``"Qkk1"``.

    ``Qk`` strata carry the multiplicity ``M_k``; intersection strata
    ``Qkk1`` (points of ``E_k`` meeting ``E_{k+1}``) carry none, since the
    zeta-function product never consults them.
    """

    kind: str
    k: int
    count: int
    multiplicity: int | None

    def __init__(self, kind, k, count, multiplicity):
        self.__dict__.update(kind=kind, k=k, count=count, multiplicity=multiplicity)


@dataclass(frozen=True)
class ResolutionGraph:
    """Resolution dual graph of ``semigroup``; its local types are listed on first read.

    :func:`build_resolution` lays ``strata`` out as Q0, then Q_1, ..., Q_g,
    then the g - 1 intersection strata, and a stratum is looked up by that
    layout: Q0 is ``strata[0]``, Q_k is ``strata[k]`` and Q_{k,k+1} is
    ``strata[g + k]``.  The checks and the DOT export index it that way.
    """

    semigroup: PlaneSemigroup
    levels: tuple[GraphLevel, ...]
    strata: tuple[Stratum, ...]

    @property
    def gens(self) -> tuple[int, ...]:
        return self.semigroup.gens

    @functools.cached_property
    def _one_rows(self) -> list[tuple[int, tuple[int, ...]]]:
        """:func:`_one_row_data` of the semigroup, for the checks and the local types."""
        return _one_row_data(self.semigroup)

    @functools.cached_property
    def local_types(self) -> tuple[tuple[str, tuple[int, ...], tuple], ...]:
        """Each local type's ``(at, d, A)``, A reduced mod d: the list the JSON export writes."""
        return tuple(_local_types(self.semigroup, self._one_rows))


def _component_counts(sg: PlaneSemigroup) -> list[int]:
    """``r_k = e_k / L_{k+1}`` for ``k = 1..g``."""
    g = sg.g
    r = [_exact_div(sg.e[k], sg.L[k + 1], "r_{0}", k) for k in range(1, g + 1)]
    if r[-1] != 1 or (g >= 2 and r[-2] != 1):
        raise InternalInconsistency("r_(g-1) and r_g must both be 1")
    return r


def _b_prev(sg: PlaneSemigroup, k: int) -> int:
    """``b_k^(k-1) = n_k*b_k - n_{k-1}*b_{k-1}`` (``k >= 2``), the recursion's closed form."""
    return sg.n[k] * sg.gens[k] - sg.n[k - 1] * sg.gens[k - 1]


def _weights(sg: PlaneSemigroup, k: int) -> tuple[int, ...]:
    """Weight vector of the k-th weighted blow-up."""
    n = sg.n
    if k == 1:
        order = sg.order
        return tuple(_exact_div(order, n[i], "weight") for i in range(sg.g + 1))
    b_prev = _b_prev(sg, k)
    return (1, *(_exact_div(b_prev, n[i], "weight") for i in range(k, sg.g + 1)))


def _homogeneous_spec(sg: PlaneSemigroup, level: GraphLevel) -> WeightedCurveSpec:
    """The weighted-homogeneous system cutting out ``E_k``, ``k = level.k < g``."""
    g = sg.g
    n = sg.n
    k, p = level.k, level.weights
    if k == 1:
        return WeightedCurveSpec(1, (0,) * (g + 1), p, n)
    prev = n[k - 1] * sg.gens[k - 1]
    return WeightedCurveSpec(
        sg.e[k - 1],
        (-1, *(prev // n[i] for i in range(k, g + 1))),
        p,
        (_b_prev(sg, k), *(n[i] for i in range(k, g + 1))),
    )


def build_resolution(sg: PlaneSemigroup) -> ResolutionGraph:
    """Assemble the resolution dual graph with all invariants verified.

    The graph keeps counts only; the tree shape follows from
    ``r_g = r_{g-1} = 1`` and ``r_{k+1} | r_k``, both checked here.

    Raises:
        NotDivisible: a count, weight or Euler characteristic is not exact.
        InternalInconsistency: any other divisibility or cross-validation
            check fails.  Either indicates a formula transcription bug.
    """
    g = sg.g
    n, gens = sg.n, sg.gens
    M, N = resolution_multiplicities(sg)
    r = _component_counts(sg)

    levels = []
    for k in range(1, g + 1):
        rk, Nk, Mk = r[k - 1], N[k - 1], M[k]
        if Nk % Mk or Nk % sg.L[k]:
            raise InternalInconsistency(f"M_{k} or L_{k} does not divide N_{k}")
        chi = -_exact_div(n[k] * gens[k], Nk, "chi(E_{0})", k)
        _exact_div(chi, rk, "per-component chi(E_{0})", k)
        levels.append(GraphLevel(k, rk, Nk, Mk, _weights(sg, k), chi))

    strata = [Stratum("Q0", 0, _exact_div(gens[0], M[0], "|Q0|"), M[0])]
    for k in range(1, g + 1):
        strata.append(Stratum("Qk", k, _exact_div(gens[k], M[k], "|Q_{0}|", k), M[k]))
    for k in range(1, g):
        strata.append(Stratum("Qkk1", k, r[k - 1], None))

    # Per-component shares of the boundary incidences must be integral.
    _exact_div(strata[0].count, r[0], "Q0 share per E_1 component")
    for k in range(1, g + 1):
        _exact_div(strata[k].count, r[k - 1], "Q_{0} share per E_{0} component", k)
    for k in range(1, g):
        _exact_div(r[k - 1], r[k], "contiguous block size")

    graph = ResolutionGraph(sg, tuple(levels), tuple(strata))
    _cross_validate(sg, graph)
    return graph


def _one_row_data(sg: PlaneSemigroup) -> list[tuple[int, tuple[int, ...]]]:
    """Order ``d >= 1`` and weight row of the one-row types Q0, then Q_k and Egen_k for each k."""
    g, n, e, gens, order = sg.g, sg.n, sg.e, sg.gens, sg.order
    rows = [(math.gcd(*[order // n[i] for i in range(1, g + 1)]), (order // n[0], -1))]
    for k in range(1, g + 1):
        m = n[k] * gens[k]
        d_q = math.gcd(e[k - 1], *[m // n[i] for i in range(k + 1, g + 1)])
        rows += [(d_q, (-1, gens[k])), (math.gcd(d_q, m // n[k]), (-1,))]
    return rows


def _local_types(sg: PlaneSemigroup, rows) -> list[tuple[str, tuple[int, ...], tuple]]:
    """Each local type's ``(at, d, A)``, A reduced mod d: one-row ``rows``, then E_{k-1}E_k."""
    g, n, e, gens = sg.g, sg.n, sg.e, sg.gens
    labels = ["Q0", *(f"{kind}{k}" for k in range(1, g + 1) for kind in ("Q", "Egen"))]
    types = [(at, (d,), (tuple([a % d for a in row]),)) for at, (d, row) in zip(labels, rows)]
    for k in range(2, g + 1):
        diff = _b_prev(sg, k)
        d1, d2 = _exact_div(diff, sg.L[k], "two-row order"), diff * e[k]
        A = ((1 % d1, -1 % d1), (-gens[k] % d2, n[k - 1] * gens[k - 1] // n[k] % d2))
        types.append((f"E{k - 1}E{k}", (d1, d2), A))
    return types


def _listing(graph: ResolutionGraph) -> tuple[list[str], list[tuple[str, str]]]:
    """The labelled nodes and edges of the dual graph, for the exporters.

    Component labeling and the assignment of ``E_{k+1}`` components to
    ``E_k`` components use deterministic contiguous blocks of size
    ``r_k / r_{k+1}`` (only the counts are canonical; the labeling is a
    reproducibility choice).

    Raises:
        BudgetExceeded: the divisors have more than ``MAX_COMPONENTS``
            components in total, checked before any node is listed.
        InternalInconsistency: the listing is not a tree.
    """
    r = [lvl.r for lvl in graph.levels]
    if (n := sum(r)) > MAX_COMPONENTS:
        raise BudgetExceeded(f"{_shown(n)} exceptional components exceed the cap {MAX_COMPONENTS}")
    g = len(r)
    labels = [[f"E_{k}_{j}" for j in range(1, r[k - 1] + 1)] for k in range(1, g + 1)]
    nodes = [*[f"H_{i}" for i in range(g + 1)], *[v for level in labels for v in level], "Yhat"]
    edges = [(h, e1) for e1 in labels[0] for h in ("H_0", "H_1")]
    for k in range(2, g + 1):
        h = f"H_{k}"
        edges.extend([(h, ek) for ek in labels[k - 1]])
    for k in range(1, g):
        block = r[k - 1] // r[k]
        here = labels[k - 1]
        for j, target in enumerate(labels[k]):
            edges.extend([(ek, target) for ek in here[j * block:(j + 1) * block]])
    edges.append((labels[g - 1][0], "Yhat"))
    _check_tree(nodes, edges)
    return nodes, edges


def _check_tree(nodes: list[str], edges: list[tuple[str, str]]) -> None:
    """The exceptional components plus the strict transform form a tree."""
    root = {v: v for v in nodes if v.startswith("E_") or v == "Yhat"}
    sub = [ed for ed in edges if ed[0] in root and ed[1] in root]
    if len(sub) != len(root) - 1:
        raise InternalInconsistency(f"dual graph not a tree: {len(sub)} edges on {len(root)} nodes")
    # With one edge fewer than nodes, the graph is connected iff no edge closes a cycle.
    for u, v in sub:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            raise InternalInconsistency("dual graph not connected on exceptional part")
        root[u] = v


def _cross_validate(sg: PlaneSemigroup, graph: ResolutionGraph) -> None:
    """Verify the closed-form counts against the quotient-space machinery."""
    g = sg.g
    n, gens = sg.n, sg.gens
    M, N = resolution_multiplicities(sg)
    r = [lvl.r for lvl in graph.levels]

    # Multiplicity reproduction from the one-row chart types' orders and rows.
    (d0, a0), *rows = graph._one_rows
    for k, (d_q, a_q), (d_gen, a_gen) in zip(range(1, g + 1), rows[::2], rows[1::2]):
        m = n[k] * gens[k]
        if qspace._one_row_multiplicity(m, d_gen, a_gen[0], 0) != N[k - 1]:
            raise InternalInconsistency(f"generic chart type at E_{k} misses N_{k}")
        if qspace._one_row_multiplicity(m, d_q, a_q[0], 0) != M[k]:
            raise InternalInconsistency(f"Q_{k} chart type misses M_{k}")
    if qspace._one_row_multiplicity(sg.order, d0, a0[1], 1) != M[0]:
        raise InternalInconsistency("Q0 chart type misses M_0")

    # Counting formulas on the homogeneous systems cutting out E_k (k < g).
    # Each axis total is the chart-checked per-component count times r_k,
    # which curve_component_count has just verified on the same spec.
    for k in range(1, g):
        spec = _homogeneous_spec(sg, graph.levels[k - 1])
        rk = r[k - 1]
        if qspace.curve_component_count(spec) != rk:
            raise InternalInconsistency(f"component count of E_{k} disagrees")
        tail_gcd = math.gcd(*spec.p[2:])
        expected0 = graph.strata[0].count if k == 1 else r[k - 2]
        if qspace._axis_count(spec, 0, tail_gcd) * rk != expected0:
            raise InternalInconsistency(f"|E_{k} ∩ previous divisor| disagrees")
        if qspace._axis_count(spec, 1, tail_gcd) * rk != graph.strata[k].count:
            raise InternalInconsistency(f"|E_{k} ∩ H_{k}| disagrees")
        if qspace.curve_open_euler(spec) != graph.levels[k - 1].chi_open:
            raise InternalInconsistency(f"chi(E_{k} open) disagrees")
    if graph.levels[-1].chi_open != -1 or graph.levels[-1].r != 1:
        raise InternalInconsistency("E_g must be a single rational component")


def zeta_from_graph(graph: ResolutionGraph) -> FactorProduct:
    """Zeta function via A'Campo's stratum product.

    Point strata ``Q_k`` (on a single divisor) contribute
    ``(1 - t^{M_k})^{count}``; open strata contribute
    ``(1 - t^{N_k})^{chi}``; strata on two or more divisors contribute
    nothing.
    """
    factors: dict[int, int] = {}
    for s in graph.strata:
        if s.multiplicity is None:
            continue
        factors[s.multiplicity] = factors.get(s.multiplicity, 0) + s.count
    for lvl in graph.levels:
        factors[lvl.N] = factors.get(lvl.N, 0) + lvl.chi_open
    return FactorProduct.from_map(factors)


def _graph_doc(graph: ResolutionGraph) -> dict:
    """The JSON document of :func:`export_graph`, before serialization.

    A level or stratum entry holds its dataclass fields in declaration order."""
    _, edges = _listing(graph)
    return {
        "gens": graph.gens,
        "levels": [dict(vars(lvl)) for lvl in graph.levels],
        "edges": edges,
        "strata": [dict(vars(s)) for s in graph.strata],
        "local_types": [{"at": at, "d": d, "A": A} for at, d, A in graph.local_types],
    }


def export_graph(graph: ResolutionGraph, format: str = "json") -> str:
    """Serialize the graph deterministically as ``"json"`` or ``"dot"``.

    The JSON has a 2-space indent, keys in the order of :func:`_graph_doc` and
    non-ASCII escaped: the same bytes as ``json.dumps(..., indent=2)``.
    Either format raises ``BudgetExceeded`` past ``MAX_COMPONENTS`` components.
    """
    if format == "json":
        return _json_text(_graph_doc(graph))
    if format == "dot":
        nodes, edges = _listing(graph)
        mult = {f"E_{lvl.k}": lvl.N for lvl in graph.levels}
        lines = ["graph resolution {"]
        for v in nodes:
            if v.startswith("E_"):
                k, j = v.split("_")[1:]
                label = f"E_{{{k},{j}}} [{_int_text(mult[f'E_{k}'])}]"
                lines.append(f'  "{v}" [label="{label}"];')
            elif v == "Yhat":
                lines.append(f'  "{v}" [label="Ŷ", shape=rarrow];')
            else:
                lines.append(f'  "{v}" [label="{v}"];')
        # H_k meets each component of one level in the same number of points.
        notes = {f"H_{lvl.k}": graph.strata[lvl.k].count // lvl.r for lvl in graph.levels}
        notes["H_0"] = graph.strata[0].count // graph.levels[0].r
        for u, v in edges:
            note = notes.get(u)
            attr = f' [label="{_int_text(note)}"]' if note else ""
            lines.append(f'  "{u}" -- "{v}"{attr};')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {_shown(format)}")

