"""Cyclic quotient spaces and weighted monomial-curve counting formulas.

A quotient type ``X(d; a_0, ..., a_r)`` is affine space divided by one cyclic
group action: a ``d``-th root of unity ``xi`` acts by ``x_i -> xi^{a_i} * x_i``.
Types have exactly one row; the counts are exact numbers of solution classes
of diagonal monomial systems

    x_0^{k_0} = c_0, ..., x_r^{k_r} = c_r        (well-formed iff d | a_i*k_i)

and, together with weighted-homogeneity data, counts of curve components,
axis intersections and Euler characteristics for chained systems of the shape

    x_0^{m_0} + x_1^{m_1} + x_2^{m_2} = 0,  x_i^{m_i} + x_{i+1}^{m_{i+1}} = 0.

For ``r >= 3`` the component count is checked on the charts ``x_2 != 0``
and ``x_3 != 0`` against its symmetric form, in :func:`curve_component_count`;
the per-component axis count, its chart-2 form, is checked against the
chart-3 form.  The public constructors and counters reject entries that
are not an ``int`` or are a ``bool``, and the two solution counts and the
enumeration oracle share one validator of a system, which refuses with
:class:`IllFormed`.  A curve spec has one constructor, types then values, and
no private core; the pipeline passes numbers it has already checked to
private integer cores, such as the one divisor-multiplicity formula
``m / (d / gcd(d, a))`` on a one-row chart that the resolution checks.

All counts are exact integers; failed divisibility raises structured errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisViolated, IllFormed, InternalInconsistency, _exact_div

__all__ = [
    "CyclicQuotientType",
    "WeightedCurveSpec",
    "count_solutions_total",
    "count_solutions_fixed_tail",
    "curve_component_count",
    "curve_open_euler",
]


@dataclass(frozen=True)
class CyclicQuotientType:
    """One-row quotient type ``X(d_0; a)``, held as the 1-tuples ``d = (d_0,)`` and ``A = (a,)``.

    The weights are stored reduced modulo ``d_0``; types are kept as given, not
    normalized to the small group acting.  :class:`IllFormed` unless ``d`` and
    ``A`` hold one order ``>= 1`` and one row, of ``int`` entries and no ``bool``.
    """

    d: tuple[int]
    A: tuple[tuple[int, ...]]

    def __init__(self, d, A):
        try:
            (d,), (a,) = d, A
        except (TypeError, ValueError):
            raise IllFormed("counting requires a one-row type") from None
        (d,) = _ints((d,), "row orders")
        if d < 1:
            raise IllFormed(f"row order must be >= 1, got {d}")
        self.__dict__.update(d=(d,), A=(tuple([x % d for x in _ints(a, "weights")]),))


def _ints(xs, what: str) -> tuple[int, ...]:
    """``xs`` as a tuple; a non-iterable, or an entry that is a ``bool`` or no ``int``, raises."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise IllFormed(f"{what} must be a sequence of integers, got {xs!r}") from None
    for x in xs:
        if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
            raise IllFormed(f"{what} must be integers, got {x!r}")
    return xs


def _one_row_multiplicity(m: int, d: int, a: int, i: int) -> int:
    # Multiplicity m / (d / gcd(d, a)) of {x_i = 0} on a one-row X(d; ...) with weight a at
    # coordinate i (a need not be reduced mod d); m is the vanishing order upstairs.
    return _exact_div(m, d // math.gcd(d, a), "divisor multiplicity at coordinate {0}", i)


def _check_one_row_system(d: int, a: tuple[int, ...], k) -> tuple[int, ...]:
    """The exponents ``k`` of ``x_i^{k_i} = c_i`` in ``X(d; a)`` as a checked tuple.

    The one validator of a solution system: the closed forms and the
    enumeration oracle all refuse a bad system here, with :class:`IllFormed`.
    """
    k = _ints(k, "exponents")
    if len(k) != len(a):
        raise IllFormed("one exponent per coordinate required")
    if k and min(k) < 1:
        raise IllFormed(f"exponents must be >= 1, got {min(k)}")
    for i in range(len(k)):
        if a[i] * k[i] % d:
            raise IllFormed(
                f"system not well defined: d={d} does not divide a_{i}*k_{i}={a[i] * k[i]}"
            )
    return k


def _check_fixed_tail(a: tuple[int, ...]) -> None:
    """The fixed-tail rule of the closed form and the oracle: a head and a tail coordinate."""
    if len(a) < 2:
        raise IllFormed("fixed-tail count needs at least two coordinates")


def count_solutions_total(t: CyclicQuotientType, k) -> int:
    """Number of solution classes of ``x_i^{k_i} = c_i`` (all i) in ``X(d; a)``.

    Equals ``k_0*...*k_r * gcd(d, a_0, ..., a_r) / d``, independently of the
    nonzero constants ``c_i``.
    """
    d, a = t.d[0], t.A[0]
    return _count_total(d, a, _check_one_row_system(d, a, k))


def _count_total(d: int, a, k) -> int:
    # Core of count_solutions_total; gcd(d, a_0, ..., a_r) is unchanged by reducing a mod d.
    return _exact_div(math.prod(k) * math.gcd(d, *a), d, "total solution-class count")


def count_solutions_fixed_tail(t: CyclicQuotientType, k0: int) -> int:
    """Solution classes ``[(x_0, b_1, ..., b_r)]`` with the tail class fixed.

    Equals ``k_0 * gcd(d, a_0, ..., a_r) / gcd(d, a_1, ..., a_r)``.
    """
    d, a = t.d[0], t.A[0]
    _check_fixed_tail(a)
    (k0,) = _check_one_row_system(d, a[:1], (k0,))
    return _exact_div(
        k0 * math.gcd(d, *a), math.gcd(d, *a[1:]), "fixed-tail solution-class count"
    )


@dataclass(frozen=True, init=False)
class WeightedCurveSpec:
    """A weighted-homogeneous monomial curve in a one-row quotient space.

    The ambient space is the weighted projective space with weights
    ``p = (p_0, ..., p_r)`` divided by the one-row action
    ``X(d; a_0, ..., a_r)``; the curve is the chained system

        x_0^{m_0} + x_1^{m_1} + x_2^{m_2} = 0,
        x_i^{m_i} + x_{i+1}^{m_{i+1}} = 0        (2 <= i < r).

    Well-formedness: ``d | a_i * m_i`` for all ``i`` and all ``p_i * m_i``
    equal (each equation weighted homogeneous).

    The exact integer proportionality ``a_i * p_j = a_j * p_i`` must hold
    for all ``i, j >= 1``, as the Euler characteristic and the
    previous-divisor intersection counts require; it is verified at
    construction and :class:`HypothesisViolated` is raised when it fails.
    The action weights are kept as the given integers (possibly negative),
    *not* reduced mod ``d``: the quantities ``a_w*P - p_w*Q`` enter the
    counting formulas as true integers.  One constructor, the pipeline's
    too, with no private core: an entry that is not an ``int`` or is a
    ``bool`` raises :class:`IllFormed`, then every value check above runs.
    """

    d: int
    a: tuple[int, ...]
    p: tuple[int, ...]
    m: tuple[int, ...]

    def __init__(self, d, a, p, m):
        (d,) = _ints((d,), "orders")
        self.__dict__.update(d=d, a=_ints(a, "action weights"), p=_ints(p, "weights"),
                             m=_ints(m, "exponents"))
        self._check()

    def _check(self):
        d, a, p, m = self.d, self.a, self.p, self.m
        r = len(p) - 1
        if r < 2:
            raise IllFormed("curve specs need at least three coordinates")
        if not (len(a) == len(p) == len(m)):
            raise IllFormed("a, p, m must have equal length")
        if d < 1 or min(p) < 1 or min(m) < 1:
            raise IllFormed("orders, weights and exponents must be positive")
        am = [ai * mi for ai, mi in zip(a, m)]
        for i, x in enumerate(am):
            if x % d:
                raise IllFormed(f"d={d} does not divide a_{i}*m_{i}={x}")
        if len({pi * mi for pi, mi in zip(p, m)}) > 1:
            raise IllFormed("curve is not weighted homogeneous: p_i*m_i differ")
        # With every p_i > 0, a_i*p_j = a_j*p_i for all i, j >= 1 holds iff it
        # holds for i = 1.  With every p_i*m_i = P > 0, multiplying by
        # m_1*m_j > 0 turns a_1*p_j = a_j*p_1 into a_1*m_1*P = a_j*m_j*P, so
        # it holds iff a_1*m_1 = a_j*m_j, and fails at the same first j.
        for j in range(2, r + 1):
            if am[j] != am[1]:
                raise HypothesisViolated(
                    f"commutation a_1*p_{j} = a_{j}*p_1 fails exactly"
                )

    @property
    def r(self) -> int:
        return len(self.p) - 1


def curve_component_count(spec: WeightedCurveSpec) -> int:
    """Number of irreducible components: ``m_2*...*m_r / lcm(m_2, ..., m_r)``.

    Returns 1 when ``r = 2``.  For ``r >= 3`` the chart-local computation is
    repeated on charts ``x_2 != 0`` and ``x_3 != 0`` and checked against the
    symmetric formula.
    """
    m = spec.m
    symmetric = _exact_div(math.prod(m[2:]), math.lcm(*m[2:]), "component count")
    if spec.r >= 3:
        for c in (2, 3):
            local = _chart_component_count(spec, c)
            if local != symmetric:
                raise InternalInconsistency(
                    f"component count differs on chart {c}: {local} != {symmetric}"
                )
    return symmetric


def _chart_component_count(spec: WeightedCurveSpec, c: int) -> int:
    # On the chart x_c != 0 the tail system lives in X(p_c; p_2, ..., p_r) (coordinate c
    # omitted) with exponents m_i, i != c.  count_solutions_total's checks follow from the
    # spec's: p_c | p_i*m_i from weighted homogeneity, p_c, m_i >= 1 from positivity.
    m, p = spec.m, spec.p
    return _count_total(p[c], p[2:c] + p[c + 1:], m[2:c] + m[c + 1:])


def _axis_count(spec: WeightedCurveSpec, axis: int, tail_gcd: int) -> int:
    """Intersections of one curve component with ``{x_axis = 0}``, ``axis`` 0 or 1.

    ``tail_gcd`` is ``gcd(p_2, ..., p_r)``, which the resolution's
    cross-validation takes once per spec for both axes.  The count is

        m_w * gcd(d*P*gcd(p_w, p_2, ..., p_r), |a_w*P - p_w*Q|*gcd(p_2..p_r))
            / (d*P*gcd(p_2, ..., p_r))

    with ``w = 1 - axis``, ``P = p_2`` and ``Q = a_2``: the chart-2 form.  The
    product form ``P = p_2*...*p_r``, ``Q = a_2*p_3*...*p_r`` gives the same
    value, since its common factor ``p_3*...*p_r`` cancels.  For ``r >= 3``
    the chart-3 form must agree.  The count over the whole curve is this
    times :func:`curve_component_count`.
    """
    per = _axis_count_chart(spec, axis, 2, tail_gcd)
    if spec.r >= 3:
        local = _axis_count_chart(spec, axis, 3, tail_gcd)
        if local != per:
            raise InternalInconsistency(f"axis-{axis} count differs on chart 3: {local} != {per}")
    return per


def _axis_count_chart(spec: WeightedCurveSpec, axis: int, c: int, tail_gcd: int) -> int:
    # Chart-local form on x_c != 0: P, Q replaced by p_c and a_c; chart
    # independence is what the caller asserts.  tail_gcd is gcd(p_2, ..., p_r).
    d, a, p, m = spec.d, spec.a, spec.p, spec.m
    w = 1 - axis
    head_gcd = math.gcd(p[w], tail_gcd)
    return _exact_div(
        m[w]
        * math.gcd(d * p[c] * head_gcd, abs(a[w] * p[c] - a[c] * p[w]) * tail_gcd),
        d * p[c] * tail_gcd,
        "axis-{0} chart-{1} intersections", axis, c,
    )


def curve_open_euler(spec: WeightedCurveSpec) -> int:
    """Euler characteristic of the curve minus all coordinate hyperplanes.

    Uses the proportionality ``a_i * p_j = a_j * p_i`` (``i, j >= 1``) that
    :class:`WeightedCurveSpec` verifies at construction.  The value is

        -m_1*...*m_r * gcd(d*P*gcd(p_0, ..., p_r), |p_0*Q - a_0*P|*gcd(p_1..p_r))
            / (d * p_0 * P)

    with ``P = p_1`` and ``Q = a_1``.  The product form ``P = p_1*...*p_r``,
    ``Q = a_1*p_2*...*p_r`` gives the same value: ``p_2*...*p_r`` cancels.
    """
    d, a, p, m = spec.d, spec.a, spec.p, spec.m
    P, Q = p[1], a[1]
    val = math.prod(m[1:]) * math.gcd(
        d * P * math.gcd(*p), abs(p[0] * Q - a[0] * P) * math.gcd(*p[1:])
    )
    return -_exact_div(val, d * p[0] * P, "curve Euler characteristic")
