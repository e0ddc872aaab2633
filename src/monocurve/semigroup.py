"""Numerical semigroups of plane branches.

A plane branch semigroup is given by its minimal generators
``gens = (g0, g1, ..., gG)`` (written ``b0 < b1 < ... < bG`` below) with

* ``gcd(b0, ..., bG) = 1``,
* ``e_i = gcd(b0, ..., b_i)`` strictly decreasing, ``n_i = e_{i-1}/e_i >= 2``,
* ``n_i * b_i < b_{i+1}`` for ``1 <= i < G``,
* each ``n_i * b_i`` lies in the semigroup generated by ``b0, ..., b_{i-1}``
  with a unique digit representation ``sum_j c_j * b_j`` where
  ``0 <= c_j < n_j`` for ``j >= 1``.

This module validates those properties, computes digit decompositions and
the auxiliary recursion table used by the resolution construction.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NotCoprime,
    NotPlane,
    NotRepresentable,
)

__all__ = [
    "PlaneSemigroup",
    "BRecursionTable",
    "build_semigroup",
    "decompose",
    "b_table",
    "min_last_generator",
    "plane_semigroups",
    "random_semigroup",
]


@dataclass(frozen=True)
class PlaneSemigroup:
    """Validated plane-branch semigroup data.

    Attributes:
        gens: minimal generators ``(b0, ..., bG)``, strictly increasing.
        e: gcd chain ``e_i = gcd(b0, ..., b_i)``; ``e[0] = b0``, ``e[G] = 1``.
        n: quotients ``(n0, n1, ..., nG)`` where ``n_i = e_{i-1}/e_i`` for
            ``i >= 1`` and ``n0 = n1*b1/b0`` is the leading digit of ``n1*b1``.
        digits: digit rows; ``digits[i-1]`` is the tuple ``(c_0, ..., c_{i-1})``
            with ``n_i*b_i = sum_j c_j*b_j`` and ``0 <= c_j < n_j`` for ``j>=1``.
    """

    gens: tuple[int, ...]
    e: tuple[int, ...]
    n: tuple[int, ...]
    digits: tuple[tuple[int, ...], ...]

    @property
    def g(self) -> int:
        """Number of characteristic exponents (index of the last generator)."""
        return len(self.gens) - 1

    @property
    def order(self) -> int:
        """The product ``n0*n1*...*nG`` (equals ``n1*b1 = n0*b0``)."""
        return math.prod(self.n)

    def conductor_degree(self) -> int:
        """The Milnor number; an alias of :func:`monocurve.zeta.milnor_number`."""
        from .zeta import milnor_number

        return milnor_number(self)


@dataclass(frozen=True)
class BRecursionTable:
    """Table of the recursion values ``b_i^(k)`` for ``0 <= k < i <= G``.

    ``b_i^(0) = c_{i0} * n1 * ... * nG`` (with ``c_{i0}`` the leading digit of
    ``n_i*b_i``) and for ``k >= 1``::

        b_i^(k) = b_i^(k-1) + (c_{ik}/n_k + ... + c_{i,i-1}/n_{i-1} - 1) * b_k^(k-1)

    All entries are positive integers; entries with ``k >= 1`` exceed 1, and
    ``b_k^(k-1)`` is divisible by ``e_{k-1}``.
    """

    entries: dict[tuple[int, int], int]

    def get(self, i: int, k: int) -> int:
        """Return ``b_i^(k)``; requires ``0 <= k < i``."""
        return self.entries[(i, k)]


def build_semigroup(gens) -> PlaneSemigroup:
    """Validate generators and assemble a :class:`PlaneSemigroup`.

    Raises:
        NotCoprime: the generators have a common factor.
        NotPlane: the generators fail one of the plane-branch conditions.
        ValueError: fewer than three generators, an entry that is not an
            ``int`` (a ``bool``, float or string is rejected, never
            truncated or converted), or a non-positive entry.
    """
    gens = tuple(gens)
    for x in gens:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"generators must be integers, got {x!r}")
    if len(gens) < 3:
        raise ValueError("need at least three generators (g >= 2)")
    if any(x <= 0 for x in gens):
        raise ValueError("generators must be positive")
    if any(b >= c for b, c in zip(gens, gens[1:])):
        raise NotPlane(f"generators must be strictly increasing: {gens}")
    if math.gcd(*gens) != 1:
        raise NotCoprime(f"gcd of {gens} is {math.gcd(*gens)}, expected 1")

    g = len(gens) - 1
    e = [gens[0]]
    for i in range(1, g + 1):
        e.append(math.gcd(e[-1], gens[i]))
    n = [0] * (g + 1)
    for i in range(1, g + 1):
        if e[i] == e[i - 1]:
            raise NotPlane(f"e_{i} = e_{i - 1} = {e[i]}: n_{i} would be 1")
        n[i], rem = divmod(e[i - 1], e[i])
        if rem:  # impossible for a gcd chain; defensive
            raise InternalInconsistency("gcd chain is not a divisor chain")
        if n[i] < 2:
            raise NotPlane(f"n_{i} = {n[i]} < 2")
    # n0 is the leading digit of n1*b1 = n0*b0; always an exact quotient here.
    n0, rem = divmod(n[1] * gens[1], gens[0])
    if rem:
        raise InternalInconsistency("n1*b1 is not a multiple of b0")
    n[0] = n0

    # Strictness between consecutive characteristic terms.
    for i in range(1, g):
        if n[i] * gens[i] >= gens[i + 1]:
            raise NotPlane(
                f"n_{i}*b_{i} = {n[i] * gens[i]} >= b_{i + 1} = {gens[i + 1]}"
            )

    sg = PlaneSemigroup(gens=gens, e=tuple(e), n=tuple(n), digits=())
    rows = []
    for i in range(1, g + 1):
        try:
            row = decompose(sg, n[i] * gens[i], i)
        except NotRepresentable as exc:
            raise NotPlane(f"n_{i}*b_{i} has no digit representation") from exc
        rows.append(row)
    if rows[0][0] != n0:
        raise InternalInconsistency("leading digit of n1*b1 disagrees with n0")
    return PlaneSemigroup(gens=gens, e=tuple(e), n=tuple(n), digits=tuple(rows))


def decompose(sg: PlaneSemigroup, s: int, i: int) -> tuple[int, ...]:
    """Digit decomposition ``s = sum_{j<i} c_j * b_j`` with ``0 <= c_j < n_j``.

    Requires ``1 <= i <= G`` and ``e_{i-1} | s``; the digits for ``j >= 1``
    are computed top-down by modular inversion, the remainder must be a
    non-negative multiple of ``b0``.

    Raises:
        NotRepresentable: ``s`` is not of the required form.
    """
    if not 1 <= i <= sg.g:
        raise ValueError(f"index i must be in 1..{sg.g}, got {i}")
    if s < 0:
        raise NotRepresentable(f"{s} is negative")
    if s % sg.e[i - 1]:
        raise NotRepresentable(f"{s} is not divisible by e_{i - 1} = {sg.e[i - 1]}")
    digits = [0] * i
    for j in range(i - 1, 0, -1):
        # s is divisible by e_j at this point; solve for the digit mod n_j.
        unit = sg.gens[j] // sg.e[j]
        cj = (s // sg.e[j]) * pow(unit, -1, sg.n[j]) % sg.n[j]
        digits[j] = cj
        s -= cj * sg.gens[j]
        if s < 0 or s % sg.e[j - 1]:
            raise NotRepresentable("digit elimination left a bad remainder")
    c0, rem = divmod(s, sg.gens[0])
    if rem or c0 < 0:
        raise NotRepresentable(f"remainder {s} is not a multiple of b0")
    digits[0] = c0
    return tuple(digits)


def b_table(sg: PlaneSemigroup) -> BRecursionTable:
    """Compute all ``b_i^(k)`` by the rational recursion.

    Each entry is cross-checked against the closed form

        b_i^(k) = (n_i*b_i - n_k*b_k)
                  - sum_{j=k+1}^{i-1} (c_{ij}/n_j) * (n_j*b_j - n_k*b_k)

    (valid for ``k >= 1``), checked to be an integer, and checked positive
    (``> 1`` for ``k >= 1``).  ``b_k^(k-1)`` must be divisible by ``e_{k-1}``.

    Raises:
        InternalInconsistency: the two routes disagree or an entry fails a
            positivity/integrality/divisibility check.
    """
    g = sg.g
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(1, g + 1):
        row = sg.digits[i - 1]
        entries[(i, 0)] = Fraction(row[0] * sg.order, sg.n[0])
        for k in range(1, i):
            slack = sum(Fraction(row[j], sg.n[j]) for j in range(k, i)) - 1
            entries[(i, k)] = entries[(i, k - 1)] + slack * entries[(k, k - 1)]

    out: dict[tuple[int, int], int] = {}
    for (i, k), val in entries.items():
        if val.denominator != 1:
            raise InternalInconsistency(f"b_{i}^({k}) = {val} is not an integer")
        out[(i, k)] = int(val)

    for i in range(1, g + 1):
        row = sg.digits[i - 1]
        for k in range(1, i):
            closed = Fraction(sg.n[i] * sg.gens[i] - sg.n[k] * sg.gens[k])
            for j in range(k + 1, i):
                closed -= Fraction(row[j], sg.n[j]) * (
                    sg.n[j] * sg.gens[j] - sg.n[k] * sg.gens[k]
                )
            if closed != out[(i, k)]:
                raise InternalInconsistency(
                    f"b_{i}^({k}): recursion {out[(i, k)]} != closed form {closed}"
                )
            if out[(i, k)] <= 1:
                raise InternalInconsistency(f"b_{i}^({k}) = {out[(i, k)]} <= 1")
        if out[(i, 0)] <= 0:
            raise InternalInconsistency(f"b_{i}^(0) = {out[(i, 0)]} <= 0")
        if out[(i, i - 1)] % sg.e[i - 1]:
            raise InternalInconsistency(
                f"b_{i}^({i - 1}) = {out[(i, i - 1)]} not divisible by e_{i - 1}"
            )
    if out[(1, 0)] != sg.order:
        raise InternalInconsistency("b_1^(0) != n0*n1*...*nG")
    return BRecursionTable(entries=out)


def min_last_generator(g: int) -> int:
    """The smallest ``b_g`` over plane semigroups with ``g`` terms: ``(10*4^(g-1) - 1)/3``.

    The chain with every ``n_i = 2`` reaches it: 4,6,13, then 8,12,26,53, ...
    """
    return (10 * 4 ** (g - 1) - 1) // 3


def plane_semigroups(max_last: int) -> Iterator[PlaneSemigroup]:
    """Every plane semigroup with ``b_g <= max_last``, in lexicographic order of ``gens``.

    Chains are built from the conditions directly: each new generator
    lowers ``e_i`` and exceeds ``n_i*b_i`` (``b_1`` only exceeds ``b_0``),
    and while ``e_i > 1`` it leaves room for one more below ``max_last``.
    Those conditions characterize plane semigroups, so every finished chain
    passes :func:`build_semigroup`, which adds the digits.
    """

    def extend(gens: tuple[int, ...], e: int, n: int) -> Iterator[PlaneSemigroup]:
        for b in range(n * gens[-1] + 1, max_last + 1):
            f = math.gcd(e, b)
            if f == 1 and len(gens) > 1:
                yield build_semigroup(gens + (b,))
            elif 1 < f < e and e // f * b < max_last:
                yield from extend(gens + (b,), f, e // f)

    for b0 in range(2, max_last + 1):
        yield from extend((b0,), b0, 1)


def random_semigroup(seed: int, g: int, max_size: int) -> PlaneSemigroup:
    """Sample a random plane semigroup with ``g`` characteristic terms.

    Construction: sample ``n1, ..., ng >= 2``; set ``b0 = n1*...*ng``; pick
    ``n0 > n1`` coprime to ``n1`` and set ``b1 = n0*b0/n1``; then for each
    ``k >= 2`` pick ``b_k`` a multiple of ``e_k`` with ``b_k > n_{k-1}*b_{k-1}``
    and ``gcd(b_k/e_k, n_k) = 1``.  All generators stay ``<= max_size``.
    Deterministic for a fixed seed.

    Raises:
        ValueError: ``g < 2``, or ``max_size`` is below
            :func:`min_last_generator`, so no semigroup exists.
        BudgetExceeded: no admissible semigroup found within the attempt budget.
    """
    if g < 2:
        raise ValueError("g must be >= 2")
    if max_size < min_last_generator(g):
        raise ValueError(f"no plane semigroup with g={g} has generators <= {max_size}")
    rng = random.Random(seed)
    for _ in range(500):
        gens = _try_sample(rng, g, max_size)
        if gens is not None:
            return build_semigroup(gens)
    raise BudgetExceeded(
        f"no plane semigroup with g={g} and generators <= {max_size} found"
    )


def _try_sample(rng: random.Random, g: int, max_size: int):
    n_cap = max(2, round(max_size ** (1.0 / (g + 1))) + 1)
    ns = [rng.randint(2, n_cap) for _ in range(g)]
    e = [math.prod(ns[i:]) for i in range(g + 1)]  # e[0] = b0, e[g] = 1
    b = [e[0]]
    if b[0] > max_size:
        return None
    # b1 = n0 * e1 with n0 > n1 coprime to n1.  Sampling windows are kept
    # narrow (width ~ n_cap above the smallest admissible value) so later
    # levels retain room below max_size.
    width = max(8, n_cap)
    n0_max = max_size // e[1]
    if n0_max <= ns[0]:
        return None
    for _ in range(64):
        n0 = rng.randint(ns[0] + 1, min(n0_max, ns[0] + width))
        if math.gcd(n0, ns[0]) == 1:
            break
    else:
        return None
    b.append(n0 * e[1])
    for k in range(2, g + 1):
        lo = ns[k - 2] * b[k - 1] // e[k] + 1  # smallest admissible b_k/e_k
        hi = max_size // e[k]
        if hi < lo:
            return None
        for _ in range(64):
            m = rng.randint(lo, min(hi, lo + width))
            if math.gcd(m, ns[k - 1]) == 1:
                break
        else:
            return None
        b.append(m * e[k])
    return b
