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
enumerates or samples plane semigroups.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import NotCoprime, NotPlane, NotRepresentable, _exact_div, _ints, _require_int, _shown

__all__ = [
    "PlaneSemigroup",
    "build_semigroup",
    "decompose",
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
        L: lcm tails ``L[k] = L_k = lcm(n_k, ..., n_g)`` for ``1 <= k <= G+1``,
            so ``L[G+1] = 1``; ``L[0] = lcm(n_0, ..., n_G)`` only pads the
            index.  Computed once per semigroup.
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

    @functools.cached_property
    def L(self) -> tuple[int, ...]:
        """The lcm tails ``(L_0, L_1, ..., L_{G+1})``; see the class docstring."""
        return tuple(math.lcm(*self.n[k:]) for k in range(self.g + 2))

    def conductor_degree(self) -> int:
        """The Milnor number; an alias of :func:`monocurve.zeta.milnor_number`."""
        from .zeta import milnor_number

        return milnor_number(self)


def build_semigroup(gens) -> PlaneSemigroup:
    """Validate generators and assemble a :class:`PlaneSemigroup`.

    Raises:
        NotCoprime: the generators have a common factor.
        NotPlane: the generators fail one of the plane-branch conditions.
        ValueError: ``gens`` is not iterable, fewer than three generators,
            an entry that is not an ``int`` (a ``bool``, a fraction or a
            string is rejected, never truncated or converted), or a
            non-positive entry.
    """
    gens = _ints(gens, "generators", ValueError)
    if len(gens) < 3:
        raise ValueError("need at least three generators (g >= 2)")
    if any(x <= 0 for x in gens):
        raise ValueError("generators must be positive")
    if any(b >= c for b, c in zip(gens, gens[1:])):
        raise NotPlane(f"generators must be strictly increasing: {_shown(gens)}")
    if math.gcd(*gens) != 1:
        raise NotCoprime(f"gcd of {_shown(gens)} is {_shown(math.gcd(*gens))}, expected 1")

    g = len(gens) - 1
    e = [gens[0]]
    for i in range(1, g + 1):
        e.append(math.gcd(e[-1], gens[i]))
    n = [0] * (g + 1)
    for i in range(1, g + 1):
        if e[i] == e[i - 1]:
            raise NotPlane(f"e_{i} = e_{i - 1} = {_shown(e[i])}: n_{i} would be 1")
        # e_i divides e_{i-1} in a gcd chain: this division cannot fail.
        n[i] = _exact_div(e[i - 1], e[i], "gcd chain step e_{0}/e_{1}", i - 1, i)
        if n[i] < 2:
            raise NotPlane(f"n_{i} = {_shown(n[i])} < 2")
    # n0 is the leading digit of n1*b1 = lcm(b0, b1) = n0*b0: an exact quotient.
    n[0] = _exact_div(n[1] * gens[1], gens[0], "n_1*b_1 by b_0")

    # Strictness between consecutive characteristic terms.
    for i in range(1, g):
        if n[i] * gens[i] >= gens[i + 1]:
            raise NotPlane(
                f"n_{i}*b_{i} = {_shown(n[i] * gens[i])} >= b_{i + 1} = {_shown(gens[i + 1])}"
            )

    sg = PlaneSemigroup(gens=gens, e=tuple(e), n=tuple(n), digits=())
    rows = []
    for i in range(1, g + 1):
        try:
            row = decompose(sg, n[i] * gens[i], i)
        except NotRepresentable as exc:
            raise NotPlane(f"n_{i}*b_{i} has no digit representation") from exc
        rows.append(row)
    return PlaneSemigroup(gens=gens, e=tuple(e), n=tuple(n), digits=tuple(rows))


def decompose(sg: PlaneSemigroup, s: int, i: int) -> tuple[int, ...]:
    """Digit decomposition ``s = sum_{j<i} c_j * b_j`` with ``0 <= c_j < n_j``.

    Requires ``1 <= i <= G`` and ``e_{i-1} | s``; the digits for ``j >= 1``
    are computed top-down by modular inversion, the remainder must be a
    non-negative multiple of ``b0``.

    Raises:
        NotRepresentable: ``s`` is not of the required form.
        ValueError: ``s`` or ``i`` is not an ``int`` or is a ``bool``, or
            ``i`` is outside ``1..G``.
    """
    _check_level(s, i, sg)
    if s < 0:
        raise NotRepresentable(f"{_shown(s)} is negative")
    if s % sg.e[i - 1]:
        raise NotRepresentable(f"{_shown(s)} is not divisible by e_{i - 1} = {_shown(sg.e[i - 1])}")
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
        raise NotRepresentable(f"remainder {_shown(s)} is not a multiple of b0")
    digits[0] = c0
    return tuple(digits)


def min_last_generator(g: int) -> int:
    """The smallest ``b_g`` over plane semigroups with ``g`` terms: ``(10*4^(g-1) - 1)/3``.

    The chain with every ``n_i = 2`` reaches it: 4,6,13, then 8,12,26,53, ...

    Raises:
        ValueError: ``g`` is not an ``int``, is a ``bool``, or is below 1.
    """
    _require_int(g, "g")
    if g < 1:
        raise ValueError("g must be >= 1")
    return (10 * 4 ** (g - 1) - 1) // 3


def _require_feasible(g: int, max_size: int) -> None:
    """Refuse a ``max_size`` below :func:`min_last_generator` of ``g`` (an ``int`` >= 1).  That
    exceeds ``4^(g-1)``: a ``g`` past the bit length of ``max_size`` is refused without it."""
    if 2 * g - 2 > max_size.bit_length() or max_size < min_last_generator(g):
        raise ValueError(
            f"no plane semigroup with g={_shown(g)} has generators <= {_shown(max_size)}"
        )


def plane_semigroups(max_last: int) -> Iterator[PlaneSemigroup]:
    """Every plane semigroup with ``b_g <= max_last``, in lexicographic order of ``gens``.

    Chains are built from the conditions directly: each new generator
    lowers ``e_i`` and exceeds ``n_i*b_i`` (``b_1`` only exceeds ``b_0``),
    and while ``e_i > 1`` it leaves room for one more below ``max_last``.
    Those conditions characterize plane semigroups, so every finished chain
    passes :func:`build_semigroup`, which adds the digits.

    Raises:
        ValueError: ``max_last`` is not an ``int`` or is a ``bool``, at the call.
    """
    _require_int(max_last, "max_last")

    def extend(gens: tuple[int, ...], e: int, n: int) -> Iterator[PlaneSemigroup]:
        for b in range(n * gens[-1] + 1, max_last + 1):
            f = math.gcd(e, b)
            if f == 1 and len(gens) > 1:
                yield build_semigroup(gens + (b,))
            elif 1 < f < e and e // f * b < max_last:
                yield from extend(gens + (b,), f, e // f)

    return (sg for b0 in range(2, max_last + 1) for sg in extend((b0,), b0, 1))


def random_semigroup(seed: int, g: int, max_size: int) -> PlaneSemigroup:
    """Draw a random plane semigroup with ``g`` characteristic terms, ``b_g <= max_size``.

    The chain is built in integers.  ``b_g`` grows like ``n^(2g-1)``, so with
    ``r = floor(max_size^(1/(2g-1)))`` each ``n_i`` is drawn from ``[2, r+1]``
    and kept only if the *least chain* still fits under ``max_size``
    (otherwise ``n_i = 2``).  There ``b_0 = n_1*...*n_g`` and every later
    ``b_k`` is least admissible: ``e_k*m`` with ``m`` the first integer above
    ``n_{k-1}*b_{k-1}/e_k`` (above ``b_0/e_1`` for ``k = 1``) coprime to
    ``n_k``.  Each ``b_k`` then takes ``m`` from a window of width ``r`` above
    that bound, stepped up to the next value coprime to ``n_k``, or the least
    admissible value if the least completion of the new prefix would pass
    ``max_size``.  The all-2 chain is the least chain, with
    ``b_g = min_last_generator(g)``, so "the least completion of the prefix
    fits" holds from the start, every step keeps it and the draw never
    fails.  Deterministic for a fixed seed; :func:`build_semigroup` validates.

    Raises:
        ValueError: ``seed``, ``g`` or ``max_size`` is not an ``int`` or is a
            ``bool``; ``g < 2``; or ``max_size`` is below
            :func:`min_last_generator`, so no semigroup exists (refused at
            any ``g`` without building ``4^(g-1)``).
    """
    _require_int(seed, "seed")
    _require_int(g, "g")
    _require_int(max_size, "max_size")
    if g < 2:
        raise ValueError("g must be >= 2")
    _require_feasible(g, max_size)
    rng = random.Random(seed)
    r = _iroot(max_size, 2 * g - 1)
    ns = [2] * g
    for i in range(g):
        trial = [*ns[:i], rng.randint(2, r + 1), *ns[i + 1:]]
        if _least_completion(trial, [math.prod(trial)]) <= max_size:
            ns = trial
    gens = [math.prod(ns)]
    for _ in range(g):
        b = _next_generator(ns, gens, rng.randrange(r))
        if _least_completion(ns, [*gens, b]) > max_size:
            b = _next_generator(ns, gens, 0)
        gens.append(b)
    return build_semigroup(gens)


def _check_level(s, i, sg: PlaneSemigroup) -> None:
    """The level rule of :func:`decompose` and the digit search: ``int`` ``s`` and ``i`` in 1..G."""
    if type(s) is not int or type(i) is not int:
        _require_int(s, "s")
        _require_int(i, "index i")
    if not 1 <= i <= sg.g:
        raise ValueError(f"index i must be in 1..{sg.g}, got {_shown(i)}")


def _iroot(x: int, k: int) -> int:
    """``floor(x^(1/k))`` for ``x >= 1``, by Newton's iteration on integers."""
    y = 1 << -(-x.bit_length() // k)  # 2^ceil(bits/k) > x^(1/k)
    while True:
        z = ((k - 1) * y + x // y ** (k - 1)) // k
        if z >= y:
            return y
        y = z


def _next_generator(ns: list[int], gens: list[int], offset: int) -> int:
    """``b_k = e_k*m`` for ``k = len(gens)``: the least admissible ``m`` plus
    ``offset``, stepped up to the next value coprime to ``n_k``."""
    k = len(gens)
    e = math.prod(ns[k:])
    m = gens[-1] * (ns[k - 2] if k > 1 else 1) // e + 1 + offset
    while math.gcd(m, ns[k - 1]) != 1:
        m += 1
    return m * e


def _least_completion(ns: list[int], gens: list[int]) -> int:
    """The ``b_g`` reached when every generator after ``gens`` is least admissible."""
    gens = list(gens)
    while len(gens) <= len(ns):
        gens.append(_next_generator(ns, gens, 0))
    return gens[-1]
