"""Independent brute-force verifiers for the closed-form formulas.

Roots of unity are represented symbolically: a point on the unit circle is
an exponent residue (a plain int modulo a common denominator), never a
floating complex number.  Constants ``c_i`` are given as rational exponents
``c = exp(2*pi*i*q)`` with ``q`` a ``Fraction``; all counting is exact orbit
listing under the explicit cyclic action, one orbit per cycle of its generator.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, InternalInconsistency, NotPolynomial, NotRepresentable
from .qspace import CyclicQuotientType, count_solutions_fixed_tail, count_solutions_total
from .semigroup import PlaneSemigroup, _require_int
from .zeta import FactorProduct, _sparse_product

__all__ = [
    "EnumerationBudget",
    "enum_count_solutions",
    "enum_digits",
    "expand_and_verify",
    "grid_discrepancies",
]


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds of the enumeration: group order ``d``, exponents ``k_i`` and rank.

    Raises:
        ValueError: a bound is not an ``int``, is a ``bool`` or is below 1.
    """

    max_group_order: int = 12
    max_exponent: int = 6
    max_rank: int = 3

    def __post_init__(self):
        for name in ("max_group_order", "max_exponent", "max_rank"):
            _require_int(getattr(self, name), name)
        if min(self.max_group_order, self.max_exponent, self.max_rank) < 1:
            raise ValueError("all budget bounds must be positive")


DEFAULT_BUDGET = EnumerationBudget()
MAX_EXPAND_DEGREE = 5000  # degree cap of expand_and_verify and of cross_check's dense leg
DIGIT_LIST_CAP = 10**4  # cap on the tail sums enum_digits lists at one level
_NOT_CONVERTED = (ArithmeticError, TypeError, ValueError)  # what int() and Fraction() raise


def enum_count_solutions(
    t: CyclicQuotientType,
    k,
    c,
    mode: str = "total",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Count solution classes of ``x_i^{k_i} = c_i`` in ``X(d; a)`` by listing.

    ``c`` is a tuple of ``Fraction`` exponents: ``c_i = exp(2*pi*i*c[i])``, and
    every ``k_i >= 1``.  One pass over the coordinates lists the ``k_i``-th roots
    as int residues, maps them through the generator of the ``d``-th roots of
    unity and extends its permutation of the mixed-radix points; ``mode`` is
    ``"total"`` (count all orbits) or ``"fixed_tail"`` (count classes of ``x_0``
    with a concrete tail solution fixed).

    Raises:
        InternalInconsistency: ``t`` has more than one row; an exponent does
            not convert to an ``int`` without losing value (a ``str`` converts
            or not at all); a constant does not convert to a ``Fraction``; the
            lengths differ; an exponent is below 1; ``d`` does not divide some
            ``a_i*k_i``; or ``"fixed_tail"`` has fewer than two coordinates.
        BudgetExceeded: ``d``, the rank or an exponent is past ``budget``.
        ValueError: ``mode`` is neither ``"total"`` nor ``"fixed_tail"``.
    """
    if len(t.d) != 1:
        raise InternalInconsistency("oracle expects a one-row type")
    d, a = t.d[0], t.A[0]
    given = tuple(k)
    try:
        k = tuple(map(int, given))
    except _NOT_CONVERTED:
        k = None
    if k != given:  # a str converts exactly or not at all; a number must not lose value
        for x in given:
            try:
                exact = int(x) == x or isinstance(x, str)
            except _NOT_CONVERTED:
                exact = False
            if not exact:
                raise InternalInconsistency(f"exponents must be integers, got {x!r}")
    constants = []
    for x in c:
        try:
            constants.append(x if isinstance(x, Fraction) else Fraction(x))
        except _NOT_CONVERTED:
            raise InternalInconsistency(f"constants must be rational, got {x!r}") from None
    c = constants
    n = len(a)
    if not (len(k) == n == len(c)):
        raise InternalInconsistency("k, a, c must have equal length")
    if k and min(k) < 1:
        raise InternalInconsistency(f"exponents must be >= 1: {k}")
    if d > budget.max_group_order:
        raise BudgetExceeded(f"group order {d} exceeds {budget.max_group_order}")
    if n - 1 > budget.max_rank:
        raise BudgetExceeded(f"rank {n - 1} exceeds {budget.max_rank}")
    if k and max(k) > budget.max_exponent:
        raise BudgetExceeded(f"exponent in {k} exceeds {budget.max_exponent}")
    for i in range(n):
        if a[i] * k[i] % d:
            raise InternalInconsistency(f"d does not divide a_{i}*k_{i}")
    h = 1  # the generator is the h-th power of exp(2*pi*i/d)
    if mode == "fixed_tail":
        if n < 2:
            raise InternalInconsistency("fixed_tail needs at least two coordinates")
        # With the tail fixed at the first root of each constant, x_0 classes are orbits
        # of its pointwise stabilizer, generated by the least h >= 1 with d | h*a_i, i >= 1.
        for h in range(1, d + 1):
            for ai in a[1:]:
                if h * ai % d:
                    break
            else:
                break
        n = 1
    elif mode != "total":
        raise ValueError(f"unknown mode {mode!r}")
    perm = [0]
    for i in range(n):
        ki = k[i]
        p, q = c[i].as_integer_ratio()
        # Root j of exp(2*pi*i*p/q) is (p/q + j)/k_i and the generator adds
        # h*a_i/d; over denom = k_i*q*d both are ints, the root in [0, denom).
        denom, gap = ki * q * d, q * d
        row = range(p % q * d, denom, gap)
        index = dict(zip(row, range(ki)))
        s = h * a[i] * ki * q
        step = [index[(v + s) % denom] for v in row]
        # Point x of the coordinates before i and root j of x_i is point x*k_i + j.
        perm = [x * ki + j for x in perm for j in step] if i else step
    return _count_orbits(perm)


def _count_orbits(perm) -> int:
    """Orbits, as the cycles of the permutation ``perm``, each walked from its first point."""
    seen = [False] * len(perm)
    orbits = 0
    for start, p in enumerate(perm):
        if not seen[start]:
            orbits += 1
            while p != start:
                seen[p] = True
                p = perm[p]
    return orbits


def enum_digits(s: int, i: int, sg: PlaneSemigroup) -> tuple[int, ...]:
    """Exhaustive digit search: ``s = sum_{j<i} c_j*b_j`` with ``0 <= c_j < n_j``.

    Returns the unique digit vector.

    The search is exhaustive and never reads ``sg.digits``.  It meets in the
    middle: the tail ``sum_{1<=j<i} c_j*b_j`` splits into the sum over the
    lower levels ``1..h-1`` and that over the upper levels ``h..i-1``, and
    :func:`_tail_sums` lists each part's sums, without the digits ``c_j*b_j >
    s`` that cannot occur.  The lower sums are bucketed by residue mod
    ``b_0``; each upper sum ``y`` pairs with every lower sum ``x`` in the
    bucket of ``s - y`` with ``x + y <= s``, and each pair is one ``c_0``.
    The split level ``h`` is the one at which the two lists are shortest
    together, so the work is about twice the square root of
    ``n_1*...*n_{i-1}``, whatever the size of ``s`` and of the generators.
    A bucketed sum costs about two scanned ones, so where the split does
    not at least halve the sums listed (always at 16 tails or fewer) and
    all ``n_1*...*n_{i-1}`` tail sums fit the cap, one list of them is
    scanned instead, each tested with one modulo for a ``c_0``.  The cap is
    charged with the sums of the path taken: ``n_1*...*n_{i-1}`` on the
    scan, the two parts' ``n_1*...*n_{h-1} + n_h*...*n_{i-1}`` on the split.

    Raises:
        ValueError: ``s`` or ``i`` is not an ``int`` or is a ``bool``, or
            ``i`` is outside ``1..G``.
        NotRepresentable: no digit vector exists.
        InternalInconsistency: more than one digit vector exists.
        BudgetExceeded: the search would list more than
            :data:`DIGIT_LIST_CAP` tail sums.
    """
    if type(s) is not int or type(i) is not int:
        _require_int(s, "s")
        _require_int(i, "index i")
    if not 1 <= i <= sg.g:
        raise ValueError(f"index i must be in 1..{sg.g}")
    n, b0 = sg.n, sg.gens[0]
    length = math.prod(n[1:i])
    h, lower = 1, 1
    if length > 16:  # no split of 16 or fewer tails halves them: 2*(P + length/P) >= 4*sqrt(length)
        # The lower part grows while that shortens the two lists together.
        while h < i and lower * n[h] + length // (lower * n[h]) < lower + length // lower:
            lower *= n[h]
            h += 1
        # A bucketed sum costs about two scanned ones; past the cap only the split may run.
        if 2 * (lower + length // lower) >= length and length <= DIGIT_LIST_CAP:
            h = 1
    listed = length if h == 1 else lower + length // lower
    if listed > DIGIT_LIST_CAP:
        raise BudgetExceeded(f"digit search lists {listed} tail sums, over {DIGIT_LIST_CAP}")
    if h == 1:  # one list of all the tail sums, scanned
        sums, radices = _tail_sums(s, sg, range(1, i))
        r = s % b0
        hits = [k for k, x in enumerate(sums) if x <= s and x % b0 == r]
    else:
        xs, radices = _tail_sums(s, sg, range(1, h))
        ys, upper_radices = _tail_sums(s, sg, range(h, i))
        radices += upper_radices
        width = len(ys)
        buckets: dict[int, list[int]] = {}
        for kx, x in enumerate(xs):
            buckets.setdefault(x % b0, []).append(kx)
        hits = [
            kx * width + ky
            for ky, y in enumerate(ys)
            for kx in buckets.get((s - y) % b0, ())
            if xs[kx] + y <= s
        ]
    if not hits:
        raise NotRepresentable(f"{s} has no digit representation at level {i}")
    if len(hits) > 1:
        raise InternalInconsistency(f"digit representation of {s} is not unique")
    k = hits[0]  # the index of the tail in itertools.product order over levels 1..i-1
    tail = sums[k] if h == 1 else xs[k // width] + ys[k % width]
    digits = [(s - tail) // b0] + [0] * (i - 1)
    for j in range(i - 1, 0, -1):
        k, digits[j] = divmod(k, radices[j - 1])
    return tuple(digits)


def _tail_sums(s: int, sg: PlaneSemigroup, levels: range) -> tuple[list[int], list[int]]:
    """Every ``sum_{j in levels} c_j*b_j`` with ``0 <= c_j < n_j`` and ``c_j*b_j <= s``.

    The sums come in ``itertools.product`` order over the levels, with the
    number of digits kept at each level, the radices that decode a sum's index.
    """
    sums, radices = [0], []
    for j in levels:
        steps = range(0, min(sg.n[j] * sg.gens[j], s + 1), sg.gens[j])
        radices.append(len(steps))
        sums = [x + c for x in sums for c in steps]
    return sums, radices


def _moebius(n: int) -> int:
    """Moebius function by trial division; ``n`` stays below the expansion cap."""
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


@functools.cache
def _phi_inverse(d: int) -> FactorProduct:
    """``1/Phi_d = prod_{e | d} (t^e - 1)^{-mu(d/e)}``, built once per order ``d``."""
    return FactorProduct.from_t_minus_one(
        {e: -_moebius(d // e) for e in range(1, d + 1) if d % e == 0}
    )


def expand_and_verify(fp: FactorProduct) -> tuple[tuple[int, ...], dict[int, int]]:
    """Expand a factor product densely and extract cyclotomic multiplicities.

    The coefficients come from sparse ``(1 - t^a)`` multiplications and
    exact divisions (:class:`NotPolynomial` on a remainder).  Then, for each
    divisor ``d`` of a factor exponent, largest first, ``Phi_d`` is divided
    out as often as it goes, through ``Phi_d = prod_{e | d} (t^e -
    1)^{mu(d/e)}`` with ``mu`` the Moebius function: a multiplication by
    ``(1 - t^e)`` where ``mu(d/e) = -1`` and an exact division where it is
    ``+1``.  The cofactor left must be ``+-1`` (:class:`InternalInconsistency`
    otherwise), so the expansion is ``+-prod Phi_d^{m_d}``.
    :class:`BudgetExceeded` when the numerator degree exceeds
    :data:`MAX_EXPAND_DEGREE`.

    Returns ``(coefficients, {d: m_d})`` with every ``m_d >= 1``.
    """
    degree = sum(a * e for a, e in fp.numerator_factors())
    if degree > MAX_EXPAND_DEGREE:
        raise BudgetExceeded(f"numerator degree {degree} exceeds {MAX_EXPAND_DEGREE}")
    coeffs = _sparse_product([1], fp)
    orders = {d for a, _ in fp.factors for d in range(1, a + 1) if a % d == 0}
    mults: dict[int, int] = {}
    cofactor = coeffs
    for d in sorted(orders, reverse=True):
        while True:
            try:
                cofactor = _sparse_product(cofactor, _phi_inverse(d))
            except NotPolynomial:
                break
            mults[d] = mults.get(d, 0) + 1
    if cofactor not in ([1], [-1]):
        raise InternalInconsistency(
            f"cyclotomic cofactor of degree {len(cofactor) - 1} is not a unit"
        )
    return tuple(coeffs), mults


def _admissible_pairs(d: int, budget: EnumerationBudget) -> list[tuple[int, int]]:
    return [
        (a, k)
        for a in range(d)
        for k in range(1, budget.max_exponent + 1)
        if (a * k) % d == 0
    ]


_CONSTANTS = [[Fraction(num, den) for num in range(den)] for den in range(7)]


def _random_constant(rng: random.Random) -> Fraction:
    den = rng.randint(1, 6)
    return _CONSTANTS[den][rng.randrange(den)]


def grid_discrepancies(
    budget: EnumerationBudget = DEFAULT_BUDGET, draws: int = 3, seed: int = 0
) -> list[str]:
    """Compare closed-form counts against enumeration over the full grid.

    Covers every one-row type within the budget (group order, coordinate
    count, exponents), in both counting modes, with ``draws`` random constant
    vectors per system.  Coordinate permutations leave both sides invariant,
    so systems are deduplicated by the multiset of ``(a_i, k_i)`` pairs (for
    the fixed-tail mode, by head pair plus tail multiset).

    Returns a list of human-readable discrepancy descriptions (empty = pass).

    Raises:
        ValueError: ``draws`` is not an ``int`` or is a ``bool``, or
            ``draws < 1``, which would compare nothing.
    """
    _require_int(draws, "draws")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = random.Random(seed)
    failures: list[str] = []

    def compare(t, k, mode, closed):
        for _ in range(draws):
            c = tuple(_random_constant(rng) for _ in k)
            got = enum_count_solutions(t, k, c, mode, budget)
            if got != closed:
                failures.append(
                    f"X({t.d[0]}; {t.A[0]}) k={k} c={c} {mode}: "
                    f"enumerated {got} != closed form {closed}"
                )

    for d in range(1, budget.max_group_order + 1):
        pairs = _admissible_pairs(d, budget)
        for ncoords in range(1, budget.max_rank + 2):
            for combo in itertools.combinations_with_replacement(pairs, ncoords):
                a = tuple(x for x, _ in combo)
                k = tuple(x for _, x in combo)
                t = CyclicQuotientType((d,), (a,))
                compare(t, k, "total", count_solutions_total(t, k))
        for ncoords in range(2, budget.max_rank + 2):
            for head in pairs:
                for tail in itertools.combinations_with_replacement(
                    pairs, ncoords - 1
                ):
                    combo = (head, *tail)
                    a = tuple(x for x, _ in combo)
                    k = tuple(x for _, x in combo)
                    t = CyclicQuotientType((d,), (a,))
                    compare(t, k, "fixed_tail", count_solutions_fixed_tail(t, k[0]))
    return failures
