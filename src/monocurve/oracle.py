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
from .semigroup import PlaneSemigroup
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
    max_group_order: int = 12
    max_exponent: int = 6
    max_rank: int = 3

    def __post_init__(self):
        if min(self.max_group_order, self.max_exponent, self.max_rank) < 1:
            raise ValueError("all budget bounds must be positive")


DEFAULT_BUDGET = EnumerationBudget()
MAX_EXPAND_DEGREE = 5000  # numerator degree cap of expand_and_verify
DIGIT_LIST_CAP = 10**4  # cap on n_1*...*n_{i-1}, the tail sums enum_digits lists


def enum_count_solutions(
    t: CyclicQuotientType,
    k,
    c,
    mode: str = "total",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Count solution classes of ``x_i^{k_i} = c_i`` in ``X(d; a)`` by listing.

    ``c`` is a tuple of ``Fraction`` exponents: ``c_i = exp(2*pi*i*c[i])``.
    All ``k_i``-th roots are listed as int residues and identified under the
    explicit action of the ``d``-th roots of unity; ``mode`` is ``"total"``
    (count all orbits) or ``"fixed_tail"`` (count classes of ``x_0`` with a
    concrete tail solution fixed).
    """
    if len(t.d) != 1:
        raise InternalInconsistency("oracle expects a one-row type")
    d = t.d[0]
    a = t.A[0]
    k = tuple(int(x) for x in k)
    c = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in c)
    if not (len(k) == len(a) == len(c)):
        raise InternalInconsistency("k, a, c must have equal length")
    if d > budget.max_group_order:
        raise BudgetExceeded(f"group order {d} exceeds {budget.max_group_order}")
    if len(a) - 1 > budget.max_rank:
        raise BudgetExceeded(f"rank {len(a) - 1} exceeds {budget.max_rank}")
    if any(x > budget.max_exponent for x in k):
        raise BudgetExceeded(f"exponent in {k} exceeds {budget.max_exponent}")
    for i, (ai, ki) in enumerate(zip(a, k)):
        if (ai * ki) % d:
            raise InternalInconsistency(f"d does not divide a_{i}*k_{i}")

    # Common denominator for all exponent residues: root j of c_i = p/q is
    # (p/q + j)/k_i, and the generator of the action adds a_i/d to it.
    denom = math.lcm(d, *(ki * ci.denominator for ki, ci in zip(k, c)))
    roots = []
    for ki, ci in zip(k, c):
        first, gap = ci.numerator * (denom // (ki * ci.denominator)), denom // ki
        roots.append([(first + j * gap) % denom for j in range(ki)])
    shifts = [ai * denom // d % denom for ai in a]

    if mode == "total":
        return _count_orbits(roots, shifts, denom)
    if mode == "fixed_tail":
        if len(a) < 2:
            raise InternalInconsistency("fixed_tail needs at least two coordinates")
        # Fix the concrete tail (first root of each tail constant); x_0 classes
        # are orbits under the subgroup stabilizing that tail pointwise, which
        # the least u >= 1 fixing every tail root generates.
        h = next(u for u in range(1, d + 1) if all(u * s % denom == 0 for s in shifts[1:]))
        return _count_orbits([roots[0]], [h * shifts[0] % denom], denom)
    raise ValueError(f"unknown mode {mode!r}")


def _count_orbits(roots, shifts, denom) -> int:
    """Orbits, as the cycles of the generator's permutation of the mixed-radix points."""
    perm = [0]
    for row, s in zip(roots, shifts):
        index = {v: j for j, v in enumerate(row)}
        step = [index[(v + s) % denom] for v in row]
        radix = len(row)
        perm = [p * radix + j for p in perm for j in step]
    seen = bytearray(len(perm))
    orbits = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        orbits += 1
        p = start
        while not seen[p]:
            seen[p] = 1
            p = perm[p]
    return orbits


def enum_digits(s: int, i: int, sg: PlaneSemigroup) -> tuple[int, ...]:
    """Exhaustive digit search: ``s = sum_{j<i} c_j*b_j`` with ``0 <= c_j < n_j``.

    Returns the unique digit vector; raises :class:`NotRepresentable` when no
    vector exists, :class:`InternalInconsistency` if more than one does, and
    :class:`BudgetExceeded` when the list would hold more than
    :data:`DIGIT_LIST_CAP` tail sums, that is when
    ``n_1*...*n_{i-1} > DIGIT_LIST_CAP``.

    The search is exhaustive and never reads ``sg.digits``: it lists every
    tail sum ``sum_{1<=j<i} c_j*b_j`` as one list, in ``itertools.product``
    order, without the digits ``c_j*b_j > s`` that cannot occur, and tests
    each sum for a ``c_0`` with one modulo.  The work is set by the list
    length alone, whatever the size of ``s`` and of the generators.
    """
    if not 1 <= i <= sg.g:
        raise ValueError(f"index i must be in 1..{sg.g}")
    b0 = sg.gens[0]
    length = math.prod(sg.n[1:i])
    if length > DIGIT_LIST_CAP:
        raise BudgetExceeded(f"digit search lists {length} tail sums, over {DIGIT_LIST_CAP}")
    sums, radices = [0], []
    for j in range(1, i):
        steps = range(0, min(sg.n[j] * sg.gens[j], s + 1), sg.gens[j])
        radices.append(len(steps))
        sums = [x + c for x in sums for c in steps]
    hits = [k for k, x in enumerate(sums) if x <= s and (s - x) % b0 == 0]
    if not hits:
        raise NotRepresentable(f"{s} has no digit representation at level {i}")
    if len(hits) > 1:
        raise InternalInconsistency(f"digit representation of {s} is not unique")
    k = hits[0]
    digits = [(s - sums[k]) // b0] + [0] * (i - 1)
    for j in range(i - 1, 0, -1):
        k, digits[j] = divmod(k, radices[j - 1])
    return tuple(digits)


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
        ValueError: ``draws < 1``, which would compare nothing.
    """
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
