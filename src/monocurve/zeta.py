"""Exact factor-product arithmetic and the monodromy zeta function.

Rational functions of the form ``sign * prod_a (1 - t^a)^{e_a}`` are stored
as exponent maps (:class:`FactorProduct`); the canonical internal basis is
``(1 - t^a)``, and ``(t^a - 1)`` inputs convert with a sign ``(-1)`` per
factor.

The exponent of ``Phi_d`` is ``c_d = sum_{a : d | a} e_a``
(:func:`cyclotomic_exponent`), a sum over the factors with no divisor
enumeration and no polynomial factorization.  Pipeline verdicts read ``c_q``
only at the orders they need.  Polynomiality (every ``c_d >= 0``) is checked
by :func:`negative_cyclotomic_orders` on the gcd-closure of the factor
exponents alone: ``c_d`` depends only on ``S_d = {a : d | a}``, and
``gcd(S_d)`` lies in the closure and has the same set.  A dense expansion
exists as a separate exact path for the characteristic polynomial; the
tests compare these exponents with repeated ``Phi_d`` division of the dense
expansion (:func:`monocurve.oracle.expand_and_verify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, InternalInconsistency, NotPolynomial
from .semigroup import PlaneSemigroup

__all__ = [
    "FactorProduct",
    "CharacteristicPolynomial",
    "zeta_closed_form",
    "characteristic_polynomial",
    "cyclotomic_exponent",
    "negative_cyclotomic_orders",
    "milnor_number",
    "resolution_multiplicities",
]

DEFAULT_EXPANSION_CAP = 10**6


@dataclass(frozen=True)
class FactorProduct:
    """``sign * prod (1 - t^a)^{e_a}`` with nonzero exponents, sorted by a."""

    factors: tuple[tuple[int, int], ...] = ()
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        canon = _canonical(dict(self.factors))
        object.__setattr__(self, "factors", canon)

    @classmethod
    def one(cls) -> "FactorProduct":
        return cls()

    @classmethod
    def from_map(cls, factors: dict[int, int], sign: int = 1) -> "FactorProduct":
        return cls(tuple(factors.items()), sign)

    @classmethod
    def from_t_minus_one(cls, factors: dict[int, int]) -> "FactorProduct":
        """Build from ``prod (t^a - 1)^{e_a}``; each factor flips the sign."""
        total = sum(factors.values())
        return cls.from_map(factors, -1 if total % 2 else 1)

    def as_map(self) -> dict[int, int]:
        return dict(self.factors)

    def __mul__(self, other: "FactorProduct") -> "FactorProduct":
        merged = self.as_map()
        for a, e in other.factors:
            merged[a] = merged.get(a, 0) + e
        return FactorProduct.from_map(merged, self.sign * other.sign)

    def __truediv__(self, other: "FactorProduct") -> "FactorProduct":
        merged = self.as_map()
        for a, e in other.factors:
            merged[a] = merged.get(a, 0) - e
        return FactorProduct.from_map(merged, self.sign * other.sign)

    def degree(self) -> int:
        """Degree as a rational function: ``sum a * e_a``."""
        return sum(a * e for a, e in self.factors)

    def numerator_factors(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, e) for a, e in self.factors if e > 0)

    def denominator_factors(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, -e) for a, e in self.factors if e < 0)

    def render(self, convention: str = "one_minus_t") -> str:
        """Human-readable cancelled form, e.g. ``(1-t^2)^2 (1-t^13) / (1-t^6)``."""
        if convention == "one_minus_t":
            fmt, sign = "(1-t^{a})", self.sign
        elif convention == "t_minus_one":
            fmt = "(t^{a}-1)"
            total = sum(e for _, e in self.factors)
            sign = self.sign * (-1 if total % 2 else 1)
        else:
            raise ValueError(f"unknown convention {convention!r}")

        def side(pairs):
            parts = []
            for a, e in pairs:
                base = "(1-t)" if (a == 1 and fmt.startswith("(1")) else (
                    "(t-1)" if a == 1 else fmt.format(a=a)
                )
                parts.append(base if e == 1 else f"{base}^{e}")
            return " ".join(parts)

        num = side(self.numerator_factors()) or "1"
        den = side(self.denominator_factors())
        text = f"{num} / {den}" if den else num
        return f"-{text}" if sign == -1 else text

    def to_json(self) -> dict:
        return {
            "num": [[a, e] for a, e in self.numerator_factors()],
            "den": [[a, e] for a, e in self.denominator_factors()],
            "sign": self.sign,
        }


def _canonical(factors: dict[int, int]) -> tuple[tuple[int, int], ...]:
    for a in factors:
        if a < 1:
            raise ValueError(f"factor exponent of t must be positive, got {a}")
    return tuple(sorted((a, e) for a, e in factors.items() if e != 0))


def cyclotomic_exponent(fp: FactorProduct, d: int) -> int:
    """Exponent ``c_d = sum_{a : d | a} e_a`` of ``Phi_d`` in ``fp``.

    Uses ``1 - t^a = -prod_{d | a} Phi_d(t)``; O(number of factors).
    """
    return sum(e for a, e in fp.factors if a % d == 0)


def negative_cyclotomic_orders(fp: FactorProduct) -> list[int]:
    """Sorted orders ``d`` in the gcd-closure of the factor exponents with ``c_d < 0``.

    Empty iff ``fp`` is a polynomial up to sign, i.e. iff ``c_d >= 0`` for
    every ``d``: each nonzero ``c_d`` equals
    ``c_{gcd(S_d)}`` with ``S_d = {a : d | a}``, and ``gcd(S_d)`` lies in the
    closure.  The closure is a subset of the divisors of the exponents.
    """
    closure: set[int] = set()
    for a, _ in fp.factors:
        closure |= {math.gcd(a, c) for c in closure}
        closure.add(a)
    return sorted(d for d in closure if cyclotomic_exponent(fp, d) < 0)


def resolution_multiplicities(sg: PlaneSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return ``(M, N)``: ``M = (M_0, ..., M_g)`` and ``N = (N_1, ..., N_g)``.

    ``N_k = lcm(b_k/e_k, n_k, ..., n_g)`` and ``M_k = lcm(b_k/e_k, n_{k+1},
    ..., n_g)`` with ``M_0 = lcm(n_1, ..., n_g)``.
    """
    g = sg.g
    M = [math.lcm(*sg.n[1:])]
    N = []
    for k in range(1, g + 1):
        unit = sg.gens[k] // sg.e[k]
        N.append(math.lcm(unit, *sg.n[k:]))
        M.append(math.lcm(unit, *sg.n[k + 1:]) if k < g else unit)
    return tuple(M), tuple(N)


def zeta_closed_form(sg: PlaneSemigroup) -> FactorProduct:
    """Monodromy zeta function

        Z(t) = prod_{k=0..g} (1 - t^{M_k})^{b_k/M_k}
             / prod_{k=1..g} (1 - t^{N_k})^{n_k*b_k/N_k}.
    """
    M, N = resolution_multiplicities(sg)
    factors: dict[int, int] = {}
    for k in range(sg.g + 1):
        q, r = divmod(sg.gens[k], M[k])
        if r:
            raise InternalInconsistency(f"M_{k} = {M[k]} does not divide b_{k}")
        factors[M[k]] = factors.get(M[k], 0) + q
    for k in range(1, sg.g + 1):
        q, r = divmod(sg.n[k] * sg.gens[k], N[k - 1])
        if r:
            raise InternalInconsistency(f"N_{k} = {N[k - 1]} does not divide n_{k}*b_{k}")
        factors[N[k - 1]] = factors.get(N[k - 1], 0) - q
    return FactorProduct.from_map(factors)


def milnor_number(sg: PlaneSemigroup) -> int:
    """Milnor number ``mu = 1 + sum_{k>=1} (n_k - 1)*b_k - b_0``."""
    mu = 1 - sg.gens[0] + sum((sg.n[k] - 1) * sg.gens[k] for k in range(1, sg.g + 1))
    if mu <= 0:
        raise InternalInconsistency(f"Milnor number {mu} is not positive")
    return mu


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """The characteristic polynomial ``Delta(t)`` of the monodromy.

    ``product`` is the exact factor form (internal ``(1 - t^a)`` basis with
    tracked sign); ``mu`` its degree.  :meth:`expand` produces the dense
    integer coefficient vector by exact sparse multiplication/division.
    """

    product: FactorProduct
    mu: int

    def expand(self, max_degree: int = DEFAULT_EXPANSION_CAP) -> tuple[int, ...]:
        """Dense coefficients (constant term first), length ``mu + 1``."""
        if self.mu > max_degree:
            raise BudgetExceeded(
                f"dense expansion of degree {self.mu} exceeds cap {max_degree}"
            )
        coeffs = [self.product.sign]
        for a, e in self.product.numerator_factors():
            for _ in range(e):
                coeffs = _mul_one_minus_ta(coeffs, a)
        for a, e in self.product.denominator_factors():
            for _ in range(e):
                coeffs = _div_one_minus_ta(coeffs, a)
        if len(coeffs) != self.mu + 1:
            raise InternalInconsistency(
                f"expansion degree {len(coeffs) - 1} != mu = {self.mu}"
            )
        if coeffs[-1] != 1:
            raise InternalInconsistency("leading coefficient of Delta is not +1")
        if coeffs[0] not in (1, -1):
            raise InternalInconsistency("constant term of Delta is not a unit")
        return tuple(coeffs)


def _mul_one_minus_ta(p: list[int], a: int) -> list[int]:
    out = p + [0] * a
    for i in range(len(p)):
        out[i + a] -= p[i]
    while out and out[-1] == 0:
        out.pop()
    return out


def _div_one_minus_ta(p: list[int], a: int) -> list[int]:
    # q * (1 - t^a) = p  =>  q_i = p_i + q_{i-a}; trailing identities must
    # close exactly or p was not divisible.
    if len(p) <= a:
        raise NotPolynomial(f"cannot divide degree {len(p) - 1} by (1 - t^{a})")
    q = [0] * (len(p) - a)
    for i in range(len(q)):
        q[i] = p[i] + (q[i - a] if i >= a else 0)
    for i in range(len(q), len(p)):
        expected = -q[i - a] if i - a < len(q) else 0
        if p[i] != expected:
            raise NotPolynomial(f"(1 - t^{a}) does not divide the numerator")
    return q


def characteristic_polynomial(sg: PlaneSemigroup) -> CharacteristicPolynomial:
    """Characteristic polynomial of the monodromy,

        Delta(t) = (t - 1) * prod_k (t^{N_k} - 1)^{n_k*b_k/N_k}
                 / prod_{k=0..g} (t^{M_k} - 1)^{b_k/M_k},

    of degree ``mu``.  All cyclotomic exponents must be nonnegative.

    Raises:
        NotPolynomial: some cyclotomic exponent is negative (never expected).
    """
    M, N = resolution_multiplicities(sg)
    factors: dict[int, int] = {1: 1}
    for k in range(1, sg.g + 1):
        factors[N[k - 1]] = factors.get(N[k - 1], 0) + sg.n[k] * sg.gens[k] // N[k - 1]
    for k in range(sg.g + 1):
        factors[M[k]] = factors.get(M[k], 0) - sg.gens[k] // M[k]
    fp = FactorProduct.from_t_minus_one(factors)
    mu = milnor_number(sg)
    if fp.degree() != mu:
        raise InternalInconsistency(
            f"Delta degree {fp.degree()} != Milnor number {mu}"
        )
    negatives = negative_cyclotomic_orders(fp)
    if negatives:
        raise NotPolynomial(f"Delta has negative cyclotomic exponents at {negatives}")
    return CharacteristicPolynomial(product=fp, mu=mu)
