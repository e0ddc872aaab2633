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
``gcd(S_d)`` lies in the closure and has the same set.  Delta's own
polynomiality is certified once, through its split into the per-level
factors ``P_k`` (:func:`characteristic_polynomial`): each ``P_k`` passes
that check and their product is Delta, so Delta's ``c_d``, the sum of
theirs, is never negative.  The split reads Delta's own quotients
``n_k*b_k/N_k`` and ``b_k/M_k``; it divides only the ``L`` exponents.  The
zeta function is read from Delta as ``Z = (t - 1)/Delta``
(:attr:`CharacteristicPolynomial.zeta`), so the closed form is divided once.  The
dense expansion of the characteristic polynomial is a separate exact path of
whole-slice list steps: each ``(1 - t^b)`` paired with a pending ``(1 - t^a)``,
``a | b``, is one multiplication by the comb ``1 + t^a + ... + t^(b-a)``,
and the unpaired divisions run last, largest ``a`` first.  The comb step
repeats the running product when its ``b/a`` copies do not overlap, adds
shifted slices when that touches no more elements than multiplying by
``(1 - t^b)`` and dividing by ``(1 - t^a)``, and does that pair otherwise.
The tests compare these exponents with its Moebius-product ``Phi_d``
deflation to a unit cofactor (:func:`monocurve.oracle.expand_and_verify`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import BudgetExceeded, InternalInconsistency, NotPolynomial, _exact_div, _int_text
from .semigroup import PlaneSemigroup, _require_int

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
    """``sign * prod (1 - t^a)^{e_a}`` with nonzero exponents, sorted by a.

    Each ``a`` and ``e_a`` must be an ``int`` and not a ``bool``, each ``a``
    positive, and ``sign`` the ``int`` +1 or -1; the constructor and
    :meth:`from_map` raise ``ValueError`` otherwise, and for ``factors`` that
    are not ``(a, e_a)`` pairs (for :meth:`from_map`, not a mapping).
    """

    factors: tuple[tuple[int, int], ...] = ()
    sign: int = 1

    def __post_init__(self):
        _check_sign(self.sign)
        try:
            pairs = [(a, e) for a, e in self.factors]
        except (TypeError, ValueError):
            raise ValueError(f"factors must be (a, e_a) pairs, got {self.factors!r}") from None
        merged: dict[int, int] = {}
        for a, e in pairs:  # the pairs denote a product: a repeated a adds its exponents
            _check_factor(a, e)  # before the sum, which would turn a bool into an int
            merged[a] = merged.get(a, 0) + e
        object.__setattr__(self, "factors", _canonical(merged))

    @classmethod
    def from_map(cls, factors: dict[int, int], sign: int = 1) -> "FactorProduct":
        """As the constructor on ``factors.items()``; canonicalises once, skips ``__init__``."""
        _check_sign(sign)
        fp = object.__new__(cls)
        fp.__dict__.update(factors=_canonical(factors), sign=sign)
        return fp

    @classmethod
    def from_t_minus_one(cls, factors: dict[int, int]) -> "FactorProduct":
        """Build from ``prod (t^a - 1)^{e_a}``; each factor flips the sign."""
        fp = cls.from_map(factors)  # checks the types before the parity sum below
        if sum(factors.values()) % 2:
            fp.__dict__["sign"] = -1
        return fp

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
            head, tail, one = "(1-t^", ")", "(1-t)"
        elif convention == "t_minus_one":
            head, tail, one = "(t^", "-1)", "(t-1)"
        else:
            raise ValueError(f"unknown convention {convention!r}")
        num, den, total = [], [], 0
        for a, e in self.factors:
            total += e
            base = one if a == 1 else head + _int_text(a) + tail
            (num if e > 0 else den).append(base if e in (1, -1) else f"{base}^{_int_text(abs(e))}")
        text = " ".join(num) or "1"
        if den:
            text += " / " + " ".join(den)
        sign = -self.sign if convention == "t_minus_one" and total % 2 else self.sign
        return "-" + text if sign == -1 else text

    def to_json(self) -> dict:
        num, den = [], []
        for a, e in self.factors:
            (num if e > 0 else den).append([a, abs(e)])
        return {"num": num, "den": den, "sign": self.sign}


def _canonical(factors: dict[int, int]) -> tuple[tuple[int, int], ...]:
    try:
        items = factors.items()
    except AttributeError:
        raise ValueError(f"factors must be a mapping, got {factors!r}") from None
    canon = []
    for a, e in items:
        if type(a) is not int or type(e) is not int:
            _check_factor(a, e)
        if a < 1:
            raise ValueError(f"factor exponent of t must be positive, got {a}")
        if e:
            canon.append((a, e))
    canon.sort()
    return tuple(canon)


def _check_sign(sign) -> None:
    """Refuse a sign that is not the ``int`` +1 or -1 (a ``bool`` or a float is not)."""
    if type(sign) is not int:
        _require_int(sign, "sign")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def _check_factor(a, e) -> None:
    """Refuse a factor exponent or multiplicity that is not an ``int`` or is a ``bool``."""
    _require_int(a, "factor exponent of t")
    _require_int(e, "factor multiplicity")


def cyclotomic_exponent(fp: FactorProduct, d: int) -> int:
    """Exponent ``c_d = sum_{a : d | a} e_a`` of ``Phi_d`` in ``fp``.

    Uses ``1 - t^a = -prod_{d | a} Phi_d(t)``; one loop over the factors,
    O(number of factors).  The pole verdicts call it;
    :func:`negative_cyclotomic_orders` sums the same ``c_d`` inline.

    Raises:
        ValueError: ``d`` is not an ``int``, is a ``bool`` or is below 1.
    """
    if type(d) is not int:
        _require_int(d, "cyclotomic order")
    if d < 1:
        raise ValueError(f"cyclotomic order must be positive, got {d}")
    c = 0
    for a, e in fp.factors:
        if a % d == 0:
            c += e
    return c


def negative_cyclotomic_orders(fp: FactorProduct) -> list[int]:
    """Sorted orders ``d`` in the gcd-closure of the factor exponents with ``c_d < 0``.

    Empty iff ``fp`` is a polynomial up to sign, i.e. iff ``c_d >= 0`` for
    every ``d``: each nonzero ``c_d`` equals
    ``c_{gcd(S_d)}`` with ``S_d = {a : d | a}``, and ``gcd(S_d)`` lies in the
    closure.  The closure is a subset of the divisors of the exponents.
    """
    factors = fp.factors
    closure: set[int] = set()
    for a, _ in factors:
        closure |= set(map(math.gcd, itertools.repeat(a, len(closure)), closure))
        closure.add(a)
    negatives = []
    for d in closure:
        c = 0
        for a, e in factors:
            if a % d == 0:
                c += e
        if c < 0:
            negatives.append(d)
    negatives.sort()
    return negatives


def resolution_multiplicities(sg: PlaneSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return ``(M, N)``: ``M = (M_0, ..., M_g)`` and ``N = (N_1, ..., N_g)``.

    ``N_k = lcm(b_k/e_k, L_k)`` and ``M_k = lcm(b_k/e_k, L_{k+1})`` with
    ``M_0 = L_1``, where ``L_k = lcm(n_k, ..., n_g)`` is read from ``sg.L``.
    """
    M = [sg.L[1]]
    N = []
    for k in range(1, sg.g + 1):
        unit = sg.gens[k] // sg.e[k]
        N.append(math.lcm(unit, sg.L[k]))
        M.append(math.lcm(unit, sg.L[k + 1]))
    return tuple(M), tuple(N)


def zeta_closed_form(sg: PlaneSemigroup) -> FactorProduct:
    """Monodromy zeta function ``characteristic_polynomial(sg).zeta``,

        Z(t) = prod_{k=0..g} (1 - t^{M_k})^{b_k/M_k}
             / prod_{k=1..g} (1 - t^{N_k})^{n_k*b_k/N_k}.
    """
    return characteristic_polynomial(sg).zeta


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
    tracked sign); ``mu`` its degree; ``pk`` the per-level factors
    ``P_1, ..., P_g`` whose product is ``Delta``, the certificate of its
    polynomiality (empty unless built by :func:`characteristic_polynomial`).
    :meth:`expand` produces the dense integer coefficient vector by exact
    sparse multiplication/division, and :attr:`zeta` the zeta function.
    """

    product: FactorProduct
    mu: int
    pk: tuple[FactorProduct, ...] = ()

    @functools.cached_property
    def zeta(self) -> FactorProduct:
        """Zeta function ``Z = (t - 1)/Delta``: ``{1: 1}`` minus Delta's exponents, sign +1."""
        factors = {a: -e for a, e in self.product.factors}
        factors[1] = factors.get(1, 0) + 1
        return FactorProduct.from_map(factors)

    def expand(self) -> tuple[int, ...]:
        """Dense coefficients (constant term first), length ``mu + 1``; at most
        :data:`DEFAULT_EXPANSION_CAP` (:class:`BudgetExceeded` beyond)."""
        if self.mu > DEFAULT_EXPANSION_CAP:
            raise BudgetExceeded(
                f"dense expansion of degree {self.mu} exceeds cap {DEFAULT_EXPANSION_CAP}"
            )
        coeffs = _sparse_product([1], self.product)
        if len(coeffs) != self.mu + 1:
            raise InternalInconsistency(
                f"expansion degree {len(coeffs) - 1} != mu = {self.mu}"
            )
        if coeffs[-1] != 1:
            raise InternalInconsistency("leading coefficient of Delta is not +1")
        if coeffs[0] not in (1, -1):
            raise InternalInconsistency("constant term of Delta is not a unit")
        return tuple(coeffs)


def _sparse_product(p: list[int], fp: FactorProduct) -> list[int]:
    """Coefficients of ``p * fp`` (``p`` with a nonzero leading coefficient).

    Each ``(1 - t^b)``, b ascending, pairs with the largest pending
    ``(1 - t^a)`` with ``a | b``, which keeps the running product short.  The
    pair is one multiplication by the comb ``1 + t^a + ... + t^(b-a)`` of
    ``m = b/a`` terms: for a running product of length ``n <= a`` its
    ``m`` shifted copies do not overlap and are one list repetition;
    otherwise ``m - 1`` shifted slice additions when ``(m - 1) * n <=
    2 * n + b``, the element count of the multiply-and-divide pair, and that
    pair when not.  A ``(1 - t^b)`` with no partner is a plain
    multiplication.  The unpaired divisions run last, largest ``a`` first;
    :class:`NotPolynomial` when one leaves a remainder.  No step mutates a
    list, so with no factors and sign +1 ``p`` itself comes back."""
    coeffs = p if fp.sign == 1 else [-c for c in p]
    pending = [a for a, e in fp.denominator_factors() for _ in range(e)]
    for b, e in fp.numerator_factors():
        for _ in range(e):
            a = next((a for a in reversed(pending) if b % a == 0), 0)
            if a:
                pending.remove(a)
                coeffs = _mul_comb(coeffs, a, b)
            else:
                coeffs = _mul_one_minus_ta(coeffs, b)
    for a in reversed(pending):
        coeffs = _div_one_minus_ta(coeffs, a)
    return coeffs


def _mul_comb(p: list[int], a: int, b: int) -> list[int]:
    # p * (1 - t^b)/(1 - t^a) for a | b: the sum of the m = b/a copies of p
    # shifted by 0, a, ..., b - a.  The path rule is in _sparse_product.
    n, m = len(p), b // a
    if n <= a:
        out = (p + [0] * (a - n)) * m
        del out[n + b - a:]
        return out
    if (m - 1) * n > 2 * n + b:
        return _div_one_minus_ta(_mul_one_minus_ta(p, b), a)
    out = p + [0] * (b - a)
    for s in range(a, b, a):
        out[s:s + n] = map(operator.add, out[s:s + n], p)
    return out


def _mul_one_minus_ta(p: list[int], a: int) -> list[int]:
    out = p + [0] * a
    out[a:] = map(operator.sub, out[a:], p)
    return out


def _div_one_minus_ta(p: list[int], a: int) -> list[int]:
    # q_i = p_i + q_{i-a}: running sums per residue mod a over all of p; the
    # last a are the remainder.  Loop over a residues or n/a blocks, the fewer.
    n = len(p)
    if n <= a:
        raise NotPolynomial(f"cannot divide degree {n - 1} by (1 - t^{a})")
    q = p.copy()
    if a * a < n:
        for r in range(a):
            q[r::a] = itertools.accumulate(q[r::a])
    else:
        for i in range(a, n, a):
            q[i:i + a] = map(operator.add, q[i:i + a], q[i - a:i])
    if q[n - a:] != [0] * a:
        raise NotPolynomial(f"(1 - t^{a}) does not divide the numerator")
    del q[n - a:]
    return q


def characteristic_polynomial(sg: PlaneSemigroup) -> CharacteristicPolynomial:
    """Characteristic polynomial of the monodromy,

        Delta(t) = (t - 1) * prod_k (t^{N_k} - 1)^{n_k*b_k/N_k}
                 / prod_{k=0..g} (t^{M_k} - 1)^{b_k/M_k},

    of degree ``mu``, with its split into the per-level factors ``P_k`` in
    ``pk``.  Polynomiality is certified by the split alone: each ``P_k`` has
    no negative cyclotomic exponent and ``prod P_k = Delta``.

    Raises:
        NotDivisible: an exponent of ``Delta`` or of a ``P_k`` is not exact.
        NotPolynomial: some ``P_k`` has a negative cyclotomic exponent.
        InternalInconsistency: the degree is not the Milnor number, or the
            product of the ``P_k`` is not ``Delta``.  None of these is expected.
    """
    M, N = resolution_multiplicities(sg)
    n, b, g = sg.n, sg.gens, sg.g
    factors: dict[int, int] = {1: 1}
    nb_q, b_q = [], []  # n_k*b_k/N_k for k = 1..g and b_k/M_k for k = 0..g
    for k in range(1, g + 1):
        q = _exact_div(n[k] * b[k], N[k - 1], "n_{0}*b_{0} / N_{0}", k)
        nb_q.append(q)
        factors[N[k - 1]] = factors.get(N[k - 1], 0) + q
    for k in range(g + 1):
        q = _exact_div(b[k], M[k], "b_{0} / M_{0}", k)
        b_q.append(q)
        factors[M[k]] = factors.get(M[k], 0) - q
    fp = FactorProduct.from_t_minus_one(factors)
    mu = milnor_number(sg)
    if fp.degree() != mu:
        raise InternalInconsistency(
            f"Delta degree {fp.degree()} != Milnor number {mu}"
        )
    return CharacteristicPolynomial(product=fp, mu=mu, pk=_pk_factors(sg, M, N, nb_q, b_q, fp))


def _pk_factors(sg: PlaneSemigroup, M, N, nb_q, b_q,
                delta: FactorProduct) -> tuple[FactorProduct, ...]:
    """Split ``Delta`` as an exact product of per-level factors

        P_k = (t^{N_k} - 1)^{n_k*b_k/N_k} (t^{L_{k+1}} - 1)^{e_k/L_{k+1}}
            / ((t^{M_k} - 1)^{b_k/M_k} (t^{L_k} - 1)^{e_{k-1}/L_k})

    with ``L_k = lcm(n_k, ..., n_g)`` and ``L_{g+1} = 1`` read from ``sg.L``,
    from already built ``(M, N)`` and ``Delta``.  The ``N_k`` and ``M_k``
    exponents are Delta's own quotients, ``nb_q[k-1] = n_k*b_k/N_k`` and
    ``b_q[k] = b_k/M_k``; only the two ``L`` exponents are divided here.
    Checks that every ``P_k`` is a polynomial and that their product (the
    summed exponent maps, the signs multiplied) equals ``Delta``.  Together
    these certify that ``Delta`` is a polynomial: its ``c_d`` is the sum of
    the ``P_k``'s, so none is negative.
    """
    e, L = sg.e, sg.L
    out = []
    total: dict[int, int] = {}
    sign = 1
    for k in range(1, sg.g + 1):
        Nk, Mk, Lk, Lk1 = N[k - 1], M[k], L[k], L[k + 1]
        factors: dict[int, int] = {}
        for a, q in (
            (Nk, nb_q[k - 1]),
            (Lk1, _exact_div(e[k], Lk1, "P_{0}: e_{0} / L_{1}", k, k + 1)),
            (Mk, -b_q[k]),
            (Lk, -_exact_div(e[k - 1], Lk, "P_{0}: e_{1} / L_{0}", k, k - 1)),
        ):
            factors[a] = factors.get(a, 0) + q
            total[a] = total.get(a, 0) + q
        pk = FactorProduct.from_t_minus_one(factors)
        negatives = negative_cyclotomic_orders(pk)
        if negatives:
            raise NotPolynomial(f"P_{k} has negative cyclotomic exponents at {negatives}")
        out.append(pk)
        sign *= pk.sign
    # With every P_k a polynomial, this identity certifies Delta as one:
    # c_d(Delta) = sum_k c_d(P_k) >= 0 for every d.
    if FactorProduct.from_map(total, sign) != delta:
        raise InternalInconsistency("product of P_k factors differs from Delta")
    return tuple(out)
