"""Candidate poles of the motivic Igusa zeta function and their verification.

For each ``k = 1..g`` the candidate pole exponent is the exact rational

    nu_k/N_k = (sum_{l<=k} b_l - sum_{1<=l<k} n_l*b_l) / (n_k*b_k)
               + (k - 1) + sum_{l>k} 1/n_l,

plus the trivial pole exponent ``g``.  Each level is summed on ints over
the common denominator ``n_k*b_k*e_k`` and reduced once; a transcription
check compares its numerator over ``n_k*b_k`` with that of a regrouped
formula, as two ints.  The verification reads the split of the
characteristic polynomial into exact factors ``P_k`` that
:func:`monocurve.zeta.characteristic_polynomial` certified it with, and
checks that the eigenvalue attached to every non-integer pole (a primitive root of
unity of order ``q_k``, the reduced denominator) is a zero of ``P_k`` and of
``Delta``.  No complex arithmetic is used: being a zero only depends on the
cyclotomic exponent at ``q_k``.  The report carries that one Delta, with
its ``P_k`` and the zeta function as ``report.delta.pk`` and ``.zeta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency, _int_text, _json_text
from .semigroup import PlaneSemigroup
from .zeta import (
    CharacteristicPolynomial,
    characteristic_polynomial,
    cyclotomic_exponent,
    resolution_multiplicities,
)

__all__ = ["PoleEntry", "ConjectureReport", "candidate_poles", "verify_conjecture"]


# __init__ by hand: one __dict__ fill, not a setattr per field, in declaration order.
@dataclass(frozen=True, init=False)
class PoleEntry:
    """Verdict data for one candidate pole.

    ``k`` is 0 for the trivial global pole exponent ``g``.  ``order`` is the
    denominator of the reduced value (the order of the attached root of
    unity), ``case`` one of ``trivial, i, ii, iii, iv`` (classifying which of
    ``M_k`` and ``L_k = lcm(n_k, ..., n_g)`` the order divides, with ``L_k``
    read from ``sg.L``), and ``delta_mult`` the cyclotomic exponent of
    ``Phi_order`` in ``Delta``.
    """

    k: int
    value: Fraction
    display: str
    integer: bool
    order: int
    case: str
    delta_mult: int
    verdict: bool

    def __init__(self, k, value, display, integer, order, case, delta_mult, verdict):
        self.__dict__.update(k=k, value=value, display=display, integer=integer, order=order,
                             case=case, delta_mult=delta_mult, verdict=verdict)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "value": self.display,
            "integer": self.integer,
            "order": self.order,
            "case": self.case,
            "delta_mult": self.delta_mult,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ConjectureReport:
    """Pole verdicts with the ``delta`` they were certified from, built once;
    callers read Delta, its split ``delta.pk`` (P_1..P_g) and the zeta
    function ``delta.zeta`` here."""

    gens: tuple[int, ...]
    poles: tuple[PoleEntry, ...]
    delta: CharacteristicPolynomial

    @property
    def passed(self) -> bool:
        return all(p.verdict for p in self.poles)

    def to_json(self) -> dict:
        return {
            "gens": list(self.gens),
            "poles": [p.to_json() for p in self.poles],
            "pass": self.passed,
        }

    def to_json_text(self) -> str:
        """:meth:`to_json` as text: 2-space indent, keys in the order above,
        non-ASCII escaped; the same bytes as ``json.dumps(..., indent=2)``."""
        return _json_text(self.to_json())


def candidate_poles(sg: PlaneSemigroup) -> list[Fraction]:
    """Exact candidate pole exponents ``[g, nu_1/N_1, ..., nu_g/N_g]``.

    Level ``k`` is summed on ints over the common denominator
    ``n_k*b_k*e_k``, with ``sum_{l>k} 1/n_l = (sum_{l>k} e_k/n_l)/e_k`` since
    ``e_k = n_{k+1}*...*n_g``; one ``Fraction`` per level reduces it.  The
    prefix sums over ``l < k`` run on from level to level, and the tails
    ``T_k = sum_{l>k} e_k/n_l`` run down from ``T_g = 0`` by
    ``T_k = e_{k+1} + n_{k+1}*T_{k+1}``, since ``e_k = n_{k+1}*e_{k+1}``.
    The numerator over ``n_k*b_k`` is also accumulated in an alternate
    algebraic grouping, and the two integers must agree (guards formula
    transcription).
    """
    g, b, n, e = sg.g, sg.gens, sg.n, sg.e
    poles = [Fraction(g)]
    tails = [0] * (g + 1)
    for k in range(g - 1, 0, -1):
        tails[k] = e[k + 1] + n[k + 1] * tails[k + 1]
    # Running sums over l < k: sum b_l, and over 1 <= l < k: sum n_l*b_l and
    # sum (b_l - n_l*b_l), the alternate grouping's own accumulator.
    b_sum, nb_sum, alt_sum = b[0], 0, 0
    for k in range(1, g + 1):
        nk_bk = n[k] * b[k]
        head = b_sum + b[k] - nb_sum
        alt = b[k] + b[0] + alt_sum
        if head != alt:
            raise InternalInconsistency(f"pole value regrouping mismatch at k={k}")
        poles.append(
            Fraction((head + (k - 1) * nk_bk) * e[k] + tails[k] * nk_bk, nk_bk * e[k])
        )
        b_sum += b[k]
        nb_sum += nk_bk
        alt_sum += b[k] - nk_bk
    return poles


def verify_conjecture(sg: PlaneSemigroup) -> ConjectureReport:
    """Check that every candidate pole induces a monodromy eigenvalue.

    Integer poles are trivial.  For a non-integer pole with reduced
    denominator ``q_k``, the verdict requires the cyclotomic exponent of
    ``Phi_{q_k}`` to be at least 1 both in ``P_k`` and in ``Delta``.  A
    false verdict is reported, never silently dropped.
    """
    M, N = resolution_multiplicities(sg)
    delta = characteristic_polynomial(sg)
    pks = delta.pk
    delta_at_one = cyclotomic_exponent(delta.product, 1)

    entries = []
    for k, value in enumerate(candidate_poles(sg)):
        # N_k | n_k*b_k (checked in characteristic_polynomial), so an integral nu_k = value*N_k
        # also makes value*n_k*b_k integral.
        display = _display(value, N[k - 1], k) if k else str(sg.g)
        q = value.denominator
        if q == 1:
            entries.append(
                PoleEntry(k, value, display, True, 1, "trivial", delta_at_one, True)
            )
            continue
        # i: q divides neither M_k nor L_k, ii: M_k only, iii: L_k only, iv: both.
        case = ("i", "ii", "iii", "iv")[(M[k] % q == 0) + 2 * (sg.L[k] % q == 0)]
        mult_pk = cyclotomic_exponent(pks[k - 1], q)
        mult_delta = cyclotomic_exponent(delta.product, q)
        verdict = mult_pk >= 1 and mult_delta >= 1
        entries.append(PoleEntry(k, value, display, False, q, case, mult_delta, verdict))
    return ConjectureReport(sg.gens, tuple(entries), delta)


def _display(value: Fraction, Nk: int, k: int) -> str:
    """Render the pole as ``nu_k/N_k`` (possibly unreduced, e.g. ``8/6``)."""
    nu, rem = divmod(value.numerator * Nk, value.denominator)
    if rem:
        raise InternalInconsistency(f"nu_{k} = {value * Nk} is not an integer")
    return f"{_int_text(nu)}/{_int_text(Nk)}"
