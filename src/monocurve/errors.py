"""Exception hierarchy for the monocurve package, and its exact-division helper.

Every error raised by the library derives from :class:`MonocurveError` so
callers (and the CLI) can distinguish bad input from internal failures.
"""


class MonocurveError(Exception):
    """Base class for all monocurve errors."""


class NotCoprime(MonocurveError):
    """The generators do not have gcd 1."""


class NotPlane(MonocurveError):
    """The generators do not define the semigroup of a plane branch."""


class NotRepresentable(MonocurveError):
    """A value has no digit representation in the required truncated form."""


class NotDivisible(MonocurveError):
    """An exact integer division failed."""


def _exact_div(num: int, den: int, what: str) -> int:
    """``num // den``, raising :class:`NotDivisible` naming ``what`` on a remainder."""
    q, r = divmod(num, den)
    if r:
        raise NotDivisible(f"{what}: {num} not divisible by {den}")
    return q


class NotPolynomial(MonocurveError):
    """A factor product expected to be a polynomial is not one."""


class IllFormed(MonocurveError):
    """A quotient-space description violates its well-formedness rules."""


class HypothesisViolated(MonocurveError):
    """A stated hypothesis (weight proportionality, spec shape) does not hold."""


class BudgetExceeded(MonocurveError):
    """An enumeration or expansion exceeded its configured budget."""


class InternalInconsistency(MonocurveError):
    """Two independent computations of the same quantity disagree."""
