"""Exception hierarchy for the monocurve package, its exact-division helper
and its two text writers for integers and JSON documents.

Every error raised by the library derives from :class:`MonocurveError` so
callers (and the CLI) can distinguish bad input from internal failures.
"""

import sys
from json.encoder import encode_basestring_ascii as _quote


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


def _exact_div(num: int, den: int, what: str, *args) -> int:
    """``num // den``, raising :class:`NotDivisible` naming ``what`` on a remainder.

    ``what`` is a :meth:`str.format` template for ``args``, formatted only on failure.
    """
    q, r = divmod(num, den)
    if r:
        raise NotDivisible(f"{what.format(*args)}: {num} not divisible by {den}")
    return q


class NotPolynomial(MonocurveError):
    """A factor product expected to be a polynomial is not one."""


class IllFormed(MonocurveError):
    """A quotient-space description violates its well-formedness rules."""


class HypothesisViolated(MonocurveError):
    """A stated hypothesis (weight proportionality, spec shape) does not hold."""


class BudgetExceeded(MonocurveError):
    """An enumeration or expansion exceeded its configured budget, or an
    integer to be written has more digits than ``int`` converts to text."""


def _digit_limit_error() -> BudgetExceeded:
    return BudgetExceeded(
        f"an output integer has more than {sys.get_int_max_str_digits()} digits, "
        "the int-to-str digit limit"
    )


def _int_text(n: int) -> str:
    """``str(n)``, raising :class:`BudgetExceeded` past the int-to-str digit limit."""
    try:
        return int.__repr__(n)
    except ValueError as exc:  # the only ValueError int.__repr__ raises
        raise _digit_limit_error() from exc


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for the package's documents.

    ``doc`` may hold dicts with str keys (written in insertion order), lists,
    tuples, str (ASCII-escaped), int, ``True``, ``False`` and ``None``; any
    other value raises :class:`TypeError`.  The json module writes indented
    text through a chain of pure-Python generators; this builds each container
    with one ``join``, writes its int and str items in place, and takes 0.41-0.45
    of that time on the analyze, graph and conjecture documents of 600 analyze-wide
    inputs (Python 3.11.7).  An int past the digit limit raises BudgetExceeded.
    """
    try:
        return _json_value(doc, 0)
    except ValueError as exc:  # raised only by int.__repr__
        raise _digit_limit_error() from exc


class _Indents(dict):
    """Depth -> the container's closing newline, its item newline and separator."""

    def __missing__(self, depth: int) -> tuple[str, str, str]:
        close = "\n" + "  " * depth
        self[depth] = strings = (close, close + "  ", "," + close + "  ")
        return strings


_INDENTS = _Indents()


def _json_value(o, depth: int) -> str:
    # Containers first: their loops write int and str items, so only a top-level value is one.
    t = type(o)
    if t is dict or t is list or t is tuple:
        if not o:
            return "{}" if t is dict else "[]"
        close, line, sep = _INDENTS[depth]
        depth += 1
        items = []
        add = items.append
        if t is dict:
            for key, v in o.items():
                tv = type(v)
                add(_quote(key) + ": " + (int.__repr__(v) if tv is int else _quote(v) if tv is str
                                          else _json_value(v, depth)))
            return f"{{{line}{sep.join(items)}{close}}}"
        for v in o:
            tv = type(v)
            add(int.__repr__(v) if tv is int else _quote(v) if tv is str else _json_value(v, depth))
        return f"[{line}{sep.join(items)}{close}]"
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


class InternalInconsistency(MonocurveError):
    """Two independent computations of the same quantity disagree."""
