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
        raise NotDivisible(f"{what.format(*args)}: {_shown(num)} not divisible by {_shown(den)}")
    return q


def _shown(x) -> str:
    """``str(x)`` for a message, ``x`` an int or a tuple of ints, never raising: an int past the
    int-to-str digit limit shows as its bit length."""
    if type(x) is tuple:
        return f"({', '.join(map(_shown, x))}{',' * (len(x) == 1)})"
    try:
        return f"{x}"
    except ValueError:  # the only ValueError str of an int raises
        return f"{'-' * (x < 0)}<int of {x.bit_length()} bits>"


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
    text through a chain of pure-Python generators; this appends every token
    to one list and joins it once.  An int past the digit limit raises
    BudgetExceeded.
    """
    out: list[str] = []
    try:
        _json_value(doc, 0, out)
    except ValueError as exc:  # raised only by str of an int past the digit limit
        raise _digit_limit_error() from exc
    return "".join(out)


class _Indents(dict):
    """Depth -> the strings that open a dict or list, separate its items and close it."""

    def __missing__(self, depth: int) -> tuple[str, str, str, str, str]:
        close = "\n" + "  " * depth
        line = close + "  "
        self[depth] = strings = ("{" + line, "[" + line, "," + line, close + "}", close + "]")
        return strings


class _Keys(dict):
    """Key -> its ``"key": `` prefix; a key that is not a str raises TypeError."""

    def __missing__(self, key) -> str:
        self[key] = prefix = _quote(key) + ": "
        return prefix


_INDENTS = _Indents()
_KEYS = _Keys()


def _json_value(o, depth: int, out: list[str]) -> None:
    # Containers first: their loops write int and str items, so only a top-level value is one.
    # Each item is followed by the separator; the last one is overwritten by the closing.
    add = out.append
    t = type(o)
    if t is dict or t is list or t is tuple:
        if not o:
            add("{}" if t is dict else "[]")
            return
        open_dict, open_list, sep, close_dict, close_list = _INDENTS[depth]
        depth += 1
        if t is dict:
            add(open_dict)
            for key, v in o.items():
                add(_KEYS[key])
                tv = type(v)
                if tv is int:
                    add(str(v))
                elif tv is str:
                    add(_quote(v))
                else:
                    _json_value(v, depth, out)
                add(sep)
            out[-1] = close_dict
            return
        add(open_list)
        for v in o:
            tv = type(v)
            if tv is int:
                add(str(v))
            elif tv is str:
                add(_quote(v))
            else:
                _json_value(v, depth, out)
            add(sep)
        out[-1] = close_list
    elif t is int or t is str:
        add(str(o) if t is int else _quote(o))
    elif o is None or o is True or o is False:
        add("null" if o is None else "true" if o else "false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


class InternalInconsistency(MonocurveError):
    """Two independent computations of the same quantity disagree."""
