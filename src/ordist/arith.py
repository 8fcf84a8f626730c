"""Number handling: exact rationals next to floats, one regime per system.

Probabilities are kept exact whenever the source data permits it (integer
ratios like ``"3/7"``, or terminating decimals with at most
:data:`AUTO_MAX_PLACES` places), so that inequality verdicts can be decided
exactly.  Otherwise they are 64-bit floats and comparisons carry an
explicit tolerance.  A system is expected to live entirely in one regime;
:func:`regime_of` reports which.

:func:`parse_ratio` is the one literal parser.  It reads an exact literal
straight to (numerator, denominator) ints, without a ``Fraction``, and
rejects one whose value would have more digits than the interpreter
converts (``sys.get_int_max_str_digits()``) before building it.  The
loader scales a table's ratios over their lcm denominator, so an exact
table is ints over one denominator from the start; :func:`over_lcm`
scales values that are already ``Fraction`` objects the same way.
:func:`parse_number` is the same parser returning a ``Fraction``.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Union

Num = Union[int, Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

EPS_SUM = 1e-9
EPS_TEST = 1e-9
EPS_LP = 1e-9

#: maximum number of decimal places a literal may have and still be kept exact
#: when arithmetic mode is "auto"
AUTO_MAX_PLACES = 9


def is_exact(x: Num) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def regime_of(values: Iterable[Num]) -> str:
    """RATIONAL when every value is an int or Fraction, FLOAT otherwise."""
    return RATIONAL if all(is_exact(v) for v in values) else FLOAT


def exact_fraction(x) -> Fraction:
    """Convert ints, floats, Decimals and strings to an exact Fraction.

    Floats are converted through their shortest repr, so 0.1 becomes 1/10,
    not the underlying binary value.
    """
    return parse_number(x, RATIONAL)


def digit_limit() -> int:
    """The most decimal digits an exact value may have: the interpreter's
    int-string conversion limit, or its default when conversion is
    unlimited (building a huge int is still slow then)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _decimal_ratio(d: Decimal, mode: str):
    """A Decimal's (numerator, denominator), or a float when "auto" mode
    finds more than AUTO_MAX_PLACES places."""
    _, digits, exp = d.as_tuple()
    if isinstance(exp, int):
        if mode == "auto" and -exp > AUTO_MAX_PLACES:
            return float(d)
        limit = digit_limit()
        # numerator digits, and 10**-exp's digits when exp < 0
        if digits != (0,) and (len(digits) + max(exp, 0) > limit or -exp >= limit):
            text = str(d)
            shown = text if len(text) <= 24 else text[:20] + "..."
            raise ValueError(f"number {shown} has more than {limit} digits")
    # NaN and infinities raise here, as Fraction(d) does
    return d.as_integer_ratio()


def _text_ratio(text: str, mode: str):
    """A string literal's (numerator, denominator): a ratio as Fraction
    reads it, anything else as Decimal reads it."""
    num, slash, den = text.partition("/")
    if slash:
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isascii() and digits.isdigit() and den.isascii() and den.isdigit():
            n, d = int(num), int(den)
            if d == 0:
                raise ZeroDivisionError(f"Fraction({n}, 0)")
            g = math.gcd(n, d)
            return n // g, d // g
        # whatever else Fraction reads: surrounding blanks, underscores,
        # non-ASCII digits
        q = Fraction(text.strip())
        return q.numerator, q.denominator
    try:
        d = Decimal(text.strip())
    except InvalidOperation:
        raise ValueError(f"not a number: {text!r}") from None
    return _decimal_ratio(d, mode)


def parse_ratio(raw, mode: str = "auto"):
    """Parse one numeric literal under the given arithmetic mode.

    Returns an exact value as (numerator, denominator) ints in lowest terms
    with denominator > 0, and any other value as a float.  ``raw`` may be
    an int, float, Fraction, Decimal (as produced by a JSON parser hooked
    with ``parse_float=Decimal``) or a string like ``"3/7"`` or
    ``"0.25"``; a string is read as ``Fraction`` reads a ratio and as
    ``Decimal`` reads a decimal.  In "auto" mode the value stays exact
    when it is an int, a ratio or a decimal with at most AUTO_MAX_PLACES
    places, and a float stays a float; "rational" reads a float through
    its shortest repr.  A literal whose exact value would have more
    digits than ``sys.get_int_max_str_digits()`` raises ValueError
    before its ints are built.
    """
    if mode not in ("auto", RATIONAL, FLOAT):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    if isinstance(raw, bool):
        raise TypeError("bool is not a probability")
    if isinstance(raw, str):
        ratio = _text_ratio(raw, mode)
    elif isinstance(raw, (int, Fraction)):
        ratio = raw.numerator, raw.denominator
    elif isinstance(raw, float):
        if mode != RATIONAL:
            return raw
        ratio = Decimal(repr(raw)).as_integer_ratio()
    elif isinstance(raw, Decimal):
        ratio = _decimal_ratio(raw, mode)
    else:
        raise TypeError(f"cannot parse {type(raw).__name__} as a number")
    if mode == FLOAT:
        return ratio[0] / ratio[1]
    return ratio


def parse_number(raw, mode: str = "auto") -> Num:
    """:func:`parse_ratio` with an exact value as a Fraction."""
    value = parse_ratio(raw, mode)
    return value if isinstance(value, float) else Fraction(*value)


def over_lcm(values: Iterable[Union[int, Fraction]]) -> tuple[list[int], int]:
    """Exact values as ints over the lcm of their denominators: (ints, den)
    with ints[i] / den == values[i] and den > 0.  Any other value, a float
    included, raises TypeError."""
    values = list(values)
    try:
        den = math.lcm(*(v.denominator for v in values))
    except AttributeError:
        raise TypeError("over_lcm takes ints and Fractions") from None
    return [v.numerator * (den // v.denominator) for v in values], den


def close(a: Num, b: Num, eps: float) -> bool:
    """Equality, exact when both sides are exact, within eps otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= eps


def num_to_json(x: Num):
    """JSON-friendly representation: Fractions as 'a/b' strings."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    return x
