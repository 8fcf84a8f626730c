"""Number handling: exact rationals next to floats, one regime per system.

Probabilities are kept as `fractions.Fraction` whenever the source data
permits it (integer ratios like ``"3/7"``, or terminating decimals with at
most :data:`AUTO_MAX_PLACES` places), so that inequality verdicts can be
decided exactly.  Otherwise they are 64-bit floats and comparisons carry an
explicit tolerance.  A system is expected to live entirely in one regime;
:func:`regime_of` reports which.
"""

from __future__ import annotations

import math
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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a probability")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(Decimal(repr(x)))
    if isinstance(x, Decimal):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            return Fraction(s)
        try:
            return Fraction(Decimal(s))
        except InvalidOperation as exc:
            raise ValueError(f"not a number: {x!r}") from exc
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def _decimal_places(d: Decimal) -> int:
    exp = d.as_tuple().exponent
    return max(0, -exp) if isinstance(exp, int) else 0


def parse_number(raw, mode: str = "auto") -> Num:
    """Parse one numeric literal under the given arithmetic mode.

    ``raw`` may be an int, float, Decimal (as produced by a JSON parser
    hooked with ``parse_float=Decimal``) or a string like ``"3/7"`` or
    ``"0.25"``.  In "auto" mode the value stays exact when it is an integer
    ratio or a decimal with at most AUTO_MAX_PLACES places.
    """
    if mode == FLOAT:
        return float(exact_fraction(raw)) if not isinstance(raw, float) else raw
    if mode == RATIONAL:
        return exact_fraction(raw)
    if mode != "auto":
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    if isinstance(raw, bool):
        raise TypeError("bool is not a probability")
    if isinstance(raw, (int, Fraction)):
        return exact_fraction(raw)
    if isinstance(raw, float):
        return raw
    if isinstance(raw, Decimal):
        if _decimal_places(raw) <= AUTO_MAX_PLACES:
            return Fraction(raw)
        return float(raw)
    if isinstance(raw, str):
        s = raw.strip()
        if "/" in s:
            return Fraction(s)
        d = Decimal(s)
        if _decimal_places(d) <= AUTO_MAX_PLACES:
            return Fraction(d)
        return float(d)
    raise TypeError(f"cannot parse {type(raw).__name__} as a number")


def over_lcm(values: Iterable[Union[int, Fraction]]) -> tuple[list[int], int]:
    """Exact values as ints over the lcm of their denominators: (ints, den)
    with ints[i] / den == values[i] and den > 0."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
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
        return str(Fraction(x))
    return x
