"""Reference Fraction paths for exact tables.

Exact tables are parsed, validated and summed in ints over one
denominator.  These are the plain ``Fraction`` versions of the same steps,
slow but easy to read; tests compare the int paths against them:

* :func:`reference_parse_number` builds a ``Fraction`` per literal:
  ``Fraction(s)`` for a ratio, ``Fraction(Decimal(s))`` for a decimal.
* :func:`reference_numeric_issues` sums each table's ``probs`` in its own
  numbers and reports its sign, finiteness and sum issues.
* :func:`sum_down` sums cells keyed by outcome vectors down to some
  positions.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Mapping, Sequence

from ordist.arith import AUTO_MAX_PLACES, FLOAT, RATIONAL, EPS_SUM, is_exact
from ordist.probspace import ValidationIssue


def _exact_fraction(x) -> Fraction:
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


def reference_parse_number(raw, mode: str = "auto"):
    """A Fraction or a float, as the arithmetic mode decides."""
    if mode == FLOAT:
        return float(_exact_fraction(raw)) if not isinstance(raw, float) else raw
    if mode == RATIONAL:
        return _exact_fraction(raw)
    if mode != "auto":
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    if isinstance(raw, bool):
        raise TypeError("bool is not a probability")
    if isinstance(raw, (int, Fraction)):
        return _exact_fraction(raw)
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


NUMERIC_CODES = ("NegativeProbability", "NonFiniteProbability", "SumNotOne")


def reference_numeric_issues(tables, eps_sum: float = EPS_SUM) -> tuple[list, dict]:
    """(issues, sum_errors) over every table's ``probs``: the first negative
    or non-finite cell, and the sum's distance from one, exact when the
    sum is exact."""
    issues = []
    sum_errors = {}
    for t in tables:
        for outcome, p in t.probs.items():
            if p < 0:
                issues.append(
                    ValidationIssue(
                        "NegativeProbability",
                        f"negative probability {p} at {outcome!r} in treatment {t.treatment!r}",
                        t.treatment,
                    )
                )
                break
            if not (is_exact(p) or math.isfinite(p)):
                issues.append(
                    ValidationIssue(
                        "NonFiniteProbability",
                        f"non-finite probability {p} at {outcome!r} in treatment {t.treatment!r}",
                        t.treatment,
                    )
                )
                break
        delta = sum(t.probs.values()) - 1
        sum_errors[t.treatment] = delta
        bad = delta != 0 if is_exact(delta) else abs(delta) > eps_sum
        if bad:
            sign = "+" if delta >= 0 else ""
            issues.append(
                ValidationIssue(
                    "SumNotOne",
                    f"probabilities in treatment {t.treatment!r} sum to 1{sign}{delta}",
                    t.treatment,
                )
            )
    return issues, sum_errors


def sum_down(cells: Mapping[tuple, object], keep: Sequence[int]) -> dict:
    """Sum cells keyed by outcome vectors down to the positions `keep`.
    Keys of the result are the kept values: a tuple, or the bare value when
    one position is kept."""
    at = operator.itemgetter(*keep) if keep else lambda outcome: ()
    out: dict = {}
    for outcome, p in cells.items():
        key = at(outcome)
        if key in out:
            out[key] = out[key] + p
        else:
            out[key] = p
    return out
