"""Finite designs, treatments, and per-treatment joint output tables.

A *design* fixes an ordered family of deterministic inputs, the finite value
set of each input, and the set of allowable treatments (one value per
input).  A treatment set of ``None`` (the "full" marker in system files)
means every combination of input values is allowable; it is expanded
lazily.  For each allowable treatment the system holds a
:class:`TreatmentTable`: the joint distribution of the outputs observed
under that treatment, one output per input.

An exact table holds its cells as ints over one per-table denominator
(:meth:`TreatmentTable.scaled`), dense in the row-major order of its
outcome axes.  The loader builds it that way straight from the file's
literals; a table built in code from a mapping of exact values scales
them on first use.  Validation decides its sums and signs in these ints,
and :func:`marginalize` and :func:`bivariate` sum them and divide once,
so only a marginal is made of ``Fraction`` values.  ``probs``, the
mapping of outcome vectors to probabilities, is a view of ``Fraction``
values derived on first access and cached; a table built from a mapping
keeps that mapping as its view, and a float table holds only that.

Outcome values are opaque labels.  Any numeric meaning is introduced
downstream through rank assignments or explicit embeddings.  Tables are
not changed after construction (the cached views are derived from
immutable cells) and every operation here is a pure function, so
evaluation is safe to run in parallel across tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .arith import EPS_SUM, RATIONAL, Num, is_exact, over_lcm, regime_of
from .errors import SameInput, SystemFormatError, UnknownInput

MAX_EXPLICIT_TREATMENTS = 100_000


class InputPoint(NamedTuple):
    """A pair (input identifier, input value)."""

    input: str
    value: object

    def as_json(self):
        return [self.input, self.value]


class Design:
    """Inputs with their value sets plus the allowable treatment set.

    ``treatments=None`` means all combinations are allowable (full
    factorial); explicit treatment sets are capped at
    MAX_EXPLICIT_TREATMENTS and are stored in the order given.
    """

    __slots__ = ("inputs", "values", "treatments", "_index", "_sorted_treatments", "_covers")

    def __init__(self, inputs, values, treatments=None):
        self.inputs = tuple(inputs)
        if not self.inputs:
            raise SystemFormatError("design needs at least one input")
        if len(set(self.inputs)) != len(self.inputs):
            raise SystemFormatError("duplicate input identifiers")
        vals = {}
        for name in self.inputs:
            try:
                vs = tuple(values[name])
            except KeyError:
                raise SystemFormatError(f"no value set for input {name!r}") from None
            if not vs:
                raise SystemFormatError(f"empty value set for input {name!r}")
            if len(set(vs)) != len(vs):
                raise SystemFormatError(f"duplicate values for input {name!r}")
            vals[name] = vs
        self.values = vals
        self._index = {name: i for i, name in enumerate(self.inputs)}
        if treatments is None or treatments == "full":
            self.treatments = None
        else:
            ts = tuple(tuple(t) for t in treatments)
            if not ts:
                raise SystemFormatError("treatment set is empty")
            if len(ts) > MAX_EXPLICIT_TREATMENTS:
                raise SystemFormatError(
                    f"{len(ts)} treatments exceed the cap of {MAX_EXPLICIT_TREATMENTS}"
                )
            seen = set()
            for t in ts:
                if len(t) != len(self.inputs):
                    raise SystemFormatError(f"treatment {t!r} has wrong arity")
                for name, w in zip(self.inputs, t):
                    if w not in vals[name]:
                        raise SystemFormatError(
                            f"treatment {t!r} assigns unknown value {w!r} to {name!r}"
                        )
                if t in seen:
                    raise SystemFormatError(f"duplicate treatment {t!r}")
                seen.add(t)
            self.treatments = ts
        self._sorted_treatments = None
        self._covers: dict[frozenset, Optional[tuple]] = {}

    @property
    def is_full(self) -> bool:
        return self.treatments is None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownInput(f"unknown input {name!r}") from None

    def iter_treatments(self):
        if self.treatments is not None:
            yield from self.treatments
        else:
            yield from itertools.product(*(self.values[n] for n in self.inputs))

    def treatment_count(self) -> int:
        if self.treatments is not None:
            return len(self.treatments)
        n = 1
        for name in self.inputs:
            n *= len(self.values[name])
        return n

    def points(self) -> tuple[InputPoint, ...]:
        """All input points, inputs in design order, values in declared order."""
        return tuple(
            InputPoint(name, w) for name in self.inputs for w in self.values[name]
        )

    def value_of(self, treatment: tuple, name: str):
        return treatment[self.index(name)]

    def _value_index_key(self, treatment: tuple) -> tuple[int, ...]:
        return tuple(
            self.values[name].index(w) for name, w in zip(self.inputs, treatment)
        )

    def cover(self, points: Iterable[InputPoint]) -> Optional[tuple]:
        """Lexicographically first allowable treatment containing the points.

        Returns None when no treatment contains them (in particular when two
        points assign different values to one input).  The result depends
        only on the set of points and is memoized per set; a point of an
        unknown input raises UnknownInput wherever it sits.
        """
        key = frozenset(points)
        try:
            return self._covers[key]
        except KeyError:
            pass
        unknown = sorted(repr(p.input) for p in key if p.input not in self._index)
        if unknown:
            raise UnknownInput(f"unknown input {unknown[0]}")
        self._covers[key] = found = self._first_cover(key)
        return found

    def _first_cover(self, points: frozenset) -> Optional[tuple]:
        assignment = {}
        for p in points:
            if p.value not in self.values[p.input]:
                return None
            if assignment.setdefault(p.input, p.value) != p.value:
                return None
        if self.is_full:
            return tuple(
                assignment.get(name, self.values[name][0]) for name in self.inputs
            )
        if self._sorted_treatments is None:
            self._sorted_treatments = sorted(
                self.treatments, key=self._value_index_key
            )
        for t in self._sorted_treatments:
            if all(t[self._index[n]] == w for n, w in assignment.items()):
                return t
        return None


@dataclass(frozen=True, eq=False)
class OutcomeSpace:
    """Outcome value sets per input point.

    Under marginal selectivity the value set of the output for input λ
    depends only on the input point (λ, w), so one axis per point suffices.
    The common case is one axis per input, shared by all of its points.
    """

    values: Mapping[InputPoint, tuple]

    @classmethod
    def from_tables(cls, design: Design, tables: Iterable["TreatmentTable"]) -> "OutcomeSpace":
        """Collect per-point axes from tables; axis order comes from the
        first table mentioning the point, later tables must agree as sets."""
        out: dict[InputPoint, tuple] = {}
        for t in tables:
            for pos, name in enumerate(design.inputs):
                pt = InputPoint(name, t.treatment[pos])
                axis = t.axes[pos]
                first = out.setdefault(pt, axis)
                if first is not axis and set(first) != set(axis):
                    raise SystemFormatError(
                        f"outcome sets for point {pt} disagree across tables"
                    )
        return cls(out)

    def axis(self, point: InputPoint) -> tuple:
        try:
            return self.values[point]
        except KeyError:
            raise SystemFormatError(f"no outcome set for point {point}") from None


class TreatmentTable:
    """Joint distribution of all outputs under one treatment.

    ``probs`` maps full outcome vectors (one value per input, in design
    order) to probabilities.  Missing vectors are filled with zero so the
    table is dense over the product of its axes.  An exact table keeps its
    cells as ints over one denominator (:meth:`scaled`); ``probs`` is then
    derived from them on first access.  Numeric validity (sums, signs) is
    checked by :func:`validate_system`, not at construction.
    """

    __slots__ = ("design", "treatment", "axes", "_regime", "_ints", "_den", "_probs")

    def __init__(self, design: Design, treatment, probs: Mapping[tuple, Num], axes=None):
        probs = {tuple(k): v for k, v in probs.items()}
        self._set_shape(design, treatment, axes, probs)
        zero = 0.0 if any(isinstance(v, float) for v in probs.values()) else Fraction(0)
        dense = {}
        for outcome in itertools.product(*self.axes):
            dense[outcome] = probs.pop(outcome, zero)
        if probs:
            bad = next(iter(probs))
            raise SystemFormatError(f"outcome {bad!r} outside the declared axes")
        self._probs = dense
        self._regime = regime_of(dense.values())
        self._ints = None
        self._den = None

    @classmethod
    def from_ints(cls, design: Design, treatment, axes, ints: Sequence[int], den: int) -> "TreatmentTable":
        """An exact table from its cells as ints over ``den``: ints[k] / den
        is the probability of the k-th outcome vector in the row-major
        order of ``axes``."""
        table = cls.__new__(cls)
        table._set_shape(design, treatment, axes, ())
        ints = list(ints)
        if len(ints) != math.prod(map(len, table.axes)):
            raise SystemFormatError("one cell per outcome vector required")
        if den <= 0:
            raise SystemFormatError("the denominator must be positive")
        table._probs = None
        table._regime = RATIONAL
        table._ints = ints
        table._den = den
        return table

    def _set_shape(self, design: Design, treatment, axes, outcomes) -> None:
        """Set design, treatment and axes, inferring the axes from the
        outcome vectors when none are given."""
        self.design = design
        self.treatment = tuple(treatment)
        if len(self.treatment) != len(design.inputs):
            raise SystemFormatError(f"treatment {self.treatment!r} has wrong arity")
        for name, w in zip(design.inputs, self.treatment):
            if w not in design.values[name]:
                raise SystemFormatError(
                    f"treatment value {w!r} not allowed for input {name!r}"
                )
        if axes is None:
            seen: list[list] = [[] for _ in design.inputs]
            for outcome in outcomes:
                if len(outcome) != len(design.inputs):
                    raise SystemFormatError(f"outcome {outcome!r} has wrong arity")
                for pos, v in enumerate(outcome):
                    if v not in seen[pos]:
                        seen[pos].append(v)
            axes = tuple(tuple(vs) for vs in seen)
        else:
            axes = tuple(tuple(a) for a in axes)
            if len(axes) != len(design.inputs):
                raise SystemFormatError("one outcome axis per input required")
        for a in axes:
            if not a:
                raise SystemFormatError("empty outcome axis")
            if len(set(a)) != len(a):
                raise SystemFormatError("duplicate outcome values on one axis")
        self.axes = axes

    @property
    def probs(self) -> Mapping[tuple, Num]:
        if self._probs is None:
            den = self._den
            self._probs = dict(
                zip(itertools.product(*self.axes), [Fraction(n, den) for n in self._ints])
            )
        return self._probs

    def scaled(self) -> tuple[list[int], int]:
        """An exact table's cells as (ints, den): ints[k] / den is the k-th
        probability in ``probs`` order."""
        if self._regime != RATIONAL:
            raise ValueError("a float table has no integer cells")
        if self._ints is None:
            self._ints, self._den = over_lcm(self._probs.values())
        return self._ints, self._den

    def axis(self, name: str) -> tuple:
        return self.axes[self.design.index(name)]

    def prob(self, outcome: tuple) -> Num:
        return self.probs[tuple(outcome)]

    def total(self) -> Num:
        if self._regime == RATIONAL:
            ints, den = self.scaled()
            return Fraction(sum(ints), den)
        return sum(self.probs.values())

    def univariate(self, name: str) -> dict:
        """Marginal distribution of the single output for input `name`."""
        return marginalize(self, (name,))

    def point(self, name: str) -> InputPoint:
        return InputPoint(name, self.treatment[self.design.index(name)])

    def regime(self) -> str:
        return self._regime


@dataclass(frozen=True, eq=False)
class BivariateMarginal:
    """Ordered-pair marginal of two outputs, row variable first.

    The order of the axes matters: the distance functions evaluated on this
    are generally asymmetric.  ``row_point``/``col_point`` carry the input
    points the axes belong to when known, enabling per-point ranks,
    partitions and embeddings.
    """

    row_values: tuple
    col_values: tuple
    probs: tuple[tuple[Num, ...], ...]
    row_point: Optional[InputPoint] = None
    col_point: Optional[InputPoint] = None

    def cells(self):
        for i, a in enumerate(self.row_values):
            row = self.probs[i]
            for j, b in enumerate(self.col_values):
                yield a, b, row[j]

    def total(self) -> Num:
        return sum(sum(row) for row in self.probs)

    def transpose(self) -> "BivariateMarginal":
        probs = tuple(
            tuple(self.probs[i][j] for i in range(len(self.row_values)))
            for j in range(len(self.col_values))
        )
        return BivariateMarginal(
            self.col_values, self.row_values, probs, self.col_point, self.row_point
        )

    def col_marginal(self) -> dict:
        out = {}
        for j, b in enumerate(self.col_values):
            out[b] = sum(self.probs[i][j] for i in range(len(self.row_values)))
        return out


@dataclass(frozen=True, eq=False)
class JointDist:
    """Free-standing joint distribution over any number of axes.

    Used for trivariate constructions (triangle checks, separation
    distance) that are not tied to a design.  Missing cells count as zero.
    """

    axes: tuple[tuple, ...]
    probs: Mapping[tuple, Num]

    def total(self) -> Num:
        return sum(self.probs.values())

    def marginal(self, keep: Sequence[int]) -> "JointDist":
        keep = tuple(keep)
        out: dict[tuple, Num] = {}
        for outcome, p in self.probs.items():
            key = tuple(outcome[i] for i in keep)
            out[key] = out.get(key, p * 0) + p
        return JointDist(tuple(self.axes[i] for i in keep), out)

    def bivariate(self, i: int, j: int) -> BivariateMarginal:
        if i == j:
            raise SameInput("need two distinct axes")
        pair = self.marginal((i, j)).probs
        rows, cols = self.axes[i], self.axes[j]
        zero = Fraction(0) if regime_of(self.probs.values()) == "rational" else 0.0
        probs = tuple(
            tuple(pair.get((a, b), zero) for b in cols) for a in rows
        )
        return BivariateMarginal(rows, cols, probs)


def diagonal_coupling(values: Sequence, dist: Mapping, point: Optional[InputPoint] = None) -> BivariateMarginal:
    """Couple a variable with itself: all mass on the diagonal.

    This is the joint distribution of (A, A); every pseudo-quasi-metric
    must evaluate to zero on it.
    """
    values = tuple(values)
    zero = Fraction(0) if regime_of(dist.values()) == "rational" else 0.0
    probs = tuple(
        tuple(dist.get(a, zero) if a == b else zero for b in values) for a in values
    )
    return BivariateMarginal(values, values, probs, point, point)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    treatment: Optional[tuple] = None

    def as_json(self):
        out = {"code": self.code, "message": self.message}
        if self.treatment is not None:
            out["treatment"] = list(self.treatment)
        return out


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """``skipped_checks`` names the issue codes that were not checked at
    all; the JSON report carries it only when it is nonempty."""

    ok: bool
    issues: tuple[ValidationIssue, ...]
    regime: str
    sum_errors: Mapping[tuple, Num]
    skipped_checks: tuple[str, ...] = ()

    def raise_if_invalid(self):
        if not self.ok:
            lines = "; ".join(i.message for i in self.issues)
            raise SystemFormatError(f"invalid system: {lines}")

    def as_json(self):
        out = {
            "ok": self.ok,
            "regime": self.regime,
            "issues": [i.as_json() for i in self.issues],
        }
        if self.skipped_checks:
            out["skipped_checks"] = list(self.skipped_checks)
        return out


_ZERO = Fraction(0)


def _negative(t: TreatmentTable, outcome: tuple, p: Num) -> ValidationIssue:
    return ValidationIssue(
        "NegativeProbability",
        f"negative probability {p} at {outcome!r} in treatment {t.treatment!r}",
        t.treatment,
    )


def _sum_not_one(t: TreatmentTable, delta: Num) -> ValidationIssue:
    sign = "+" if delta >= 0 else ""
    return ValidationIssue(
        "SumNotOne",
        f"probabilities in treatment {t.treatment!r} sum to 1{sign}{delta}",
        t.treatment,
    )


def _check_exact_table(t: TreatmentTable, issues: list, sum_errors: dict) -> None:
    """Signs and sum of an exact table, decided on its ints; a Fraction is
    made only for a nonzero sum error or an issue message."""
    ints, den = t.scaled()
    if min(ints) < 0:
        k = next(k for k, n in enumerate(ints) if n < 0)
        outcome = next(itertools.islice(itertools.product(*t.axes), k, None))
        issues.append(_negative(t, outcome, Fraction(ints[k], den)))
    excess = sum(ints) - den
    sum_errors[t.treatment] = Fraction(excess, den) if excess else _ZERO
    if excess:
        issues.append(_sum_not_one(t, sum_errors[t.treatment]))


def validate_system(design: Design, tables: Iterable[TreatmentTable], eps_sum: float = EPS_SUM) -> ValidationReport:
    """Check tables against the design: one table per treatment, probabilities
    finite, nonnegative and summing to one (exactly in the rational regime), and
    outcome value sets consistent across tables sharing an input point.

    A design of more than MAX_EXPLICIT_TREATMENTS treatments is not
    expanded, so its missing- and extra-treatment checks are skipped and
    named in ``skipped_checks``."""
    tables = list(tables)
    issues: list[ValidationIssue] = []
    sum_errors: dict[tuple, Num] = {}
    by_treatment: dict[tuple, TreatmentTable] = {}
    for t in tables:
        if t.treatment in by_treatment:
            issues.append(
                ValidationIssue("DuplicateTable", f"two tables for treatment {t.treatment!r}", t.treatment)
            )
        by_treatment[t.treatment] = t

    skipped: tuple[str, ...] = ()
    if design.treatment_count() > MAX_EXPLICIT_TREATMENTS:
        skipped = ("MissingTreatment", "ExtraTreatment")
    else:
        wanted = set(design.iter_treatments())
        for t in sorted(wanted - set(by_treatment), key=design._value_index_key):
            issues.append(
                ValidationIssue("MissingTreatment", f"no table for treatment {t!r}", t)
            )
        for t in by_treatment:
            if t not in wanted:
                issues.append(
                    ValidationIssue("ExtraTreatment", f"table for non-allowable treatment {t!r}", t)
                )

    exact = all(t.regime() == "rational" for t in tables)
    for t in tables:
        if t.regime() == RATIONAL:
            _check_exact_table(t, issues, sum_errors)
            continue
        for outcome, p in t.probs.items():
            if p < 0:
                issues.append(_negative(t, outcome, p))
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
        delta = t.total() - 1
        sum_errors[t.treatment] = delta
        bad = delta != 0 if is_exact(delta) else abs(delta) > eps_sum
        if bad:
            issues.append(_sum_not_one(t, delta))

    # outcome-set consistency per input point across tables
    seen_axes: dict[InputPoint, tuple] = {}
    for t in tables:
        for pos, name in enumerate(design.inputs):
            pt = InputPoint(name, t.treatment[pos])
            axis = t.axes[pos]
            first = seen_axes.setdefault(pt, axis)
            if first is not axis and set(first) != set(axis):
                issues.append(
                    ValidationIssue(
                        "ValueSetMismatch",
                        f"outcome sets for point {pt} disagree across tables",
                        t.treatment,
                    )
                )

    return ValidationReport(
        ok=not issues,
        issues=tuple(issues),
        regime="rational" if exact else "float",
        sum_errors=sum_errors,
        skipped_checks=skipped,
    )


def marginalize(table: TreatmentTable, subset: Iterable[str]) -> dict:
    """Sum the table down to the outputs of `subset` (kept in design order).

    Keys of the result are outcome vectors over the subset, or bare values
    when the subset is one input; marginalizing over all inputs returns a
    dict equal to the full table.
    """
    names = set(subset)
    for name in names:
        if name not in table.design._index:
            raise UnknownInput(f"unknown input {name!r}")
    keep = tuple(i for i, name in enumerate(table.design.inputs) if name in names)
    return _keyed([table.axes[i] for i in keep], _marginal_sums(table, keep))


def _keyed(axes: Sequence[tuple], sums: list) -> dict:
    """Sums in row-major order over `axes`, keyed by their outcome
    vectors, or by bare values when there is one axis."""
    keys = itertools.product(*axes)
    if len(axes) == 1:
        keys = (key for key, in keys)
    return dict(zip(keys, sums))


@functools.lru_cache(maxsize=256)
def _summands(sizes: tuple, keep: tuple) -> tuple:
    """For cells dense in the row-major order of axes of `sizes`: one getter
    per vector of kept values, in row-major order over `keep`, returning
    the cells summing to it in ascending order."""
    groups: dict[tuple, list] = {}
    for k, digits in enumerate(itertools.product(*map(range, sizes))):
        groups.setdefault(tuple(digits[i] for i in keep), []).append(k)
    return tuple(
        operator.itemgetter(*g) if len(g) > 1 else (lambda cells, k=g[0]: (cells[k],))
        for _, g in sorted(groups.items())
    )


def _sums(cells: Sequence, sizes: tuple, keep: tuple) -> list:
    """Dense `cells` summed down to the positions `keep`, in row-major
    order over the kept axes; each sum adds its cells left to right."""
    add = operator.add
    return [functools.reduce(add, get(cells)) for get in _summands(sizes, keep)]


#: how many map objects :func:`_column_sums` nests at most, which bounds the
#: depth of the C calls that pull one sum through them
_NEST = 64


def _column_sums(columns: Sequence[tuple], sizes: tuple, keep: tuple) -> list[tuple]:
    """:func:`_sums` of several tables of one layout at once.  ``columns``
    holds one tuple per cell, of that cell's value in each table (the
    tables' cells transposed); returns one tuple per vector of kept values,
    of each table's sum.  Each sum adds its cells left to right, as
    :func:`_sums` does, so float sums come out bit for bit the same."""
    stack = functools.partial(map, operator.add)
    out = []
    for get in _summands(sizes, keep):
        cols = get(columns)
        acc = cols[0]
        for k in range(1, len(cols), _NEST):
            acc = tuple(functools.reduce(stack, cols[k : k + _NEST], acc))
        out.append(acc)
    return out


def _marginal_sums(table: TreatmentTable, keep: tuple) -> list:
    """The marginal over the positions `keep` in row-major order; an exact
    table's is summed in its ints and divided once."""
    sizes = tuple(map(len, table.axes))
    if table.regime() == RATIONAL:
        ints, den = table.scaled()
        return [Fraction(n, den) for n in _sums(ints, sizes, keep)]
    return _sums(list(table.probs.values()), sizes, keep)


def bivariate(table: TreatmentTable, first: str, second: str) -> BivariateMarginal:
    """Ordered-pair marginal of the outputs for two distinct inputs.

    The argument order is preserved; swapping the inputs transposes the
    matrix, which matters because the distances are asymmetric.
    """
    if first == second:
        raise SameInput(f"bivariate marginal needs two distinct inputs, got {first!r} twice")
    i, j = table.design.index(first), table.design.index(second)
    lo, hi = min(i, j), max(i, j)
    sums = _marginal_sums(table, (lo, hi))
    width = len(table.axes[hi])
    probs = tuple(tuple(sums[r : r + width]) for r in range(0, len(sums), width))
    if i > j:
        probs = tuple(zip(*probs))
    return BivariateMarginal(
        table.axes[i], table.axes[j], probs, table.point(first), table.point(second)
    )
