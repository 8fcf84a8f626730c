"""Finite designs, treatments, and per-treatment joint output tables.

A *design* fixes an ordered family of deterministic inputs, the finite value
set of each input, and the set of allowable treatments (one value per
input).  A treatment set of ``None`` (the "full" marker in system files)
means every combination of input values is allowable; it is expanded
lazily.  For each allowable treatment the system holds a
:class:`TreatmentTable`: the joint distribution of the outputs observed
under that treatment, one output per input.

Every table holds its cells as ints over one per-table denominator
(:meth:`TreatmentTable.scaled`), dense in the row-major order of its
outcome axes, a float as the binary fraction it equals; a table with a
float cell is labelled "float".  The loader builds it that way straight
from the file's literals; a table built in code from a mapping scales its
values on first use.  Validation decides its sums and signs in these
ints, and :func:`marginalize` and :func:`bivariate` sum them and divide
once, so only a marginal is made of ``Fraction`` values.  ``probs``, the
mapping of outcome vectors to probabilities, is a view of ``Fraction``
values derived on first access and cached; a table built from a mapping
keeps that mapping as its view.

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
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .arith import EPS_SUM, FLOAT, RATIONAL, Num, is_exact, over_lcm, regime_of, shown, zero_of
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
        for t in self._cover_order():
            if all(t[self._index[n]] == w for n, w in assignment.items()):
                return t
        return None

    def _cover_order(self) -> list[tuple]:
        """A restricted design's treatments in value-index order, the order
        :meth:`cover` scans them in."""
        if self._sorted_treatments is None:
            self._sorted_treatments = sorted(self.treatments, key=self._value_index_key)
        return self._sorted_treatments

    def pair_covers(self) -> tuple[list[list], list[int], list[list[int]]]:
        """The cover of every ordered pair of points, self pairs included,
        as (C, near, third) over indices into :meth:`points`: C[i][j] is
        ``cover((pts[i], pts[j]))``; near[i] is a bit mask whose bit j is
        set when C[i][j] is not None; and third[i][j] is a bit mask whose
        bit k is set when ``cover((pts[i], pts[j], pts[k]))`` is not None,
        that is when some treatment holds all three points.

        A restricted design's treatments are passed once, in cover's
        order.  Each ordered pair of a treatment's points keeps the first
        treatment seen, the first that contains both, and ORs the
        treatment's points into its third mask.  A full design's covers
        are read from :meth:`cover`, once per unordered pair; there a set
        of points lies in a treatment when each pair of it does, so a
        covered pair's third mask is near[i] & near[j]."""
        pts = self.points()
        n = len(pts)
        C: list[list] = [[None] * n for _ in range(n)]
        near = [0] * n
        third = [[0] * n for _ in range(n)]
        if self.is_full:
            for i, p in enumerate(pts):
                for j in range(i, n):
                    C[i][j] = C[j][i] = found = self.cover((p, pts[j]))
                    if found is not None:
                        near[i] |= 1 << j
                        near[j] |= 1 << i
            for i in range(n):
                row, masks = C[i], third[i]
                for j in range(n):
                    if row[j] is not None:
                        masks[j] = near[i] & near[j]
            return C, near, third
        # per input position, the point index of each of its values
        index = []
        for name in self.inputs:
            base = sum(map(len, index))
            index.append({w: base + v for v, w in enumerate(self.values[name])})
        for t in self._cover_order():
            ks = list(map(dict.__getitem__, index, t))
            mask = sum(1 << k for k in ks)
            for i in ks:
                masks = third[i]
                for j in ks:
                    masks[j] |= mask
                new = mask & ~near[i]
                if new:
                    near[i] |= new
                    row = C[i]
                    for j in ks:
                        if new >> j & 1:
                            row[j] = t
        return C, near, third


_DISAGREE = "outcome sets for point {} disagree across tables"


def _point_axes(design: Design, tables: Iterable["TreatmentTable"]):
    """Each point's axis in the first table mentioning it, and the
    (point, treatment) pairs of later tables whose axis for the point is
    another set."""
    names = design.inputs
    # (position, value) -> axis, so that each InputPoint is made once
    first_axes: dict[tuple, tuple] = {}
    mismatches = []
    for t in tables:
        for at, axis in zip(enumerate(t.treatment), t.axes):
            first = first_axes.setdefault(at, axis)
            if first is not axis and set(first) != set(axis):
                mismatches.append((InputPoint(names[at[0]], at[1]), t.treatment))
    return {InputPoint(names[pos], value): axis for (pos, value), axis in first_axes.items()}, mismatches


def point_axes(design: Design, tables: Iterable["TreatmentTable"]) -> dict[InputPoint, tuple]:
    """The outcome axis of every input point the tables mention, in the
    order of the first table mentioning it; later tables must agree as
    sets, and the first that does not raises SystemFormatError.

    Under marginal selectivity the value set of the output for input λ
    depends only on the input point (λ, w), so one axis per point suffices.
    The common case is one axis per input, shared by all of its points.
    """
    axes, mismatches = _point_axes(design, tables)
    if mismatches:
        raise SystemFormatError(_DISAGREE.format(mismatches[0][0]))
    return axes


class TreatmentTable:
    """Joint distribution of all outputs under one treatment.

    ``probs`` maps full outcome vectors (one value per input, in design
    order) to probabilities.  Missing vectors are filled with zero so the
    table is dense over the product of its axes.  A table keeps its cells
    as ints over one denominator (:meth:`scaled`); ``probs`` is then
    derived from them on first access.  Numeric validity (sums, signs) is
    checked by :func:`validate_system`, not at construction, and a NaN or
    an infinity in a mapping is kept for it to name.
    """

    __slots__ = ("design", "treatment", "axes", "_regime", "_ints", "_den", "_probs")

    def __init__(self, design: Design, treatment, probs: Mapping[tuple, Num], axes=None):
        probs = {tuple(k): v for k, v in probs.items()}
        self._set_shape(design, treatment, axes, probs)
        dense = {}
        for outcome in itertools.product(*self.axes):
            dense[outcome] = probs.pop(outcome, _ZERO)
        if probs:
            bad = next(iter(probs))
            raise SystemFormatError(f"outcome {bad!r} outside the declared axes")
        self._regime = regime_of(dense.values())
        if self._regime == FLOAT:
            dense = {o: Fraction(p) if is_exact(p) or math.isfinite(p) else p for o, p in dense.items()}
        self._probs = dense
        self._ints = None
        self._den = None

    @classmethod
    def from_ints(cls, design: Design, treatment, axes, ints: Sequence[int], den: int) -> "TreatmentTable":
        """An exact table from its cells as ints over ``den``: ints[k] / den
        is the probability of the k-th outcome vector in the row-major
        order of ``axes``."""
        shape = cls.__new__(cls)
        shape._set_shape(design, treatment, axes, ())
        ints = list(ints)
        if len(ints) != math.prod(map(len, shape.axes)):
            raise SystemFormatError("one cell per outcome vector required")
        if den <= 0:
            raise SystemFormatError("the denominator must be positive")
        return cls._from_parts(design, shape.treatment, shape.axes, RATIONAL, ints=ints, den=den)

    @classmethod
    def _from_parts(cls, design: Design, treatment: tuple, axes: tuple, regime: str,
                    ints: list[int], den: int) -> "TreatmentTable":
        """A table from parts already checked as ``_set_shape`` and
        ``from_ints`` check them; ``axes`` is kept as given, so tables of
        one layout can share it."""
        table = cls.__new__(cls)
        table.design = design
        table.treatment = treatment
        table.axes = axes
        table._regime = regime
        table._ints = ints
        table._den = den
        table._probs = None
        return table

    def _labelled(self, regime: str) -> "TreatmentTable":
        """This table's cells under the label `regime`."""
        return self._from_parts(self.design, self.treatment, self.axes, regime, *self.scaled())

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
        """The cells as (ints, den): ints[k] / den is the k-th probability
        in ``probs`` order.  A table built in code with a NaN or an
        infinite cell raises TypeError."""
        if self._ints is None:
            self._ints, self._den = over_lcm(self._probs.values())
        return self._ints, self._den

    def axis(self, name: str) -> tuple:
        return self.axes[self.design.index(name)]

    def prob(self, outcome: tuple) -> Num:
        return self.probs[tuple(outcome)]

    def total(self) -> Fraction:
        ints, den = self.scaled()
        return Fraction(sum(ints), den)

    def univariate(self, name: str) -> dict:
        """Marginal distribution of the single output for input `name`."""
        return marginalize(self, (name,))

    def point(self, name: str) -> InputPoint:
        return InputPoint(name, self.treatment[self.design.index(name)])

    def regime(self) -> str:
        """The table's label: "float" when a cell was read from a float."""
        return self._regime


def _system_label(tables: Iterable[TreatmentTable]) -> str:
    """A system's label: "float" when a table is (:func:`~ordist.arith.shown`)."""
    return FLOAT if any(t.regime() == FLOAT for t in tables) else RATIONAL


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
        zero = zero_of(self.probs.values())
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
    zero = zero_of(dist.values())
    probs = tuple(
        tuple(dist.get(a, zero) if a == b else zero for b in values) for a in values
    )
    return BivariateMarginal(values, values, probs, point, point)


_ZERO = Fraction(0)


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
    all; the JSON report carries it only when it is nonempty.  ``axes``
    holds each input point's axis in the first table mentioning it: on a
    valid system, what :func:`point_axes` returns."""

    ok: bool
    issues: tuple[ValidationIssue, ...]
    regime: str
    sum_errors: Mapping[tuple, Num]
    axes: Mapping[InputPoint, tuple]
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


def _check_exact_table(t: TreatmentTable, issues: list, sum_errors: dict, eps_sum: tuple[int, int]) -> None:
    """Signs and sum of a table, decided on its ints: the sum must be 1, or
    for a table labelled "float" within eps_sum, a (numerator, denominator)
    pair.  A Fraction is made only for a nonzero sum error or an issue."""
    try:
        ints, den = t.scaled()
    except TypeError:  # a NaN or an infinity, which only a table built in code holds
        outcome, p = next((o, p) for o, p in t.probs.items() if not is_exact(p))
        message = f"non-finite probability {p} at {outcome!r} in treatment {t.treatment!r}"
        issues.append(ValidationIssue("NonFiniteProbability", message, t.treatment))
        return
    regime = t.regime()
    if min(ints) < 0:
        k = next(k for k, n in enumerate(ints) if n < 0)
        outcome = next(itertools.islice(itertools.product(*t.axes), k, None))
        issues.append(_negative(t, outcome, shown(Fraction(ints[k], den), regime)))
    excess = sum(ints) - den
    sum_errors[t.treatment] = delta = Fraction(excess, den) if excess else _ZERO
    bad = abs(excess) * eps_sum[1] > eps_sum[0] * den if regime == FLOAT else excess
    if bad:
        issues.append(_sum_not_one(t, shown(delta, regime)))


def validate_system(design: Design, tables: Iterable[TreatmentTable], eps_sum: float = EPS_SUM) -> ValidationReport:
    """Check tables against the design: one table per treatment, probabilities
    finite, nonnegative and summing to one (a "float" table's within eps_sum),
    and outcome value sets consistent across tables sharing an input point.

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

    tolerance = eps_sum.as_integer_ratio()
    for t in tables:
        _check_exact_table(t, issues, sum_errors, tolerance)

    # outcome-set consistency per input point across tables
    axes, mismatches = _point_axes(design, tables)
    for pt, treatment in mismatches:
        issues.append(ValidationIssue("ValueSetMismatch", _DISAGREE.format(pt), treatment))

    return ValidationReport(
        ok=not issues,
        issues=tuple(issues),
        regime=_system_label(tables),
        sum_errors=sum_errors,
        axes=axes,
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
    order over the kept axes."""
    add = operator.add
    return [functools.reduce(add, get(cells)) for get in _summands(sizes, keep)]


#: how many map objects :func:`_column_sums` nests at most, which bounds the
#: depth of the C calls that pull one sum through them
_NEST = 64


def _column_sums(columns: Sequence[tuple], sizes: tuple, keep: tuple) -> list[tuple]:
    """:func:`_sums` of several tables of one layout at once.  ``columns``
    holds one tuple per cell, of that cell's value in each table (the
    tables' cells transposed); returns one tuple per vector of kept values,
    of each table's sum, as :func:`_sums` gives it."""
    stack = functools.partial(map, operator.add)
    out = []
    for get in _summands(sizes, keep):
        cols = get(columns)
        acc = cols[0]
        for k in range(1, len(cols), _NEST):
            acc = tuple(functools.reduce(stack, cols[k : k + _NEST], acc))
        out.append(acc)
    return out


@functools.lru_cache(maxsize=64)
def _lattice_plan(sizes: tuple) -> tuple:
    """The steps of :func:`_lattice_sums` on axes of `sizes`: per proper
    nonempty subset keep of the positions (the one position when there is
    one), larger subsets first, each size in combinations order,
    (keep, parent, the parent's sizes, keep's positions in the parent),
    the parent being the subset over one more position with the fewest
    cells, the first such in combinations order (the full set for the
    largest)."""
    n = len(sizes)
    steps = []
    for k in range(n - 1, 0, -1):
        for keep in itertools.combinations(range(n), k):
            # inserting a smaller position gives a parent earlier in
            # combinations order
            parent = min(
                (tuple(sorted((*keep, j))) for j in range(n) if j not in keep),
                key=lambda s: math.prod(map(sizes.__getitem__, s)),
            )
            steps.append((keep, parent, tuple(map(sizes.__getitem__, parent)), tuple(map(parent.index, keep))))
    if n == 1:
        steps.append(((0,), (0,), sizes, (0,)))
    return tuple(steps)


def _lattice_sums(columns: Sequence[tuple], sizes: tuple) -> Iterator[tuple[tuple, list[tuple]]]:
    """(keep, :func:`_column_sums` of `columns` over keep) for every proper
    nonempty subset `keep` of the positions of `sizes` (the one position
    when there is one): larger subsets first, each size in
    :func:`itertools.combinations` order.

    This is the data-cube lattice of Harinarayan, Rajaraman & Ullman
    ("Implementing data cubes efficiently", SIGMOD 1996): each subset is
    summed from the marginal already summed over one more position that
    has the fewest cells (:func:`_lattice_plan`), so only the largest
    subsets are summed from the full cells.  Only two sizes of marginals
    are held at once."""
    above, below = {}, {tuple(range(len(sizes))): columns}
    for keep, parent, parent_sizes, at in _lattice_plan(sizes):
        if parent not in above:
            # a new size: the subsets summed last are the parents now
            above, below = below, {}
        sums = below[keep] = _column_sums(above[parent], parent_sizes, at)
        yield keep, sums


def _marginal_sums(table: TreatmentTable, keep: tuple) -> list[Fraction]:
    """The marginal over the positions `keep` in row-major order, summed
    in the table's ints and divided once."""
    ints, den = table.scaled()
    return [Fraction(n, den) for n in _sums(ints, tuple(map(len, table.axes)), keep)]


def _pair_grid(table: TreatmentTable, i: int, j: int, cells: Sequence) -> tuple:
    """`cells`, dense in the table's row-major order, summed down to the
    input positions i != j as a grid: one row per value of axes[i], one
    column per value of axes[j]."""
    lo, hi = min(i, j), max(i, j)
    sums = _sums(cells, tuple(map(len, table.axes)), (lo, hi))
    width = len(table.axes[hi])
    grid = tuple(tuple(sums[r : r + width]) for r in range(0, len(sums), width))
    return tuple(zip(*grid)) if i > j else grid


def bivariate(table: TreatmentTable, first: str, second: str) -> BivariateMarginal:
    """Ordered-pair marginal of the outputs for two distinct inputs.

    The argument order is preserved; swapping the inputs transposes the
    matrix, which matters because the distances are asymmetric.  The pair
    sums are taken in the table's ints and divided once.
    """
    if first == second:
        raise SameInput(f"bivariate marginal needs two distinct inputs, got {first!r} twice")
    i, j = table.design.index(first), table.design.index(second)
    ints, den = table.scaled()
    probs = tuple(tuple(Fraction(n, den) for n in row) for row in _pair_grid(table, i, j, ints))
    return BivariateMarginal(
        table.axes[i], table.axes[j], probs, table.point(first), table.point(second)
    )
