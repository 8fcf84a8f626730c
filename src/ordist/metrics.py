"""Pseudo-quasi-metrics on jointly distributed outputs.

Every metric here evaluates a :class:`BivariateMarginal` to a nonnegative
number, vanishes on the diagonal coupling of a variable with itself, and
satisfies the triangle inequality whenever the two marginals come from one
joint distribution.  Symmetry is *not* assumed anywhere: symmetrization is
an explicit SumOf/MaxOf transform, never silent (a symmetrized violation always
implies a violation of the raw metric, not vice versa).

The workhorse is the order-distance D(A, B) = Pr[A strictly below B] for a
total preorder given by integer ranks; ties contribute nothing.  The rest
of the zoo: classification distance (order-distance of ranked partitions),
Minkowski-style d^(p) on numeric embeddings, conditional entropy, the
Fréchet distance E[|A-B| / (1+|A-B|)], separation distance
Pr[A <= U < B], and expectation lifts of ground distances.  New metrics
arise from the transform classes, each itself a Metric wrapping others:
PowerOf (q-th power, q <= 1), BoundedOf (d/(1+d)), MaxOf and SumOf
(pairwise), and MixtureOf (finite mixtures).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence, Union

from .arith import Num, digit_limit, is_exact, zero_of
from .errors import (
    GroundAxiomViolation,
    InvalidExponent,
    InvalidP,
    MetricEvaluationError,
    UnrankedValue,
    ValueNotInPartition,
)
from .probspace import BivariateMarginal, InputPoint, JointDist

#: support cutoff for the essential supremum on float cells (marginals built in code)
EPS_SUPP = 1e-12

Embedding = Union[Mapping, Callable[[object], Num]]


def as_embedding(embed: Embedding) -> Callable[[object], Num]:
    if callable(embed):
        return embed

    def lookup(v, _m=embed):
        try:
            return _m[v]
        except KeyError:
            raise MetricEvaluationError(f"value {v!r} has no numeric embedding") from None

    return lookup


def numeric_embedding(value) -> Fraction:
    """Embed labels that are themselves numbers (or numeric strings)."""
    if isinstance(value, str):
        return _numeric_label(value)
    if isinstance(value, bool):
        raise MetricEvaluationError("bool label has no numeric meaning")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    return _label_value(value)


def _label_value(value) -> Fraction:
    try:
        return Fraction(str(value))
    except ValueError:
        raise MetricEvaluationError(f"label {value!r} is not numeric") from None


#: str labels recur in every table of a system: each is parsed once
_numeric_label = functools.lru_cache(maxsize=4096)(_label_value)


@dataclass(frozen=True)
class OrderSpec:
    """A total preorder on outcome values via integer ranks >= 1.

    ``rank`` applies globally; ``per_point`` overrides it for specific
    input points (the marginal must then carry its point context).  Equal
    ranks mean equivalent values; strictly smaller rank means strictly
    below.
    """

    rank: Mapping = field(default_factory=dict)
    per_point: Mapping[InputPoint, Mapping] = field(default_factory=dict)

    def __post_init__(self):
        for r in self.rank.values():
            _check_rank(r)
        for m in self.per_point.values():
            for r in m.values():
                _check_rank(r)

    def rank_of(self, value, point: Optional[InputPoint] = None) -> int:
        if point is not None:
            m = self.per_point.get(point)
            if m is not None and value in m:
                return m[value]
        try:
            return self.rank[value]
        except KeyError:
            raise UnrankedValue(f"value {value!r} has no rank") from None


def _check_rank(r):
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise UnrankedValue(f"ranks must be integers >= 1, got {r!r}")


def _overflow_is_input_error(evaluate):
    """An ``evaluate`` whose arithmetic meets a value too large for a float
    (a huge embedding, ground distance or weight mixed with floats) raises
    MetricEvaluationError, naming the metric, instead of OverflowError."""

    @functools.wraps(evaluate)
    def checked(self, m):
        try:
            return evaluate(self, m)
        except OverflowError:
            raise MetricEvaluationError(f"{self.describe()} overflows a float") from None

    return checked


class Metric:
    """Base class: an immutable evaluator on bivariate marginals."""

    def evaluate(self, m: BivariateMarginal) -> Num:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class _RankedMetric(Metric):
    """The order-distance family: Pr[A strictly below B] under integer
    ranks of each point's outcomes, given by :meth:`rank_of`."""

    def rank_of(self, value, point: Optional[InputPoint]) -> int:
        raise NotImplementedError

    def evaluate(self, m: BivariateMarginal) -> Num:
        total = _mass_below(m.row_values, m.col_values, m.probs, self.rank_of, m.row_point, m.col_point)
        return total if total is not None else zero_of(chain(*m.probs))


def _mass_below(rows: Sequence, cols: Sequence, grid: Sequence[Sequence], rank_of,
                row_point: Optional[InputPoint], col_point: Optional[InputPoint]):
    """The order-distance family's one summing loop, over a grid of cells
    of any number type: the sum of grid[i][j], left to right in row-major
    order, over the cells whose row value rows[i] ranks strictly below its
    column value cols[j] under ``rank_of(value, point)``; None when there
    is no such cell.  Ranks are looked up only for cells of positive mass,
    row value first.  :meth:`_RankedMetric.evaluate` runs it on a
    marginal's values, the chain suite on an exact table's int pair sums."""
    total = None
    for a, line in zip(rows, grid):
        for b, p in zip(cols, line):
            if p == 0:
                continue
            if rank_of(a, row_point) < rank_of(b, col_point):
                total = p if total is None else total + p
    return total


@dataclass(frozen=True)
class OrderDistance(_RankedMetric):
    order: OrderSpec
    name: str = "order"

    def rank_of(self, value, point: Optional[InputPoint]) -> int:
        return self.order.rank_of(value, point)

    def describe(self) -> str:
        return self.name


def default_order_metric(axes: Mapping[InputPoint, Sequence]) -> OrderDistance:
    """The order-distance ``check`` uses when no metric is given, from the
    tables' per-point axes as :func:`~ordist.probspace.point_axes` gives
    them: each point's outcomes ranked by their place in its axis."""
    per_point = {pt: {v: k + 1 for k, v in enumerate(axis)} for pt, axis in axes.items()}
    return OrderDistance(OrderSpec({}, per_point), "order:index")


@dataclass(frozen=True)
class ClassificationDistance(_RankedMetric):
    """Order-distance whose ranks come from ordered partitions of the value
    sets: rank(a) = index of the cell containing a (1-based)."""

    cells: tuple = ()
    per_point: Mapping[InputPoint, tuple] = field(default_factory=dict)
    name: str = "classification"

    def rank_of(self, value, point: Optional[InputPoint]) -> int:
        cells = self.per_point.get(point, self.cells) if point is not None else self.cells
        for k, cell in enumerate(cells, start=1):
            if value in cell:
                return k
        raise ValueNotInPartition(f"value {value!r} is in no partition cell")

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class PDistance(Metric):
    """d^(p)(A,B) = (E|A-B|^p)^(1/p); for p = infinity the essential
    supremum of |A-B|, which on finite support is the max over cells of
    positive probability."""

    embed: Embedding
    p: Union[int, float, Fraction] = 1

    def __post_init__(self):
        if self.p != math.inf and not self.p >= 1:
            raise InvalidP(f"p must be >= 1 or infinity, got {self.p!r}")

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        f = as_embedding(self.embed)
        if self.p == math.inf:
            best = None
            for a, b, p in m.cells():
                if (p > 0) if is_exact(p) else (p > EPS_SUPP):
                    d = abs(f(a) - f(b))
                    if best is None or d > best:
                        best = d
            return best if best is not None else zero_of(chain(*m.probs))
        total = None
        for a, b, p in m.cells():
            if p == 0:
                continue
            d = abs(f(a) - f(b))
            term = p * d if self.p == 1 else p * _power(d, self.p)
            total = term if total is None else total + term
        if total is None:
            return zero_of(chain(*m.probs))
        if self.p == 1 or total == 0:
            return total
        return float(total) ** (1.0 / float(self.p))

    def describe(self) -> str:
        return f"d^({self.p})"


def _power(d: Num, p) -> Num:
    """d ** p, refusing an exact power too large to build.  With d and p
    exact and p an integer, the power's larger term has more than
    p * (b - 1) bits, b the bit length of d's larger term, so the power
    is refused when that passes :func:`~ordist.arith.digit_limit` digits,
    before any of it is computed.  d = 0 and d = 1 give b = 1 and pass."""
    if is_exact(d) and is_exact(p) and p.denominator == 1:
        bits = p * (max(d.numerator, d.denominator).bit_length() - 1)
        if bits > digit_limit() * math.log2(10):
            raise MetricEvaluationError(
                f"an exact power |a - b|^p would have more than {digit_limit()} digits"
            )
    return d ** p


@dataclass(frozen=True)
class ConditionalEntropy(Metric):
    """h(A|B) = -sum p(a,b) log(p(a,b)/p_B(b)), with 0 log 0 = 0.

    Always returns a float (logs are irrational); the default base 2 gives
    bits.
    """

    base: float = 2.0

    def __post_init__(self):
        if not self.base > 1:
            raise ValueError(f"log base must exceed 1, got {self.base!r}")

    def evaluate(self, m: BivariateMarginal) -> float:
        col = m.col_marginal()
        h = 0.0
        for a, b, p in m.cells():
            if p == 0:
                continue
            ratio = p / col[b]
            if ratio != 1:
                h -= float(p) * math.log(float(ratio))
        if h < 0.0:
            h = 0.0
        return h / math.log(self.base)

    def describe(self) -> str:
        return f"entropy(base={self.base:g})"


@dataclass(frozen=True)
class FrechetDistance(Metric):
    """F(A,B) = E[|A-B| / (1 + |A-B|)], always below 1."""

    embed: Embedding

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        f = as_embedding(self.embed)
        total = None
        for a, b, p in m.cells():
            if p == 0:
                continue
            d = abs(f(a) - f(b))
            term = p * d / (1 + d)
            total = term if total is None else total + term
        return total if total is not None else zero_of(chain(*m.probs))

    def describe(self) -> str:
        return "frechet"


@dataclass(frozen=True)
class SeparationDistance(Metric):
    """d_S(A,B) = Pr[A <= U < B] for an auxiliary variable U independent of
    (A, B).  ``u_dist`` maps U-values to probabilities; U-values are run
    through the same embedding as the outcome values.

    For U jointly distributed with (A, B) use the free function
    :func:`separation_distance` on a trivariate table instead.
    """

    u_dist: Mapping
    embed: Embedding

    def evaluate(self, m: BivariateMarginal) -> Num:
        f = as_embedding(self.embed)
        us = [(f(u), q) for u, q in self.u_dist.items()]
        total = None
        for a, b, p in m.cells():
            if p == 0:
                continue
            ea, eb = f(a), f(b)
            for eu, q in us:
                if q != 0 and ea <= eu < eb:
                    term = p * q
                    total = term if total is None else total + term
        return total if total is not None else zero_of(chain(*m.probs))

    def describe(self) -> str:
        return "separation"


@dataclass(frozen=True)
class ExpectedGround(Metric):
    """E[g(A,B)] for a ground distance g on the labels themselves.

    The expectation preserves inequalities that hold pointwise, so the lift
    is a p.q.-metric whenever g is; g is validated exhaustively over the
    declared value set at construction.
    """

    ground: Mapping[tuple, Num]
    values: tuple = ()

    def __post_init__(self):
        values = tuple(self.values) if self.values else tuple(
            sorted({v for pair in self.ground for v in pair}, key=repr)
        )
        object.__setattr__(self, "values", values)
        # the axioms are checked exactly: a finite float entry as the
        # Fraction it equals, so that no float rounds a sum, and an entry
        # loads alike whether it came as a float or as an exact literal
        g = {
            k: Fraction(v) if isinstance(v, float) and math.isfinite(v) else v
            for k, v in self.ground.items()
        }
        for v in values:
            if g.get((v, v), None) != 0:
                raise GroundAxiomViolation(f"ground distance g({v!r},{v!r}) must be 0")
        for a in values:
            for b in values:
                if (a, b) not in g:
                    raise GroundAxiomViolation(f"ground distance missing pair ({a!r},{b!r})")
                if g[(a, b)] < 0:
                    raise GroundAxiomViolation(f"ground distance g({a!r},{b!r}) is negative")
        for a in values:
            for b in values:
                for c in values:
                    if g[(a, c)] > g[(a, b)] + g[(b, c)]:
                        raise GroundAxiomViolation(
                            f"ground triangle fails at ({a!r},{b!r},{c!r})"
                        )

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        total = None
        for a, b, p in m.cells():
            if p == 0:
                continue
            try:
                term = p * self.ground[(a, b)]
            except KeyError:
                raise MetricEvaluationError(
                    f"ground distance not defined on ({a!r},{b!r})"
                ) from None
            total = term if total is None else total + term
        return total if total is not None else zero_of(chain(*m.probs))

    def describe(self) -> str:
        return "E[ground]"


# --- transforms -----------------------------------------------------------


@dataclass(frozen=True)
class PowerOf(Metric):
    base: Metric
    q: Union[float, Fraction]

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise InvalidExponent(f"power transform needs 0 < q <= 1, got {self.q!r}")

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        d = self.base.evaluate(m)
        if self.q == 1 or d == 0:
            return d
        return float(d) ** float(self.q)

    def describe(self) -> str:
        return f"({self.base.describe()})^{self.q}"


@dataclass(frozen=True)
class BoundedOf(Metric):
    base: Metric

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        d = self.base.evaluate(m)
        return d / (1 + d)

    def describe(self) -> str:
        return f"bounded({self.base.describe()})"


@dataclass(frozen=True)
class MaxOf(Metric):
    first: Metric
    second: Metric

    def evaluate(self, m: BivariateMarginal) -> Num:
        return max(self.first.evaluate(m), self.second.evaluate(m))

    def describe(self) -> str:
        return f"max({self.first.describe()},{self.second.describe()})"


@dataclass(frozen=True)
class SumOf(Metric):
    first: Metric
    second: Metric

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        return self.first.evaluate(m) + self.second.evaluate(m)

    def describe(self) -> str:
        return f"sum({self.first.describe()},{self.second.describe()})"


@dataclass(frozen=True)
class MixtureOf(Metric):
    """Finite mixture sum_i w_i d_i with nonnegative weights summing to 1."""

    components: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("mixture needs matching, nonempty components and weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("mixture weights must be nonnegative")
        total = sum(self.weights)
        bad = total != 1 if is_exact(total) else abs(total - 1) > 1e-9
        if bad:
            raise ValueError(f"mixture weights sum to {total}, expected 1")

    @_overflow_is_input_error
    def evaluate(self, m: BivariateMarginal) -> Num:
        total = None
        for w, metric in zip(self.weights, self.components):
            if w == 0:
                continue
            term = w * metric.evaluate(m)
            total = term if total is None else total + term
        return total if total is not None else zero_of(chain(*m.probs))

    def describe(self) -> str:
        inner = ",".join(c.describe() for c in self.components)
        return f"mixture({inner})"


def separation_distance(trivariate: JointDist, embed: Embedding) -> Num:
    """Pr[A <= U < B] for a joint table over the ordered triple (A, U, B).

    U may depend on A and B here; the SeparationDistance metric covers the
    independent-U case directly from a bivariate marginal.
    """
    if len(trivariate.axes) != 3:
        raise MetricEvaluationError("separation distance needs a trivariate table")
    f = as_embedding(embed)
    total = None
    for (a, u, b), p in trivariate.probs.items():
        if p != 0 and f(a) <= f(u) < f(b):
            total = p if total is None else total + p
    return total if total is not None else zero_of(trivariate.probs.values())


def triangle_defect(d_ax: Num, d_xb: Num, d_ab: Num) -> Num:
    """d(A,X) + d(X,B) - d(A,B).

    Nonnegative for any p.q.-metric on one joint distribution; for
    order-distances it also never exceeds 1 (the five events making it up
    are pairwise exclusive).  A defect outside [0,1] flags inputs that do
    not come from a single joint distribution.
    """
    return d_ax + d_xb - d_ab
