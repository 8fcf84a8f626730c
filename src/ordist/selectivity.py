"""Marginal selectivity, treatment-realizable sequences, and chain tests.

The question answered here: can the observed per-treatment joint output
distributions coexist as restrictions of one jointly distributed set with
one variable per input point?  That hypothetical joint carries every
p.q.-metric, so its chain inequality

    d(H_1, H_l) <= sum_i d(H_{i-1}, H_i)

must hold whenever each pair of adjacent points (and the closing pair) is
observable inside some allowable treatment — a *treatment-realizable*
sequence.  A single violated chain refutes the joint, hence refutes
selective influence.  Testing only *irreducible* sequences suffices: a
violated reducible chain always contains a violated subchain, because any
extra pair lying inside one treatment splits the chain into two shorter
realizable ones.  For full factorial designs the irreducible sequences are
exactly the alternating tetrads x, y, s, t over two distinct inputs.

Irreducibility is decided by pairs.  An index subset lying inside a
treatment has every pair of it inside that treatment too, and the pairs
irreducibility allows (the adjacent pairs and the closing pair) form an
l-cycle, which for l >= 4 holds no triangle.  So a sequence of length
l >= 4 is irreducible exactly when its endpoints differ and no other pair
of its points shares a treatment; for l = 3 every pair is allowed and only
the triple is checked.  A repeated point shares a treatment with itself,
so repeats need no special case.  On a restricted design the suite walks
the sequences depth first, as tuples of point indices over the design's
cover graph (for each point, the points it shares a treatment with), and
extends a prefix only by a point that shares no treatment with an earlier
point two or more places back (the first point excepted when it closes
the sequence), so it reaches the irreducible sequences without visiting
the far more numerous reducible ones.

All d-values are taken from the witnessing treatments' bivariate
marginals; under marginal selectivity (checked separately) they do not
depend on which witness covers a pair.

Both design kinds decide chains on one distance table per metric: the
distance of every ordered pair of points a tested sequence can use (the
tetrad pairs of a full design, else every covered pair of distinct
points), evaluated once on the pair's joint inside its cover and, when all
are exact, scaled by the lcm of their denominators to plain ints.  A
sequence is screened by its residual on that table (an int, or the raw
values with the float tolerance).  A restricted design's walked sequences
are each screened.  A full design's tetrads x, y, x', y' are counted in
closed form, and only those whose residual may be below the limit are
visited: the residual is f(y) + g(y'), f(y) = d(x, y) + d(y, x') and
g(y') = d(x', y') - d(x, y'), so per triple x, y, x' the y' with
g(y') < -f(y) are a prefix of the other input's points sorted by g, found
by bisection.  On an int table that prefix is exact; on a raw-value table
it is taken over the values as floats, with a slack that covers the
rounding.  A flagged chain is reported from the tables the screen built
beside the distances: the raw values, the covering treatments, and the
int residual over the lcm denominator, or on a raw-value table the
residual :func:`_chain_residual` adds over the raw values.  The
marginal-selectivity check sums the marginals of all tables of one cell
layout together, column by column over their integer-scaled cells, and
compares each class of tables in one pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq, itemgetter, lt, mul, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .arith import EPS_TEST, RATIONAL, Num, is_exact, num_to_json, over_lcm
from .errors import CapExceeded, SystemFormatError
from .metrics import Metric
from .probspace import (
    BivariateMarginal,
    Design,
    InputPoint,
    TreatmentTable,
    bivariate,
    diagonal_coupling,
    _column_sums,
    _keyed,
)

MAX_SEQUENCES = 1_000_000


@dataclass(frozen=True)
class SequenceWitness:
    """A treatment-realizable sequence of input points with covering
    treatments: covers[0] contains {points[0], points[-1]} and covers[i]
    contains {points[i-1], points[i]} for i >= 1."""

    points: tuple[InputPoint, ...]
    covers: tuple[tuple, ...]

    def __len__(self):
        return len(self.points)

    def as_json(self):
        return [p.as_json() for p in self.points]


@dataclass(frozen=True)
class ChainReport:
    """One chain-inequality evaluation: residual = sum(rhs_terms) - lhs,
    negative residual (beyond tolerance in float mode) means violation."""

    sequence: tuple[InputPoint, ...]
    metric: str
    lhs: Num
    rhs_terms: tuple[Num, ...]
    residual: Num
    violated: bool
    covers: Optional[tuple[tuple, ...]] = None

    def as_json(self):
        return {
            "sequence": [p.as_json() for p in self.sequence],
            "metric": self.metric,
            "lhs": num_to_json(self.lhs),
            "rhs_terms": [num_to_json(t) for t in self.rhs_terms],
            "residual": num_to_json(self.residual),
            "violated": self.violated,
        }


@dataclass(frozen=True, eq=False)
class MarginalSelectivityReport:
    """Worst disagreement between marginals that should coincide."""

    passed: bool
    max_discrepancy: Num
    witness: Optional[dict]
    classes: tuple = ()

    def as_json(self):
        out = {
            "passed": self.passed,
            "max_discrepancy": num_to_json(self.max_discrepancy),
        }
        if self.witness is not None:
            w = dict(self.witness)
            w["discrepancy"] = num_to_json(w["discrepancy"])
            out["witness"] = w
        else:
            out["witness"] = None
        return out


@dataclass(frozen=True, eq=False)
class SuiteReport:
    sequences_tested: int
    violations: tuple[ChainReport, ...]
    metrics: tuple[str, ...]
    truncated: bool = False

    def as_json(self):
        return {
            "sequences_tested": self.sequences_tested,
            "violations": [v.as_json() for v in self.violations],
            "metrics": list(self.metrics),
            "truncated": self.truncated,
        }


def _cover_graph(design: Design) -> list[frozenset]:
    """For each point of ``design.points()``, the indices of the points it
    shares a treatment with (itself included when any treatment holds it)."""
    pts = design.points()
    return [
        frozenset(j for j, y in enumerate(pts) if design.cover((x, y)) is not None) for x in pts
    ]


def _may_follow(
    prefix: Sequence[int],
    y: int,
    length: int,
    near: Sequence[frozenset],
    pts: Sequence[InputPoint],
    design: Design,
) -> bool:
    """Whether point index y, at index j = len(prefix) of a sequence of
    `length`, keeps an irreducible-so-far prefix of point indices
    irreducible.  ``near[y]`` is the set of indices whose points lie in a
    common treatment with ``pts[y]``.

    y must share no treatment with an earlier point at index i, j - i >= 2,
    except the first point when y closes the sequence; a closing y must
    differ from the first point, and for length 3 the triple must lie in
    no treatment."""
    j = len(prefix)
    closing = j == length - 1
    if not near[y].isdisjoint(prefix[1 if closing else 0 : j - 1]):
        return False
    if closing:
        triple = (pts[k] for k in (*prefix, y))
        return y != prefix[0] and (length != 3 or design.cover(triple) is None)
    return True


def _walk(
    design: Design, near: Sequence[frozenset], max_len: int, irreducible: bool
) -> Iterator[tuple[int, ...]]:
    """The one depth-first walk over treatment-realizable sequences of
    length 3..max_len on the cover graph `near` of :func:`_cover_graph`, as
    tuples of indices into ``design.points()``: shortest first,
    lexicographic within each length.  With `irreducible` a prefix is
    extended only by a point that :func:`_may_follow` it, so only
    irreducible sequences are reached."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    pts = design.points()
    adj = [sorted(js) for js in near]
    for length in range(3, max_len + 1):
        stack: list[int] = []

        def walk() -> Iterator[tuple[int, ...]]:
            for y in adj[stack[-1]]:
                if irreducible and not _may_follow(stack, y, length, near, pts, design):
                    continue
                if len(stack) < length - 1:
                    stack.append(y)
                    yield from walk()
                    stack.pop()
                elif stack[0] in near[y]:
                    yield (*stack, y)

        for x in range(len(pts)):
            stack.append(x)
            yield from walk()
            stack.pop()


def _witness(points: tuple[InputPoint, ...], design: Design) -> SequenceWitness:
    """A realizable sequence with its closing cover, then its step covers."""
    steps = tuple(design.cover(points[i - 1 : i + 1]) for i in range(1, len(points)))
    return SequenceWitness(points, (design.cover((points[0], points[-1])), *steps))


def _witnesses(
    design: Design, seqs: Iterator[tuple[int, ...]], cap: int, kind: str
) -> Iterator[SequenceWitness]:
    """Point-index sequences as witnesses; raises CapExceeded past `cap`."""
    pts = design.points()
    for count, seq in enumerate(seqs, 1):
        if count > cap:
            raise CapExceeded(f"more than {cap} {kind} sequences")
        yield _witness(tuple(pts[k] for k in seq), design)


def enumerate_realizable(
    design: Design, max_len: int = 6, cap: int = MAX_SEQUENCES
) -> Iterator[SequenceWitness]:
    """All treatment-realizable sequences of length 3..max_len, shortest
    first, lexicographic within each length (design input order, declared
    value order).  Raises CapExceeded past `cap` yields."""
    seqs = _walk(design, _cover_graph(design), max_len, irreducible=False)
    return _witnesses(design, seqs, cap, "realizable")


def is_irreducible(points: Sequence[InputPoint], design: Design) -> bool:
    """True when the only index subsequences of size > 1 lying inside some
    treatment are the closing pair {first, last} and the adjacent pairs,
    and the endpoints differ.

    Decided by pairs: a subset inside a treatment has all its pairs
    inside it, and the allowed pairs form an l-cycle, which for l >= 4
    holds no triangle, so for l >= 4 a covered subset of size >= 3 always
    has a covered pair that is not allowed.  For l = 3 every pair is
    allowed and only the triple is checked."""
    distinct = list(dict.fromkeys(points))
    index = {p: k for k, p in enumerate(distinct)}
    near = [
        frozenset(k for k, q in enumerate(distinct) if design.cover((p, q)) is not None)
        for p in distinct
    ]
    seq = [index[p] for p in points]
    l = len(seq)
    return seq[0] != seq[-1] and all(
        _may_follow(seq[:j], seq[j], l, near, distinct, design) for j in range(1, l)
    )


def enumerate_irreducible(
    design: Design, max_len: int = 6, cap: int = MAX_SEQUENCES
) -> Iterator[SequenceWitness]:
    """Irreducible treatment-realizable sequences, same order as
    :func:`enumerate_realizable`.  Raises CapExceeded past `cap`
    irreducible sequences.

    Full factorial designs skip straight to the alternating tetrads over
    two distinct inputs, the only irreducible shape they admit.  Other
    designs are walked depth first, extending only prefixes that can
    still become irreducible.
    """
    if design.is_full:
        seqs = _tetrad_indices(design) if max_len >= 4 else iter(())
    else:
        seqs = _walk(design, _cover_graph(design), max_len, True)
    return _witnesses(design, seqs, cap, "irreducible")


def _tetrad_indices(design: Design) -> Iterator[tuple[int, int, int, int]]:
    """Indices into ``design.points()`` of the alternating tetrads
    x, y, x', y' of a full design: x and x' distinct points of one input,
    y and y' distinct points of another.  This is the one tetrad order:
    x, then y, then x', then y', each over the points in design order."""
    pts = design.points()
    of_input = {
        name: [i for i, p in enumerate(pts) if p.input == name] for name in design.inputs
    }
    for a, x in enumerate(pts):
        xs = [c for c in of_input[x.input] if c != a]
        for b, y in enumerate(pts):
            if y.input == x.input:
                continue
            ys = [d for d in of_input[y.input] if d != b]
            for c in xs:
                for d in ys:
                    yield a, b, c, d


def _tables_by_treatment(tables: Iterable[TreatmentTable]) -> Mapping[tuple, TreatmentTable]:
    if isinstance(tables, Mapping):
        return tables
    return {t.treatment: t for t in tables}


def _pair_marginal(table: TreatmentTable, x: InputPoint, y: InputPoint) -> BivariateMarginal:
    if x == y:
        return diagonal_coupling(table.axis(x.input), table.univariate(x.input), x)
    return bivariate(table, x.input, y.input)


def _cover_marginal(
    by_t: Mapping[tuple, TreatmentTable], x: InputPoint, y: InputPoint, cover: tuple
) -> BivariateMarginal:
    """Joint of the outputs at x and y inside the covering treatment."""
    try:
        table = by_t[cover]
    except KeyError:
        raise SystemFormatError(f"no table for covering treatment {cover!r}") from None
    return _pair_marginal(table, x, y)


def _chain_residual(
    lhs: Num, rhs: tuple[Num, ...], eps_test: float
) -> tuple[Num, tuple[Num, ...], Num, bool]:
    """The chain inequality for one sequence, as plain values: lhs is the
    distance over its closing pair, rhs the distances over its adjacent
    pairs in order.  Returns (lhs, rhs, residual, violated), where the
    residual adds rhs left to right and subtracts lhs, and a negative
    residual, or one below -eps_test in float mode, is a violation."""
    residual = functools.reduce(add, rhs, 0) - lhs
    violated = residual < 0 if is_exact(residual) else residual < -eps_test
    return lhs, rhs, residual, violated


def chain_test(
    metric: Metric,
    witness: SequenceWitness,
    tables: Iterable[TreatmentTable],
    eps_test: float = EPS_TEST,
) -> ChainReport:
    """Evaluate the chain inequality for one sequence under one metric.

    lhs is the distance between the endpoint outputs inside the closing
    cover; each rhs term is the distance between adjacent outputs inside
    that step's cover.  A repeated point contributes its diagonal coupling
    (distance zero for any p.q.-metric)."""
    by_t = _tables_by_treatment(tables)
    points, covers = witness.points, witness.covers

    def dist(k: int, x: InputPoint, y: InputPoint) -> Num:
        return metric.evaluate(_cover_marginal(by_t, x, y, covers[k]))

    lhs = dist(0, points[0], points[-1])
    rhs = tuple(dist(i, points[i - 1], points[i]) for i in range(1, len(points)))
    return ChainReport(points, metric.describe(), *_chain_residual(lhs, rhs, eps_test), covers)


def _distance_screen(
    metrics: Sequence[Metric],
    pts: Sequence[InputPoint],
    pairs: Sequence[tuple[int, int]],
    by_t: Mapping[tuple, TreatmentTable],
    design: Design,
    eps_test: float,
) -> tuple[list[list], list[tuple[list[list], list[list], Num, Optional[int]]]]:
    """Every metric's distances over the point-index `pairs`: the tables
    every chain of :func:`run_suite` is decided and reported on.

    Each pair's joint is built once, inside its cover, and every metric is
    evaluated on it.  Returns (C, screens): C[i][j] is the cover of
    (pts[i], pts[j]), and screens holds (D, R, lim, den) per metric.
    R[i][j] is the metric's value on that pair.  When every value is
    exact, D holds them as ints over the lcm den of their denominators, so
    a residual on D is a plain int whose sign is the exact residual's, and
    lim is 0.  Otherwise D is R, den is None, a residual is computed as in
    :func:`_chain_residual`, and a residual below lim is one that may be
    violated: below -eps_test when every value is a float, below
    max(0, -eps_test) when exact and float values mix."""
    n = len(pts)

    def table(values: Iterable) -> list[list]:
        T: list[list] = [[None] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            T[i][j] = v
        return T

    covers = [design.cover((pts[i], pts[j])) for i, j in pairs] if metrics else []
    marginals = [
        _cover_marginal(by_t, pts[i], pts[j], cover) for (i, j), cover in zip(pairs, covers)
    ]
    screens = []
    for metric in metrics:
        raw = list(map(metric.evaluate, marginals))
        R = table(raw)
        if all(map(is_exact, raw)):
            ints, den = over_lcm(raw)
            screens.append((table(ints), R, 0, den))
        else:
            lim = max(0, -eps_test) if any(map(is_exact, raw)) else -eps_test
            screens.append((R, R, lim, None))
    return table(covers), screens


#: the slack of a float view, relative to max|value| + |lim|
_SLACK = 2.0**-40


def _candidate_view(
    D: list[list], lim: Num, den: Optional[int], pairs: Sequence[tuple[int, int]]
) -> tuple[list[list], Num]:
    """The table G and bound B that :func:`_tetrad_candidates` screens one
    metric's screen (D, lim, den) of :func:`_distance_screen` on.

    An int table is its own view, with bound 0.  A raw-value table is
    viewed as floats, G = float(D), with B = lim + slack,
    slack = 2^-40 (M + L) + 2^-1022, M = max|G| and L = |lim|.  Then every
    tetrad whose residual on D, added left to right, is below lim is a
    candidate.  Proof: let u = 2^-53.  Rounding to nearest moves a result
    by at most u of its size, plus 2^-1075 when an exact value converts
    to a subnormal float; float addition of a subnormal sum is exact.  The
    residual r1 + r2 + r3 - r4 rounds at most 7 times: 3 float operations,
    and 4 conversions of an exact value or an exact partial sum to float,
    each of a quantity of size at most 4M(1 + 2u).  The screen rounds the
    4 conversions into G, g = G[x'][y'] - G[x][y'] once, the threshold
    (B - G[x][y]) - G[y][x'] twice, and B itself once, each of a quantity
    of size at most 2M + 2L + slack.  Writing the real residual both ways,
    g minus the threshold equals the computed residual minus lim minus
    slack, up to all these errors, which sum to less than
    64u (M + L) + 2^-1071, far below the slack.  So a residual below lim
    puts g below the threshold.

    A table with a non-finite value, or a value too large for a float, or
    so large that 8 (M + L) overflows, is viewed as zeros with bound
    +inf: every y' is then a candidate."""
    if den is not None:
        return D, 0
    n = len(D)
    try:
        floats = [float(D[i][j]) for i, j in pairs]
        M = max(map(abs, floats), default=0.0)
        L = abs(lim)
        finite = all(map(math.isfinite, floats)) and math.isfinite(8 * (M + L))
    except OverflowError:
        finite = False
    if not finite:
        return [[0] * n for _ in range(n)], math.inf
    G: list[list] = [[None] * n for _ in range(n)]
    for (i, j), v in zip(pairs, floats):
        G[i][j] = v
    return G, lim + (_SLACK * (M + L) + sys.float_info.min)


def _tetrad_total(design: Design) -> int:
    """How many tetrads :func:`_tetrad_indices` yields: a(a-1)b(b-1) over
    the ordered pairs of distinct inputs with a and b values."""
    s = [len(design.values[name]) * (len(design.values[name]) - 1) for name in design.inputs]
    return sum(s) ** 2 - sum(v * v for v in s)


def _tetrad_candidates(
    design: Design, tables: Sequence[tuple[list[list], Num]], cap: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """Among the first `cap` tetrads of :func:`_tetrad_indices`, those that
    may be flagged on table k, as (a, b, c, d, k) in tetrad order, k inner.
    `tables` holds a view (G, B) per metric, as from
    :func:`_candidate_view`.

    Fix x, x' (indices a, c) of one input and another input Y.  The
    residual of the tetrad x, y, x', y' is f(y) + g(y'), with
    f(y) = G[x][y] + G[y][x'] and g(y') = G[x'][y'] - G[x][y'].  Y's points
    are sorted by g once per (x, x', Y), and for each y the candidates are
    the y' with g(y') < (B - G[x][y]) - G[y][x'], that is g < -f(y) + B: a
    prefix found by bisection.  For each (x, y), a table on which no x'
    has its least g below that threshold is skipped whole.  On an int
    table B is 0 and the candidates are exactly the tetrads whose residual
    is negative; on a float view B covers the rounding.  The tetrads of
    one triple are consecutive, so the cap cuts inside at most one
    triple."""
    pts = design.points()
    of_input = {
        name: [i for i, p in enumerate(pts) if p.input == name] for name in design.inputs
    }
    seen = 0  # tetrads before the current triple
    for a, x in enumerate(pts):
        if seen >= cap:
            return
        xs = [c for c in of_input[x.input] if c != a]
        if not xs:
            continue
        others = [n for n in design.inputs if n != x.input and len(of_input[n]) >= 2]
        # per table, per input Y: for each x' in xs, Y's points sorted by g
        # with their g values; and each x''s least g
        by_g = []
        for G, _ in tables:
            per_input = {}
            for name in others:
                lists = []
                for c in xs:
                    g = {d: G[c][d] - G[a][d] for d in of_input[name]}
                    order = sorted(g, key=g.__getitem__)
                    lists.append(([g[d] for d in order], order))
                per_input[name] = lists, [gs[0] for gs, _ in lists]
            by_g.append(per_input)
        for b, y in enumerate(pts):
            if y.input not in others:
                continue
            ys = [d for d in of_input[y.input] if d != b]
            # (k, the threshold per x' in xs, lists) of the tables that may
            # flag a tetrad x, y, ...
            live = []
            for k, (G, B) in enumerate(tables):
                lists, least = by_g[k][y.input]
                Gb = G[b]
                limits = list(map(sub, itertools.repeat(B - G[a][b]), map(Gb.__getitem__, xs)))
                if any(map(lt, least, limits)):
                    live.append((k, limits, lists))
            if not live:
                seen += len(xs) * len(ys)
                continue
            for i, c in enumerate(xs):
                if seen >= cap:
                    return
                # with fewer than len(ys) tetrads left, keep the y' before ys[left]
                left = cap - seen
                stop = ys[left] if left < len(ys) else len(pts)
                seen += len(ys)
                hits = []
                for k, limits, lists in live:
                    gs, order = lists[i]
                    prefix = order[: bisect_left(gs, limits[i])]
                    hits.extend((d, k) for d in prefix if d != b and d < stop)
                hits.sort()
                for d, k in hits:
                    yield a, b, c, d, k


def _adjacent(T: list[list], seq: Sequence[int]) -> Iterator:
    """T[i][j] over the adjacent index pairs (i, j) of `seq`, in order."""
    return map(list.__getitem__, map(T.__getitem__, seq), seq[1:])


def run_suite(
    design: Design,
    tables: Iterable[TreatmentTable],
    metrics: Sequence[Metric],
    max_len: int = 6,
    cap: int = MAX_SEQUENCES,
    eps_test: float = EPS_TEST,
    on_cap: str = "raise",
) -> SuiteReport:
    """Chain-test the first `cap` irreducible sequences under every metric,
    in :func:`enumerate_irreducible` order, metrics inner.

    Assumes a validated, marginally selective system; distances are then
    witness-independent, so they are computed once per (metric, ordered
    point pair) by :func:`_distance_screen`, over the tetrad pairs of a
    full design or the covered pairs of distinct points of another.  A
    restricted design's walked sequences are each screened on that table.
    A full design's tetrads are counted in closed form and screened per
    triple x, y, x' by :func:`_tetrad_candidates`, which passes on only
    the y' whose residual may be below the limit: exactly the negative
    ones on an int table, a few more on a raw-value table.  A flagged
    chain is reported from the screen's tables: its distances from R, its
    covers from C.  On an int table its residual is the int residual over
    den, violated for certain; on a raw-value table
    :func:`_chain_residual` decides it over R.  Past `cap` sequences
    CapExceeded is raised, or with ``on_cap="truncate"`` the report is
    marked truncated.
    """
    by_t = _tables_by_treatment(tables)
    metrics = list(metrics)
    names = [m.describe() for m in metrics]
    pts = design.points()
    full = design.is_full
    if full:
        # every tetrad pair joins points of two distinct inputs of >= 2
        # values; below length 4 there is no tetrad, so no pair is needed
        multi = [i for i, p in enumerate(pts) if len(design.values[p.input]) >= 2 and max_len >= 4]
        pairs = [(i, j) for i in multi for j in multi if pts[i].input != pts[j].input]
    else:
        near = _cover_graph(design)
        pairs = [(i, j) for i, js in enumerate(near) for j in sorted(js) if j != i]
    C, screens = _distance_screen(metrics, pts, pairs, by_t, design, eps_test)
    violations: list[ChainReport] = []

    def decide(seq: tuple[int, ...], k: int) -> None:
        D, R, lim, den = screens[k]
        first, last = seq[0], seq[-1]
        if full:  # a tetrad, unrolled
            a, b, c, d = seq
            residual = D[a][b] + D[b][c] + D[c][d] - D[a][d]
        else:
            # ints add exactly in any order, floats left to right as in
            # _chain_residual
            terms = _adjacent(D, seq)
            steps = sum(terms) if den is not None else functools.reduce(add, terms, 0)
            residual = steps - D[first][last]
        if not residual < lim:
            return
        lhs, rhs = R[first][last], tuple(_adjacent(R, seq))
        if den is None:
            _, _, residual, violated = _chain_residual(lhs, rhs, eps_test)
            if not violated:
                return
        else:
            residual = Fraction(residual, den)
            if residual.denominator == 1 and not any(isinstance(v, Fraction) for v in (lhs, *rhs)):
                residual = residual.numerator  # ints add up to an int
        covers = (C[first][last], *_adjacent(C, seq))
        point_seq = tuple(map(pts.__getitem__, seq))
        violations.append(ChainReport(point_seq, names[k], lhs, rhs, residual, True, covers))

    if full:
        total = _tetrad_total(design) if max_len >= 4 else 0
        tested = min(total, max(cap, 0))
        truncated = total > tested
        views = [_candidate_view(D, lim, den, pairs) for D, _, lim, den in screens]
        for a, b, c, d, k in _tetrad_candidates(design, views, tested):
            decide((a, b, c, d), k)
    else:
        seqs = _walk(design, near, max_len, True)
        tested = 0
        for seq in itertools.islice(seqs, max(cap, 0)):
            tested += 1
            for k in range(len(screens)):
                decide(seq, k)
        truncated = next(seqs, None) is not None
    if truncated and on_cap != "truncate":
        raise CapExceeded(f"more than {cap} irreducible sequences")
    return SuiteReport(
        sequences_tested=tested,
        violations=tuple(violations),
        metrics=tuple(names),
        truncated=truncated,
    )


def _agree(marginals: Sequence[tuple], dens: Sequence[int]) -> bool:
    """Whether every table's marginal, in ints over its denominator in
    `dens`, equals the first table's: a*ref_den == ref*den throughout,
    cross-multiplied in one pass over all tables."""
    if dens.count(dens[0]) == len(dens):
        return marginals.count(marginals[0]) == len(marginals)
    ref, ref_den = marginals[0], dens[0]
    rep, flat = itertools.repeat, itertools.chain.from_iterable
    lhs = map(mul, flat(marginals[1:]), rep(ref_den))
    rhs = flat(map(map, rep(mul), rep(ref), map(rep, dens[1:])))
    return all(map(eq, lhs, rhs))


def check_marginal_selectivity(
    design: Design,
    tables: Iterable[TreatmentTable],
    eps: float = EPS_TEST,
) -> MarginalSelectivityReport:
    """Compare marginals that must agree: for every single input and every
    input pair, treatments assigning the same values there must induce the
    same marginal over those outputs.  Exact comparison in the rational
    regime, entrywise |diff| <= eps otherwise.

    Every table's marginals are summed together with those of the other
    tables of its cell layout (the same axes), one input subset at a time,
    column by column over the tables' cells transposed
    (:func:`~ordist.probspace._column_sums`): in the rational regime over
    the tables' ints (:meth:`TreatmentTable.scaled`), otherwise over the
    tables' own numbers, added left to right either way.  A class whose
    members share one layout and whose marginals all equal the first
    member's, two denominators cross-multiplied, passes with discrepancy
    0.  Any other class is scanned outcome by outcome, member by member,
    which is where the discrepancies and the witness come from:
    |a*den - b*ref_den| / (ref_den*den) over the same ints, a Fraction in
    the rational regime.  An equal member scans to 0 and moves nothing."""
    tables = list(tables)
    exact = all(t.regime() == RATIONAL for t in tables)
    # per table: an exact table's ints over their denominator, else its own
    # cells over 1, dense in probs order; per layout (axes), the positions
    # of its tables and their cells transposed, one tuple per cell
    cells, dens = [], []
    layouts: dict[tuple, list[int]] = {}
    for p, t in enumerate(tables):
        c, den = t.scaled() if exact else (list(t.probs.values()), 1)
        cells.append(c)
        dens.append(den)
        layouts.setdefault(t.axes, []).append(p)
    columns = {axes: list(zip(*map(cells.__getitem__, ps))) for axes, ps in layouts.items()}
    layout_of = [t.axes for t in tables]
    treatments = [t.treatment for t in tables]
    worst: Num = 0
    witness = None
    classes = []
    subset_sizes = [1] + ([2] if len(design.inputs) >= 2 else [])
    for size in subset_sizes:
        for names in itertools.combinations(design.inputs, size):
            keep = tuple(design.index(n) for n in names)
            # position -> that table's marginal over keep, a tuple
            marginal: dict[int, tuple] = {}
            for axes, ps in layouts.items():
                sums = _column_sums(columns[axes], tuple(map(len, axes)), keep)
                marginal.update(zip(ps, zip(*sums)))
            # the values at keep -> the positions of the tables assigning them
            # (a bare value when keep holds one input)
            groups: dict = {}
            for p, values in enumerate(map(itemgetter(*keep), treatments)):
                groups.setdefault(values, []).append(p)
            for values, group in groups.items():
                if len(group) < 2:
                    continue
                key = values if size > 1 else (values,)
                pick = itemgetter(*group)
                tabs, group_dens, marginals, group_layouts = (
                    pick(tables), pick(dens), pick(marginal), pick(layout_of)
                )
                shared = group_layouts.count(group_layouts[0]) == len(group_layouts)
                if shared and _agree(marginals, group_dens):
                    classes.append((names, key, 0))
                    continue
                ref, ref_den = tabs[0], group_dens[0]
                ref_d = _keyed([ref.axes[i] for i in keep], marginals[0])
                class_worst: Num = 0
                for other, den, m in zip(tabs[1:], group_dens[1:], marginals[1:]):
                    d = _keyed([other.axes[i] for i in keep], m)
                    # deterministic scan order so tied witnesses are stable
                    outcomes = list(ref_d) + [k for k in d if k not in ref_d]
                    for outcome in outcomes:
                        diff = abs(ref_d.get(outcome, 0) * den - d.get(outcome, 0) * ref_den)
                        if exact:
                            diff = Fraction(diff, ref_den * den)
                        if diff > class_worst:
                            class_worst = diff
                        if diff > worst:
                            worst = diff
                            witness = {
                                "inputs": list(names),
                                "assignment": list(key),
                                "treatments": [list(ref.treatment), list(other.treatment)],
                                "outcome": list(outcome) if isinstance(outcome, tuple) else [outcome],
                                "discrepancy": diff,
                            }
                classes.append((names, key, class_worst))
    passed = worst == 0 if is_exact(worst) else worst <= eps
    return MarginalSelectivityReport(
        passed=passed, max_discrepancy=worst, witness=witness, classes=tuple(classes)
    )


def transform_outputs(tables: Iterable[TreatmentTable], relabel) -> list[TreatmentTable]:
    """Push every table through a per-input-point relabeling of outcomes.

    ``relabel(input, input_value, outcome_value)`` need not be injective;
    mass merges under the new labels.  Marginal selectivity survives
    because the relabeling depends only on the input point.
    """
    out = []
    for t in tables:
        design = t.design
        maps = []
        new_axes = []
        for pos, name in enumerate(design.inputs):
            w = t.treatment[pos]
            m = {}
            axis: list = []
            for v in t.axes[pos]:
                nv = relabel(name, w, v)
                m[v] = nv
                if nv not in axis:
                    axis.append(nv)
            maps.append(m)
            new_axes.append(tuple(axis))
        probs: dict[tuple, Num] = {}
        for outcome, p in t.probs.items():
            key = tuple(maps[pos][v] for pos, v in enumerate(outcome))
            if key in probs:
                probs[key] = probs[key] + p
            else:
                probs[key] = p
        out.append(TreatmentTable(design, t.treatment, probs, axes=new_axes))
    return out
