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
points), evaluated once and, when all are exact, scaled by the lcm of
their denominators to plain ints.  A sequence is screened by its residual
on that table (an int, or the raw values with the float tolerance).  A
restricted design's walked sequences are each screened.  A full design's
tetrads x, y, x', y' are counted in closed form, and on an int table only
those with a negative residual are visited: the residual is
f(y) + g(y'), f(y) = d(x, y) + d(y, x') and g(y') = d(x', y') - d(x, y'),
so per triple x, y, x' the y' with g(y') < -f(y) are a prefix of the
other input's points sorted by g, found by bisection.  On a raw-value
table every tetrad is screened.  Only a flagged chain gets its covering
treatments and is rerun over the raw values by :func:`_chain_residual`,
which decides it and gives the reported numbers.  The
marginal-selectivity check likewise compares and measures class members
in integer-scaled tables.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

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
    _keyed,
    _sums,
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
    points: Sequence[InputPoint],
    covers: Sequence,
    dist: Callable[[InputPoint, InputPoint, tuple], Num],
    eps_test: float,
) -> tuple[Num, tuple[Num, ...], Num, bool]:
    """The chain inequality for one sequence, as plain values.

    lhs is ``dist`` over the closing pair inside covers[0]; rhs term i is
    ``dist`` over the adjacent pair (points[i-1], points[i]) inside
    covers[i].  Returns (lhs, rhs_terms, residual, violated), where a
    negative residual, or one below -eps_test in float mode, is a
    violation."""
    lhs = dist(points[0], points[-1], covers[0])
    rhs = tuple(dist(points[i - 1], points[i], covers[i]) for i in range(1, len(points)))
    residual = sum(rhs) - lhs
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

    def dist(x: InputPoint, y: InputPoint, cover: tuple) -> Num:
        return metric.evaluate(_cover_marginal(by_t, x, y, cover))

    return _chain_report(metric, witness, dist, eps_test)


def _chain_report(
    metric: Metric,
    witness: SequenceWitness,
    dist: Callable[[InputPoint, InputPoint, tuple], Num],
    eps_test: float,
) -> ChainReport:
    """:func:`_chain_residual` of one sequence, as a report."""
    values = _chain_residual(witness.points, witness.covers, dist, eps_test)
    return ChainReport(witness.points, metric.describe(), *values, witness.covers)


def _distance_screen(
    metric: Metric,
    pts: Sequence[InputPoint],
    pairs: Sequence[tuple[int, int]],
    by_t: Mapping[tuple, TreatmentTable],
    design: Design,
    eps_test: float,
) -> tuple[list[list], Num, Callable[[InputPoint, InputPoint, tuple], Num], bool]:
    """One metric's distances over the point-index `pairs`: the table
    every chain of :func:`run_suite` is decided on.

    Returns (D, lim, dist, ints).  D[i][j] is the distance of (pts[i],
    pts[j]) inside its cover.  When every distance is exact, D holds them
    scaled once by the lcm of their denominators, so a residual is a plain
    int whose sign is the exact residual's, lim is 0 and ints is True.
    Otherwise D holds the raw values, a residual is computed exactly as in
    :func:`_chain_residual`, and a residual below lim is one that may be
    violated: below -eps_test when every distance is a float, below
    max(0, -eps_test) when exact and float distances mix.  ``dist`` serves
    the raw values to :func:`_chain_residual`."""
    raw = {}
    for i, j in pairs:
        x, y = pts[i], pts[j]
        raw[x, y] = metric.evaluate(_cover_marginal(by_t, x, y, design.cover((x, y))))
    values = list(raw.values())
    D: list[list] = [[None] * len(pts) for _ in pts]
    ints = all(map(is_exact, values))
    if ints:
        values, _ = over_lcm(values)
        lim = 0
    elif any(map(is_exact, values)):
        lim = max(0, -eps_test)
    else:
        lim = -eps_test
    for (i, j), v in zip(pairs, values):
        D[i][j] = v
    return D, lim, lambda x, y, cover: raw[x, y], ints


def _tetrad_total(design: Design) -> int:
    """How many tetrads :func:`_tetrad_indices` yields: a(a-1)b(b-1) over
    the ordered pairs of distinct inputs with a and b values."""
    s = [len(design.values[name]) * (len(design.values[name]) - 1) for name in design.inputs]
    return sum(s) ** 2 - sum(v * v for v in s)


def _tetrad_candidates(
    design: Design, tables: Sequence[tuple[list[list], bool]], cap: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """Among the first `cap` tetrads of :func:`_tetrad_indices`, those that
    may be flagged on distance table k, as (a, b, c, d, k) in tetrad order,
    k inner.  `tables` holds (D, ints) per metric, as from
    :func:`_distance_screen`.

    Fix x, x' (indices a, c) of one input and another input Y.  The
    residual of the tetrad x, y, x', y' is f(y) + g(y'), with
    f(y) = D[x][y] + D[y][x'] and g(y') = D[x'][y'] - D[x][y'].  On an int
    table Y's points are sorted by g once per (x, x', Y), and for each y
    the y' with g(y') < -f(y), the only ones whose residual is negative,
    are the prefix found by bisection.  For each (x, y), an int table on
    which no x' has min g < -f(y) is skipped whole.  On a table of raw values every y' is a candidate: float addition is
    not associative, so f + g can round differently from the residual's
    left-to-right sum.  The tetrads of one triple are consecutive, so the
    cap cuts inside at most one triple."""
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
        # per int table, per input Y: for each x' in xs, Y's points sorted
        # by g with their g values; and each x''s least g
        by_g = []
        for D, ints in tables:
            per_input = {}
            for name in others if ints else ():
                lists = []
                for c in xs:
                    g = {d: D[c][d] - D[a][d] for d in of_input[name]}
                    order = sorted(g, key=g.__getitem__)
                    lists.append(([g[d] for d in order], order))
                per_input[name] = lists, [gs[0] for gs, _ in lists]
            by_g.append(per_input)
        for b, y in enumerate(pts):
            if y.input not in others:
                continue
            ys = [d for d in of_input[y.input] if d != b]
            # (k, -D[x][y], D[y], lists) of the tables that may flag a
            # tetrad x, y, ...; lists is None on a raw-value table
            live = []
            for k, (D, ints) in enumerate(tables):
                if not ints:
                    live.append((k, None, None, None))
                    continue
                lists, least = by_g[k][y.input]
                Db, fa = D[b], -D[a][b]
                if min(map(add, map(Db.__getitem__, xs), least)) < fa:
                    live.append((k, fa, Db, lists))
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
                for k, fa, Db, lists in live:
                    if lists is None:
                        hits.extend((d, k) for d in ys if d < stop)
                    else:
                        gs, order = lists[i]
                        prefix = order[: bisect_left(gs, fa - Db[c])]
                        hits.extend((d, k) for d in prefix if d != b and d < stop)
                hits.sort()
                for d, k in hits:
                    yield a, b, c, d, k


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
    triple x, y, x' by :func:`_tetrad_candidates`: on an int table only
    the y' whose residual is negative reach the residual, on a raw-value
    table every y' does.  Only a flagged chain gets its covers and goes
    through :func:`_chain_residual`, which decides it and supplies every
    reported number.  Past `cap` sequences CapExceeded is raised, or with
    ``on_cap="truncate"`` the report is marked truncated.
    """
    by_t = _tables_by_treatment(tables)
    metrics = list(metrics)
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
    screens = [
        (metric, *_distance_screen(metric, pts, pairs, by_t, design, eps_test))
        for metric in metrics
    ]
    violations: list[ChainReport] = []

    def decide(seq: tuple[int, ...], k: int) -> None:
        metric, D, lim, dist, _ = screens[k]
        if full:  # a tetrad, unrolled: a raw-value table screens every one
            a, b, c, d = seq
            residual = D[a][b] + D[b][c] + D[c][d] - D[a][d]
        else:
            residual = sum(D[seq[i - 1]][seq[i]] for i in range(1, len(seq))) - D[seq[0]][seq[-1]]
        if residual < lim:
            w = _witness(tuple(pts[i] for i in seq), design)
            report = _chain_report(metric, w, dist, eps_test)
            if report.violated:
                violations.append(report)

    if full:
        total = _tetrad_total(design) if max_len >= 4 else 0
        tested = min(total, max(cap, 0))
        truncated = total > tested
        candidates = _tetrad_candidates(design, [(D, ints) for _, D, _, _, ints in screens], tested)
        for a, b, c, d, k in candidates:
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
        metrics=tuple(m.describe() for m in metrics),
        truncated=truncated,
    )


def _same_over(m1: list, den1: int, m2: list, den2: int) -> bool:
    """True when m1/den1 and m2/den2 agree entry by entry."""
    if den1 == den2:
        return m1 == m2
    return [a * den2 for a in m1] == [b * den1 for b in m2]


def check_marginal_selectivity(
    design: Design,
    tables: Iterable[TreatmentTable],
    eps: float = EPS_TEST,
) -> MarginalSelectivityReport:
    """Compare marginals that must agree: for every single input and every
    input pair, treatments assigning the same values there must induce the
    same marginal over those outputs.  Exact comparison in the rational
    regime, entrywise |diff| <= eps otherwise.

    Each class member's marginal is first compared whole with the class's
    first member's: in the rational regime over the tables' ints
    (:meth:`TreatmentTable.scaled`), two denominators cross-multiplied;
    otherwise over the tables' own numbers.  Only a member that differs is
    scanned outcome by outcome, which is where the discrepancies and the
    witness come from: |a*den - b*ref_den| / (ref_den*den) over the same
    ints, a Fraction in the rational regime."""
    tables = list(tables)
    exact = all(t.regime() == RATIONAL for t in tables)
    # (table, cells, denominator, axis sizes): an exact table's ints over
    # their denominator, else its own cells over 1, dense in probs order
    members = []
    for t in tables:
        cells, den = t.scaled() if exact else (list(t.probs.values()), 1)
        members.append((t, cells, den, tuple(map(len, t.axes))))
    worst: Num = 0
    witness = None
    classes = []
    subset_sizes = [1] + ([2] if len(design.inputs) >= 2 else [])
    for size in subset_sizes:
        for names in itertools.combinations(design.inputs, size):
            keep = tuple(design.index(n) for n in names)
            groups: dict[tuple, list] = {}
            for member in members:
                key = tuple(map(member[0].treatment.__getitem__, keep))
                groups.setdefault(key, []).append(member)
            for key, group in groups.items():
                if len(group) < 2:
                    continue
                ref, ref_cells, ref_den, ref_sizes = group[0]
                ref_axes = [ref.axes[i] for i in keep]
                ref_m = _sums(ref_cells, ref_sizes, keep)
                class_worst: Num = 0
                for other, cells, den, sizes in group[1:]:
                    m = _sums(cells, sizes, keep)
                    axes = [other.axes[i] for i in keep]
                    if axes == ref_axes and _same_over(ref_m, ref_den, m, den):
                        continue
                    ref_d, d = _keyed(ref_axes, ref_m), _keyed(axes, m)
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
