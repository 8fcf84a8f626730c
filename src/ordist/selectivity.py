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
so repeats need no special case.

On a restricted design the irreducible sequences are thus the chordless
cycles of the graph whose vertices are the points and whose edges are the
covered pairs of distinct points, a triangle counting only when its
triple lies in no treatment; a cycle of length l is 2l sequences, one from
each point in each direction.  One pass over the treatments, in the order
:meth:`Design.cover` scans them, gives each ordered pair of points its
cover (the first treatment seen that holds both), each point its near set
as an int bit mask (the points it shares a treatment with), and each pair
its third mask (the points sharing a treatment with both;
:meth:`Design.pair_covers`).  :func:`_chordless_cycles` then finds each
cycle once, least point first and second point below the last, depth
first on an explicit stack: a path v0..vj is extended by
near[vj] & ~blocked over the points above v0, `blocked` the OR of
near[v1]..near[v(j-1)], and a point also in near[v0] closes a cycle (at
length 3 only outside third[v0][v1]).  The walk thus reaches each
chordless cycle once, without visiting the far more numerous reducible
sequences, and looks nothing up in the design.  A length's
cycles' traversals, sorted, come shortest first, lexicographic within
each length: the suite's order.

All d-values are taken from the witnessing treatments' bivariate
marginals; under marginal selectivity (checked separately) they do not
depend on which witness covers a pair.

Both design kinds decide chains on one int distance table per metric:
the distance of every ordered pair of points a tested sequence can use
(the tetrad pairs of a full design, else every covered pair of distinct
points), evaluated once on the pair's joint inside its cover (from the
one-pass table of :meth:`Design.pair_covers`), each float read as the
binary fraction it equals, and scaled by the lcm of the denominators to
plain ints.  An order-distance or classification distance is summed
straight from the covering table's ints, with no marginal and no
``Fraction`` made; every other metric is evaluated on the marginal.  A
sequence's int residual over the lcm denominator is its exact residual: a
chain of exact terms is flagged when it is negative, one with a float
term, or on a system labelled "float", when it is below -eps_test.

Every irreducible sequence is screened, in whatever order its design
kind makes cheap, for the hits: the sequences, per metric, whose int
residual is below the table's bound.  A restricted design's cycles are
screened by two sums each: with F and B the cycle's distances summed one
way round and the other and s(e) = d(u, v) + d(v, u) per edge e, the two
sequences that leave out e have residuals F - s(e) and B - s(e), so only
a cycle with min(F, B) - max s(e) below the table's bound is expanded
into its chains.  A full design's tetrads x, y, x', y' are counted in
closed form, and only those whose int residual is below the table's
bound are visited: the residual is f(y) + g(y'), f(y) = d(x, y) +
d(y, x') and g(y') = d(x', y') - d(x, y'), so per x, x' and other input
the y' with g(y') < bound - f(y) are, for each y, a prefix of that
input's points sorted by g, found by bisection, and none are when
min f + min g is not below the bound.  The hits are sorted once into
suite order, and a cap cuts them after the cap-th sequence of that
order, the same rule on both design kinds.

A flagged chain, like each Bell-CHSH-Fine chain of ``jdc``, is reported
from the tables the screen built beside the distances: the raw values (an
int-summed distance's as its ints over the lcm denominator), the pairs'
covers, and the exact residual, rounded once to a float when a term is a
float or the system is labelled "float".  The marginal-selectivity
check compares every proper subset of the inputs.  It sums the marginals
of all tables of one cell layout together, column by column over their
integer-scaled cells, each subset from a larger one through the subset
lattice, and on a shared denominator decides each subset in one pass.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq, getitem, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .arith import EPS_TEST, FLOAT, RATIONAL, Num, as_exact, num_to_json, over_lcm, shown
from .errors import CapExceeded, MetricEvaluationError, SystemFormatError
from .metrics import Metric, _mass_below, _RankedMetric
from .probspace import (
    BivariateMarginal,
    Design,
    InputPoint,
    TreatmentTable,
    bivariate,
    diagonal_coupling,
    _system_label,
    _keyed,
    _lattice_sums,
    _pair_grid,
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
    computed exactly with each float term read as the binary fraction it
    equals.  With exact terms the residual is exact and a negative one is
    a violation; with a float term it is the exact residual rounded once to
    a float, and a violation when the exact residual is below -eps_test."""

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


def _chordless_cycles(
    near: Sequence[int], third: Sequence[Sequence[int]], max_len: int, cap: int = MAX_SEQUENCES
) -> dict[int, list[tuple[int, ...]]]:
    """The chordless cycles of length 3..max_len of the graph whose edges
    are the covered pairs of distinct points, by length, as tuples of point
    indices: each cycle once, least point first and second point below the
    last.  A triangle counts only when its triple lies in no treatment.
    ``near`` holds each point's near set and ``third`` each pair's third
    points as bit masks, from :meth:`Design.pair_covers`.

    The walk runs depth first on an explicit stack.  A path v0..vj is
    extended by the points of near[vj] above v0 outside `blocked`, the OR
    of near[v1]..near[v(j-1)]; those in near[v0] close a cycle (when above
    v1, and at length 3 when outside third[v0][v1]), and the rest extend
    the path.  Every point of a path lies in its own near set, so none
    recurs.  Candidates are taken low bit first.

    A cycle stands for its 2l traversals (:func:`_traversals`), and of
    those in suite order only the first cap + 1 are needed: cap to test
    and one to tell that the cap cuts.  So once the cycles found hold more
    than cap traversals, :func:`_trim` drops the lengths past the least
    one at which they do, and no path is extended past it; what is kept
    stays within a small multiple of cap traversals."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    need = max(cap, 0) + 1
    cycles: dict[int, list[tuple[int, ...]]] = {}
    found = 0  # traversals of the cycles in `cycles`
    limit = max_len
    for v0, ring in enumerate(near):
        above = -1 << v0 + 1
        # per point of the path: the OR of the near sets from the second
        # point through it, which rules out the points two places after it,
        # and the candidates for the point after it still to be tried
        path, blocked, pending = [v0], [0], [ring & above]
        while pending:
            mask = pending[-1]
            if not mask or len(path) + 2 > limit:
                path.pop()
                blocked.pop()
                pending.pop()
                continue
            low = mask & -mask
            pending[-1] = mask ^ low
            v = low.bit_length() - 1
            step = near[v] & above & ~(blocked[-1] | low)
            if len(path) == 1:
                after = -1 << v + 1
                ends = step & ring & after & ~third[v0][v]
            else:
                ends = step & ring & after
            while ends:
                end = ends & -ends
                ends ^= end
                cycle = (*path, v, end.bit_length() - 1)
                cycles.setdefault(len(cycle), []).append(cycle)
                found += 2 * len(cycle)
                if found >= need:
                    limit, found = _trim(cycles, need)
            if len(path) + 3 <= limit:
                path.append(v)
                blocked.append(blocked[-1] | near[v])
                pending.append(step & ~ring)
    return cycles


def _trim(cycles: dict[int, list[tuple[int, ...]]], need: int) -> tuple[int, int]:
    """Cut `cycles`, by length, holding `need` traversals or more, to what
    the first `need` of them in suite order take: the lengths up to the
    least L at which they do, and at L, when it holds more than twice as
    many cycles as traversals are still needed there, only the cycles
    owning one of the least of those.  Returns L and the traversals kept.

    No cycle a later cut needs is dropped: cycles found later only push a
    traversal back in the order, and fewer are needed at L as shorter
    cycles turn up, so a traversal needed at the end ranks among those
    needed now."""
    counted = 0
    for length in sorted(cycles):
        group = cycles[length]
        left = need - counted
        if 2 * length * len(group) >= left:
            break
        counted += 2 * length * len(group)
    for longer in [l for l in cycles if l > length]:
        del cycles[longer]
    if len(group) > 2 * left:
        least = sorted((seq, k) for k, cycle in enumerate(group) for seq in _traversals(cycle))[:left]
        cycles[length] = group = [group[k] for k in sorted({k for _, k in least})]
    return length, counted + 2 * length * len(group)


def _traversals(cycle: tuple[int, ...]) -> list[tuple[int, ...]]:
    """A cycle's 2l sequences: from each of its points, one way round and
    the other."""
    back = cycle[::-1]
    return [c[i:] + c[:i] for c in (cycle, back) for i in range(len(cycle))]


def _in_suite_order(cycles: dict[int, list[tuple[int, ...]]]) -> Iterator[tuple[int, ...]]:
    """The traversals of `cycles` (:func:`_chordless_cycles`) as tuples of
    point indices, shortest first, lexicographic within each length: the
    suite's order, sorted one length at a time.  When the cycles were
    found under a cap, their first cap + 1 traversals are those of the
    uncut walk (:func:`_trim`)."""
    for length in sorted(cycles):
        yield from sorted(itertools.chain.from_iterable(map(_traversals, cycles[length])))


def _realizable_walk(near: Sequence[int], max_len: int) -> Iterator[tuple[int, ...]]:
    """Every treatment-realizable sequence of length 3..max_len as a tuple
    of point indices, repeats included: each adjacent pair and the closing
    pair in near (:meth:`Design.pair_covers`).  Shortest first,
    lexicographic within each length."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    adjacent = [[j for j in range(len(near)) if mask >> j & 1] for mask in near]

    def extend(seq: tuple[int, ...], length: int) -> Iterator[tuple[int, ...]]:
        if len(seq) == length - 1:
            ring = near[seq[0]]
            yield from ((*seq, z) for z in adjacent[seq[-1]] if ring >> z & 1)
            return
        for y in adjacent[seq[-1]]:
            yield from extend((*seq, y), length)

    for length in range(3, max_len + 1):
        for x in range(len(near)):
            yield from extend((x,), length)


def _adjacent(T: list[list], seq: Sequence[int]) -> Iterator:
    """T[i][j] over the adjacent index pairs (i, j) of `seq`, in order."""
    return map(list.__getitem__, map(T.__getitem__, seq), seq[1:])


def _covers(C: list[list], seq: Sequence[int]) -> tuple:
    """`seq`'s closing cover, then its step covers, from the cover table C."""
    return (C[seq[0]][seq[-1]], *_adjacent(C, seq))


def _witnesses(
    design: Design, C: list[list], seqs: Iterator[tuple[int, ...]], cap: int, kind: str
) -> Iterator[SequenceWitness]:
    """Point-index sequences as witnesses, covers from C; CapExceeded past `cap`."""
    pts = design.points()
    for count, seq in enumerate(seqs, 1):
        if count > cap:
            raise CapExceeded(f"more than {cap} {kind} sequences")
        yield SequenceWitness(tuple(map(pts.__getitem__, seq)), _covers(C, seq))


def enumerate_realizable(
    design: Design, max_len: int = 6, cap: int = MAX_SEQUENCES
) -> Iterator[SequenceWitness]:
    """All treatment-realizable sequences of length 3..max_len, shortest
    first, lexicographic within each length (design input order, declared
    value order), covers from :meth:`Design.pair_covers`' table C.  Raises
    CapExceeded past `cap` yields."""
    C, near, _ = design.pair_covers()
    return _witnesses(design, C, _realizable_walk(near, max_len), cap, "realizable")


def is_irreducible(points: Sequence[InputPoint], design: Design) -> bool:
    """True when the only index subsequences of size > 1 lying inside some
    treatment are the closing pair {first, last} and the adjacent pairs,
    and the endpoints differ.

    Decided by pairs: a subset inside a treatment has all its pairs
    inside it, and the allowed pairs form an l-cycle, which for l >= 4
    holds no triangle, so for l >= 4 a covered subset of size >= 3 always
    has a covered pair that is not allowed.  For l = 3 every pair is
    allowed and only the triple is checked.  :func:`_chordless_cycles`
    applies the same rule to paths, on bit masks."""
    l = len(points)
    if l == 3:
        covered = design.cover(points) is not None
    else:
        # every point sits in a pair two places apart, and all pairs are
        # looked up, so a point of an unknown input raises UnknownInput
        covered = any([
            design.cover((points[a], points[b])) is not None
            for a in range(l)
            for b in range(a + 2, l)
            if (a, b) != (0, l - 1)
        ])
    return points[0] != points[-1] and not covered


def enumerate_irreducible(
    design: Design, max_len: int = 6, cap: int = MAX_SEQUENCES
) -> Iterator[SequenceWitness]:
    """Irreducible treatment-realizable sequences, same order as
    :func:`enumerate_realizable`, covers likewise from the cover table.
    Raises CapExceeded past `cap` irreducible sequences.

    Full factorial designs skip straight to the alternating tetrads over
    two distinct inputs, the only irreducible shape they admit.  Other
    designs' sequences are the traversals of their chordless cycles,
    each cycle found once (:func:`_chordless_cycles`).
    """
    C, near, third = design.pair_covers()
    if design.is_full:
        seqs = _tetrad_indices(design) if max_len >= 4 else iter(())
    else:
        seqs = _in_suite_order(_chordless_cycles(near, third, max_len, cap))
    return _witnesses(design, C, seqs, cap, "irreducible")


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


def _tetrad_at(design: Design, k: int) -> tuple[int, int, int, int]:
    """The tetrad at index k (from 0) of :func:`_tetrad_indices`, found in
    closed form: the tetrads of one x, y, points of inputs X and Y, are
    one block of (|X| - 1)(|Y| - 1) in that order, and the points of one
    input are consecutive, so whole inputs and points are skipped by their
    counts, and x' and y' are the block's row and column past x and y."""
    sizes = [len(design.values[name]) for name in design.inputs]
    first = list(itertools.accumulate(sizes, initial=0))
    pairs = [m * (m - 1) for m in sizes]
    all_pairs = sum(pairs)
    for i, mx in enumerate(sizes):
        # the tetrads of one x of X
        per_x = (mx - 1) * (all_pairs - pairs[i])
        if k >= mx * per_x:
            k -= mx * per_x
            continue
        ax, k = divmod(k, per_x)
        for j, my in enumerate(sizes):
            if j == i:
                continue
            block = (mx - 1) * (my - 1)
            if k >= my * block:
                k -= my * block
                continue
            by, k = divmod(k, block)
            cx, dy = divmod(k, my - 1)
            return (first[i] + ax, first[j] + by, first[i] + cx + (cx >= ax), first[j] + dy + (dy >= by))
    raise IndexError(f"tetrad index {k} out of range")


def _tables_by_treatment(tables: Iterable[TreatmentTable]) -> Mapping[tuple, TreatmentTable]:
    if isinstance(tables, Mapping):
        return tables
    return {t.treatment: t for t in tables}


def _pair_marginal(table: TreatmentTable, x: InputPoint, y: InputPoint) -> BivariateMarginal:
    if x == y:
        return diagonal_coupling(table.axis(x.input), table.univariate(x.input), x)
    return bivariate(table, x.input, y.input)


def _cover_table(by_t: Mapping[tuple, TreatmentTable], cover: tuple) -> TreatmentTable:
    try:
        return by_t[cover]
    except KeyError:
        raise SystemFormatError(f"no table for covering treatment {cover!r}") from None


def _finite_distances(values: Iterable[Num], name: str, regime: str = RATIONAL) -> list:
    """Distances as ints and Fractions, each float read as the binary
    fraction it equals, then as a system labelled `regime` prints them
    (:func:`~ordist.arith.shown`).  A NaN or an infinity, read or
    rounded to, raises MetricEvaluationError naming the metric."""
    try:
        out = [shown(as_exact(v), regime) for v in values]
        if regime == FLOAT and not all(map(math.isfinite, out)):
            raise ValueError
        return out
    except ValueError:
        raise MetricEvaluationError(f"{name} gave a distance that is not finite") from None


def _float_residual(residual: Num, name: str) -> float:
    """An exact residual rounded once to a float; MetricEvaluationError,
    naming the metric, when it is too large for one."""
    try:
        return float(residual)
    except OverflowError:
        raise MetricEvaluationError(f"{name}: a chain residual overflows a float") from None


def _chain_residual(lhs: Num, rhs: tuple[Num, ...], eps_test: float, name: str,
                    regime: str = RATIONAL) -> tuple[Num, bool]:
    """The chain inequality for one sequence under the metric `name`: lhs
    is the distance over its closing pair, rhs the distances over its
    adjacent pairs in order.  Returns (residual, violated), the residual
    sum(rhs) - lhs computed exactly.  When a term is a float or the system
    is labelled "float" (`regime`), it is returned rounded once to a float
    and violated below -eps_test, compared exactly; otherwise as it is,
    violated when negative."""
    terms = _finite_distances((lhs, *rhs), name)
    residual = sum(terms[1:]) - terms[0]
    if regime == FLOAT or any(isinstance(v, float) for v in (lhs, *rhs)):
        return _float_residual(residual, name), residual < -Fraction(eps_test)
    return residual, residual < 0


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
    (distance zero for any p.q.-metric).  Terms print as the system does."""
    by_t = _tables_by_treatment(tables)
    points, covers = witness.points, witness.covers

    def dist(k: int, x: InputPoint, y: InputPoint) -> Num:
        return metric.evaluate(_pair_marginal(_cover_table(by_t, covers[k]), x, y))

    lhs = dist(0, points[0], points[-1])
    rhs = tuple(dist(i, points[i - 1], points[i]) for i in range(1, len(points)))
    name = metric.describe()
    regime = _system_label(by_t.values())
    residual, violated = _chain_residual(lhs, rhs, eps_test, name, regime)
    if regime == FLOAT:
        lhs, *rhs = _finite_distances((lhs, *rhs), name, regime)
    return ChainReport(points, name, lhs, tuple(rhs), residual, violated, covers)


def _distance_screen(
    metrics: Sequence[Metric],
    pts: Sequence[InputPoint],
    pairs: Sequence[tuple[int, int]],
    by_t: Mapping[tuple, TreatmentTable],
    C: list[list],
) -> list[tuple[list[list], Optional[list[list]], int]]:
    """Every metric's distances over the point-index `pairs`, each taken
    inside its cover C[i][j] (:meth:`Design.pair_covers`): the tables
    every chain of :func:`run_suite` is decided and reported on.  Returns
    (D, R, den) per metric: R[i][j] is the value ``metric.evaluate`` gives
    on that pair's joint, as the system prints it
    (:func:`~ordist.arith.shown`), and D holds the exact values as ints
    over the lcm den of their denominators, so a residual on D is a plain
    int N and N / den is the exact residual.  A distance that is not
    finite raises MetricEvaluationError.

    An order-distance family metric never leaves ints:
    :func:`~ordist.metrics._mass_below` sums each covering table's int
    pair sums (the ints :func:`~ordist.probspace.bivariate` would divide)
    to an int over that table's denominator, each is reduced by its gcd
    with the denominator, and D and den follow by the lcm as
    :func:`~ordist.arith.over_lcm` gives them on the values.  R is then
    None on an exact system, to be read as the Fractions D[i][j] / den,
    the values ``evaluate`` returns.  Any other metric is evaluated on the pairs'
    marginals, each built once."""
    n = len(pts)

    def table(values: Iterable) -> list[list]:
        T: list[list] = [[None] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            T[i][j] = v
        return T

    covering = [_cover_table(by_t, C[i][j]) for i, j in pairs] if metrics else []
    regime = _system_label(by_t.values())
    grids = marginals = None
    screens = []
    for metric in metrics:
        name = metric.describe()
        if type(metric).evaluate is _RankedMetric.evaluate:
            if grids is None:
                # (i, j) and (j, i) share a cover: one grid per unordered
                # pair, read transposed for the other order
                grids, built = [], {}
                for (i, j), t in zip(pairs, covering):
                    a, b = t.design.index(pts[i].input), t.design.index(pts[j].input)
                    ints, t_den = t.scaled()
                    grid = built.get((j, i))
                    grid = _pair_grid(t, a, b, ints) if grid is None else tuple(zip(*grid))
                    built[i, j] = grid
                    grids.append((t.axes[a], t.axes[b], grid, t_den))
            nums, dens = [], []
            for (i, j), (rows, cols, grid, t_den) in zip(pairs, grids):
                total = _mass_below(rows, cols, grid, metric.rank_of, pts[i], pts[j]) or 0
                g = math.gcd(total, t_den)
                nums.append(total // g)
                dens.append(t_den // g)
            den = math.lcm(*dens)
            ints, raw = list(map(mul, nums, map(den.__floordiv__, dens))), None
        else:
            if marginals is None:
                marginals = [_pair_marginal(t, pts[i], pts[j]) for (i, j), t in zip(pairs, covering)]
            raw = list(map(metric.evaluate, marginals))
            ints, den = over_lcm(_finite_distances(raw, name))
        if regime == FLOAT:
            raw = _finite_distances(map(Fraction, ints, itertools.repeat(den)), name, regime)
        screens.append((table(ints), None if raw is None else table(raw), den))
    return screens


def _float_terms(R: Optional[list[list]], pairs: Sequence[tuple[int, int]]) -> Optional[bool]:
    """Whether the chains of a screen (D, R, den) have float terms: False
    when no value over `pairs` is a float (R None included), True when
    every one is, None when they mix and each chain's own terms decide."""
    floats = 0 if R is None else sum(isinstance(R[i][j], float) for i, j in pairs)
    return False if not floats else True if floats == len(pairs) else None


def _flag_bound(floats: Optional[bool], den: int, eps_test: float) -> int:
    """An int B such that every chain :func:`_chain_reporter` flags on a
    screen over den with :func:`_float_terms` `floats` has an int residual
    N < B: 0 when no value is a float (flagged when N < 0),
    -floor(eps_test * den) when every value is (when N / den < -eps_test,
    compared exactly), and the larger of the two when they mix."""
    if floats is False:
        return 0
    bound = -math.floor(Fraction(eps_test) * den)
    return bound if floats else max(0, bound)


def _tetrad_total(design: Design) -> int:
    """How many tetrads :func:`_tetrad_indices` yields: a(a-1)b(b-1) over
    the ordered pairs of distinct inputs with a and b values."""
    s = [len(design.values[name]) * (len(design.values[name]) - 1) for name in design.inputs]
    return sum(s) ** 2 - sum(v * v for v in s)


def _tetrad_hits(
    design: Design, tables: Sequence[tuple[list[list], int]]
) -> list[tuple[tuple[int, ...], int]]:
    """Every tetrad of :func:`_tetrad_indices` whose residual is below table
    k's bound, as ((a, b, c, d), k), in no set order.  `tables` holds an int
    table and an int bound (G, B) per metric: a screen's D and its
    :func:`_flag_bound`.

    The residual of the tetrad x, y, x', y' (indices a, b, c, d) is
    f(y) + g(y'), with f(y) = G[x][y] + G[y][x'] and
    g(y') = G[x'][y'] - G[x][y'].  So for each x, x' of one input and each
    other input Y, the hits are, for each y, the y' other than y with
    g(y') < B - f(y): a prefix of Y's points sorted by g, found by
    bisection.  When min f + min g is not below B there is none, and Y's
    points are not sorted."""
    pts = design.points()
    of_input = [[i for i, p in enumerate(pts) if p.input == name] for name in design.inputs]
    groups = [points for points in of_input if len(points) >= 2]
    hits = []
    for k, (G, B) in enumerate(tables):
        for xs in groups:
            for ys in groups:
                if ys is xs:
                    continue
                # per point of X: its distances to Y's points, and theirs to it
                to_y = {a: [G[a][y] for y in ys] for a in xs}
                from_y = {c: [G[y][c] for y in ys] for c in xs}
                for a, c in itertools.permutations(xs, 2):
                    ra, rc, cc = to_y[a], to_y[c], from_y[c]
                    if min(map(sub, rc, ra)) + min(map(add, ra, cc)) >= B:
                        continue
                    order = sorted(zip(map(sub, rc, ra), ys))
                    gs = [g for g, _ in order]
                    for b, f in zip(ys, map(add, ra, cc)):
                        n = bisect_left(gs, B - f)
                        if n:
                            hits.extend(((a, b, c, d), k) for _, d in order[:n] if d != b)
    return hits


def _cycle_hits(
    cycles: dict[int, list[tuple[int, ...]]], tables: Sequence[tuple[list[list], int]]
) -> list[tuple[tuple[int, ...], int]]:
    """Every traversal of `cycles` (:func:`_chordless_cycles`) whose
    residual is below table k's bound, as (sequence, k), in no set order.
    `tables` holds an int table and an int bound per metric, as for
    :func:`_tetrad_hits`.

    Let F and B be the sums of G around a cycle c_0..c_(l-1) one way and
    the other, and s_i = G[c_i][c_(i+1)] + G[c_(i+1)][c_i].  The traversal
    from c_(i+1) round to c_i leaves out the step c_i, c_(i+1) and closes
    on it the other way, so its residual is F - s_i; the one from c_i back
    round to c_(i+1) has B - s_i.  A cycle whose least residual,
    min(F, B) - max s_i, is not below the bound is passed over whole."""
    hits = []
    for group in cycles.values():
        for cycle in group:
            ahead = cycle[1:] + cycle[:1]
            for k, (G, bound) in enumerate(tables):
                fore = list(map(getitem, map(G.__getitem__, cycle), ahead))
                back = list(map(getitem, map(G.__getitem__, ahead), cycle))
                F, B = sum(fore), sum(back)
                sums = list(map(add, fore, back))
                if min(F, B) - max(sums) >= bound:
                    continue
                for i, s in enumerate(sums):
                    if F - s < bound:
                        hits.append((cycle[i + 1:] + cycle[: i + 1], k))
                    if B - s < bound:
                        hits.append((cycle[i::-1] + cycle[:i:-1], k))
    return hits


class _Over(dict):
    """The Fractions v / den over one denominator by int v, each made on
    first use."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, v: int) -> Fraction:
        self[v] = value = Fraction(v, self.den)
        return value


def _chain_reporter(screen: tuple, floats: Optional[bool], pts: Sequence[InputPoint], C: list[list],
                    name: str, eps_test: float, every: bool = False
                    ) -> Callable[[tuple[int, ...]], Optional[ChainReport]]:
    """The chain kernel of one screen (D, R, den) of :func:`_distance_screen`:
    a function of an index sequence giving the chain's report, covers
    from C, or None if it is not flagged, unless `every`.  The residual
    is D's int N over den, flagged and reported as :func:`_chain_residual`
    does on R's terms; `floats` is :func:`_float_terms` of the screen, or
    None when each chain's own terms say.  With R None the terms are the
    Fractions D[i][j] / den.  Each Fraction v / den of an int v, a term or
    a residual, is made once: a report with thousands of chains holds a
    few dozen distinct values."""
    D, R, den = screen
    float_bound = _flag_bound(True, den, eps_test)
    over = _Over(den)

    def report(seq: tuple[int, ...]) -> Optional[ChainReport]:
        first, last = seq[0], seq[-1]
        n = sum(_adjacent(D, seq)) - D[first][last]
        if R is None:
            terms, inexact = None, False
        else:
            terms = (R[first][last], *_adjacent(R, seq))
            inexact = any(isinstance(v, float) for v in terms) if floats is None else floats
        violated = n < (float_bound if inexact else 0)
        if not (violated or every):
            return None
        if terms is None:
            terms = (over[D[first][last]], *map(over.__getitem__, _adjacent(D, seq)))
        residual = over[n]
        if inexact:
            residual = _float_residual(residual, name)
        elif residual.denominator == 1 and not any(isinstance(v, Fraction) for v in terms):
            residual = residual.numerator  # ints add up to an int
        return ChainReport(tuple(map(pts.__getitem__, seq)), name, terms[0], terms[1:], residual, violated,
                           _covers(C, seq))

    return report


def default_max_len(design: Design) -> int:
    """The sequence length ``check`` tests up to when none is given: 4 on
    a full design, whose irreducible sequences are tetrads, and otherwise
    the number of points (at least 3), so that every chordless cycle is
    tested."""
    return 4 if design.is_full else max(3, len(design.points()))


def run_suite(
    design: Design,
    tables: Iterable[TreatmentTable],
    metrics: Sequence[Metric],
    max_len: int = 6,
    cap: int = MAX_SEQUENCES,
    eps_test: float = EPS_TEST,
) -> SuiteReport:
    """Chain-test the first `cap` irreducible sequences under every metric,
    in :func:`enumerate_irreducible` order, metrics inner.  A report that
    `cap` cuts is marked truncated.

    Assumes a validated, marginally selective system; distances are then
    witness-independent, so they are computed once per (metric, ordered
    point pair) by :func:`_distance_screen`, over the tetrad pairs of a
    full design or the covered pairs of distinct points of another.  Every
    irreducible sequence is screened: a full design's tetrads, counted in
    closed form, by :func:`_tetrad_hits`, per x, x' and other input on
    the points of that input sorted once; a restricted design's cycles by
    :func:`_cycle_hits`, each on two sums around it.  A hit is a
    (sequence, metric) whose int residual is below the screen's
    :func:`_flag_bound` (exactly the negative ones on a table of exact
    values).  The hits are sorted once into suite order, cut past the
    cap-th sequence when the cap cuts (on a full design found in closed
    form by :func:`_tetrad_at`), and each is decided, and reported
    when flagged, by its screen's :func:`_chain_reporter`.  A restricted
    design's sequences are counted 2l per cycle, and past `cap` of them
    the cycle pass stops extending paths past the length at which the cap
    is reached (:func:`_trim`).
    """
    by_t = _tables_by_treatment(tables)
    metrics = list(metrics)
    names = [m.describe() for m in metrics]
    pts = design.points()
    full = design.is_full
    C, near, third = design.pair_covers()
    if full:
        # every tetrad pair joins points of two distinct inputs of >= 2
        # values; below length 4 there is no tetrad, so no pair is needed
        multi = [i for i, p in enumerate(pts) if len(design.values[p.input]) >= 2 and max_len >= 4]
        pairs = [(i, j) for i in multi for j in multi if pts[i].input != pts[j].input]
    else:
        pairs = [(i, j) for i, row in enumerate(C) for j, c in enumerate(row) if c is not None and j != i]
    screens = _distance_screen(metrics, pts, pairs, by_t, C)
    floats = [_float_terms(R, pairs) for _, R, _ in screens]
    bounds = [(D, _flag_bound(f, den, eps_test)) for (D, _, den), f in zip(screens, floats)]
    if full:
        total = _tetrad_total(design) if max_len >= 4 else 0
        hits = _tetrad_hits(design, bounds) if total else []
    else:
        cycles = _chordless_cycles(near, third, max_len, cap)
        total = sum(2 * length * len(group) for length, group in cycles.items())
        hits = _cycle_hits(cycles, bounds)
    tested = min(total, max(cap, 0))
    # suite order: shortest sequence first, lexicographic within a length,
    # metric inner
    hits.sort(key=lambda hit: (len(hit[0]), hit))
    if tested < total and hits:
        # keep the hits at or before the cap-th sequence (none at cap 0)
        if not tested:
            last = ()
        elif full:
            last = _tetrad_at(design, tested - 1)
        else:
            last = next(itertools.islice(_in_suite_order(cycles), tested - 1, None))
        del hits[bisect_right(hits, (len(last), last), key=lambda hit: (len(hit[0]), hit[0])):]
    reporters = [
        _chain_reporter(screen, f, pts, C, name, eps_test) for screen, f, name in zip(screens, floats, names)
    ]
    violations = [report for seq, k in hits if (report := reporters[k](seq)) is not None]
    return SuiteReport(
        sequences_tested=tested,
        violations=tuple(violations),
        metrics=tuple(names),
        truncated=total > tested,
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


def _shared_scale(dens: Sequence[int]) -> Optional[int]:
    """The lcm of `dens` when it is at most the square of the largest, else
    None: an int rescaled to it is then no larger than the products of an
    int and a denominator that the per-class scan forms anyway.  The lcm is
    given up on as soon as it passes that bound."""
    top = max(dens)
    bound, scale = top * top, 1
    for den in set(dens):
        scale = math.lcm(scale, den)
        if scale > bound:
            return None
    return scale


def _scan_classes(
    names: tuple, keep: tuple, groups: dict, tables: list, dens: list, marginal: Mapping[int, tuple]
) -> tuple[list, Num, Optional[dict]]:
    """The per-class loop of :func:`check_marginal_selectivity` over the
    input subset `names`, at positions `keep`, whose classes `groups` maps
    from their values there (a bare value for one input) to the positions
    of their tables: (names, values, worst discrepancy) per class of two
    or more tables, and the subset's worst discrepancy with its witness,
    first reached.

    A class whose members share one layout and whose marginals all equal
    the first member's, two denominators cross-multiplied, has discrepancy
    0.  Any other class is scanned member by member, outcome by outcome,
    for the discrepancies and the witness: |a*den - b*ref_den| /
    (ref_den*den) over the ints of `marginal`, compared cross-multiplied,
    so that one Fraction is made per class; an equal member scans to 0."""
    classes = []
    worst: Num = 0
    witness = None
    for values, group in groups.items():
        if len(group) < 2:
            continue
        key = values if len(names) > 1 else (values,)
        pick = itemgetter(*group)
        tabs, group_dens, marginals = pick(tables), pick(dens), pick(marginal)
        group_layouts = [t.axes for t in tabs]
        shared = group_layouts.count(group_layouts[0]) == len(group_layouts)
        if shared and _agree(marginals, group_dens):
            classes.append((names, key, 0))
            continue
        ref, ref_den = tabs[0], group_dens[0]
        ref_d = _keyed([ref.axes[i] for i in keep], marginals[0])
        ref_outcomes = list(ref_d)
        # the class's worst discrepancy, top / scale, first reached at `found`
        top, scale, found = 0, 1, None
        for other, den, m in zip(tabs[1:], group_dens[1:], marginals[1:]):
            if shared:
                outcomes = ref_outcomes
                gaps = [abs(a * den - b * ref_den) for a, b in zip(marginals[0], m)]
            else:
                d = _keyed([other.axes[i] for i in keep], m)
                # deterministic scan order so tied witnesses are stable
                outcomes = ref_outcomes + [k for k in d if k not in ref_d]
                gaps = [abs(ref_d.get(o, 0) * den - d.get(o, 0) * ref_den) for o in outcomes]
            gap = max(gaps)
            if gap * scale > top * ref_den * den:
                top, scale, found = gap, ref_den * den, (other, outcomes[gaps.index(gap)])
        class_worst = Fraction(top, scale) if top else 0
        classes.append((names, key, class_worst))
        if class_worst > worst:
            worst = class_worst
            other, outcome = found
            witness = {
                "inputs": list(names),
                "assignment": list(key),
                "treatments": [list(ref.treatment), list(other.treatment)],
                "outcome": list(outcome) if isinstance(outcome, tuple) else [outcome],
                "discrepancy": worst,
            }
    return classes, worst, witness


def check_marginal_selectivity(
    design: Design,
    tables: Iterable[TreatmentTable],
    eps: float = EPS_TEST,
) -> MarginalSelectivityReport:
    """Compare marginals that must agree: for every proper subset of the
    inputs (the one input of a one-input design), treatments assigning the
    same values there must induce the same marginal over those outputs,
    compared exactly: within eps on a system labelled "float", whose worst
    discrepancy prints as a float.  ``classes`` lists (inputs, values,
    worst discrepancy) per class of two or more tables, smaller subsets
    first, each size in combinations order, classes in order of their first
    table.

    The marginals of all tables of one cell layout (the same axes) are
    summed together, column by column over the tables' ints
    (:meth:`TreatmentTable.scaled`) transposed, once per subset through the
    subset lattice (:func:`~ordist.probspace._lattice_sums`): each subset
    from the smallest marginal over one more input, already summed, larger
    subsets first.  Each subset is decided as it is summed, and the
    subsets' classes, worst discrepancies and witnesses are then merged in
    the order above, so the witness is the first reaching the worst.

    The tables' ints are first put on one shared denominator, the lcm of
    theirs, when that lcm is at most the square of the largest denominator
    (:func:`_shared_scale`): a rescaled int is then no larger than the
    products the per-class loop forms.  When every denominator divides the
    largest, the lcm is the largest.  On the shared scale two tables'
    marginals agree exactly when their ints and kept axes are equal, so an
    input subset is decided in one pass: every class agrees when the set of
    (values, kept axes, marginal) over all tables holds one entry per class,
    and its classes then have discrepancy 0.  A subset that fails this goes
    through the per-class loop (:func:`_scan_classes`), the one place that
    computes discrepancies and the witness.  So does every subset of a
    system with no shared scale (tables over distinct primes, say) and of a
    system labelled "float", whose rounded marginals rarely agree exactly:
    it keeps the member-by-member scan."""
    tables = list(tables)
    # per table: its ints over their denominator; per layout (axes), the
    # positions of its tables
    cells, dens = [], []
    layouts: dict[tuple, list[int]] = {}
    for p, t in enumerate(tables):
        c, den = t.scaled()
        cells.append(c)
        dens.append(den)
        layouts.setdefault(t.axes, []).append(p)
    regime = _system_label(tables)
    # rounding leaves a float system's marginals rarely exactly equal
    scale = _shared_scale(dens) if dens and regime != FLOAT else None
    # per layout: its subset marginals, summed from its cells transposed,
    # one tuple per cell, on the shared scale when there is one
    lattices = []
    for axes, ps in layouts.items():
        columns = list(zip(*map(cells.__getitem__, ps)))
        if scale is not None:
            factors = [scale // dens[p] for p in ps]
            if factors.count(1) != len(factors):
                columns = [tuple(map(mul, column, factors)) for column in columns]
        lattices.append(_lattice_sums(columns, tuple(map(len, axes))))
    if scale is not None:
        dens = [scale] * len(tables)
    treatments = [t.treatment for t in tables]
    # input subset (positions) -> its classes, worst discrepancy and witness
    decided: dict[tuple, tuple] = {}
    for layer in zip(*lattices):
        keep = layer[0][0]
        names = tuple(map(design.inputs.__getitem__, keep))
        values_at = itemgetter(*keep)
        keys = list(map(values_at, treatments))
        if scale is not None:
            counts = Counter(keys)
            kept: dict[tuple, int] = {}
            entries: set = set()
            for (axes, ps), (_, sums) in zip(layouts.items(), layer):
                kept_id = kept.setdefault(values_at(axes), len(kept))
                layout_keys = keys if len(ps) == len(keys) else map(keys.__getitem__, ps)
                entries.update(zip(layout_keys, itertools.repeat(kept_id), zip(*sums)))
            if len(entries) == len(counts):
                keyed = counts.items() if len(keep) > 1 else (((k,), n) for k, n in counts.items())
                decided[keep] = ([(names, k, 0) for k, n in keyed if n > 1], 0, None)
                continue
        # position -> that table's marginal over keep, a tuple
        marginal: dict[int, tuple] = {}
        for ps, (_, sums) in zip(layouts.values(), layer):
            marginal.update(zip(ps, zip(*sums)))
        # the values at keep -> the positions of the tables assigning them
        groups: dict = {}
        for p, values in enumerate(keys):
            groups.setdefault(values, []).append(p)
        decided[keep] = _scan_classes(names, keep, groups, tables, dens, marginal)
    worst: Num = 0
    witness = None
    classes = []
    for keep in sorted(decided, key=lambda keep: (len(keep), keep)):
        part, subset_worst, subset_witness = decided[keep]
        classes += part
        if subset_worst > worst:
            worst, witness = subset_worst, subset_witness
    passed = worst <= eps if regime == FLOAT else worst == 0
    if worst:
        worst = witness["discrepancy"] = shown(worst, regime)
    return MarginalSelectivityReport(
        passed=passed, max_discrepancy=worst, witness=witness, classes=tuple(classes)
    )


def transform_outputs(tables: Iterable[TreatmentTable], relabel) -> list[TreatmentTable]:
    """Push every table through a per-input-point relabeling of outcomes.

    ``relabel(input, input_value, outcome_value)`` need not be injective;
    mass merges under the new labels.  Marginal selectivity survives
    because the relabeling depends only on the input point.  Each table
    keeps its label.
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
        new = TreatmentTable(design, t.treatment, probs, axes=new_axes)
        out.append(new if new.regime() == t.regime() else new._labelled(t.regime()))
    return out
