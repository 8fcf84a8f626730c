"""Equality-form LP feasibility: find x >= 0 with A x = b, or refute it.

Phase-1 simplex in exact arithmetic.  The answer is either a basic point
whose phase-1 objective (the total of the artificial variables) is at
most a stated tolerance, 0 by default, or a Farkas certificate y with
yA <= 0 componentwise and y.b > 0, which no nonnegative solution can
coexist with.

Input.  A is a 0/1 matrix, as every JDC system is: each hidden
assignment lands in exactly one cell of each treatment's table.  Its
entries are the ints or Fractions 0 and 1, and b's are ints and
Fractions.  A float is a TypeError, since every float is an exact binary
fraction that the caller reads as one (``Fraction(float)``); any other
entry of A is a ValueError that names it.  A negative b_i refutes the
system before any pivot, whatever the tolerance, by y = -e_i: y A = -A_i
<= 0 and y.b = -b_i > 0, and the objective reported is that y.b.  So the
simplex starts from b >= 0 and never negates a row.

Pricing.  The entering column is the one with the most negative reduced
cost, ties to the smaller column (Dantzig's rule).  A pivot is degenerate
when its leaving row's right-hand side is 0: the point and the phase-1
objective stay where they are.  After DEGENERATE_RUN degenerate pivots in
a row the entering column is the first one with a negative reduced cost
(Bland's rule), until a pivot is not degenerate; then Dantzig's rule
returns.  The leaving row is always the smallest ratio b_i / a_ie over
the rows with a_ie > 0, ties to the smaller basic variable.

Termination.  A pivot that is not degenerate lowers
the phase-1 objective, which a basis determines, so no basis recurs
across one, and there are finitely many bases.  A run of degenerate
pivots either ends within DEGENERATE_RUN pivots or goes on under Bland's
rule, which cannot cycle (Bland 1977); so every run ends, in a pivot
that is not degenerate or at an optimal basis.  Dantzig's rule alone can
cycle.

The tableau this simplex pivots is the textbook one: the n columns of A,
then m artificial columns (the starting identity basis), then the
right-hand side, and a phase-1 cost row of the same layout.  At a basis
with matrix B it reads B^-1 [A | I | b], and its cost row
[-y A | 1 - y | -y b], with y the phase-1 duals.

What is stored.  Only the artificial and right-hand-side blocks: the m
rows of [B^-1 | B^-1 b], and the cost row's [1 - y | -y b].  Each row is
a list of m + 1 Python ints R plus one positive int denominator D, so
its entry k is R[k] / D.  The input is read once into sparse columns:
column j of A is the list of rows that contain it.  Each pivot derives
what the dense tableau would hold where a choice looks, as plain sums
over those rows, since every entry of A there is 1:

- the reduced cost of column j of A, -y A_j, as sum_k (C[k] - D_c) over
  the column's rows k, over D_c, where C / D_c is the cost row;
  artificial k's is C[k] / D_c;
- the entering column's entry in row i, (B^-1 A_e)_i, as sum_k R_i[k]
  over the column's rows k, over D_i; artificial k's is R_i[k] / D_i.

A pivot on row r turns every other row with a nonzero numerator f in
the entering column (the cost row included, with f its reduced cost's
numerator) into

    R_i * p - f * R_r   over   D_i * p,

where p is row r's numerator and the subtraction runs only over the
entries in which R_r is nonzero; D_r cancels.  Row r becomes R_r over p.
Every row is then divided by the gcd of its entries and its denominator.
Pricing is one pass over A's nonzeros and the entering column m short
sums.  The reduced costs are the one list n wide a pivot builds; no row
is n wide.

Every choice is the one a dense rational tableau would make, because it
depends only on signs, orders and ratios that these integers give
exactly.  Every reduced cost, of A's columns and the artificial ones
alike, is a numerator over the one positive denominator D_c, so the most
negative is the smallest numerator, and the first negative the first
negative numerator.  Row i's entering entry and right-hand side share
D_i, so its ratio is R_i[m] / f_i, compared by cross-multiplying; a
pivot is degenerate when R_r[m] is 0.

The pivot sequence, the iteration count, the witness and the Farkas
certificate are therefore those of the dense `Fraction` loop with the same
rule, which the tests keep as a general reference for any rational A
(``tests/lp_reference.py``).

The tolerance enters only the verdict.  The simplex runs to an optimal
basis as it does at tolerance 0, and the objective it reaches, a
`Fraction`, is compared exactly with the tolerance: at most, and the
point is returned with the artificial variables dropped; above, and the
certificate's y.b, which equals the objective, is positive.

Certificates and witnesses are verified by the caller-facing helpers
below, which take any rational A; nothing is reported unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul
from typing import Optional, Sequence

from .arith import Num, over_lcm
from .errors import NumericalInstability

#: consecutive degenerate pivots after which the entering column is chosen
#: by Bland's rule, until the next pivot that is not degenerate.  The
#: longest run seen on JDC problems (the benchmark's systems and 3x3
#: designs with binary outputs) is 20 pivots, so Bland's rule, which needs
#: far more pivots there, stays a guard against cycling.
DEGENERATE_RUN = 50

#: pivots after which the solve gives up with NumericalInstability
MAX_PIVOTS = 50_000


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    x: Optional[list]
    certificate: Optional[list]
    objective: Num
    iterations: int


def _eliminate(row: list[int], den: int, prow: list[int], nz: list, p: int, f: int):
    """Integer row minus f / p times the pivot row prow, where nz lists
    prow's nonzero entries as (index, value) pairs: the new ints and
    denominator, in lowest terms."""
    g = gcd(p, f)
    p //= g
    f //= g
    if p != 1:
        row = [v * p for v in row]
        den *= p
    for j, a in nz:
        row[j] -= f * a
    g = gcd(den, *row)
    if g != 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _denominators(values) -> list[int]:
    """The values' denominators; a value that is not an int or a Fraction,
    a float included, is a TypeError."""
    try:
        return list(map(attrgetter("denominator"), values))
    except AttributeError:
        raise TypeError("the simplex takes ints and Fractions") from None


def _columns(rows, n: int):
    """Per column of A a getter of its rows' entries from a list of m
    values.  A float entry is a TypeError, and any other entry that is not
    0 or 1 a ValueError that names it."""
    at = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        _denominators(row)  # a float is a TypeError
        if not {*row} <= {0, 1}:
            bad = next(v for v in row if v != 0 and v != 1)
            raise ValueError(f"the simplex takes 0/1 rows, and row {i} holds {bad}")
        for j in compress(range(n), row):
            at[j].append(i)
    return [_getter(col) for col in at]


def _getter(rows: list[int]):
    """A getter of the entries at `rows`, as a tuple or a list to sum."""
    if len(rows) > 1:
        return itemgetter(*rows)
    # itemgetter of one index returns the entry itself, and of a slice a list
    return itemgetter(slice(rows[0], rows[0] + 1) if rows else slice(0))


def _start(rhs, m: int):
    """The rows [I | b] with their denominators, and the phase-1 cost row
    [0 | -sum b] with its denominator."""
    T, den = [], []
    for i, (v, d) in enumerate(zip(rhs, _denominators(rhs))):
        row = [0] * (m + 1)
        row[i] = d
        row[m] = v.numerator
        T.append(row)
        den.append(d)
    cden = lcm(*den)
    total = sum(row[m] * (cden // d) for row, d in zip(T, den))
    g = gcd(cden, total)
    cost = [0] * (m + 1)
    cost[m] = -(total // g)
    return T, den, cost, cden // g


def _reduced_costs(cost: list[int], cden: int, cols, m: int) -> list[int]:
    """Numerators over cden of every column's reduced cost: A's columns,
    then the artificial ones."""
    w = [c - cden for c in cost[:m]]
    return [sum(col(w)) for col in cols] + cost[:m]


def _entering(T, cols, enter: int, n: int) -> list[int]:
    """Each row's numerator of its entry in column enter, over the row's
    denominator."""
    if enter >= n:
        k = enter - n
        return [row[k] for row in T]
    col = cols[enter]
    return [sum(col(row)) for row in T]


def _leaving_row(T, basis, num: list[int], m: int) -> int:
    """Bland's leaving row: the smallest R[m] / num over the rows with
    num > 0, compared by cross-multiplying, ties to the smaller basic
    variable; -1 when no numerator is positive."""
    leave = -1
    for i, a in enumerate(num):
        if a > 0:
            b = T[i][m]
            if leave >= 0:
                lhs, rhs = b * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_b, best_a = i, b, a
    return leave


def solve_equality_feasibility(
    rows: Sequence[Sequence[Num]],
    rhs: Sequence[Num],
    eps: Num = 0,
) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b} for a 0/1 matrix A: feasible when the
    least phase-1 objective is at most eps, compared exactly.  A negative
    b_i is refuted before any pivot, whatever eps is."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    cols = _columns(rows, n)
    T, den, cost, cden = _start(rhs, m)
    least = min(rhs, default=0)
    if least < 0:
        # y = -e_i: y A = -A_i <= 0 and y b = -b_i > 0
        y = [Fraction(0)] * m
        y[rhs.index(least)] = Fraction(-1)
        return FeasibilityResult(False, None, y, -least, 0)
    basis = list(range(n, n + m))

    iterations = 0
    degenerate = 0
    while True:
        red = _reduced_costs(cost, cden, cols, m)
        if degenerate < DEGENERATE_RUN:
            # Dantzig: the most negative reduced cost, ties to the smaller
            # column (index finds the first occurrence)
            low = min(red, default=0)
            enter = red.index(low) if low < 0 else -1
        else:
            # Bland: the first negative reduced cost
            enter = next((j for j, r in enumerate(red) if r < 0), -1)
        if enter < 0:
            break
        num = _entering(T, cols, enter, n)
        leave = _leaving_row(T, basis, num, m)
        if leave < 0:
            raise NumericalInstability("phase-1 objective unbounded")
        degenerate = degenerate + 1 if T[leave][m] == 0 else 0
        iterations += 1
        if iterations > MAX_PIVOTS:
            raise NumericalInstability(f"no convergence after {MAX_PIVOTS} pivots")
        prow, p = T[leave], num[leave]
        g = gcd(*prow)
        if g != 1:
            prow = [v // g for v in prow]
            p //= g
        nz = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(T):
            if i != leave and num[i]:
                T[i], den[i] = _eliminate(row, den[i], prow, nz, p, num[i])
        cost, cden = _eliminate(cost, cden, prow, nz, p, red[enter])
        T[leave], den[leave], basis[leave] = prow, p, enter

    b = [Fraction(row[m], d) for row, d in zip(T, den)]
    objective = sum(b[i] for i in range(m) if basis[i] >= n)
    if objective <= eps:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = b[i]
        return FeasibilityResult(True, x, None, objective, iterations)
    # Farkas certificate from the phase-1 duals: y_i = 1 - reduced cost of
    # artificial i
    y = [Fraction(cden - cost[i], cden) for i in range(m)]
    return FeasibilityResult(False, None, y, objective, iterations)


def verify_solution(rows, rhs, x, eps: float = 0.0) -> bool:
    """x >= 0 and |A x - b| <= eps per constraint, exactly.

    x and b are ints and Fractions, and eps is read as the binary fraction
    it is.  x is scaled to ints over the lcm den of its nonzero entries'
    denominators, and each row's int total t is compared with its target
    b as |t * b.denominator - b.numerator * den| <= eps * den *
    b.denominator: the same test, without a Fraction per term."""
    cols = [j for j, v in enumerate(x) if v]
    ints, den = over_lcm(x[j] for j in cols)
    if any(v < 0 for v in ints):
        return False
    tol = Fraction(eps)
    support = list(zip(cols, ints))
    for row, target in zip(rows, rhs):
        total = sum(row[j] * v for j, v in support if row[j])
        miss = abs(total * target.denominator - target.numerator * den)
        if miss * tol.denominator > tol.numerator * den * target.denominator:
            return False
    return True


def verify_certificate(rows, rhs, y) -> bool:
    """y refutes {x >= 0 : A x = b}: y.A <= 0 componentwise and y.b > 0,
    exactly.

    y.b is summed in ints: each nonzero multiplier over the lcm of their
    denominators, each of their right-hand sides over the lcm of theirs.
    Both lcms are positive, so the int total has y.b's sign."""
    n = len(rows[0]) if rows else 0
    # column sums of y.A, accumulated over the rows with a nonzero
    # multiplier and their nonzero cells
    cols = [0] * n
    for yi, row in zip(y, rows):
        if yi:
            for j, a in enumerate(row):
                if a:
                    cols[j] += yi * a
    if not all(col <= 0 for col in cols):
        return False
    used = [(yi, bi) for yi, bi in zip(y, rhs) if yi]
    ys, _ = over_lcm(yi for yi, _ in used)
    bs, _ = over_lcm(bi for _, bi in used)
    return sum(map(mul, ys, bs)) > 0
