"""Equality-form LP feasibility: find x >= 0 with A x = b, or refute it.

Phase-1 simplex in exact arithmetic.  The answer is either a basic point
whose phase-1 objective (the total of the artificial variables) is at
most a stated tolerance, 0 by default, or a Farkas certificate y with
yA <= 0 componentwise and y.b > 0, which no nonnegative solution can
coexist with.  The entries of A and b are ints and Fractions; a float
is a TypeError, since every float is an exact binary fraction that the
caller reads as one (``Fraction(float)``).

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

The tableau has the n columns of A, then m artificial columns (the
starting identity basis), then the right-hand side; a row whose b_i is
negative is negated first.  The phase-1 cost row has the same layout.

Each row is stored as a list of Python ints R plus one positive int
denominator D, so the tableau entry in column j is R[j] / D.  Each input
row is scaled once by the lcm of its entries' denominators.  A pivot
on row r and column e turns the pivot row into R_r / R_r[e], and every
other row with R_i[e] != 0 (the cost row included) into

    R_i * R_r[e] - R_i[e] * R_r   over   D_i * R_r[e],

where the subtraction runs only over the columns in which R_r is nonzero;
the row is then divided by the gcd of its entries and its denominator.
Rows with a zero in column e are not touched.  The JDC matrices are 0/1
and sparse, so most of the work a dense `Fraction` tableau spends on
rewriting zeros, and on a gcd per cell, is never done.

Every choice is the one a dense rational tableau would make, because it
depends only on signs, orders and ratios that the integer rows give
exactly.  The cost row's denominator is positive, so the most negative
reduced cost is the smallest numerator, and the first negative one the
first negative numerator.  A row's denominator cancels in its own ratio,
so the ratio is R_i[-1] / R_i[e], compared by cross-multiplying; a pivot
is degenerate when R_r[-1] is 0.

The pivot sequence, the iteration count, the witness and the Farkas
certificate are therefore those of the dense `Fraction` loop with the same
rule, which the tests keep as a reference (``tests/lp_reference.py``).

The tolerance enters only the verdict.  The simplex runs to an optimal
basis as it does at tolerance 0, and the objective it reaches, a
`Fraction`, is compared exactly with the tolerance: at most, and the
point is returned with the artificial variables dropped; above, and the
certificate's y.b, which equals the objective, is positive.

Certificates and witnesses are verified by the caller-facing helpers
below; nothing is reported unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
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


def _eliminate(row: list[int], den: int, prow: list[int], nz: list, enter: int):
    """Integer row minus row[enter] times the pivot row prow / prow[enter],
    where nz lists prow's nonzero entries as (column, value) pairs: the new
    ints and denominator, in lowest terms."""
    p, f = prow[enter], row[enter]
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


def _tableau(rows, rhs, n: int, m: int):
    """Integer rows with their denominators and signs, and the integer
    phase-1 cost row with its denominator."""
    T, den, signs = [], [], []
    for i in range(m):
        ints, d = over_lcm((*rows[i], rhs[i]))
        sign = -1 if ints[-1] < 0 else 1
        if sign < 0:
            ints = [-v for v in ints]
        art = [0] * m
        art[i] = d
        T.append(ints[:n] + art + ints[n:])
        den.append(d)
        signs.append(sign)
    # reduced costs of the phase-1 cost (1 on artificials): minus the
    # column sums, accumulated over each row's nonzero entries; the last
    # slot carries minus the phase-1 objective
    cden = lcm(*den)
    cost = [0] * (n + m + 1)
    for row, d in zip(T, den):
        s = cden // d
        for j in compress(range(n), row):
            cost[j] -= row[j] * s
        cost[-1] -= row[-1] * s
    g = gcd(cden, *cost)
    return T, den, signs, [v // g for v in cost], cden // g


def _leaving_row(T, basis, enter: int) -> int:
    """Bland's leaving row: the smallest R[-1] / R[enter] over the rows with
    R[enter] > 0, compared by cross-multiplying, ties to the smaller basic
    variable; -1 when no entry is positive."""
    leave = -1
    for i, row in enumerate(T):
        a = row[enter]
        if a > 0:
            if leave >= 0:
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_b, best_a = i, row[-1], a
    return leave


def solve_equality_feasibility(
    rows: Sequence[Sequence[Num]],
    rhs: Sequence[Num],
    eps: Num = 0,
) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b}: feasible when the least phase-1
    objective is at most eps, compared exactly."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    ncols = n + m
    T, den, signs, cost, cden = _tableau(rows, rhs, n, m)
    basis = list(range(n, ncols))

    iterations = 0
    degenerate = 0
    while True:
        if degenerate < DEGENERATE_RUN:
            # Dantzig: the most negative reduced cost, ties to the smaller
            # column (index finds the first occurrence)
            low = min(cost[:ncols], default=0)
            enter = cost.index(low) if low < 0 else -1
        else:
            # Bland: the first negative reduced cost
            enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave = _leaving_row(T, basis, enter)
        if leave < 0:
            raise NumericalInstability("phase-1 objective unbounded")
        degenerate = degenerate + 1 if T[leave][-1] == 0 else 0
        iterations += 1
        if iterations > MAX_PIVOTS:
            raise NumericalInstability(f"no convergence after {MAX_PIVOTS} pivots")
        prow = T[leave]
        g = gcd(*prow)
        if g != 1:
            T[leave] = prow = [v // g for v in prow]
        den[leave] = prow[enter]
        nz = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(T):
            if i != leave and row[enter]:
                T[i], den[i] = _eliminate(row, den[i], prow, nz, enter)
        if cost[enter]:
            cost, cden = _eliminate(cost, cden, prow, nz, enter)
        basis[leave] = enter

    b = [Fraction(T[i][-1], den[i]) for i in range(m)]
    objective = sum(b[i] for i in range(m) if basis[i] >= n)
    if objective <= eps:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = b[i]
        return FeasibilityResult(True, x, None, objective, iterations)
    # Farkas certificate from the phase-1 duals: y_i = 1 - reduced cost of
    # artificial i, flipped back to the original row orientation.
    y = [Fraction(cden - cost[n + i], cden) * signs[i] for i in range(m)]
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
    exactly."""
    n = len(rows[0]) if rows else 0
    # column sums of y.A, accumulated over the rows with a nonzero
    # multiplier and their nonzero cells
    cols = [0] * n
    for yi, row in zip(y, rows):
        if yi:
            for j, a in enumerate(row):
                if a:
                    cols[j] += yi * a
    return all(col <= 0 for col in cols) and sum(yi * bi for yi, bi in zip(y, rhs)) > 0
