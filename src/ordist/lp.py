"""Equality-form LP feasibility: find x >= 0 with A x = b, or refute it.

Phase-1 simplex with Bland's rule.  On exact rationals (the reference
mode) Bland's rule excludes cycling, so the answer is a theorem: either a
basic feasible point or a Farkas certificate y with yA <= 0 componentwise
and y.b > 0, which no nonnegative solution can coexist with.  Float mode
uses the same pivoting with an epsilon and a bounded iteration count and
raises NumericalInstability when it cannot finish or cannot verify its own
answer; rerunning in rational mode is the fix.

The tableau has the n columns of A, then m artificial columns (the
starting identity basis), then the right-hand side; a row whose b_i is
negative is negated first.  The phase-1 cost row has the same layout.

Exact mode stores each row as a list of Python ints R plus one positive
int denominator D, so the tableau entry in column j is R[j] / D.  Each
input row is scaled once by the lcm of its entries' denominators.  A pivot
on row r and column e turns the pivot row into R_r / R_r[e], and every
other row with R_i[e] != 0 (the cost row included) into

    R_i * R_r[e] - R_i[e] * R_r   over   D_i * R_r[e],

where the subtraction runs only over the columns in which R_r is nonzero;
the row is then divided by the gcd of its entries and its denominator.
Rows with a zero in column e are not touched.  The JDC matrices are 0/1
and sparse, so most of the work a dense `Fraction` tableau spends on
rewriting zeros, and on a gcd per cell, is never done.

Bland's choices are the ones a dense rational tableau would make, because
they depend only on signs and ratios that the integer rows give exactly:

- entering column: the first one with a negative reduced cost.  The cost
  row's denominator is positive, so that is the first negative numerator.
- leaving row: the smallest b_i / a_ie over the rows with a_ie > 0, ties
  to the smaller basic variable.  A row's denominator cancels in its own
  ratio, so the ratio is R_i[-1] / R_i[e], compared by cross-multiplying.

The pivot sequence, the iteration count, the witness and the Farkas
certificate are therefore those of the dense `Fraction` loop, which the
tests keep as a reference (``tests/lp_reference.py``).

Float mode keeps floats, normalises the pivot row by its pivot and
applies the same sparse row update.

Certificates and witnesses are verified by the caller-facing helpers
below; nothing is reported unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Optional, Sequence

from .arith import Num, is_exact, over_lcm
from .errors import NumericalInstability


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    x: Optional[list]
    certificate: Optional[list]
    objective: Num
    iterations: int


def _subtract(row: list, f, nz: list) -> None:
    """row -= f * pivot row, where nz lists the pivot row's nonzero
    entries as (column, value) pairs."""
    for j, a in nz:
        row[j] -= f * a


def _eliminate(row: list[int], den: int, prow: list[int], nz: list, enter: int):
    """Integer row minus row[enter] times the pivot row prow / prow[enter]:
    the new ints and denominator, in lowest terms."""
    p, f = prow[enter], row[enter]
    g = gcd(p, f)
    p //= g
    f //= g
    if p != 1:
        row = [v * p for v in row]
        den *= p
    _subtract(row, f, nz)
    g = gcd(den, *row)
    if g != 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _exact_tableau(rows, rhs, n: int, m: int):
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


def _float_tableau(rows, rhs, n: int, m: int):
    """Float rows with their signs, and the phase-1 cost row."""
    T, signs = [], []
    for i in range(m):
        row = [float(v) for v in rows[i]]
        b = float(rhs[i])
        sign = -1 if b < 0 else 1
        if sign < 0:
            row = [-v for v in row]
            b = -b
        T.append(row + [1.0 if k == i else 0.0 for k in range(m)] + [b])
        signs.append(sign)
    cost = [-sum(T[i][j] for i in range(m)) for j in range(n)] + [0.0] * m
    cost.append(-sum(T[i][n + m] for i in range(m)))
    return T, signs, cost


def _exact_leaving_row(T, basis, enter: int) -> int:
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


def _float_leaving_row(T, basis, enter: int, eps: float) -> int:
    """Bland's leaving row over the entries above eps; -1 when none is."""
    leave = -1
    best = None
    for i, row in enumerate(T):
        a = row[enter]
        if a > eps:
            ratio = row[-1] / a
            if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                best = ratio
                leave = i
    return leave


def solve_equality_feasibility(
    rows: Sequence[Sequence[Num]],
    rhs: Sequence[Num],
    eps: float = 0.0,
    max_iter: Optional[int] = None,
) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b}.  eps=0 demands exact arithmetic."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    exact = eps == 0
    ncols = n + m
    if exact:
        T, den, signs, cost, cden = _exact_tableau(rows, rhs, n, m)
        neg = 0
    else:
        T, signs, cost = _float_tableau(rows, rhs, n, m)
        neg = -eps
    basis = list(range(n, ncols))

    if max_iter is None:
        max_iter = 50_000 if exact else 20_000
    iterations = 0
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < neg:
                enter = j
                break
        if enter < 0:
            break
        if exact:
            leave = _exact_leaving_row(T, basis, enter)
        else:
            leave = _float_leaving_row(T, basis, enter, eps)
        if leave < 0:
            raise NumericalInstability("phase-1 objective unbounded; numeric trouble")
        iterations += 1
        if iterations > max_iter:
            hint = "" if exact else "; rerun with rational arithmetic"
            raise NumericalInstability(f"no convergence after {max_iter} pivots{hint}")
        prow = T[leave]
        if exact:
            g = gcd(*prow)
            if g != 1:
                T[leave] = prow = [v // g for v in prow]
            den[leave] = prow[enter]
        else:
            piv = prow[enter]
            if piv != 1:
                inv = 1.0 / piv
                T[leave] = prow = [v * inv for v in prow]
        nz = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(T):
            if i != leave and row[enter]:
                if exact:
                    T[i], den[i] = _eliminate(row, den[i], prow, nz, enter)
                else:
                    _subtract(row, row[enter], nz)
        if cost[enter]:
            if exact:
                cost, cden = _eliminate(cost, cden, prow, nz, enter)
            else:
                _subtract(cost, cost[enter], nz)
        basis[leave] = enter

    if exact:
        b = [Fraction(T[i][-1], den[i]) for i in range(m)]
    else:
        b = [T[i][-1] for i in range(m)]
    objective = sum(b[i] for i in range(m) if basis[i] >= n)
    feasible = objective == 0 if exact else objective <= eps
    if feasible:
        x = [Fraction(0) if exact else 0.0] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = b[i]
        return FeasibilityResult(True, x, None, objective, iterations)
    # Farkas certificate from the phase-1 duals: y_i = 1 - reduced cost of
    # artificial i, flipped back to the original row orientation.
    if exact:
        y = [Fraction(cden - cost[n + i], cden) * signs[i] for i in range(m)]
    else:
        y = [(1.0 - cost[n + i]) * signs[i] for i in range(m)]
    return FeasibilityResult(False, None, y, objective, iterations)


def verify_solution(rows, rhs, x, eps: float = 0.0) -> bool:
    """x >= 0 and A x = b, exactly or within eps per constraint."""
    for v in x:
        if (v < 0) if is_exact(v) else (v < -eps):
            return False
    support = [(j, v) for j, v in enumerate(x) if v != 0]
    for row, target in zip(rows, rhs):
        total = sum(row[j] * v for j, v in support if row[j])
        if not abs(total - target) <= eps:
            return False
    return True


def verify_certificate(rows, rhs, y, eps: float = 0.0) -> bool:
    """y refutes {x >= 0 : A x = b}: y.A <= 0 componentwise and y.b > 0."""
    n = len(rows[0]) if rows else 0
    # column sums of y.A, accumulated row by row over the nonzero cells
    cols = [0] * n
    for yi, row in zip(y, rows):
        for j, a in enumerate(row):
            if a:
                cols[j] += yi * a
    return all(col <= eps for col in cols) and sum(yi * bi for yi, bi in zip(y, rhs)) > eps
