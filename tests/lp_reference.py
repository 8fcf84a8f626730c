"""Reference phase-1 simplex: a dense tableau of `Fraction`s (or floats).

This is the straightforward loop that `ordist.lp` replaced with integer
rows, and then with a revised simplex over A's sparse columns.  Every
cell is rewritten on every pivot, which makes it slow but easy to read.
It stays general: any rational A, and a negative b_i negates its row
first.  The kernel takes only 0/1 rows, and refutes a negative b_i
before any pivot, so tests compare pivots on 0/1 rows with b >= 0.
It prices as `ordist.lp` does: the most negative reduced cost enters,
ties to the smaller column, and after `degenerate_run` consecutive
degenerate pivots the first negative one enters (Bland's rule) until a
pivot is not degenerate.  Tests compare the production kernel against it:
same verdict, same witness, same certificate, same objective and the same
number of pivots.  Given a list as `entered`, it appends each pivot's
entering column, so tests can see which paths a draw exercised: column n
+ i is row i's artificial variable.

With ``degenerate_run=0`` every pivot follows Bland's rule
(`dense_bland_feasibility`), a second pivoting rule whose verdicts the
tests compare with the kernel's.

With eps > 0 it is the float simplex that `ordist.lp` once ran on float
systems: float cells, eps as the pricing, ratio and verdict tolerance.
Tests compare `jdc_feasible`'s float verdicts, now reached in exact
arithmetic, with its verdicts.
"""

from __future__ import annotations

from fractions import Fraction

from ordist import lp
from ordist.errors import NumericalInstability
from ordist.lp import FeasibilityResult


def dense_bland_feasibility(rows, rhs, eps: float = 0.0, max_iter=None) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b} by Bland's rule alone."""
    return dense_feasibility(rows, rhs, eps, max_iter, degenerate_run=0)


def dense_feasibility(
    rows, rhs, eps: float = 0.0, max_iter=None, degenerate_run=None, entered=None
) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b}.  eps=0 demands exact arithmetic.  The
    fallback threshold defaults to the kernel's `lp.DEGENERATE_RUN`."""
    if degenerate_run is None:
        degenerate_run = lp.DEGENERATE_RUN
    m = len(rows)
    n = len(rows[0]) if m else 0
    exact = eps == 0
    if exact:
        T = [[Fraction(v) for v in row] for row in rows]
        b = [Fraction(v) for v in rhs]
    else:
        T = [[float(v) for v in row] for row in rows]
        b = [float(v) for v in rhs]
    signs = [1] * m
    for i in range(m):
        if b[i] < 0:
            signs[i] = -1
            b[i] = -b[i]
            T[i] = [-v for v in T[i]]
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    # artificial columns n..n+m-1 form the starting identity basis
    for i in range(m):
        T[i].extend(one if k == i else zero for k in range(m))
    ncols = n + m
    basis = list(range(n, n + m))
    # reduced costs c_j - z_j for phase-1 cost (1 on artificials)
    obj = [zero] * ncols
    for j in range(n):
        obj[j] = -sum(T[i][j] for i in range(m))

    if max_iter is None:
        max_iter = 50_000 if exact else 20_000
    iterations = 0
    degenerate = 0
    while True:
        negative = [j for j in range(ncols) if obj[j] < -eps]
        if not negative:
            break
        if degenerate < degenerate_run:
            # Dantzig; min keeps the first of equal costs
            enter = min(negative, key=obj.__getitem__)
        else:
            enter = negative[0]
        if entered is not None:
            entered.append(enter)
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > eps:
                ratio = b[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise NumericalInstability("phase-1 objective unbounded; numeric trouble")
        degenerate = degenerate + 1 if b[leave] <= eps else 0
        iterations += 1
        if iterations > max_iter:
            hint = "" if exact else "; rerun with rational arithmetic"
            raise NumericalInstability(f"no convergence after {max_iter} pivots{hint}")
        piv = T[leave][enter]
        row = T[leave]
        if piv != 1:
            inv = one / piv
            T[leave] = row = [v * inv for v in row]
            b[leave] = b[leave] * inv
        for i in range(m):
            if i == leave:
                continue
            f = T[i][enter]
            if f != 0:
                ti = T[i]
                T[i] = [ti[j] - f * row[j] for j in range(ncols)]
                b[i] = b[i] - f * b[leave]
        f = obj[enter]
        if f != 0:
            obj = [obj[j] - f * row[j] for j in range(ncols)]
        basis[leave] = enter

    objective = sum(b[i] for i in range(m) if basis[i] >= n)
    feasible = objective == 0 if exact else objective <= eps
    if feasible:
        x = [zero] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = b[i]
        return FeasibilityResult(True, x, None, objective, iterations)
    # Farkas certificate from the phase-1 duals: y_i = 1 - reduced cost of
    # artificial i, flipped back to the original row orientation.
    y = [(one - obj[n + i]) * signs[i] for i in range(m)]
    return FeasibilityResult(False, None, y, objective, iterations)


def jdc_rows(problem):
    """Dense 0/1 rows and exact right-hand sides of every `build_jdc`
    constraint, a float's as the `Fraction` it equals."""
    rows = []
    for c in problem.constraints:
        row = [0] * problem.n_vars
        for k in c.var_indices:
            row[k] = 1
        rows.append(row)
    return rows, [Fraction(c.rhs) for c in problem.constraints]


def exact_rank(rows) -> int:
    """Rank over the rationals by `Fraction` elimination.  Each row, kept
    as a dict of its nonzero entries, is reduced by the kept rows whose
    first column is its own first column until it vanishes or leads at a
    new column."""
    leading = {}
    for row in rows:
        r = {j: Fraction(v) for j, v in enumerate(row) if v}
        while r:
            j = min(r)
            b = leading.get(j)
            if b is None:
                leading[j] = r
                break
            f = r[j] / b[j]
            for k, v in b.items():
                w = r.get(k, 0) - f * v
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
    return len(leading)
