"""Reference phase-1 simplex: a dense tableau of `Fraction`s (or floats).

This is the straightforward Bland's-rule loop that `ordist.lp` replaced
with integer rows.  Every cell is rewritten on every pivot, which makes it
slow but easy to read.  Tests compare the production kernel against it:
same verdict, same witness, same certificate, same objective and the same
number of pivots.
"""

from __future__ import annotations

from fractions import Fraction

from ordist.errors import NumericalInstability
from ordist.lp import FeasibilityResult


def dense_bland_feasibility(rows, rhs, eps: float = 0.0, max_iter=None) -> FeasibilityResult:
    """Decide {x >= 0 : A x = b}.  eps=0 demands exact arithmetic."""
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
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < -eps:
                enter = j
                break
        if enter < 0:
            break
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
