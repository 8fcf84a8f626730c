"""Joint Distribution Criterion: exact feasibility decision plus the
Bell-CHSH-Fine shortcut for 2x2 binary systems.

Selective influence holds exactly when one joint distribution Q over all
input points exists whose restriction to each treatment's points
reproduces that treatment's observed table.  With finite outcome sets this
is a linear feasibility problem: one nonnegative unknown per assignment of
outcomes to all input points, one equality per (treatment, outcome
vector).  The solver returns either a witness Q (re-checked against every
table before being reported) or a Farkas certificate (also re-checked).
A system labelled "float" is decided on the same exact tables within a
stated tolerance, and reports its numbers as floats.

A violated chain of the order-distance refutes without the simplex.
The distance d(x, y) of a pair inside its covering treatment t is the
sum of t's rows whose outcome puts x strictly below y, so a chain's
residual, sum of the step distances minus the closing one, is a linear
form in the rows.  Every variable is one assignment, and
under one assignment "strictly below" is a total preorder, so the
indicators obey the triangle inequality.  Minus the chain's coefficient
vector is therefore a Farkas certificate: y.A <= 0, and y.b = -residual,
positive when the chain is violated.

For the ubiquitous 2x2 factorial design with binary outputs the same
decision is available in closed form: the eight Bell-CHSH-Fine
inequalities -1 <= e_k <= 0.  Each right-hand inequality is equivalent to
a chain inequality of the order-distance ranking first outcome values
low on both sides; each left-hand inequality to a chain of the
order-distance with the second input's ranking reversed.  Both routes are
implemented and testable against each other (chains on `check`'s kernel).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from .arith import EPS_LP, EPS_TEST, RATIONAL, Num, num_to_json, shown
from .errors import (
    HiddenSpaceTooLarge,
    MarginalSelectivityViolated,
    NumericalInstability,
    SystemFormatError,
)
from .lp import solve_equality_feasibility, verify_certificate, verify_solution
from .metrics import OrderDistance, OrderSpec, default_order_metric
from .probspace import Design, InputPoint, TreatmentTable, _system_label, point_axes
from .selectivity import (
    ChainReport,
    _chain_reporter,
    _distance_screen,
    _tetrad_indices,
    check_marginal_selectivity,
    default_max_len,
    run_suite,
)

MAX_HIDDEN_SPACE = 1_000_000
#: guard on the m x n dense 0/1 rows that `jdc_feasible` builds, one cell
#: per (constraint, hidden assignment), checked by `build_jdc` before it
#: builds a row's variable indices; the simplex itself keeps far less, an
#: m_kept x (m_kept + 1) block for the kept rows
MAX_TABLEAU_CELLS = 50_000_000
_NOT_2X2 = "need a 2x2 factorial design with binary outputs"


@dataclass(frozen=True, eq=False)
class JdcConstraint:
    treatment: tuple
    outcome: tuple
    var_indices: tuple[int, ...]
    rhs: Num


@dataclass(frozen=True, eq=False)
class JdcProblem:
    """Feasibility encoding of the hypothetical joint over input points.

    Variables: one per assignment of an outcome value to every input point
    (mixed-radix order over `points`).  Constraints: for each treatment and
    each outcome vector, the consistent assignments must carry exactly the
    observed probability.  `tables` are the tables the constraints were
    read from, and `axes` their :func:`point_axes`.
    """

    design: Design
    points: tuple[InputPoint, ...]
    hidden_axes: tuple[tuple, ...]
    n_vars: int
    constraints: tuple[JdcConstraint, ...]
    regime: str
    tables: tuple[TreatmentTable, ...]
    axes: Mapping[InputPoint, tuple]

    def assignment(self, index: int) -> tuple:
        out = []
        for axis in reversed(self.hidden_axes):
            out.append(axis[index % len(axis)])
            index //= len(axis)
        return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class JdcVerdict:
    """`chain` is the violated chain the certificate was derived from, or
    None when the simplex decided.  The witness and the certificate are
    exact on every problem; a float problem's report prints them as
    floats."""

    feasible: bool
    witness: Optional[dict]
    certificate: Optional[list]
    regime: str
    chain: Optional[ChainReport] = None

    def as_json(self):
        def show(v):
            return num_to_json(shown(v, self.regime))

        out = {
            "feasible": self.feasible,
            "witness": None,
            "certificate": None,
            "certificate_chain": None if self.chain is None else self.chain.as_json(),
        }
        if self.witness is not None:
            out["witness"] = [
                {"assignment": list(k), "p": show(v)}
                for k, v in self.witness.items()
            ]
        if self.certificate is not None:
            out["certificate"] = [
                {
                    "treatment": list(t),
                    "outcome": list(o),
                    "y": show(y),
                }
                for t, o, y in self.certificate
            ]
        return out


def build_jdc(
    design: Design,
    tables: Iterable[TreatmentTable],
    cap: int = MAX_HIDDEN_SPACE,
) -> JdcProblem:
    """Encode the joint-distribution feasibility problem for a validated,
    marginally selective system.  HiddenSpaceTooLarge when the hidden
    space exceeds `cap`, or the dense rows, one per table cell, exceed
    MAX_TABLEAU_CELLS cells; both are checked before any row is built."""
    tables = list(tables)
    known = point_axes(design, tables)
    points = design.points()
    # input point never used by any treatment: one dummy value
    axes = [tuple(known.get(pt, ("*",))) for pt in points]
    n_vars = 1
    for axis in axes:
        n_vars *= len(axis)
        if n_vars > cap:
            raise HiddenSpaceTooLarge(
                f"hidden space exceeds cap {cap}: product of outcome sets over "
                f"{len(points)} input points"
            )
    m = sum(math.prod(map(len, t.axes)) for t in tables)
    if m * n_vars > MAX_TABLEAU_CELLS:
        raise HiddenSpaceTooLarge(f"dense rows {m} x {n_vars} exceed the solver guard")
    point_index = {pt: k for k, pt in enumerate(points)}
    # stride of each point's digit in the mixed-radix variable index
    strides = [0] * len(points)
    acc = 1
    for k in range(len(points) - 1, -1, -1):
        strides[k] = acc
        acc *= len(axes[k])
    # each axis value's digit times its point's stride
    place = [{v: strides[k] * d for d, v in enumerate(axis)} for k, axis in enumerate(axes)]

    constraints = []
    for t in tables:
        tr_idx = [point_index[InputPoint(name, w)] for name, w in zip(design.inputs, t.treatment)]
        # the variables matching an outcome vector at the treatment's
        # points: its base index plus every digit of the other points
        offsets = [0]
        for k in range(len(points)):
            if k not in tr_idx:
                offsets = [o + strides[k] * d for o in offsets for d in range(len(axes[k]))]
        offsets.sort()
        tr_place = [place[k] for k in tr_idx]
        for outcome, p in t.probs.items():
            base = sum(pl[v] for pl, v in zip(tr_place, outcome))
            var_indices = tuple(base + o for o in offsets)
            constraints.append(JdcConstraint(t.treatment, outcome, var_indices, p))
    return JdcProblem(
        design=design,
        points=points,
        hidden_axes=tuple(axes),
        n_vars=n_vars,
        constraints=tuple(constraints),
        regime=_system_label(tables),
        tables=tuple(tables),
        axes=known,
    )


def independent_rows(problem: JdcProblem) -> list[int]:
    """Indices of a basis of the constraint rows: greedily, each row that
    is not in the span of the rows kept before it.

    Elimination runs modulo 2 on the rows' 0/1 patterns as bit sets.
    Integer rows independent modulo 2 are independent over the rationals:
    a rational dependency, scaled to coprime integers, stays nonzero
    modulo 2.  For `build_jdc` rows the two ranks are also equal, so the
    kept rows span every row.  A treatment's rows span the functions of
    its points' outcomes, and over any field these have one basis: the
    products of indicators [point k has value v] over subsets of its
    points, v never the first value of k's axis.
    """
    pivots: dict[int, int] = {}
    keep = []
    for i, c in enumerate(problem.constraints):
        r = 0
        for k in c.var_indices:
            r |= 1 << k
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                keep.append(i)
                break
            r ^= p
    return keep


def _chain_certificate(problem: JdcProblem, eps_test: float) -> Optional[tuple[ChainReport, list[int]]]:
    """The most violated chain of the index order-distance over the
    problem's tables, and the Farkas certificate it gives, one multiplier
    per constraint row in order; None when no chain is violated, or when
    a treatment of the design has no table to cover a pair.

    The chains are :func:`run_suite`'s at ``check``'s default length, at
    `eps_test`: a full design's tetrads, and on a restricted design every
    chordless cycle, up to the number of points.  A chain is violated
    when its residual is negative, or on a system labelled "float" when it
    is below -eps_test.  Of equal residuals the first in suite order is
    taken.  Row (t, o) gets -1 for each step of the chain covered by t
    whose outcome o puts the step's first point strictly below its second,
    and +1 when the closing pair is covered by t and o puts its first
    point below its last.  Then y.b = -residual."""
    design, tables = problem.design, problem.tables
    if not {t.treatment for t in tables} >= set(design.iter_treatments()):
        return None
    metric = default_order_metric(problem.axes)
    suite = run_suite(design, tables, [metric], max_len=default_max_len(design), eps_test=eps_test)
    if not suite.violations:
        return None
    chain = min(suite.violations, key=attrgetter("residual"))
    seq, covers = chain.sequence, chain.covers
    # (cover, first point, second point, coefficient) of the closing pair,
    # then of each step
    terms = [(covers[0], seq[0], seq[-1], 1)]
    terms += [(covers[k], seq[k - 1], seq[k], -1) for k in range(1, len(seq))]
    rank, place = metric.rank_of, design.index
    y = [
        sum(
            coef for t, a, b, coef in terms
            if t == c.treatment
            and rank(c.outcome[place(a.input)], a) < rank(c.outcome[place(b.input)], b)
        )
        for c in problem.constraints
    ]
    return chain, y


def jdc_feasible(problem: JdcProblem, eps_lp: float = EPS_LP) -> JdcVerdict:
    """Decide the problem; the verdict is self-checked before returning.

    Every problem is decided in exact arithmetic, on 0/1 int rows and
    the tables' exact cells as right-hand sides.  A violated chain
    (:func:`_chain_certificate`, below -eps_lp on a float system) whose
    certificate verifies on every row refutes the system, and the verdict
    names it.  Otherwise the simplex decides.

    The simplex runs on the rows of `independent_rows`, which span all
    rows.  A certificate for them, zero on the dropped rows, refutes every
    row.  A solution of them is checked on every row; it fails a dropped
    row only when that row's right-hand side disagrees with the kept rows
    (a system that is not marginally selective), and then all rows are
    solved again.

    A rational problem is feasible when its phase-1 objective is 0, a
    float one when it is at most eps_lp; a float witness is then checked
    within 10 * eps_lp per row.  Certificates are checked exactly.
    """
    m = len(problem.constraints)
    eps, eps_x = (0, 0) if problem.regime == RATIONAL else (eps_lp, 10 * eps_lp)
    rows = []
    rhs = []
    for c in problem.constraints:
        row = [0] * problem.n_vars
        for k in c.var_indices:
            row[k] = 1
        rows.append(row)
        rhs.append(c.rhs)
    found = _chain_certificate(problem, eps_lp)
    if found is not None and verify_certificate(rows, rhs, found[1]):
        chain, y = found
        return JdcVerdict(False, None, _certificate(problem, y), problem.regime, chain)
    keep = independent_rows(problem)
    result = solve_equality_feasibility([rows[i] for i in keep], [rhs[i] for i in keep], eps=eps)
    ok = result.feasible and verify_solution(rows, rhs, result.x, eps=eps_x)
    if result.feasible and not ok and len(keep) < m:
        keep = range(m)
        result = solve_equality_feasibility(rows, rhs, eps=eps)
        ok = result.feasible and verify_solution(rows, rhs, result.x, eps=eps_x)
    if result.feasible:
        if not ok:
            raise NumericalInstability("witness failed verification")
        witness = {
            problem.assignment(k): v for k, v in enumerate(result.x) if v != 0
        }
        return JdcVerdict(True, witness, None, problem.regime)
    y = [Fraction(0)] * m
    for i, v in zip(keep, result.certificate):
        y[i] = v
    if not verify_certificate(rows, rhs, y):
        raise NumericalInstability("certificate failed verification")
    return JdcVerdict(False, None, _certificate(problem, y), problem.regime)


def _certificate(problem: JdcProblem, y: list) -> list:
    """The multipliers y as (treatment, outcome, y) per constraint row."""
    return [(c.treatment, c.outcome, v) for c, v in zip(problem.constraints, y)]


def witness_reproduces_tables(problem: JdcProblem, witness: Mapping[tuple, Num], tables, eps: float = 0.0) -> bool:
    """Push the witness through each treatment's projection and compare."""
    by_t = {t.treatment: t for t in tables}
    point_index = {pt: k for k, pt in enumerate(problem.points)}
    for t in by_t.values():
        idx = [point_index[t.point(name)] for name in t.design.inputs]
        acc: dict[tuple, Num] = {}
        for assignment, p in witness.items():
            key = tuple(assignment[k] for k in idx)
            acc[key] = acc.get(key, p * 0) + p
        for outcome, p in t.probs.items():
            if not abs(acc.get(outcome, 0) - p) <= eps:
                return False
    return True


# --- 2x2 binary systems: Bell-CHSH-Fine ------------------------------------


@dataclass(frozen=True, eq=False)
class FineSystem:
    """Cell and marginal probabilities of a 2x2 factorial, binary-output
    system: p, q, r, s are the joint tables of treatments (x,y), (x,y'),
    (x',y), (x',y'); index 1 means the first declared value of each axis.

    a1 / a1p: Pr[first output = first value] under x / x'.
    b1 / b1p: Pr[second output = first value] under y / y'.
    """

    p11: Num
    q11: Num
    r11: Num
    s11: Num
    a1: Num
    a1p: Num
    b1: Num
    b1p: Num
    regime: str = RATIONAL

    @classmethod
    def from_tables(
        cls,
        design: Design,
        tables: Iterable[TreatmentTable],
        eps: float = EPS_TEST,
    ) -> "FineSystem":
        tables = list(tables)
        axes = _axes_2x2(design, tables)
        msel = check_marginal_selectivity(design, tables, eps)
        if not msel.passed:
            raise MarginalSelectivityViolated(
                f"marginal selectivity fails by {msel.max_discrepancy}"
            )
        n1, n2 = design.inputs
        x, xp = design.values[n1]
        y, yp = design.values[n2]
        by_t = {t.treatment: t for t in tables}

        def cell(treatment, i, j):
            # index 1 = first value of the point's canonical outcome axis
            a = axes[InputPoint(n1, treatment[0])][i - 1]
            b = axes[InputPoint(n2, treatment[1])][j - 1]
            return by_t[treatment].prob((a, b))

        p11, p12, p21 = cell((x, y), 1, 1), cell((x, y), 1, 2), cell((x, y), 2, 1)
        q11, q21 = cell((x, yp), 1, 1), cell((x, yp), 2, 1)
        r11, r12 = cell((xp, y), 1, 1), cell((xp, y), 1, 2)
        return cls(
            p11=p11,
            q11=q11,
            r11=r11,
            s11=cell((xp, yp), 1, 1),
            a1=p11 + p12,
            a1p=r11 + r12,
            b1=p11 + p21,
            b1p=q11 + q21,
            regime=_system_label(tables),
        )


@dataclass(frozen=True, eq=False)
class FineReport:
    values: tuple[Num, Num, Num, Num]
    satisfied: bool
    violations: tuple[int, ...]
    regime: str = RATIONAL

    def as_json(self):
        return {
            "values": [num_to_json(shown(v, self.regime)) for v in self.values],
            "satisfied": self.satisfied,
            "violations": list(self.violations),
        }


def fine_expressions(fs: FineSystem) -> tuple[Num, Num, Num, Num]:
    return (
        fs.p11 + fs.r11 + fs.s11 - fs.q11 - fs.a1p - fs.b1,
        fs.q11 + fs.s11 + fs.r11 - fs.p11 - fs.a1p - fs.b1p,
        fs.r11 + fs.p11 + fs.q11 - fs.s11 - fs.a1 - fs.b1,
        fs.s11 + fs.q11 + fs.p11 - fs.r11 - fs.a1 - fs.b1p,
    )


def fine_inequalities(fs: FineSystem, eps: float = EPS_TEST) -> FineReport:
    """The eight Bell-CHSH-Fine conditions: -1 <= e_k <= 0 for the four
    expressions, exactly, or within eps on a system labelled "float".
    Under marginal selectivity they hold exactly when the joint-distribution
    problem is feasible."""
    values = fine_expressions(fs)
    eps = 0 if fs.regime == RATIONAL else eps
    violations = []
    for k, e in enumerate(values, start=1):
        if not -1 - eps <= e <= eps:
            violations.append(k)
    return FineReport(values, not violations, tuple(violations), fs.regime)


def _axes_2x2(design: Design, tables: list[TreatmentTable]) -> dict[InputPoint, tuple]:
    """The tables' point axes, once the system is found 2x2 binary."""
    if not is_2x2_binary(design, tables):
        raise SystemFormatError(_NOT_2X2)
    return point_axes(design, tables)


def _binary_order_specs(design: Design, axes: Mapping[InputPoint, tuple]) -> tuple[OrderSpec, OrderSpec]:
    """Rank maps for the two canonical binary order-distances: both axes by
    canonical value order, and with the second input's order reversed."""
    low = default_order_metric(axes).order
    second = design.inputs[1]
    reversed_second = {
        pt: {v: 3 - r for v, r in ranks.items()} if pt.input == second else ranks
        for pt, ranks in low.per_point.items()
    }
    return low, OrderSpec({}, reversed_second)


def d1_d2_chain_residuals(
    design: Design,
    tables: Iterable[TreatmentTable],
    eps_test: float = EPS_TEST,
) -> tuple[list[ChainReport], list[ChainReport]]:
    """The eight canonical chain tests of a 2x2 binary system.

    First four: order-distance with both outputs ranked by declared value
    order, over the first four alternating tetrads of the full design, with
    closings (x, y'), (x, y), (x', y'), (x', y).  Second four: the same
    tetrads under the order-distance with the second output's ranking
    reversed.  Each is reported, flagged or not, as the chain suite would.
    """
    tables = list(tables)
    d1_spec, d2_spec = _binary_order_specs(design, _axes_2x2(design, tables))
    metrics = [OrderDistance(d1_spec, "order:low-first"), OrderDistance(d2_spec, "order:second-reversed")]
    pts = design.points()
    C = design.pair_covers()[0]
    pairs = [(i, j) for i, p in enumerate(pts) for j, q in enumerate(pts) if p.input != q.input]
    screens = _distance_screen(metrics, pts, pairs, {t.treatment: t for t in tables}, C)
    tetrads = list(itertools.islice(_tetrad_indices(design), 4))
    reporters = [
        _chain_reporter(screen, None, pts, C, m.describe(), eps_test, every=True)
        for screen, m in zip(screens, metrics)
    ]
    d1, d2 = ([report(seq) for seq in tetrads] for report in reporters)
    return d1, d2


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Chain residuals against Fine expressions: residual_1[k] must equal
    -e_k and residual_2[k] must equal e_k + 1."""

    fine_values: tuple
    d1_residuals: tuple
    d2_residuals: tuple
    max_discrepancy: Num
    regime: str = RATIONAL

    def as_json(self):
        return {
            "fine_values": [num_to_json(shown(v, self.regime)) for v in self.fine_values],
            "d1_residuals": [num_to_json(v) for v in self.d1_residuals],
            "d2_residuals": [num_to_json(v) for v in self.d2_residuals],
            "max_discrepancy": num_to_json(self.max_discrepancy),
        }


def fine_chain_equivalence(
    fs: FineSystem,
    design: Design,
    tables: Iterable[TreatmentTable],
) -> EquivalenceReport:
    """Check, cell for cell, that the Fine expressions of `fs` (built from
    these tables) and the canonical chain residuals are the same facts:
    each upper Fine inequality is the negated first-family residual, each
    lower one is the second-family residual shifted by 1.  Exact rational
    systems must come out at zero discrepancy."""
    e = fine_expressions(fs)
    d1, d2 = d1_d2_chain_residuals(design, tables)
    disc = []
    for k in range(4):
        disc.append(abs(d1[k].residual - (-e[k])))
        disc.append(abs(d2[k].residual - (e[k] + 1)))
    return EquivalenceReport(
        fine_values=e,
        d1_residuals=tuple(r.residual for r in d1),
        d2_residuals=tuple(r.residual for r in d2),
        max_discrepancy=max(disc),
        regime=fs.regime,
    )


def is_2x2_binary(design: Design, tables: Iterable[TreatmentTable]) -> bool:
    """Whether the design is 2x2 factorial and the tables hold binary
    outputs, one table per treatment."""
    tables = list(tables)
    return (
        len(design.inputs) == 2
        and all(len(design.values[n]) == 2 for n in design.inputs)
        and design.treatment_count() == 4
        and len(tables) == 4
        and {t.treatment for t in tables} == set(design.iter_treatments())
        and all(len(axis) == 2 for t in tables for axis in t.axes)
    )
