"""Joint Distribution Criterion: exact feasibility decision plus the
Bell-CHSH-Fine shortcut for 2x2 binary systems.

Selective influence holds exactly when one joint distribution Q over all
input points exists whose restriction to each treatment's points
reproduces that treatment's observed table.  With finite outcome sets this
is a linear feasibility problem: one nonnegative unknown per assignment of
outcomes to all input points, one equality per (treatment, outcome
vector).  The solver returns either a witness Q (re-checked against every
table before being reported) or a Farkas certificate (also re-checked).

For the ubiquitous 2x2 factorial design with binary outputs the same
decision is available in closed form: the eight Bell-CHSH-Fine
inequalities -1 <= e_k <= 0.  Each right-hand inequality is equivalent to
a chain inequality of the order-distance ranking first outcome values
low on both sides; each left-hand inequality to a chain of the
order-distance with the second input's ranking reversed.  Both routes are
implemented and testable against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .arith import EPS_LP, EPS_TEST, Num, num_to_json
from .errors import (
    HiddenSpaceTooLarge,
    MarginalSelectivityViolated,
    NumericalInstability,
    SystemFormatError,
)
from .lp import solve_equality_feasibility, verify_certificate, verify_solution
from .metrics import OrderSpec, OrderDistance
from .probspace import Design, InputPoint, OutcomeSpace, TreatmentTable
from .selectivity import (
    ChainReport,
    chain_test,
    check_marginal_selectivity,
    enumerate_irreducible,
)

MAX_HIDDEN_SPACE = 1_000_000
#: dense tableau guard for the bundled simplex (rows x columns)
MAX_TABLEAU_CELLS = 50_000_000


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
    observed probability.
    """

    design: Design
    points: tuple[InputPoint, ...]
    hidden_axes: tuple[tuple, ...]
    n_vars: int
    constraints: tuple[JdcConstraint, ...]
    regime: str

    def assignment(self, index: int) -> tuple:
        out = []
        for axis in reversed(self.hidden_axes):
            out.append(axis[index % len(axis)])
            index //= len(axis)
        return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class JdcVerdict:
    feasible: bool
    witness: Optional[dict]
    certificate: Optional[list]
    regime: str

    def as_json(self):
        out = {"feasible": self.feasible, "witness": None, "certificate": None}
        if self.witness is not None:
            out["witness"] = [
                {"assignment": list(k), "p": num_to_json(v)}
                for k, v in self.witness.items()
            ]
        if self.certificate is not None:
            out["certificate"] = [
                {
                    "treatment": list(t),
                    "outcome": list(o),
                    "y": num_to_json(y),
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
    marginally selective system."""
    tables = list(tables)
    outcomes = OutcomeSpace.from_tables(design, tables)
    points = design.points()
    axes = []
    for pt in points:
        if pt in outcomes.values:
            axes.append(tuple(outcomes.values[pt]))
        else:
            # input point never used by any treatment: one dummy value
            axes.append(("*",))
    n_vars = 1
    for axis in axes:
        n_vars *= len(axis)
        if n_vars > cap:
            raise HiddenSpaceTooLarge(
                f"hidden space exceeds cap {cap}: product of outcome sets over "
                f"{len(points)} input points"
            )
    point_index = {pt: k for k, pt in enumerate(points)}
    # stride of each point's digit in the mixed-radix variable index
    strides = [0] * len(points)
    acc = 1
    for k in range(len(points) - 1, -1, -1):
        strides[k] = acc
        acc *= len(axes[k])

    constraints = []
    regime = "rational"
    for t in tables:
        if t.regime() == "float":
            regime = "float"
        tr_points = [InputPoint(name, t.treatment[pos]) for pos, name in enumerate(design.inputs)]
        tr_idx = [point_index[pt] for pt in tr_points]
        for outcome in itertools.product(*t.axes):
            # variable indices whose digits at the treatment's points match
            digit = [axes[tr_idx[pos]].index(v) for pos, v in enumerate(outcome)]
            base = sum(strides[tr_idx[pos]] * digit[pos] for pos in range(len(outcome)))
            free = [k for k in range(len(points)) if k not in set(tr_idx)]
            offsets = [0]
            for k in free:
                offsets = [o + strides[k] * d for o in offsets for d in range(len(axes[k]))]
            var_indices = tuple(sorted(base + o for o in offsets))
            constraints.append(
                JdcConstraint(t.treatment, outcome, var_indices, t.prob(outcome))
            )
    return JdcProblem(
        design=design,
        points=points,
        hidden_axes=tuple(axes),
        n_vars=n_vars,
        constraints=tuple(constraints),
        regime=regime,
    )


def jdc_feasible(
    problem: JdcProblem,
    eps_lp: float = EPS_LP,
    max_iter: Optional[int] = None,
) -> JdcVerdict:
    """Decide the problem; the verdict is self-checked before returning.

    Rational systems are solved exactly; float systems use tolerance
    eps_lp and may raise NumericalInstability, in which case rerunning the
    same system in rational arithmetic is the reliable path.
    """
    m = len(problem.constraints)
    if m * (problem.n_vars + m) > MAX_TABLEAU_CELLS:
        raise HiddenSpaceTooLarge(
            f"dense tableau {m} x {problem.n_vars + m} exceeds the solver guard"
        )
    exact = problem.regime == "rational"
    zero, one = (0, 1) if exact else (0.0, 1.0)
    rows = []
    rhs = []
    for c in problem.constraints:
        row = [zero] * problem.n_vars
        for k in c.var_indices:
            row[k] = one
        rows.append(row)
        rhs.append(c.rhs if exact else float(c.rhs))
    result = solve_equality_feasibility(rows, rhs, eps=0.0 if exact else eps_lp, max_iter=max_iter)
    if result.feasible:
        x = result.x
        ok = verify_solution(rows, rhs, x, eps=0.0 if exact else 10 * eps_lp)
        if not ok:
            raise NumericalInstability("witness failed verification; rerun with rational arithmetic")
        witness = {
            problem.assignment(k): v for k, v in enumerate(x) if v != 0
        }
        return JdcVerdict(True, witness, None, problem.regime)
    y = result.certificate
    ok = verify_certificate(rows, rhs, y, eps=0.0 if exact else eps_lp)
    if not ok:
        raise NumericalInstability("certificate failed verification; rerun with rational arithmetic")
    certificate = [
        (c.treatment, c.outcome, y[i]) for i, c in enumerate(problem.constraints)
    ]
    return JdcVerdict(False, None, certificate, problem.regime)


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
    cells: Mapping[str, Mapping[tuple, Num]]

    @classmethod
    def from_tables(
        cls,
        design: Design,
        tables: Iterable[TreatmentTable],
        eps: float = EPS_TEST,
    ) -> "FineSystem":
        tables = list(tables)
        if len(design.inputs) != 2 or any(len(design.values[n]) != 2 for n in design.inputs):
            raise SystemFormatError("need a 2x2 factorial design")
        if design.treatment_count() != 4:
            raise SystemFormatError("need all four treatments")
        for t in tables:
            if any(len(axis) != 2 for axis in t.axes):
                raise SystemFormatError("need binary outputs everywhere")
        msel = check_marginal_selectivity(design, tables, eps)
        if not msel.passed:
            raise MarginalSelectivityViolated(
                f"marginal selectivity fails by {msel.max_discrepancy}"
            )
        n1, n2 = design.inputs
        x, xp = design.values[n1]
        y, yp = design.values[n2]
        by_t = {t.treatment: t for t in tables}
        outcomes = OutcomeSpace.from_tables(design, tables)

        def cell(treatment, i, j):
            # index 1 = first value of the point's canonical outcome axis
            t = by_t[treatment]
            a_axis = outcomes.axis(InputPoint(n1, treatment[0]))
            b_axis = outcomes.axis(InputPoint(n2, treatment[1]))
            return t.prob((a_axis[i - 1], b_axis[j - 1]))

        cells = {
            "p": {(i, j): cell((x, y), i, j) for i in (1, 2) for j in (1, 2)},
            "q": {(i, j): cell((x, yp), i, j) for i in (1, 2) for j in (1, 2)},
            "r": {(i, j): cell((xp, y), i, j) for i in (1, 2) for j in (1, 2)},
            "s": {(i, j): cell((xp, yp), i, j) for i in (1, 2) for j in (1, 2)},
        }
        p, q, r, s = cells["p"], cells["q"], cells["r"], cells["s"]
        return cls(
            p11=p[(1, 1)],
            q11=q[(1, 1)],
            r11=r[(1, 1)],
            s11=s[(1, 1)],
            a1=p[(1, 1)] + p[(1, 2)],
            a1p=r[(1, 1)] + r[(1, 2)],
            b1=p[(1, 1)] + p[(2, 1)],
            b1p=q[(1, 1)] + q[(2, 1)],
            cells=cells,
        )


@dataclass(frozen=True, eq=False)
class FineReport:
    values: tuple[Num, Num, Num, Num]
    satisfied: bool
    violations: tuple[int, ...]

    def as_json(self):
        return {
            "values": [num_to_json(v) for v in self.values],
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


def fine_inequalities(fs: FineSystem, eps: float = 0.0) -> FineReport:
    """The eight Bell-CHSH-Fine conditions: -1 <= e_k <= 0 for the four
    expressions.  Under marginal selectivity they hold exactly when the
    joint-distribution problem is feasible."""
    values = fine_expressions(fs)
    violations = []
    for k, e in enumerate(values, start=1):
        if not -1 - eps <= e <= eps:
            violations.append(k)
    return FineReport(values, not violations, tuple(violations))


def _binary_order_specs(design: Design, tables) -> tuple[OrderSpec, OrderSpec]:
    """Rank maps for the two canonical binary order-distances: both axes by
    canonical value order, and with the second input's order reversed."""
    outcomes = OutcomeSpace.from_tables(design, list(tables))
    n1, n2 = design.inputs
    per_point_low = {}
    per_point_rev = {}
    for pt, axis in outcomes.values.items():
        per_point_low[pt] = {axis[0]: 1, axis[1]: 2}
        if pt.input == n2:
            per_point_rev[pt] = {axis[0]: 2, axis[1]: 1}
        else:
            per_point_rev[pt] = {axis[0]: 1, axis[1]: 2}
    return OrderSpec({}, per_point_low), OrderSpec({}, per_point_rev)


def d1_d2_chain_residuals(
    design: Design,
    tables: Iterable[TreatmentTable],
    eps_test: float = EPS_TEST,
) -> tuple[list[ChainReport], list[ChainReport]]:
    """The eight canonical chain tests of a 2x2 binary system.

    First four: order-distance with both outputs ranked by declared value
    order, over the first four alternating tetrads of the full design, with
    closings (x, y'), (x, y), (x', y'), (x', y).  Second four: the same tetrads under the order-distance with
    the second output's ranking reversed.
    """
    tables = list(tables)
    if not is_2x2_binary(design, tables):
        raise SystemFormatError("need a 2x2 factorial design with binary outputs")
    d1_spec, d2_spec = _binary_order_specs(design, tables)
    witnesses = list(itertools.islice(enumerate_irreducible(design, 4), 4))
    d1 = [chain_test(OrderDistance(d1_spec, "order:low-first"), w, tables, eps_test) for w in witnesses]
    d2 = [chain_test(OrderDistance(d2_spec, "order:second-reversed"), w, tables, eps_test) for w in witnesses]
    return d1, d2


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Chain residuals against Fine expressions: residual_1[k] must equal
    -e_k and residual_2[k] must equal e_k + 1."""

    fine_values: tuple
    d1_residuals: tuple
    d2_residuals: tuple
    max_discrepancy: Num

    def as_json(self):
        return {
            "fine_values": [num_to_json(v) for v in self.fine_values],
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
    tables = list(tables)
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
    )


def is_2x2_binary(design: Design, tables: Iterable[TreatmentTable]) -> bool:
    tables = list(tables)
    return (
        len(design.inputs) == 2
        and all(len(design.values[n]) == 2 for n in design.inputs)
        and design.treatment_count() == 4
        and len(tables) == 4
        and all(len(axis) == 2 for t in tables for axis in t.axes)
    )
