import dataclasses
import itertools
import random
from fractions import Fraction as F
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordist import (
    ChainReport,
    Design,
    EPS_LP,
    HiddenSpaceTooLarge,
    FineSystem,
    InputPoint,
    MarginalSelectivityViolated,
    OrderDistance,
    SystemFormatError,
    TreatmentTable,
    build_jdc,
    chain_test,
    d1_d2_chain_residuals,
    enumerate_irreducible,
    fine_chain_equivalence,
    fine_inequalities,
    is_2x2_binary,
    jdc_feasible,
    load_system,
    point_axes,
    run_suite,
    witness_reproduces_tables,
)
from ordist import jdc as jdc_mod
from ordist import selectivity
from ordist.cli import main
from ordist.jdc import fine_expressions, independent_rows
from ordist.lp import solve_equality_feasibility, verify_certificate
from ordist.metrics import default_order_metric
from lp_reference import dense_feasibility, exact_rank, jdc_rows
from randsys import (
    binary_design,
    canonical_order_specs,
    pr_box,
    pr_embedded_system,
    product_system,
    random_2x2_system,
    random_coupled_system,
    sign_system,
    system_from_joint,
    table_2x2,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def brute_certificate_check(problem, certificate):
    """Independent check: sum of y over constraints covering each variable
    is <= 0, while y . rhs > 0."""
    column_sums = [F(0)] * problem.n_vars
    dot = F(0)
    y_by_row = {(t, o): y for t, o, y in certificate}
    for c in problem.constraints:
        y = y_by_row[(c.treatment, c.outcome)]
        dot += y * c.rhs
        for k in c.var_indices:
            column_sums[k] += y
    return all(s <= 0 for s in column_sums) and dot > 0


class TestBuildJdc:
    def test_2x2_binary_counts(self):
        design, tables = pr_box()
        problem = build_jdc(design, tables)
        assert problem.n_vars == 16
        assert len(problem.constraints) == 16
        for c in problem.constraints:
            total = sum(1 for _ in c.var_indices)
            assert total == 4  # 16 joint assignments / 4 outcome classes

    def test_rhs_per_treatment_sums_to_one(self):
        design, tables = pr_box()
        problem = build_jdc(design, tables)
        per_treatment = {}
        for c in problem.constraints:
            per_treatment[c.treatment] = per_treatment.get(c.treatment, F(0)) + c.rhs
        assert all(v == 1 for v in per_treatment.values())

    def test_single_input_single_treatment(self):
        design = Design(["1"], {"1": ["x"]}, [("x",)])
        t = TreatmentTable(design, ("x",), {("0",): F(1, 3), ("1",): F(2, 3)}, axes=[("0", "1")])
        problem = build_jdc(design, [t])
        assert problem.n_vars == 2
        verdict = jdc_feasible(problem)
        assert verdict.feasible
        assert verdict.witness == {("0",): F(1, 3), ("1",): F(2, 3)}

    def test_variable_count_is_product_of_outcome_sets(self):
        design = Design(["1", "2"], {"1": ["u", "v"], "2": ["u", "v"]})
        axes = [("a", "b", "c"), ("a", "b", "c")]
        third = F(1, 9)
        cells = {(x, y): third for x in "abc" for y in "abc"}
        tables = [
            TreatmentTable(design, t, cells, axes=axes) for t in design.iter_treatments()
        ]
        problem = build_jdc(design, tables)
        assert problem.n_vars == 3 ** 4

    def test_hidden_space_cap(self):
        design, tables = pr_box()
        with pytest.raises(HiddenSpaceTooLarge):
            build_jdc(design, tables, cap=8)

    def test_tableau_guard_trips_before_any_row_is_built(self, monkeypatch):
        # 7 binary inputs: 16,384 rows over 16,384 assignments, whose
        # 2,097,152 variable indices the guard refuses before building
        design, tables = pr_embedded_system(7, 2)

        def no_row(*args):
            raise AssertionError("a constraint row was built")

        monkeypatch.setattr(jdc_mod, "JdcConstraint", no_row)
        with pytest.raises(HiddenSpaceTooLarge, match="dense rows 16384 x 16384 exceed the solver guard"):
            build_jdc(design, tables)


class TestJdcFeasible:
    def test_product_system_feasible_with_verified_witness(self):
        design, tables = product_system()
        problem = build_jdc(design, tables)
        verdict = jdc_feasible(problem)
        assert verdict.feasible
        assert witness_reproduces_tables(problem, verdict.witness, tables)

    def test_pr_box_infeasible_with_verified_certificate(self):
        design, tables = pr_box()
        problem = build_jdc(design, tables)
        verdict = jdc_feasible(problem)
        assert not verdict.feasible
        assert brute_certificate_check(problem, verdict.certificate)

    def test_sign_system_infeasible(self):
        design, tables = sign_system()
        verdict = jdc_feasible(build_jdc(design, tables))
        assert not verdict.feasible

    def test_float_mode_agrees_on_pr_box(self):
        design, _ = pr_box()
        tables = []
        for u in ("x", "x'"):
            for v in ("y", "y'"):
                if (u, v) == ("x'", "y'"):
                    cells = {("0", "1"): 0.5, ("1", "0"): 0.5}
                else:
                    cells = {("0", "0"): 0.5, ("1", "1"): 0.5}
                tables.append(
                    TreatmentTable(design, (u, v), cells, axes=[("0", "1"), ("0", "1")])
                )
        verdict = jdc_feasible(build_jdc(design, tables))
        assert verdict.regime == "float"
        assert not verdict.feasible

    def test_restricted_design_single_treatment_feasible(self):
        design = Design(
            ["1", "2"],
            {"1": ["x", "x'"], "2": ["y", "y'"]},
            [("x", "y")],
        )
        cells = {("0", "0"): F(1, 2), ("1", "1"): F(1, 2)}
        t = TreatmentTable(design, ("x", "y"), cells, axes=[("0", "1"), ("0", "1")])
        verdict = jdc_feasible(build_jdc(design, [t]))
        assert verdict.feasible


def non_selective_system(num):
    """A 2x2 binary system whose first output has Pr[0] = 1/2 under (x', y)
    and 3/4 under (x', y'): not marginally selective.  Summed over the
    second output, the rows of both treatments give the same 0/1 row with
    two different right-hand sides.  `num` makes the cells (Fraction or
    float)."""
    design = binary_design()
    q = num(1, 4)
    uniform = {(a, b): q for a in "01" for b in "01"}
    skewed = {("0", "0"): num(3, 8), ("0", "1"): num(3, 8), ("1", "0"): num(1, 8), ("1", "1"): num(1, 8)}
    tables = [
        TreatmentTable(design, t, skewed if t == ("x'", "y'") else uniform, axes=[("0", "1"), ("0", "1")])
        for t in design.iter_treatments()
    ]
    return design, tables


class TestIndependentRows:
    def test_rows_are_a_basis(self):
        # full and restricted designs, 2-3 inputs and 2-3 outputs per point
        rng = random.Random(31)
        seen = set()  # (inputs, restricted design)
        for k in range(24):
            n_inputs = 2 + k % 2
            if k % 3 == 2:
                design, tables, _ = system_from_joint(rng, n_inputs=n_inputs, out_size=2 + k % 4 // 2)
            else:
                design, tables = random_coupled_system(
                    rng,
                    n_inputs=n_inputs,
                    max_input_values=3 if n_inputs == 2 else 2,
                    out_sizes=(2, 3) if n_inputs == 2 else (2, 2),
                    restrict_phi=k % 3 == 0,
                )
            problem = build_jdc(design, tables)
            rows, _ = jdc_rows(problem)
            keep = independent_rows(problem)
            assert keep == sorted(set(keep))
            assert len(keep) == exact_rank(rows)
            assert exact_rank([rows[i] for i in keep]) == len(keep)
            seen.add((n_inputs, k % 3 == 0))
        assert seen == {(2, True), (2, False), (3, True), (3, False)}

    def test_pr_box_keeps_nine_of_sixteen_rows(self):
        # the rank of a 2x2 binary system: 1 + 4 points + 4 treatments
        design, tables = pr_box()
        assert independent_rows(build_jdc(design, tables)) == [0, 1, 2, 3, 4, 6, 8, 9, 12]

    @pytest.mark.parametrize("num", [F, lambda a, b: a / b], ids=["exact", "float"])
    def test_non_selective_system_refuted_on_all_rows(self, monkeypatch, num):
        # the kept rows admit a solution, which fails a dropped row; the
        # rows are then solved again, and the certificate refutes them all
        design, tables = non_selective_system(num)
        problem = build_jdc(design, tables)
        calls = []
        solve = jdc_mod.solve_equality_feasibility
        monkeypatch.setattr(
            jdc_mod, "solve_equality_feasibility",
            lambda rows, rhs, **kw: calls.append(len(rows)) or solve(rows, rhs, **kw),
        )
        verdict = jdc_feasible(problem)
        assert calls == [9, 16]
        assert not verdict.feasible
        # no chain flags the system, so the simplex decides it
        assert verdict.chain is None
        rows, rhs = jdc_rows(problem)
        y = [v for _, _, v in verdict.certificate]
        assert verify_certificate(rows, rhs, y)


class TestSimplexInput:
    def test_every_solve_gets_0_1_int_rows_and_nonnegative_rhs(self, monkeypatch):
        # the simplex takes only 0/1 rows and right-hand sides >= 0; every
        # call jdc_feasible makes, kept rows or all rows, exact or float
        # labelled, must hand it that
        calls = []
        solve = jdc_mod.solve_equality_feasibility

        def checked(rows, rhs, **kw):
            assert all(type(v) is int and v in (0, 1) for row in rows for v in row)
            assert all(type(b) in (int, F) and b >= 0 for b in rhs)
            calls.append(len(rows))
            return solve(rows, rhs, **kw)

        monkeypatch.setattr(jdc_mod, "solve_equality_feasibility", checked)
        rng = random.Random(43)
        systems = [random_2x2_system(rng) for _ in range(20)]
        systems += [
            random_coupled_system(rng, n_inputs=3, max_input_values=2, out_sizes=(2, 2)) for _ in range(6)
        ]
        systems += [system_from_joint(rng, n_inputs=3, n_values=2)[:2] for _ in range(2)]
        systems += [system_from_joint(rng, n_inputs=2, n_values=3)[:2] for _ in range(2)]
        systems += [(design, as_float(tables)) for design, tables in systems]
        systems += [non_selective_system(F), non_selective_system(lambda a, b: a / b)]
        solved = {"exact": 0, "float": 0}
        all_rows = 0
        for design, tables in systems:
            problem = build_jdc(design, tables)
            before = len(calls)
            verdict = jdc_feasible(problem)
            solved["float" if verdict.regime == "float" else "exact"] += len(calls) > before
            all_rows += len(problem.constraints) in calls[before:]
        assert min(solved.values()) >= 10 and all_rows >= 2


def anti_pr_box():
    """A PR box with its correlations flipped: anticorrelation on three
    treatments, correlation on (x', y').  Infeasible, yet no chain of the
    index order-distance is violated: every one of its Bell-CHSH-Fine
    violations is a lower inequality, a chain of the reversed order."""
    design = binary_design()
    h = F(1, 2)
    corr = {("0", "0"): h, ("1", "1"): h}
    anti = {("0", "1"): h, ("1", "0"): h}
    tables = [
        TreatmentTable(design, t, corr if t == ("x'", "y'") else anti, axes=[("0", "1"), ("0", "1")])
        for t in design.iter_treatments()
    ]
    return design, tables


def random_exact_system(kind, rng):
    if kind == "2x2":
        return random_2x2_system(rng)
    if kind == "noisy_pr":
        # w times a PR box (or its flipped twin) plus 1 - w times fair coins
        w = F(rng.randint(0, 12), 12)
        design, boxes = (pr_box if rng.random() < 0.5 else anti_pr_box)()
        _, coins = product_system()
        tables = [
            TreatmentTable(design, b.treatment, {o: w * b.prob(o) + (1 - w) * c.prob(o) for o in c.probs}, axes=b.axes)
            for b, c in zip(boxes, coins)
        ]
        return design, tables
    if kind == "joint":
        return system_from_joint(rng, 2 + rng.randint(0, 1), 2, 2)[:2]
    return random_coupled_system(
        rng, max_input_values=3, out_sizes=(2, 3), restrict_phi=kind == "restricted"
    )


class TestChainCertificate:
    """jdc_feasible refutes by a violated chain's certificate, verified on
    every row, before the simplex pivots."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["2x2", "noisy_pr", "full", "restricted", "joint"]), st.randoms(use_true_random=False))
    def test_verdicts_equal_the_simplex_and_certificates_verify(self, kind, rng):
        design, tables = random_exact_system(kind, rng)
        problem = build_jdc(design, tables)
        rows, rhs = jdc_rows(problem)
        verdict = jdc_feasible(problem)
        assert verdict.feasible == solve_equality_feasibility(rows, rhs).feasible
        if verdict.chain is None:
            return
        assert not verdict.feasible and verdict.chain.violated
        y = [v for _, _, v in verdict.certificate]
        assert [(t, o) for t, o, _ in verdict.certificate] == [(c.treatment, c.outcome) for c in problem.constraints]
        assert verify_certificate(rows, rhs, y)
        assert sum(map(mul, y, rhs)) == -verdict.chain.residual

    def test_most_violated_chain_first_in_suite_order(self):
        design, tables = pr_box()
        suite = run_suite(design, tables, [default_order_metric(point_axes(design, tables))], max_len=4)
        worst = min(v.residual for v in suite.violations)
        first = next(v for v in suite.violations if v.residual == worst)
        assert sum(v.residual == worst for v in suite.violations) > 1
        assert jdc_feasible(build_jdc(design, tables)).chain == first

    def test_refutes_without_the_simplex(self, monkeypatch):
        calls = []
        monkeypatch.setattr(jdc_mod, "solve_equality_feasibility", lambda *a, **k: calls.append(a))
        design, tables = pr_box()
        verdict = jdc_feasible(build_jdc(design, tables))
        assert not verdict.feasible and verdict.chain.residual == F(-1, 2)
        assert calls == []

    def test_eight_cycle_is_refuted_by_its_8_chain_without_the_simplex(self, monkeypatch):
        # the only violated chains of the 8-cycle have 8 points: the chain
        # screen runs at check's default length, the number of points
        calls = []
        monkeypatch.setattr(jdc_mod, "solve_equality_feasibility", lambda *a, **k: calls.append(a))
        loaded = load_system(SAMPLES / "eight_cycle.json")
        problem = build_jdc(loaded.design, loaded.tables)
        verdict = jdc_feasible(problem)
        assert not verdict.feasible and calls == []
        assert len(verdict.chain.sequence) == 8 and verdict.chain.residual == F(-1, 2)
        assert brute_certificate_check(problem, verdict.certificate)

    def test_certificate_failing_verification_leaves_the_simplex_to_decide(self, monkeypatch):
        design, tables = pr_box()
        problem = build_jdc(design, tables)
        chain, y = jdc_mod._chain_certificate(problem, EPS_LP)
        bad = [-v for v in y]
        monkeypatch.setattr(jdc_mod, "_chain_certificate", lambda problem, eps_test: (chain, bad))
        calls = []
        solve = jdc_mod.solve_equality_feasibility
        monkeypatch.setattr(
            jdc_mod, "solve_equality_feasibility",
            lambda rows, rhs, **kw: calls.append(len(rows)) or solve(rows, rhs, **kw),
        )
        verdict = jdc_feasible(problem)
        assert calls == [9]
        assert not verdict.feasible and verdict.chain is None
        assert brute_certificate_check(problem, verdict.certificate)

    def test_float_pr_box_is_refuted_by_a_chain(self, monkeypatch):
        # the PR box's floats are its halves exactly: the exact box's chain
        # and certificate, and no simplex
        calls = []
        monkeypatch.setattr(jdc_mod, "solve_equality_feasibility", lambda *a, **k: calls.append(a))
        design, tables = pr_box()
        verdict = jdc_feasible(build_jdc(design, as_float(tables)))
        exact = jdc_feasible(build_jdc(design, tables))
        assert verdict.regime == "float" and not verdict.feasible and calls == []
        assert verdict.chain.residual == -0.5 and verdict.chain.sequence == exact.chain.sequence
        assert verdict.certificate == exact.certificate

    def test_sound_system_through_floats_is_not_refuted_by_a_chain(self):
        # the joint lies on a chain's face: the residual of its tenths is
        # 0.  Read exactly, the floats miss the face by 2^-54, the chain's
        # residual, flagged only below -eps_lp; so the chain flagged at 0
        # refutes them, and within eps_lp the simplex finds them feasible.
        design, tables = face_joint_system()
        floats = as_float(tables)
        problem = build_jdc(design, floats)
        suite = run_suite(design, floats, [default_order_metric(problem.axes)], max_len=4, eps_test=0.0)
        assert [v.residual for v in suite.violations] == [-(2.0**-54)]
        assert jdc_mod._chain_certificate(problem, EPS_LP) is None
        chain, y = jdc_mod._chain_certificate(problem, 0.0)
        rows, rhs = jdc_rows(problem)
        assert sum(map(mul, y, rhs)) == F(1, 2**54) and verify_certificate(rows, rhs, y)
        assert chain.residual == float(-sum(map(mul, y, rhs)))
        verdict = jdc_feasible(problem)
        assert verdict.feasible and verdict.chain is None
        assert witness_reproduces_tables(problem, verdict.witness, floats, eps=10 * EPS_LP)

    def test_missing_table_is_not_screened(self):
        # a treatment without a table constrains nothing, and covers no pair
        design, tables = pr_box()
        problem = build_jdc(design, tables[:3])
        assert jdc_mod._chain_certificate(problem, EPS_LP) is None
        assert jdc_feasible(problem).feasible

    def test_tableau_guard_trips_before_the_screen(self, monkeypatch):
        monkeypatch.setattr(jdc_mod, "MAX_TABLEAU_CELLS", 10)
        design, tables = pr_box()
        with pytest.raises(HiddenSpaceTooLarge):
            jdc_feasible(build_jdc(design, tables))


class TestFloatSystems:
    """jdc_feasible decides a float system in exact arithmetic, on the
    binary fractions its floats are, with eps_lp on the phase-1 objective;
    its verdicts are those of the float simplex it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["2x2", "noisy_pr", "full", "restricted", "joint"]),
        st.randoms(use_true_random=False),
    )
    def test_verdicts_equal_the_float_simplex(self, kind, rng):
        design, tables = random_exact_system(kind, rng)
        floats = as_float(tables)
        problem = build_jdc(design, floats)
        rows, rhs = jdc_rows(problem)
        verdict = jdc_feasible(problem)
        assert verdict.regime == "float"
        assert verdict.feasible == dense_feasibility(rows, rhs, eps=EPS_LP).feasible
        if verdict.feasible:
            assert witness_reproduces_tables(problem, verdict.witness, floats, eps=10 * EPS_LP)
        else:
            y = [v for _, _, v in verdict.certificate]
            assert verify_certificate(rows, rhs, y)
            chain = verdict.chain
            if chain is not None:
                # the chain's distances are exact sums of the cells, as
                # y.b is, so its residual is -y.b rounded once
                assert chain.residual == float(-sum(map(mul, y, rhs)))


def face_joint_system():
    """A sound 2x2 binary system, the tables of a joint over (x, x', y, y')
    on the face of a chain of the index order-distance: the chain's
    residual is 0.  Its tenths are not binary fractions."""
    design = binary_design()
    points = design.points()
    joint = {("1", "0", "0", "1"): F(1, 10), ("1", "1", "1", "0"): F(7, 10), ("0", "1", "1", "0"): F(1, 5)}
    tables = []
    for t in design.iter_treatments():
        idx = [points.index(InputPoint(name, v)) for name, v in zip(design.inputs, t)]
        probs = {(a, b): F(0) for a in "01" for b in "01"}
        for assignment, p in joint.items():
            probs[tuple(assignment[i] for i in idx)] += p
        tables.append(TreatmentTable(design, t, probs, axes=[("0", "1"), ("0", "1")]))
    return design, tables


class TestFineInequalities:
    def test_pr_box_third_expression_positive(self):
        design, tables = pr_box()
        fs = FineSystem.from_tables(design, tables)
        report = fine_inequalities(fs)
        assert report.values[2] == F(1, 2)
        assert not report.satisfied
        assert 3 in report.violations

    def test_fair_coins_all_minus_half(self):
        design, tables = product_system()
        report = fine_inequalities(FineSystem.from_tables(design, tables))
        assert report.values == (F(-1, 2),) * 4
        assert report.satisfied

    def test_deterministic_system_on_boundary(self):
        design = binary_design()
        cells = {("0", "0"): F(1)}
        tables = [
            TreatmentTable(design, t, cells, axes=[("0", "1"), ("0", "1")])
            for t in design.iter_treatments()
        ]
        report = fine_inequalities(FineSystem.from_tables(design, tables))
        assert report.values == (F(0),) * 4
        assert report.satisfied

    def test_marginal_selectivity_required(self):
        design = binary_design()
        tables = [
            table_2x2(design, ("x", "y"), F(1, 4), F(1, 2), F(1, 2)),
            table_2x2(design, ("x", "y'"), F(1, 4), F(1, 3), F(1, 2)),  # a1 differs
            table_2x2(design, ("x'", "y"), F(1, 4), F(1, 2), F(1, 2)),
            table_2x2(design, ("x'", "y'"), F(1, 4), F(1, 3), F(1, 2)),
        ]
        with pytest.raises(MarginalSelectivityViolated):
            FineSystem.from_tables(design, tables)

    @pytest.mark.parametrize("pick", [(0, 1, 2), (0, 1, 2, 2)], ids=["three", "repeated"])
    def test_missing_treatment_is_format_error(self, pick):
        # three tables, or four with one treatment twice: no bare KeyError
        loaded = load_system(SAMPLES / "prbox.json")
        tables = [loaded.tables[k] for k in pick]
        assert not is_2x2_binary(loaded.design, tables)
        with pytest.raises(SystemFormatError, match="need a 2x2 factorial design with binary outputs"):
            FineSystem.from_tables(loaded.design, tables)


class TestChainResiduals:
    def test_symbolic_first_residuals(self):
        from test_probspace import symbolic_tables

        design = binary_design()
        tables = symbolic_tables(design)
        by_t = {t.treatment: t for t in tables}
        d1, d2 = d1_d2_chain_residuals(design, tables)
        p = by_t[("x", "y")]
        q = by_t[("x", "y'")]
        r = by_t[("x'", "y")]
        s = by_t[("x'", "y'")]
        assert d1[0].residual == (
            p.prob(("0", "1")) + r.prob(("1", "0")) + s.prob(("0", "1")) - q.prob(("0", "1"))
        )
        assert d2[0].residual == (
            p.prob(("0", "0")) + r.prob(("1", "1")) + s.prob(("0", "0")) - q.prob(("0", "0"))
        )

    def test_pr_box_third_d1_residual(self):
        design, tables = pr_box()
        d1, _ = d1_d2_chain_residuals(design, tables)
        assert d1[2].residual == F(-1, 2)
        assert d1[2].violated
        report = fine_inequalities(FineSystem.from_tables(design, tables))
        assert (3 in report.violations) == d1[2].violated


def chain_test_route(design, tables):
    """The eight canonical chains as `jdc` once reported them: the first
    four witnesses of enumerate_irreducible, each decided by chain_test."""
    witnesses = list(itertools.islice(enumerate_irreducible(design, 4), 4))
    axes = point_axes(design, tables)
    specs = zip(jdc_mod._binary_order_specs(design, axes), ("order:low-first", "order:second-reversed"))
    return tuple([chain_test(OrderDistance(spec, name), w, tables) for w in witnesses] for spec, name in specs)


def assert_same(got, want, where=()):
    """Equal and of the same type, element by element inside tuples."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(got, tuple):
        assert len(got) == len(want), (where, got, want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, (*where, k))
    else:
        assert got == want, (where, got, want)


def assert_reports_match_chain_test(design, tables):
    got, want = d1_d2_chain_residuals(design, tables), chain_test_route(design, tables)
    assert len(got[0]) == len(got[1]) == 4
    for family, (mine, theirs) in enumerate(zip(got, want)):
        for k, (a, b) in enumerate(zip(mine, theirs)):
            for field in dataclasses.fields(ChainReport):
                assert_same(getattr(a, field.name), getattr(b, field.name), (family, k, field.name))


def as_float(tables, pick=lambda t: True):
    return [
        TreatmentTable(t.design, t.treatment, {o: float(p) for o, p in t.probs.items()}, axes=t.axes)
        if pick(t) else t
        for t in tables
    ]


class TestChainKernel:
    """d1_d2_chain_residuals reports on the chain suite's kernel exactly
    what chain_test reports over enumerate_irreducible's witnesses."""

    def test_random_systems(self):
        rng = random.Random("fine-kernel")
        violated = unviolated = 0
        for n in range(90):
            if n % 3 == 0:
                design, tables = random_2x2_system(rng)
            elif n % 3 == 1:
                design, tables, _ = system_from_joint(rng, 2, 2, 2)
            else:
                design, tables = random_coupled_system(rng, max_input_values=2, out_sizes=(2, 2), restrict_phi=False)
            first = tables[0].treatment
            # exact, float, and one float table among exact ones
            for variant in (tables, as_float(tables), as_float(tables, lambda t: t.treatment == first)):
                assert_reports_match_chain_test(design, variant)
                for r in itertools.chain(*d1_d2_chain_residuals(design, variant)):
                    violated += r.violated
                    unviolated += not r.violated
        assert violated > 20 and unviolated > 1_000

    @pytest.mark.parametrize("name", ["prbox", "normal_sign", "product"])
    @pytest.mark.parametrize("arithmetic", ["auto", "float"])
    def test_samples(self, name, arithmetic):
        loaded = load_system(SAMPLES / f"{name}.json", arithmetic)
        assert_reports_match_chain_test(loaded.design, loaded.tables)

    def test_jdc_makes_no_chain_test_call(self, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return chain_test(*args, **kwargs)

        monkeypatch.setattr(selectivity, "chain_test", counted)
        monkeypatch.setattr(jdc_mod, "chain_test", counted, raising=False)
        assert main(["jdc", str(SAMPLES / "prbox.json"), "--json"]) == 2
        assert '"theorem4_max_discrepancy": "0"' in capsys.readouterr().out
        assert calls == []


class TestFineChainEquivalence:
    def test_exact_systems_have_zero_discrepancy(self):
        rng = random.Random(67)
        for _ in range(50):
            design, tables = random_2x2_system(rng)
            eq = fine_chain_equivalence(FineSystem.from_tables(design, tables), design, tables)
            assert eq.max_discrepancy == 0

    def test_float_system_within_rounding(self):
        design, tables = pr_box()
        floated = [
            TreatmentTable(
                t.design,
                t.treatment,
                {o: float(p) for o, p in t.probs.items()},
                axes=t.axes,
            )
            for t in tables
        ]
        eq = fine_chain_equivalence(FineSystem.from_tables(design, floated), design, floated)
        assert eq.max_discrepancy <= 1e-12

    def test_pr_box_identity(self):
        design, tables = pr_box()
        eq = fine_chain_equivalence(FineSystem.from_tables(design, tables), design, tables)
        assert eq.d1_residuals[2] == -eq.fine_values[2] == F(-1, 2)


class TestFineLpAgreement:
    def test_iff_on_random_systems(self):
        rng = random.Random(71)
        feasible_count = infeasible_count = 0
        for _ in range(120):
            design, tables = random_2x2_system(rng)
            fine_ok = fine_inequalities(FineSystem.from_tables(design, tables)).satisfied
            verdict = jdc_feasible(build_jdc(design, tables))
            assert fine_ok == verdict.feasible
            if verdict.feasible:
                feasible_count += 1
                assert witness_reproduces_tables(
                    build_jdc(design, tables), verdict.witness, tables
                )
            else:
                infeasible_count += 1
        assert feasible_count and infeasible_count

    def test_chain_violation_implies_infeasible(self):
        rng = random.Random(73)
        seen_violation = False
        for _ in range(80):
            design, tables = random_2x2_system(rng)
            low, rev = canonical_order_specs(tables)
            suite = run_suite(design, tables, [OrderDistance(low), OrderDistance(rev)])
            if suite.violations:
                seen_violation = True
                assert not jdc_feasible(build_jdc(design, tables)).feasible
        assert seen_violation

    def test_sound_systems_always_feasible(self):
        rng = random.Random(79)
        for _ in range(15):
            design, tables, _ = system_from_joint(rng, 2, 2, 2)
            problem = build_jdc(design, tables)
            verdict = jdc_feasible(problem)
            assert verdict.feasible
            assert witness_reproduces_tables(problem, verdict.witness, tables)


class TestHelpers:
    def test_is_2x2_binary(self):
        design, tables = pr_box()
        assert is_2x2_binary(design, tables)
        design3 = Design(["1", "2"], {"1": ["u", "v", "w"], "2": ["y", "y'"]})
        assert not is_2x2_binary(design3, [])

    def test_fine_expressions_match_cells(self):
        design, tables = pr_box()
        fs = FineSystem.from_tables(design, tables)
        e = fine_expressions(fs)
        assert e[0] == fs.p11 + fs.r11 + fs.s11 - fs.q11 - fs.a1p - fs.b1
