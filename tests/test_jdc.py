import random
from fractions import Fraction as F

import pytest

from ordist import (
    Design,
    HiddenSpaceTooLarge,
    FineSystem,
    MarginalSelectivityViolated,
    OrderDistance,
    TreatmentTable,
    build_jdc,
    d1_d2_chain_residuals,
    fine_chain_equivalence,
    fine_inequalities,
    is_2x2_binary,
    jdc_feasible,
    run_suite,
    witness_reproduces_tables,
)
from ordist.jdc import fine_expressions
from randsys import (
    binary_design,
    canonical_order_specs,
    pr_box,
    product_system,
    random_2x2_system,
    sign_system,
    system_from_joint,
    table_2x2,
)


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
