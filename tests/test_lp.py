import random
from fractions import Fraction as F

import pytest

from lp_reference import dense_bland_feasibility
from ordist import NumericalInstability, build_jdc
from ordist.lp import solve_equality_feasibility, verify_certificate, verify_solution
from randsys import random_2x2_system, random_coupled_system, system_from_joint


def random_instance(rng, max_m=4, max_n=6, coefficient=lambda rng: F(rng.randint(-3, 3))):
    m, n = rng.randint(1, max_m), rng.randint(1, max_n)
    rows = [[coefficient(rng) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
    return rows, rhs


def assert_matches_reference(rows, rhs, eps=0.0):
    """The sparse kernel and the dense reference loop pivot alike: same
    verdict, witness, certificate, objective and pivot count."""
    got = solve_equality_feasibility(rows, rhs, eps)
    ref = dense_bland_feasibility(rows, rhs, eps)
    assert got.feasible == ref.feasible
    assert got.x == ref.x
    assert got.certificate == ref.certificate
    assert got.objective == ref.objective
    assert got.iterations == ref.iterations
    return got


class TestExactMode:
    def test_float_input_is_a_type_error(self):
        # exact mode takes ints and Fractions; a float is never converted
        with pytest.raises(TypeError):
            solve_equality_feasibility([[F(1), F(1)]], [0.5])
        with pytest.raises(TypeError):
            solve_equality_feasibility([[1.0, 1]], [F(1, 2)])
        assert solve_equality_feasibility([[1, 1]], [F(1, 2)]).feasible

    def test_simple_feasible(self):
        rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
        rhs = [F(1), F(1)]
        res = solve_equality_feasibility(rows, rhs)
        assert res.feasible
        assert verify_solution(rows, rhs, res.x)

    def test_simple_infeasible_with_certificate(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        rows = [[F(1), F(1)], [F(1), F(1)]]
        rhs = [F(1), F(2)]
        res = solve_equality_feasibility(rows, rhs)
        assert not res.feasible
        assert verify_certificate(rows, rhs, res.certificate)

    def test_negative_rhs_rows_are_flipped(self):
        # -x1 = -3 has the solution x1 = 3; the solver must normalize signs
        rows = [[F(-1), F(0)], [F(1), F(1)]]
        rhs = [F(-3), F(5)]
        res = solve_equality_feasibility(rows, rhs)
        assert res.feasible
        assert res.x[0] == 3
        assert verify_solution(rows, rhs, res.x)

    def test_negative_rhs_infeasible_certificate_refers_to_original_rows(self):
        # x >= 0 with x1 + x2 = -1 is impossible
        rows = [[F(1), F(1)]]
        rhs = [F(-1)]
        res = solve_equality_feasibility(rows, rhs)
        assert not res.feasible
        assert verify_certificate(rows, rhs, res.certificate)

    def test_redundant_rows_supported(self):
        rows = [[F(1), F(1)], [F(2), F(2)], [F(1), F(0)]]
        rhs = [F(1), F(2), F(1, 4)]
        res = solve_equality_feasibility(rows, rhs)
        assert res.feasible
        assert verify_solution(rows, rhs, res.x)

    def test_zero_variable_mass_requires_zero_rhs(self):
        rows = [[F(0), F(0)]]
        assert solve_equality_feasibility(rows, [F(0)]).feasible
        res = solve_equality_feasibility(rows, [F(1)])
        assert not res.feasible
        assert verify_certificate(rows, [F(1)], res.certificate)

    def test_random_instances_self_verify(self):
        rng = random.Random(97)
        feasible = infeasible = 0
        for _ in range(60):
            rows, rhs = random_instance(rng)
            res = assert_matches_reference(rows, rhs)
            if res.feasible:
                feasible += 1
                assert verify_solution(rows, rhs, res.x)
            else:
                infeasible += 1
                assert verify_certificate(rows, rhs, res.certificate)
        assert feasible and infeasible

    def test_iteration_cap_raises(self):
        rows = [[F(1), F(1)], [F(0), F(1)]]
        rhs = [F(1), F(1, 2)]
        with pytest.raises(NumericalInstability):
            solve_equality_feasibility(rows, rhs, max_iter=0)

    def test_certificate_checks_every_column(self):
        # y = (1, -1) refutes x1 + x2 = 1, x1 + x2 = 0 only while no column
        # has y.A > 0; the last column breaks it, next to zero cells
        rows = [[F(1), F(1), F(0)], [F(1), F(1), F(0)]]
        rhs = [F(1), F(0)]
        y = [F(1), F(-1)]
        assert verify_certificate(rows, rhs, y)
        last_column_positive = [[F(1), F(1), F(1)], [F(1), F(1), F(0)]]
        assert not verify_certificate(last_column_positive, rhs, y)
        assert not verify_certificate(rows, [F(1), F(1)], y)


class TestReferenceAgreement:
    def test_random_rational_instances(self):
        rng = random.Random(5)

        def coefficient(rng):
            return F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 5]))

        for _ in range(150):
            rows, rhs = random_instance(rng, max_m=5, max_n=8, coefficient=coefficient)
            assert_matches_reference(rows, rhs)
            assert_matches_reference(
                [[float(v) for v in row] for row in rows], [float(v) for v in rhs], eps=1e-9
            )

    @pytest.mark.parametrize("kind, count", [("2x2", 40), ("coupled-3", 8), ("joint-3", 3)])
    def test_jdc_problems(self, kind, count):
        rng = random.Random(13)
        verdicts = set()
        for _ in range(count):
            if kind == "2x2":
                design, tables = random_2x2_system(rng)
            elif kind == "coupled-3":
                design, tables = random_coupled_system(
                    rng, n_inputs=3, max_input_values=2, out_sizes=(2, 2)
                )
            else:
                design, tables, _ = system_from_joint(rng, n_inputs=3)
            problem = build_jdc(design, tables)
            rows = []
            for c in problem.constraints:
                row = [0] * problem.n_vars
                for k in c.var_indices:
                    row[k] = 1
                rows.append(row)
            rhs = [c.rhs for c in problem.constraints]
            verdicts.add(assert_matches_reference(rows, rhs).feasible)
        # explicit joints are sound; the other two kinds reach both verdicts
        assert verdicts == ({True} if kind == "joint-3" else {True, False})


class TestFloatMode:
    def test_feasible_within_slack(self):
        rows = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        rhs = [1.0, 1.0]
        res = solve_equality_feasibility(rows, rhs, eps=1e-9)
        assert res.feasible
        assert verify_solution(rows, rhs, res.x, eps=1e-8)

    def test_infeasible_certificate(self):
        rows = [[1.0, 1.0], [1.0, 1.0]]
        rhs = [1.0, 2.0]
        res = solve_equality_feasibility(rows, rhs, eps=1e-9)
        assert not res.feasible
        assert verify_certificate(rows, rhs, res.certificate, eps=1e-9)

    def test_iteration_cap_raises(self):
        rows = [[1.0, 1.0], [0.0, 1.0]]
        rhs = [1.0, 0.5]
        with pytest.raises(NumericalInstability):
            solve_equality_feasibility(rows, rhs, eps=1e-9, max_iter=0)


class TestGuards:
    def test_tableau_guard(self, monkeypatch):
        import ordist.jdc as jdc_mod
        from randsys import product_system
        from ordist import build_jdc, HiddenSpaceTooLarge

        design, tables = product_system()
        problem = build_jdc(design, tables)
        monkeypatch.setattr(jdc_mod, "MAX_TABLEAU_CELLS", 10)
        with pytest.raises(HiddenSpaceTooLarge):
            jdc_mod.jdc_feasible(problem)
