import random
from fractions import Fraction as F
from operator import mul

import pytest

from lp_reference import dense_bland_feasibility, dense_feasibility, jdc_rows
from ordist import NumericalInstability, build_jdc, lp
from ordist.jdc import independent_rows
from ordist.lp import solve_equality_feasibility, verify_certificate, verify_solution
from randsys import random_2x2_system, random_coupled_system, system_from_joint


def random_instance(rng, max_m=4, max_n=6, least=0):
    """Random 0/1 rows and right-hand sides from least to 4."""
    m, n = rng.randint(1, max_m), rng.randint(1, max_n)
    rows = [[rng.choice((0, 1)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(least, 4), rng.randint(1, 3)) for _ in range(m)]
    return rows, rhs


def assert_matches_reference(rows, rhs, entered=None):
    """The revised kernel and the dense reference loop pivot alike: same
    verdict, witness, certificate, objective and pivot count.  Bland's rule
    alone, a different pivot sequence, reaches the same verdict.  The
    reference's entering columns are appended to `entered`."""
    got = solve_equality_feasibility(rows, rhs)
    ref = dense_feasibility(rows, rhs, entered=entered)
    assert got.feasible == ref.feasible
    assert got.x == ref.x
    assert got.certificate == ref.certificate
    assert got.objective == ref.objective
    assert got.iterations == ref.iterations
    assert dense_bland_feasibility(rows, rhs).feasible == got.feasible
    return got


def enters_artificial(rows, entered) -> bool:
    """Some pivot entered an artificial column: row i's is column n + i."""
    return any(j >= len(rows[0]) for j in entered)


def jdc_system(rng, kind):
    """A random design and tables: a 2x2 binary system, a coupled 3-input
    one, or an explicit joint over 3 binary inputs or 2 ternary ones."""
    if kind == "2x2":
        return random_2x2_system(rng)
    if kind == "coupled-3":
        return random_coupled_system(rng, n_inputs=3, max_input_values=2, out_sizes=(2, 2))
    n_inputs, n_values = {"joint-3": (3, 2), "joint-2x3": (2, 3)}[kind]
    return system_from_joint(rng, n_inputs=n_inputs, n_values=n_values)[:2]


def degenerate_instance(rng, m=8, n=14):
    """Random 0/1 rows with most right-hand sides zero: ties in the ratio
    test and many pivots that leave the objective where it is."""
    rows = [[rng.choice((0, 0, 1)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(1, 3), 4) if rng.random() < 0.25 else F(0) for _ in range(m)]
    return rows, rhs


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

    def test_entries_other_than_0_and_1_are_value_errors(self):
        # the kernel takes 0/1 rows only; the error names the entry
        for bad, shown in ((2, "2"), (F(1, 2), "1/2"), (F(-1), "-1")):
            with pytest.raises(ValueError, match=f"row 1 holds {shown}$"):
                solve_equality_feasibility([[1, 0], [F(1), bad]], [F(1), F(1)])
        assert solve_equality_feasibility([[F(1), F(0)], [0, 1]], [F(1), F(1)]).feasible

    def test_negative_rhs_infeasible_certificate_refers_to_original_rows(self):
        # x >= 0 with x1 + x2 = -1 is impossible: y = -e_1 refutes it before
        # any pivot, the most negative right-hand side's row, the first of
        # equal ones, whatever eps is
        rows = [[F(1), F(1)]]
        rhs = [F(-1)]
        res = solve_equality_feasibility(rows, rhs)
        assert not res.feasible
        assert verify_certificate(rows, rhs, res.certificate)
        assert (res.certificate, res.objective, res.iterations) == ([-1], 1, 0)
        rows = [[1, 0], [0, 1], [1, 1], [0, 0]]
        rhs = [F(1), F(-1, 2), F(1, 3), F(-1, 2)]
        res = solve_equality_feasibility(rows, rhs, eps=1)
        assert not res.feasible
        assert (res.certificate, res.objective, res.iterations) == ([0, -1, 0, 0], F(1, 2), 0)
        assert verify_certificate(rows, rhs, res.certificate)
        assert not dense_feasibility(rows, rhs).feasible

    def test_redundant_rows_supported(self):
        rows = [[1, 1], [1, 1], [1, 0]]
        rhs = [F(1), F(1), F(1, 4)]
        res = assert_matches_reference(rows, rhs)
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

    def test_iteration_cap_raises(self, monkeypatch):
        rows = [[F(1), F(1)], [F(0), F(1)]]
        rhs = [F(1), F(1, 2)]
        monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
        with pytest.raises(NumericalInstability):
            solve_equality_feasibility(rows, rhs)

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

    def test_certificate_sign_matches_the_fraction_sum(self):
        # y.b is summed in ints over two lcms; its sign must be the
        # Fraction sum's, also at 0.  Zero rows keep y.A <= 0, so the
        # verdict is the sign of y.b alone.
        rng = random.Random(31)

        def multiplier(rng):
            kind = rng.randrange(3)
            if kind == 0:
                return 0
            if kind == 1:
                return rng.randint(-3, 3)
            return F(rng.randint(-4, 4), rng.choice([1, 2, 3, 6, 7]))

        verdicts = []
        for _ in range(400):
            m = rng.randint(1, 6)
            rows = [[0, 0] for _ in range(m)]
            y = [multiplier(rng) for _ in range(m)]
            rhs = [F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5, 9])) for _ in range(m)]
            total = sum(F(yi) * bi for yi, bi in zip(y, rhs))
            assert verify_certificate(rows, rhs, y) == (total > 0)
            verdicts.append((total > 0, total == 0, any(b < 0 for b in rhs), 0 in y))
        # both verdicts, a zero total, negative right-hand sides and zero
        # multipliers all occur
        assert {v[0] for v in verdicts} == {True, False}
        assert all(any(v[k] for v in verdicts) for k in (1, 2, 3))


class TestReferenceAgreement:
    def test_zero_one_rows_either_sign(self):
        # nonnegative right-hand sides pivot as the reference does; a
        # negative one is refuted by -e_i before any pivot, as the
        # reference refutes it after pivoting its flipped row
        rng = random.Random(41)
        negative = 0
        for _ in range(80):
            rows, rhs = random_instance(rng, least=-4)
            if min(rhs) >= 0:
                assert_matches_reference(rows, rhs)
                continue
            negative += 1
            res = solve_equality_feasibility(rows, rhs)
            i = rhs.index(min(rhs))
            assert res.certificate == [-(k == i) for k in range(len(rhs))]
            assert (res.feasible, res.objective, res.iterations) == (False, -rhs[i], 0)
            assert verify_certificate(rows, rhs, res.certificate)
            assert not dense_feasibility(rows, rhs).feasible
        assert 0 < negative < 80

    @pytest.mark.parametrize("kind, count", [("2x2", 40), ("coupled-3", 8), ("joint-3", 3)])
    def test_jdc_problems(self, kind, count):
        rng = random.Random(13)
        verdicts = set()
        for _ in range(count):
            rows, rhs = jdc_rows(build_jdc(*jdc_system(rng, kind)))
            verdicts.add(assert_matches_reference(rows, rhs).feasible)
        # explicit joints are sound; the other two kinds reach both verdicts
        assert verdicts == ({True} if kind == "joint-3" else {True, False})

    @pytest.mark.parametrize(
        "kind, count", [("2x2", 40), ("coupled-3", 8), ("joint-3", 3), ("joint-2x3", 4)]
    )
    def test_jdc_problems_on_kept_rows(self, kind, count):
        # what `jdc_feasible` solves: the rows of `independent_rows`
        rng = random.Random(13)
        verdicts = set()
        for _ in range(count):
            problem = build_jdc(*jdc_system(rng, kind))
            rows, rhs = jdc_rows(problem)
            keep = independent_rows(problem)
            assert len(keep) < len(rows)
            kept = ([rows[i] for i in keep], [rhs[i] for i in keep])
            verdicts.add(assert_matches_reference(*kept).feasible)
        assert verdicts == ({True} if kind.startswith("joint") else {True, False})

    @pytest.mark.parametrize("run", [0, 1, 2, 5])
    def test_bland_fallback_pivots_like_the_reference(self, monkeypatch, run):
        # a short degenerate run hands pricing to Bland's rule early and
        # often; at 0 every pivot is Bland's.  The reference reads the
        # patched threshold too.
        monkeypatch.setattr(lp, "DEGENERATE_RUN", run)
        rng = random.Random(23)
        artificial = 0
        for _ in range(40):
            rows, rhs = degenerate_instance(rng)
            entered = []
            assert_matches_reference(rows, rhs, entered)
            artificial += enters_artificial(rows, entered)
        assert artificial
        for _ in range(4):
            design, tables = random_coupled_system(rng, n_inputs=3, max_input_values=2, out_sizes=(2, 2))
            assert_matches_reference(*jdc_rows(build_jdc(design, tables)))

    def test_highly_degenerate_instance_terminates_verified(self, monkeypatch):
        # 60 rows over 120 0/1 columns, 42 of them with right-hand side 0:
        # ratios tie at almost every pivot, and one run of degenerate
        # pivots is long enough to hand pricing to Bland's rule
        rows, rhs = degenerate_instance(random.Random(25), m=60, n=120)
        assert sum(b == 0 for b in rhs) == 42
        res = assert_matches_reference(rows, rhs)
        assert not res.feasible
        assert verify_certificate(rows, rhs, res.certificate)
        monkeypatch.setattr(lp, "DEGENERATE_RUN", 10**9)
        assert solve_equality_feasibility(rows, rhs).iterations != res.iterations


class TestFloatMode:
    """The tolerance a float system is decided with: the least phase-1
    objective, reached in exact arithmetic, is compared exactly with eps.
    The rows x1 + x2 = 1 and x1 + x2 = 1 + 2^-60 miss each other by 2^-60,
    which is their least phase-1 objective."""

    rows = [[1, 1], [1, 1]]
    rhs = [F(1), 1 + F(1, 2**60)]

    def test_feasible_within_slack(self):
        res = solve_equality_feasibility(self.rows, self.rhs, eps=1e-9)
        assert res.feasible and res.objective == F(1, 2**60)
        assert verify_solution(self.rows, self.rhs, res.x, eps=1e-9)
        assert not verify_solution(self.rows, self.rhs, res.x)
        # the objective is compared exactly: at eps equal to it, feasible
        assert solve_equality_feasibility(self.rows, self.rhs, eps=2.0**-60).feasible

    def test_infeasible_certificate(self):
        for eps in (0, 2.0**-61):
            res = solve_equality_feasibility(self.rows, self.rhs, eps=eps)
            assert not res.feasible and res.objective == F(1, 2**60)
            assert verify_certificate(self.rows, self.rhs, res.certificate)
            assert sum(map(mul, res.certificate, self.rhs)) == res.objective

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
        with pytest.raises(NumericalInstability, match="no convergence after 0 pivots$"):
            solve_equality_feasibility(self.rows, self.rhs, eps=1e-9)


class TestGuards:
    def test_tableau_guard(self, monkeypatch):
        import ordist.jdc as jdc_mod
        from randsys import product_system
        from ordist import build_jdc, HiddenSpaceTooLarge

        design, tables = product_system()
        monkeypatch.setattr(jdc_mod, "MAX_TABLEAU_CELLS", 10)
        with pytest.raises(HiddenSpaceTooLarge):
            build_jdc(design, tables)
