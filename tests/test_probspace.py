import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordist import (
    Design,
    InputPoint,
    SameInput,
    SystemFormatError,
    TreatmentTable,
    UnknownInput,
    bivariate,
    diagonal_coupling,
    marginalize,
    validate_system,
)
from ordist.probspace import MAX_EXPLICIT_TREATMENTS
from randsys import binary_design, random_joint


def symbolic_tables(design):
    """Four 2x2 tables with pairwise distinct rational cells, marginally
    selective by construction (margins fixed per input point)."""
    a1, a1p, b1, b1p = F(3, 5), F(1, 2), F(2, 5), F(7, 10)
    joint = {
        ("x", "y"): F(3, 10),
        ("x", "y'"): F(2, 5),
        ("x'", "y"): F(1, 5),
        ("x'", "y'"): F(3, 10),
    }
    tables = []
    for (u, v), p11 in joint.items():
        alpha = a1 if u == "x" else a1p
        beta = b1 if v == "y" else b1p
        probs = {
            ("0", "0"): p11,
            ("0", "1"): alpha - p11,
            ("1", "0"): beta - p11,
            ("1", "1"): 1 - alpha - beta + p11,
        }
        tables.append(TreatmentTable(design, (u, v), probs, axes=[("0", "1"), ("0", "1")]))
    return tables


class TestDesign:
    def test_full_design_expands_lazily(self):
        d = Design(["1", "2"], {"1": ["x", "x'"], "2": ["y", "y'"]})
        assert d.is_full
        assert d.treatment_count() == 4
        assert list(d.iter_treatments()) == [
            ("x", "y"), ("x", "y'"), ("x'", "y"), ("x'", "y'"),
        ]

    def test_points_order(self):
        d = binary_design()
        assert d.points() == (
            InputPoint("1", "x"), InputPoint("1", "x'"),
            InputPoint("2", "y"), InputPoint("2", "y'"),
        )

    def test_explicit_treatments_validated(self):
        with pytest.raises(SystemFormatError):
            Design(["1"], {"1": ["a"]}, [("a",), ("a",)])
        with pytest.raises(SystemFormatError):
            Design(["1", "2"], {"1": ["a"], "2": ["b"]}, [("a",)])
        with pytest.raises(SystemFormatError):
            Design(["1"], {"1": ["a", "b"]}, [("c",)])
        with pytest.raises(SystemFormatError):
            Design(["1"], {"1": ["a", "b"]}, [])

    def test_treatment_cap(self):
        n = 100_001
        values = {"1": [str(k) for k in range(n)]}
        with pytest.raises(SystemFormatError):
            Design(["1"], values, [(str(k),) for k in range(n)])

    def test_cover_prefers_lexicographic(self):
        d = Design(
            ["1", "2"],
            {"1": ["x", "x'"], "2": ["y", "y'"]},
            [("x'", "y"), ("x", "y")],
        )
        got = d.cover([InputPoint("2", "y")])
        assert got == ("x", "y")

    def test_cover_conflicting_points(self):
        d = binary_design()
        assert d.cover([InputPoint("1", "x"), InputPoint("1", "x'")]) is None

    @pytest.mark.parametrize("treatments", [None, [("x'", "y"), ("x", "y'")]])
    def test_cover_depends_only_on_the_point_set(self, treatments):
        d = Design(["1", "2"], {"1": ["x", "x'"], "2": ["y", "y'"]}, treatments)
        points = [InputPoint(n, w) for n in ("1", "2") for w in d.values[n]]
        for p in points:
            for q in points:
                first = d.cover([p, q])
                assert d.cover([q, p]) == first
                assert d.cover([p, q]) == first
                assert d.cover(iter([q, p, q])) == first

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_cover_unknown_input_wherever_it_sits(self, at):
        # an unknown input raises even next to a point that no treatment holds
        d = binary_design()
        points = [InputPoint("1", "x"), InputPoint("2", "no such value")]
        points.insert(at, InputPoint("3", "x"))
        with pytest.raises(UnknownInput, match="'3'"):
            d.cover(points)


class TestValidateSystem:
    def test_well_formed_system_passes(self):
        design = binary_design()
        report = validate_system(design, symbolic_tables(design))
        assert report.ok
        assert report.regime == "rational"
        assert all(err == 0 for err in report.sum_errors.values())

    def test_sum_not_one_reported_with_delta(self):
        design = binary_design()
        tables = symbolic_tables(design)
        short = {("0", "0"): F(9, 10)}
        tables[0] = TreatmentTable(design, ("x", "y"), short, axes=[("0", "1"), ("0", "1")])
        report = validate_system(design, tables)
        assert not report.ok
        codes = {i.code for i in report.issues}
        assert codes == {"SumNotOne"}
        assert report.sum_errors[("x", "y")] == F(-1, 10)

    def test_missing_treatment_reported(self):
        design = binary_design()
        tables = symbolic_tables(design)[:3]
        report = validate_system(design, tables)
        assert not report.ok
        assert any(
            i.code == "MissingTreatment" and i.treatment == ("x'", "y'")
            for i in report.issues
        )

    def test_negative_probability_reported(self):
        design = binary_design()
        tables = symbolic_tables(design)
        bad = {("0", "0"): F(3, 2), ("1", "1"): F(-1, 2)}
        tables[1] = TreatmentTable(design, ("x", "y'"), bad, axes=[("0", "1"), ("0", "1")])
        report = validate_system(design, tables)
        assert any(i.code == "NegativeProbability" for i in report.issues)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_probability_reported(self, value):
        # a NaN cell fails no comparison, so only this check catches it
        design = binary_design()
        tables = symbolic_tables(design)
        cells = {o: float(p) for o, p in tables[1].probs.items()}
        cells[("0", "0")] = value
        tables[1] = TreatmentTable(design, ("x", "y'"), cells, axes=tables[1].axes)
        report = validate_system(design, tables)
        assert not report.ok
        assert any(i.code == "NonFiniteProbability" for i in report.issues)

    def test_value_set_mismatch_reported(self):
        design = binary_design()
        tables = symbolic_tables(design)
        odd = {("0", "heads"): F(1, 2), ("1", "tails"): F(1, 2)}
        tables[2] = TreatmentTable(design, ("x'", "y"), odd, axes=[("0", "1"), ("heads", "tails")])
        report = validate_system(design, tables)
        assert any(i.code == "ValueSetMismatch" for i in report.issues)

    def test_raise_if_invalid(self):
        design = binary_design()
        report = validate_system(design, symbolic_tables(design)[:2])
        with pytest.raises(SystemFormatError):
            report.raise_if_invalid()

    def test_treatment_checks_reported_when_skipped(self):
        # 400 x 400 = 160,000 treatments: past MAX_EXPLICIT_TREATMENTS the
        # design is not expanded, so nothing can say which tables are missing
        values = {"1": [f"a{k}" for k in range(400)], "2": [f"b{k}" for k in range(400)]}
        design = Design(["1", "2"], values)
        assert design.treatment_count() > MAX_EXPLICIT_TREATMENTS
        report = validate_system(design, [])
        assert report.skipped_checks == ("MissingTreatment", "ExtraTreatment")
        assert report.as_json()["skipped_checks"] == ["MissingTreatment", "ExtraTreatment"]

    def test_no_skipped_field_when_every_check_ran(self):
        design = binary_design()
        report = validate_system(design, symbolic_tables(design)[:3])
        assert report.skipped_checks == ()
        assert "skipped_checks" not in report.as_json()


class TestMarginalize:
    def test_row_marginal_is_cell_sum(self):
        design = binary_design()
        t = symbolic_tables(design)[0]
        m = marginalize(t, {"1"})
        assert m["0"] == t.prob(("0", "0")) + t.prob(("0", "1"))
        assert sum(m.values()) == 1

    def test_marginal_over_all_inputs_is_identity(self):
        design = binary_design()
        t = symbolic_tables(design)[0]
        assert marginalize(t, {"1", "2"}) == t.probs

    def test_uniform_table_gives_uniform_marginal(self):
        design = binary_design()
        probs = {(a, b): F(1, 4) for a in "01" for b in "01"}
        t = TreatmentTable(design, ("x", "y"), probs, axes=[("0", "1"), ("0", "1")])
        assert marginalize(t, {"1"}) == {"0": F(1, 2), "1": F(1, 2)}

    def test_unknown_input(self):
        design = binary_design()
        t = symbolic_tables(design)[0]
        with pytest.raises(UnknownInput):
            marginalize(t, {"7"})

    def test_marginalization_composes(self):
        # summing the two-input marginal down one more coordinate agrees
        # with marginalizing the full table directly
        rng = random.Random(7)
        names = ["1", "2", "3"]
        design = Design(names, {n: ["a", "b"] for n in names})
        for _ in range(25):
            joint = random_joint(rng, (2, 3, 2))
            relabeled = {
                tuple(outcome): p for outcome, p in joint.probs.items()
            }
            axes = joint.axes
            t = TreatmentTable(design, ("a", "a", "a"), relabeled, axes=axes)
            two = marginalize(t, {"1", "3"})
            collapsed = {}
            for (u, w), p in two.items():
                collapsed[u] = collapsed.get(u, F(0)) + p
            assert collapsed == marginalize(t, {"1"})


class TestBivariate:
    def test_matrix_matches_cells(self):
        design = binary_design()
        t = symbolic_tables(design)[0]
        m = bivariate(t, "1", "2")
        assert m.probs == (
            (t.prob(("0", "0")), t.prob(("0", "1"))),
            (t.prob(("1", "0")), t.prob(("1", "1"))),
        )
        assert m.row_point == InputPoint("1", "x")
        assert m.col_point == InputPoint("2", "y")

    def test_swapping_inputs_transposes(self):
        design = binary_design()
        t = symbolic_tables(design)[0]
        assert bivariate(t, "2", "1").probs == bivariate(t, "1", "2").transpose().probs

    def test_independent_product_is_outer_product(self):
        design = binary_design()
        pa, pb = [F(1, 3), F(2, 3)], [F(1, 4), F(3, 4)]
        probs = {
            (a, b): pa[i] * pb[j]
            for i, a in enumerate("01")
            for j, b in enumerate("01")
        }
        t = TreatmentTable(design, ("x", "y"), probs, axes=[("0", "1"), ("0", "1")])
        m = bivariate(t, "1", "2")
        for i in range(2):
            for j in range(2):
                assert m.probs[i][j] == pa[i] * pb[j]

    def test_same_input_rejected(self):
        design = binary_design()
        t = symbolic_tables(design)[0]
        with pytest.raises(SameInput):
            bivariate(t, "1", "1")

    def test_agrees_with_marginalize(self):
        rng = random.Random(11)
        names = ["1", "2", "3"]
        design = Design(names, {n: ["a", "b"] for n in names})
        joint = random_joint(rng, (2, 2, 3))
        t = TreatmentTable(design, ("a", "b", "a"), dict(joint.probs), axes=joint.axes)
        m = bivariate(t, "3", "1")
        pair = marginalize(t, {"1", "3"})
        for i, a in enumerate(m.row_values):
            for j, b in enumerate(m.col_values):
                assert m.probs[i][j] == pair[(b, a)]


class TestJointDist:
    @given(st.integers(2, 3), st.integers(2, 3), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_marginal_chain(self, na, nb, rnd):
        joint = random_joint(rnd, (na, nb, 2))
        via_pair = joint.marginal((0, 2)).marginal((0,))
        direct = joint.marginal((0,))
        assert via_pair.probs == direct.probs
        assert direct.total() == 1

    def test_bivariate_orders_axes(self):
        joint = random_joint(random.Random(3), (2, 2))
        m = joint.bivariate(1, 0)
        for i, a in enumerate(m.row_values):
            for j, b in enumerate(m.col_values):
                assert m.probs[i][j] == joint.probs.get((b, a), F(0))


class TestTreatmentTable:
    def test_missing_cells_filled_with_zero(self):
        design = binary_design()
        t = TreatmentTable(design, ("x", "y"), {("0", "0"): F(1)}, axes=[("0", "1"), ("0", "1")])
        assert t.prob(("1", "1")) == 0
        assert len(t.probs) == 4

    def test_outcome_outside_axes_rejected(self):
        design = binary_design()
        with pytest.raises(SystemFormatError):
            TreatmentTable(design, ("x", "y"), {("2", "0"): F(1)}, axes=[("0", "1"), ("0", "1")])

    def test_axes_inferred_in_first_seen_order(self):
        design = binary_design()
        t = TreatmentTable(design, ("x", "y"), {("b", "u"): F(1, 2), ("a", "v"): F(1, 2)})
        assert t.axes == (("b", "a"), ("u", "v"))

    def test_diagonal_coupling_mass(self):
        m = diagonal_coupling(("0", "1"), {"0": F(1, 3), "1": F(2, 3)})
        assert m.probs == ((F(1, 3), F(0)), (F(0), F(2, 3)))
        assert m.total() == 1
