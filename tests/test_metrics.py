import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordist import (
    BivariateMarginal,
    BoundedOf,
    ClassificationDistance,
    ConditionalEntropy,
    ExpectedGround,
    FrechetDistance,
    GroundAxiomViolation,
    InvalidExponent,
    InvalidP,
    MaxOf,
    MetricEvaluationError,
    MixtureOf,
    OrderDistance,
    OrderSpec,
    PDistance,
    PowerOf,
    SeparationDistance,
    SumOf,
    UnrankedValue,
    bivariate,
    diagonal_coupling,
    load_metric,
    load_system,
    separation_distance,
    triangle_defect,
)
from ordist.metrics import EPS_SUPP
from randsys import random_dist, random_embedding, random_joint


def matrix(rows, cols, probs):
    return BivariateMarginal(tuple(rows), tuple(cols), tuple(tuple(r) for r in probs))


def uniform_independent(values):
    n = len(values)
    q = F(1, n * n)
    return matrix(values, values, [[q] * n for _ in range(n)])


def brute_order_distance(m, rank):
    """Independent oracle: plain double loop over cells."""
    total = F(0)
    for i, a in enumerate(m.row_values):
        for j, b in enumerate(m.col_values):
            if rank[a] < rank[b]:
                total += m.probs[i][j]
    return total


IDENTITY_COUPLING = diagonal_coupling(("0", "1"), {"0": F(1, 3), "1": F(2, 3)})

EMBED01 = {"0": F(0), "1": F(1)}

ALL_KINDS = [
    OrderDistance(OrderSpec({"0": 1, "1": 2})),
    ClassificationDistance((("0",), ("1",))),
    PDistance(EMBED01, 1),
    PDistance(EMBED01, 2),
    PDistance(EMBED01, math.inf),
    ConditionalEntropy(),
    FrechetDistance(EMBED01),
    SeparationDistance({"u": F(1, 2), "v": F(1, 2)}, {"0": F(0), "1": F(1), "u": F(1, 2), "v": F(-1)}),
    ExpectedGround({(a, b): abs(F(a) - F(b)) for a in "01" for b in "01"}, ("0", "1")),
]


class TestOrderDistance:
    def test_frozen_cell_sum(self):
        m = matrix("ab", "uv", [[F(1, 10), F(3, 10)], [F(4, 10), F(2, 10)]])
        order = OrderSpec({"a": 1, "b": 2, "u": 1, "v": 2})
        assert OrderDistance(order).evaluate(m) == F(3, 10)
        assert OrderDistance(order).evaluate(m) == brute_order_distance(
            m, {"a": 1, "b": 2, "u": 1, "v": 2}
        )

    def test_zero_on_diagonal_coupling(self):
        order = OrderSpec({"0": 1, "1": 2})
        assert OrderDistance(order).evaluate(IDENTITY_COUPLING) == 0

    def test_ties_contribute_nothing(self):
        m = uniform_independent(("0", "1"))
        assert OrderDistance(OrderSpec({"0": 1, "1": 1})).evaluate(m) == 0

    def test_unranked_value(self):
        m = uniform_independent(("0", "1"))
        with pytest.raises(UnrankedValue):
            OrderDistance(OrderSpec({"0": 1})).evaluate(m)

    def test_per_point_ranks_override(self):
        from ordist import InputPoint

        m = BivariateMarginal(
            ("0", "1"),
            ("0", "1"),
            ((F(1, 4),) * 2, (F(1, 4),) * 2),
            InputPoint("1", "x"),
            InputPoint("2", "y"),
        )
        flipped = OrderSpec(
            {"0": 1, "1": 2}, {InputPoint("2", "y"): {"0": 2, "1": 1}}
        )
        # row 0 is below column 0 after the flip: cells (0,0) only
        assert OrderDistance(flipped).evaluate(m) == F(1, 4)

    def test_rank_validation(self):
        with pytest.raises(UnrankedValue):
            OrderSpec({"0": 0})


class TestClassificationDistance:
    def test_identical_binary_partition_diagonal(self):
        d = ClassificationDistance((("0",), ("1",))).evaluate(IDENTITY_COUPLING)
        assert d == 0

    def test_three_cells_uniform_independent(self):
        vals = ("a", "b", "c")
        m = uniform_independent(vals)
        d = ClassificationDistance((("a",), ("b",), ("c",))).evaluate(m)
        assert d == F(1, 3)

    def test_sign_partition_tracks_order(self):
        # two cells "below zero" / "at or above zero" act as ranks 1 < 2
        m = matrix(("-1", "2"), ("-3", "4"), [[F(1, 8), F(3, 8)], [F(2, 8), F(2, 8)]])
        d = ClassificationDistance((("-1", "-3"), ("2", "4"))).evaluate(m)
        assert d == F(3, 8)

    def test_equals_order_distance_with_cell_ranks(self):
        rng = random.Random(5)
        for _ in range(30):
            joint = random_joint(rng, (3, 3))
            m = joint.bivariate(0, 1)
            values = list(m.row_values) + list(m.col_values)
            rng.shuffle(values)
            cells = (tuple(values[:2]), tuple(values[2:4]), tuple(values[4:]))
            ranks = {v: k + 1 for k, cell in enumerate(cells) for v in cell}
            assert ClassificationDistance(cells).evaluate(m) == OrderDistance(
                OrderSpec(ranks)
            ).evaluate(m)


class TestPDistance:
    def test_identical_variable_zero_for_all_p(self):
        for p in (1, 2, 5, math.inf):
            assert PDistance(EMBED01, p).evaluate(IDENTITY_COUPLING) == 0

    def test_independent_uniform_p1(self):
        assert PDistance(EMBED01, 1).evaluate(uniform_independent(("0", "1"))) == F(1, 2)

    def test_independent_uniform_p_infinity(self):
        assert PDistance(EMBED01, math.inf).evaluate(uniform_independent(("0", "1"))) == 1

    def test_p2_is_root_of_mean_square(self):
        m = uniform_independent(("0", "1"))
        assert PDistance(EMBED01, 2).evaluate(m) == pytest.approx(math.sqrt(0.5))

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            PDistance(EMBED01, F(1, 2))
        with pytest.raises(InvalidP):
            PDistance(EMBED01, math.nan)

    def test_exact_power_too_large_is_refused(self):
        big = F(10) ** 308
        with pytest.raises(MetricEvaluationError, match="digits"):
            PDistance({"0": F(0), "1": big}, big).evaluate(uniform_independent(("0", "1")))

    def test_exact_power_of_zero_and_one_is_built(self):
        # 0^p and 1^p are as small as their base, whatever p
        m = uniform_independent(("0", "1"))
        assert PDistance(EMBED01, F(10) ** 308).evaluate(m) == pytest.approx(1.0)

    def test_float_overflow_is_an_evaluation_error(self):
        with pytest.raises(MetricEvaluationError, match="overflows a float"):
            PDistance({"0": F(0), "1": F(10) ** 200}, 2).evaluate(uniform_independent(("0", "1")))

    def test_essential_sup_ignores_zero_mass(self):
        m = matrix(("0", "1"), ("0", "1"), [[F(1), F(0)], [F(0), F(0)]])
        assert PDistance(EMBED01, math.inf).evaluate(m) == 0

    def test_essential_sup_of_a_float_system_is_exact(self):
        # a loaded float cell is the binary fraction it equals, so a mass
        # below EPS_SUPP is support; only a float cell built in code is cut
        tiny = 1e-13
        assert tiny < EPS_SUPP
        doc = {
            "inputs": [{"name": "a", "values": ["1"]}, {"name": "b", "values": ["1"]}],
            "treatments": "full",
            "tables": [{"treatment": ["1", "1"], "probs": [
                {"outcome": ["0", "0"], "p": 1 - tiny}, {"outcome": ["0", "1"], "p": tiny},
            ]}],
        }
        loaded = load_system(doc, "float")
        assert loaded.regime == "float"
        m = bivariate(loaded.tables[0], "a", "b")
        assert m.probs[0][1] == F(tiny)
        assert PDistance(EMBED01, math.inf).evaluate(m) == 1
        in_code = matrix(("0", "1"), ("0", "1"), [[1 - tiny, tiny], [0.0, 0.0]])
        assert PDistance(EMBED01, math.inf).evaluate(in_code) == 0


class TestConditionalEntropy:
    def test_identity_coupling_zero(self):
        assert ConditionalEntropy().evaluate(IDENTITY_COUPLING) == 0.0

    def test_independent_uniform_binary_one_bit(self):
        assert ConditionalEntropy().evaluate(uniform_independent(("0", "1"))) == pytest.approx(1.0)

    def test_base_change(self):
        rng = random.Random(13)
        for _ in range(20):
            m = random_joint(rng, (3, 2)).bivariate(0, 1)
            h2 = ConditionalEntropy(2.0).evaluate(m)
            h7 = ConditionalEntropy(7.0).evaluate(m)
            assert h7 == pytest.approx(h2 / math.log2(7.0))

    def test_triangle_on_random_trivariate(self):
        rng = random.Random(17)
        for _ in range(60):
            joint = random_joint(rng, (2, 3, 2))
            h_ab = ConditionalEntropy().evaluate(joint.bivariate(0, 2))
            h_ax = ConditionalEntropy().evaluate(joint.bivariate(0, 1))
            h_xb = ConditionalEntropy().evaluate(joint.bivariate(1, 2))
            assert h_ax + h_xb - h_ab >= -1e-9

    def test_base_must_exceed_one(self):
        with pytest.raises(ValueError):
            ConditionalEntropy(1.0)


class TestFrechet:
    def test_identical_zero(self):
        assert FrechetDistance(EMBED01).evaluate(IDENTITY_COUPLING) == 0

    def test_deterministic_unit_gap(self):
        m = matrix(("0",), ("1",), [[F(1)]])
        assert FrechetDistance(EMBED01).evaluate(m) == F(1, 2)

    def test_bounded_below_one(self):
        rng = random.Random(19)
        for _ in range(30):
            m = random_joint(rng, (3, 3)).bivariate(0, 1)
            embed = random_embedding(rng, set(m.row_values) | set(m.col_values))
            assert 0 <= FrechetDistance(embed).evaluate(m) < 1


class TestSeparation:
    def test_deterministic_split(self):
        from ordist import JointDist

        t = JointDist(((F(0),), (F(1, 2),), (F(1),)), {(F(0), F(1, 2), F(1)): F(1)})
        assert separation_distance(t, lambda v: v) == 1

    def test_identical_endpoints_zero(self):
        joint = {(F(0), F(1, 2), F(0)): F(1)}
        from ordist import JointDist

        t = JointDist(((F(0),), (F(1, 2),), (F(0),)), joint)
        assert separation_distance(t, lambda v: v) == 0

    def test_uniform_splitter(self):
        from ordist import JointDist

        us = (F(-1), F(1, 2), F(2))
        probs = {(F(0), u, F(1)): F(1, 3) for u in us}
        t = JointDist(((F(0),), us, (F(1),)), probs)
        assert separation_distance(t, lambda v: v) == F(1, 3)

    def test_metric_form_matches_trivariate_product(self):
        rng = random.Random(23)
        from ordist import JointDist

        for _ in range(20):
            m = random_joint(rng, (2, 2)).bivariate(0, 1)
            embed = random_embedding(rng, set(m.row_values) | set(m.col_values))
            u_vals = ("u0", "u1", "u2")
            u_probs = dict(zip(u_vals, random_dist(rng, 3)))
            u_embed = random_embedding(rng, u_vals)
            full_embed = dict(embed)
            full_embed.update(u_embed)
            metric = SeparationDistance(u_probs, full_embed)
            probs = {}
            for i, a in enumerate(m.row_values):
                for j, b in enumerate(m.col_values):
                    for u in u_vals:
                        probs[(a, u, b)] = m.probs[i][j] * u_probs[u]
            t = JointDist((m.row_values, u_vals, m.col_values), probs)
            assert metric.evaluate(m) == separation_distance(t, full_embed)


class TestExpectedGround:
    def test_absolute_difference_reproduces_p1(self):
        rng = random.Random(29)
        for _ in range(20):
            m = random_joint(rng, (3, 2)).bivariate(0, 1)
            values = tuple(sorted(set(m.row_values) | set(m.col_values)))
            embed = random_embedding(rng, values)
            ground = {(a, b): abs(embed[a] - embed[b]) for a in values for b in values}
            assert ExpectedGround(ground, values).evaluate(m) == PDistance(embed, 1).evaluate(m)

    def test_zero_ground(self):
        values = ("0", "1")
        ground = {(a, b): F(0) for a in values for b in values}
        assert ExpectedGround(ground, values).evaluate(uniform_independent(values)) == 0

    def test_discrete_metric_uniform_binary(self):
        values = ("0", "1")
        ground = {(a, b): F(0) if a == b else F(1) for a in values for b in values}
        assert ExpectedGround(ground, values).evaluate(uniform_independent(values)) == F(1, 2)

    def test_axiom_validation(self):
        values = ("0", "1")
        with pytest.raises(GroundAxiomViolation):
            ExpectedGround({(a, b): F(1) for a in values for b in values}, values)
        with pytest.raises(GroundAxiomViolation):
            ExpectedGround(
                {("0", "0"): F(0), ("1", "1"): F(0), ("0", "1"): F(-1), ("1", "0"): F(1)},
                values,
            )
        values3 = ("0", "1", "2")
        g = {(a, b): F(0) if a == b else F(1) for a in values3 for b in values3}
        g[("0", "2")] = F(5)
        with pytest.raises(GroundAxiomViolation):
            ExpectedGround(g, values3)


    def test_float_and_exact_entries_load_alike(self):
        # as a dict, 0.5 is a float next to the exact 1e400; as JSON text
        # both are exact.  The axioms compare the entries exactly, so both
        # load, and summing the float with 1e400 is an evaluation error
        doc = {"kind": "expected_ground", "values": ["0", "1"], "ground": [[0, 0.5], ["1e400", 0]]}
        from_dict, from_text = load_metric(doc), load_metric(json.dumps(doc))
        assert from_dict.ground[("0", "1")] == 0.5 and from_text.ground[("0", "1")] == F(1, 2)
        m = uniform_independent(("0", "1"))
        assert from_text.evaluate(m) == (F(1, 2) + F(10) ** 400) / 4
        with pytest.raises(MetricEvaluationError, match="overflows a float"):
            from_dict.evaluate(m)


class TestTransforms:
    def test_power_of_p_distance(self):
        m = uniform_independent(("0", "1"))
        base = PDistance(EMBED01, 2)
        powered = PowerOf(base, F(1, 2))
        assert powered.evaluate(m) == pytest.approx(float(F(1, 2)) ** (0.5 / 2))

    def test_power_validation(self):
        base = PDistance(EMBED01, 1)
        with pytest.raises(InvalidExponent):
            PowerOf(base, F(3, 2))
        with pytest.raises(InvalidExponent):
            PowerOf(base, 0)

    def test_bounded_of_zero_is_zero(self):
        zero = ExpectedGround({(a, b): F(0) for a in "01" for b in "01"}, ("0", "1"))
        m = uniform_independent(("0", "1"))
        assert BoundedOf(zero).evaluate(m) == 0

    def test_sum_and_max(self):
        m = uniform_independent(("0", "1"))
        d1 = OrderDistance(OrderSpec({"0": 1, "1": 2}))
        d2 = PDistance(EMBED01, 1)
        assert SumOf(d1, d2).evaluate(m) == d1.evaluate(m) + d2.evaluate(m)
        assert MaxOf(d1, d2).evaluate(m) == max(d1.evaluate(m), d2.evaluate(m))

    def test_mixture_weights_validated(self):
        d = OrderDistance(OrderSpec({"0": 1, "1": 2}))
        with pytest.raises(ValueError):
            MixtureOf((d, d), (F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            MixtureOf((d,), (F(-1),))

    def test_mixture_of_binary_classifications_is_separation(self):
        rng = random.Random(31)
        for _ in range(15):
            m = random_joint(rng, (3, 3)).bivariate(0, 1)
            values = tuple(sorted(set(m.row_values) | set(m.col_values)))
            embed = random_embedding(rng, values)
            cuts = sorted({embed[v] for v in values})[:2] + [F(100)]
            weights = random_dist(rng, len(cuts))
            components = []
            for u in cuts:
                low = tuple(v for v in values if embed[v] <= u)
                high = tuple(v for v in values if embed[v] > u)
                components.append(ClassificationDistance((low, high)))
            mixture = MixtureOf(tuple(components), tuple(weights))
            u_dist = dict(zip((f"u{k}" for k in range(len(cuts))), weights))
            full_embed = dict(embed)
            full_embed.update({f"u{k}": u for k, u in enumerate(cuts)})
            sep = SeparationDistance(u_dist, full_embed)
            assert mixture.evaluate(m) == sep.evaluate(m)


def random_metrics(rng, row_vals, col_vals, extra_vals=()):
    """A bundle of metric instances valid on the given value sets."""
    values = tuple(sorted(set(row_vals) | set(col_vals) | set(extra_vals)))
    ranks = {v: rng.randint(1, max(2, len(values) - 1)) for v in values}
    embed = random_embedding(rng, values)
    shuffled = list(values)
    rng.shuffle(shuffled)
    k = rng.randint(1, len(values) - 1)
    cells = (tuple(shuffled[:k]), tuple(shuffled[k:]))
    ground = {(a, b): abs(embed[a] - embed[b]) for a in values for b in values}
    asym = {
        (a, b): max(embed[b] - embed[a], F(0)) for a in values for b in values
    }
    order = OrderDistance(OrderSpec(ranks))
    d1 = PDistance(embed, 1)
    return [
        order,
        ClassificationDistance(cells),
        d1,
        PDistance(embed, 2),
        PDistance(embed, math.inf),
        ConditionalEntropy(),
        FrechetDistance(embed),
        ExpectedGround(ground, values),
        ExpectedGround(asym, values),
        PowerOf(d1, F(1, 2)),
        BoundedOf(order),
        SumOf(order, d1),
        MaxOf(order, FrechetDistance(embed)),
        MixtureOf((order, ClassificationDistance(cells)), (F(1, 3), F(2, 3))),
    ]


def assert_triangle(metric, m_ax, m_xb, m_ab, tol=1e-9):
    d_ax = metric.evaluate(m_ax)
    d_xb = metric.evaluate(m_xb)
    d_ab = metric.evaluate(m_ab)
    defect = triangle_defect(d_ax, d_xb, d_ab)
    if isinstance(defect, F):
        assert defect >= 0, (metric.describe(), defect)
    else:
        assert defect >= -tol, (metric.describe(), defect)
    return defect


class TestAxiomSuite:
    def test_triangle_on_random_trivariate_tables(self):
        rng = random.Random(314)
        for _ in range(200):
            sizes = (rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4))
            joint = random_joint(rng, sizes)
            m_ax = joint.bivariate(0, 1)
            m_xb = joint.bivariate(1, 2)
            m_ab = joint.bivariate(0, 2)
            all_vals = [v for axis in joint.axes for v in axis]
            for metric in random_metrics(rng, m_ab.row_values, m_ab.col_values, all_vals):
                defect = assert_triangle(metric, m_ax, m_xb, m_ab)
                if isinstance(metric, (OrderDistance, ClassificationDistance)):
                    assert 0 <= defect <= 1

    def test_zero_on_diagonal_for_every_kind(self):
        rng = random.Random(99)
        values = ("0", "1", "2")
        dist = dict(zip(values, random_dist(rng, 3)))
        diag = diagonal_coupling(values, dist)
        for metric in random_metrics(rng, values, values):
            assert metric.evaluate(diag) == 0, metric.describe()

    def test_nonnegative_everywhere(self):
        rng = random.Random(271)
        for _ in range(50):
            m = random_joint(rng, (3, 3)).bivariate(0, 1)
            for metric in random_metrics(rng, m.row_values, m.col_values):
                assert metric.evaluate(m) >= 0

    @given(st.integers(3, 6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_chain_inequality_on_longer_joints(self, length, rnd):
        joint = random_joint(rnd, tuple(rnd.randint(2, 3) for _ in range(length)))
        values = [v for axis in joint.axes for v in axis]
        ranks = {v: rnd.randint(1, 3) for v in values}
        metric = OrderDistance(OrderSpec(ranks))
        end_to_end = metric.evaluate(joint.bivariate(0, length - 1))
        steps = sum(
            metric.evaluate(joint.bivariate(i - 1, i)) for i in range(1, length)
        )
        assert end_to_end <= steps


class TestTriangleDefect:
    def test_identity(self):
        assert triangle_defect(F(0), F(0), F(0)) == 0

    def test_out_of_range_flags_inconsistent_inputs(self):
        # numbers not coming from one joint distribution can break the bound
        assert triangle_defect(F(9, 10), F(9, 10), F(0)) > 1
