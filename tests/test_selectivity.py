import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from ordist import (
    CapExceeded,
    ClassificationDistance,
    Design,
    InputPoint,
    Metric,
    MetricEvaluationError,
    OrderDistance,
    OrderSpec,
    PDistance,
    PowerOf,
    SequenceWitness,
    SystemFormatError,
    TreatmentTable,
    UnknownInput,
    UnrankedValue,
    ValueNotInPartition,
    bivariate,
    chain_test,
    check_marginal_selectivity,
    default_order_metric,
    enumerate_irreducible,
    enumerate_realizable,
    is_irreducible,
    point_axes,
    run_suite,
    transform_outputs,
)
from irreducible_reference import pair_rule_walk, subset_scan_irreducible
from msel_reference import reference_marginal_selectivity
from ordist.arith import EPS_TEST, over_lcm
from ordist.cli import main
from ordist.fileio import load_metric, load_system
from ordist import selectivity
from ordist.selectivity import (
    _chordless_cycles,
    _distance_screen,
    _flag_bound,
    _float_terms,
    _tetrad_hits,
    _tetrad_indices,
    _tetrad_total,
    _in_suite_order,
    _realizable_walk,
    _shared_scale,
    _tetrad_at,
    _traversals,
)
from randsys import (
    binary_design,
    canonical_order_specs,
    pr_box,
    product_system,
    random_coupled_system,
    random_dist,
    random_order_spec,
    sign_system,
    system_from_joint,
)

P = InputPoint

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def index_order_spec(tables):
    per_point = {}
    for t in tables:
        for pos, name in enumerate(t.design.inputs):
            pt = P(name, t.treatment[pos])
            if pt not in per_point:
                per_point[pt] = {v: k + 1 for k, v in enumerate(t.axes[pos])}
    return OrderSpec({}, per_point)


class TestPairCoverable:
    def test_full_design_covers_cross_input_pairs(self):
        d = binary_design()
        assert d.cover((P("1", "x"), P("2", "y"))) == ("x", "y")
        assert d.cover((P("2", "y'"), P("1", "x"))) == ("x", "y'")

    def test_same_input_distinct_values_never_covered(self):
        d = binary_design()
        assert d.cover((P("1", "x"), P("1", "x'"))) is None

    def test_point_with_itself(self):
        d = binary_design()
        assert d.cover((P("1", "x'"), P("1", "x'"))) == ("x'", "y")

    def test_restricted_design_membership_scan(self):
        d = Design(
            ["1", "2"],
            {"1": ["x", "x'"], "2": ["y", "y'"]},
            [("x", "y"), ("x'", "y'")],
        )
        assert d.cover((P("1", "x"), P("2", "y'"))) is None
        assert d.cover((P("1", "x"), P("2", "y"))) == ("x", "y")


class TestEnumerateRealizable:
    def test_alternating_unit_square_sequence_is_realizable(self):
        d = Design(["1", "2"], {"1": ["0", "1"], "2": ["0", "1"]})
        target = (P("1", "0"), P("2", "1"), P("1", "1"), P("2", "0"))
        seqs = {w.points for w in enumerate_realizable(d, max_len=4)}
        assert target in seqs

    def test_within_one_treatment_is_realizable(self):
        d = binary_design()
        target = (P("1", "x"), P("2", "y"), P("1", "x"))
        seqs = {w.points for w in enumerate_realizable(d, max_len=3)}
        assert target in seqs

    def test_alternating_distinct_tetrads_count_eight(self):
        d = Design(["1", "2"], {"1": ["0", "1"], "2": ["0", "1"]})
        count = 0
        for w in enumerate_realizable(d, max_len=4):
            pts = w.points
            if len(pts) != 4 or len(set(pts)) != 4:
                continue
            if all(pts[i].input != pts[i + 1].input for i in range(3)):
                count += 1
        assert count == 8

    def test_witness_covers_contain_their_pairs(self):
        d = Design(
            ["1", "2"],
            {"1": ["x", "x'"], "2": ["y", "y'"]},
            [("x", "y"), ("x", "y'"), ("x'", "y")],
        )
        for w in enumerate_realizable(d, max_len=4):
            pts, covers = w.points, w.covers
            pairs = [(pts[0], pts[-1])] + [
                (pts[i - 1], pts[i]) for i in range(1, len(pts))
            ]
            for (a, b), cover in zip(pairs, covers):
                assert d.value_of(cover, a.input) == a.value
                assert d.value_of(cover, b.input) == b.value

    def test_cap_exceeded(self):
        d = binary_design()
        with pytest.raises(CapExceeded):
            list(enumerate_realizable(d, max_len=5, cap=10))

    def test_lexicographic_and_shortest_first(self):
        d = binary_design()
        lengths = [len(w.points) for w in enumerate_realizable(d, max_len=4)]
        assert lengths == sorted(lengths)


class TestEnumerateIrreducible:
    def test_full_2x2_design_yields_exactly_eight_tetrads(self):
        d = binary_design()
        got = [w.points for w in enumerate_irreducible(d, max_len=6)]
        assert len(got) == 8
        for pts in got:
            assert len(pts) == 4 and len(set(pts)) == 4
            assert pts[0].input == pts[2].input
            assert pts[1].input == pts[3].input
            assert pts[0].input != pts[1].input

    def test_full_design_fast_path_matches_filtering(self):
        for values2 in (["y", "y'"], ["y", "y'", "y''"]):
            d = Design(["1", "2"], {"1": ["x", "x'"], "2": values2})
            fast = [w.points for w in enumerate_irreducible(d, max_len=6)]
            brute = [
                w.points
                for w in enumerate_realizable(d, max_len=6, cap=2_000_000)
                if is_irreducible(w.points, d)
            ]
            assert fast == brute

    def test_full_design_tetrad_shape(self):
        d = Design(["1", "2"], {"1": ["x", "x'"], "2": ["y", "y'", "y''"]})
        for w in enumerate_irreducible(d, max_len=6):
            x, y, s, t = w.points
            assert x.input == s.input and y.input == t.input
            assert x.input != y.input
            assert x != s and y != t

    def test_sequence_with_coverable_nonadjacent_pair_is_reducible(self):
        d = binary_design()
        # points 0 and 2 lie in a common treatment: reducible
        seq = (P("1", "x"), P("2", "y"), P("2", "y"), P("2", "y'"))
        assert not is_irreducible(seq, d)

    def test_endpoints_must_differ(self):
        d = binary_design()
        seq = (P("1", "x"), P("2", "y"), P("1", "x"))
        assert not is_irreducible(seq, d)

    def test_triangle_irreducible_on_restricted_design(self):
        # three treatments pairwise sharing a point, no treatment holding
        # all three points: a length-3 irreducible sequence exists
        d = Design(
            ["1", "2", "3"],
            {"1": ["a", "a'"], "2": ["b", "b'"], "3": ["c", "c'"]},
            [("a", "b", "c'"), ("a", "b'", "c"), ("a'", "b", "c")],
        )
        seq = (P("1", "a"), P("2", "b"), P("3", "c"))
        assert is_irreducible(seq, d)
        got = [w.points for w in enumerate_irreducible(d, max_len=4)]
        assert seq in got

    def test_degenerate_sequences_realizable_but_never_irreducible(self):
        d = binary_design()
        degenerate = [
            w.points
            for w in enumerate_realizable(d, max_len=4)
            if w.points[0] == w.points[-1]
        ]
        assert degenerate
        for pts in degenerate:
            assert not is_irreducible(pts, d)


class TestChainTest:
    def test_symbolic_tetrad_terms(self):
        from test_probspace import symbolic_tables

        design = binary_design()
        tables = symbolic_tables(design)
        by_t = {t.treatment: t for t in tables}
        seq = (P("1", "x"), P("2", "y"), P("1", "x'"), P("2", "y'"))
        witness = SequenceWitness(
            seq,
            (("x", "y'"), ("x", "y"), ("x'", "y"), ("x'", "y'")),
        )
        metric = index_order_spec(tables)
        report = chain_test(OrderDistance(metric), witness, tables)
        q, p, r, s = (by_t[t] for t in [("x", "y'"), ("x", "y"), ("x'", "y"), ("x'", "y'")])
        assert report.lhs == q.prob(("0", "1"))
        assert report.rhs_terms == (
            p.prob(("0", "1")),
            r.prob(("1", "0")),
            s.prob(("0", "1")),
        )
        assert report.residual == sum(report.rhs_terms) - report.lhs

    def test_repeated_point_contributes_zero(self):
        design, tables = product_system()
        seq = (P("1", "x"), P("1", "x"), P("2", "y"))
        witness = SequenceWitness(seq, (("x", "y"), ("x", "y"), ("x", "y")))
        report = chain_test(OrderDistance(index_order_spec(tables)), witness, tables)
        assert report.rhs_terms[0] == 0

    def test_residual_invariant_under_cover_choice(self):
        rng = random.Random(41)
        for _ in range(10):
            design, tables = random_coupled_system(rng, n_inputs=2, restrict_phi=True)
            metric = OrderDistance(random_order_spec(rng, tables))
            treatments = list(design.iter_treatments())
            for w in itertools.islice(enumerate_irreducible(design, max_len=4), 6):
                pts = w.points
                pairs = [(pts[0], pts[-1])] + [
                    (pts[i - 1], pts[i]) for i in range(1, len(pts))
                ]
                choices = []
                for a, b in pairs:
                    covering = [
                        t
                        for t in treatments
                        if design.value_of(t, a.input) == a.value
                        and design.value_of(t, b.input) == b.value
                    ]
                    choices.append(covering)
                baseline = None
                for combo in itertools.islice(itertools.product(*choices), 12):
                    report = chain_test(metric, SequenceWitness(pts, combo), tables)
                    if baseline is None:
                        baseline = report.residual
                    else:
                        assert report.residual == baseline


    def test_missing_cover_table_is_format_error(self):
        design, tables = product_system()
        tables = [t for t in tables if t.treatment != ("x'", "y'")]
        seq = (P("1", "x"), P("2", "y"), P("1", "x'"), P("2", "y'"))
        witness = SequenceWitness(seq, (("x", "y'"), ("x", "y"), ("x'", "y"), ("x'", "y'")))
        metric = OrderDistance(OrderSpec({"0": 1, "1": 2}))
        with pytest.raises(SystemFormatError, match="no table"):
            chain_test(metric, witness, tables)
        with pytest.raises(SystemFormatError, match="no table"):
            run_suite(design, tables, [metric])


class TestMarginalSelectivity:
    def test_identical_tables_pass_with_zero(self):
        design, tables = product_system()
        report = check_marginal_selectivity(design, tables)
        assert report.passed
        assert report.max_discrepancy == 0

    def test_shared_margins_pass(self):
        rng = random.Random(43)
        for _ in range(10):
            design, tables = random_coupled_system(rng, n_inputs=2)
            assert check_marginal_selectivity(design, tables).passed

    def test_three_input_product_extension_passes(self):
        rng = random.Random(47)
        for _ in range(5):
            design, tables = random_coupled_system(rng, n_inputs=3, max_input_values=2)
            assert check_marginal_selectivity(design, tables).passed

    def test_perturbed_marginal_detected_with_size(self):
        # shift the first output's margin under (x, y) by exactly 1/20:
        # the report must come back with that discrepancy
        design, tables = product_system()
        eps = F(1, 20)
        cells = {
            ("0", "0"): F(1, 4) + eps / 2,
            ("0", "1"): F(1, 4) + eps / 2,
            ("1", "0"): F(1, 4) - eps / 2,
            ("1", "1"): F(1, 4) - eps / 2,
        }
        tables[0] = TreatmentTable(design, ("x", "y"), cells, axes=[("0", "1"), ("0", "1")])
        report = check_marginal_selectivity(design, tables)
        assert not report.passed
        assert report.max_discrepancy == eps
        assert report.witness is not None
        assert report.witness["inputs"] == ["1"]


class TestRunSuite:
    def test_product_system_clean(self):
        design, tables = product_system()
        suite = run_suite(design, tables, [OrderDistance(index_order_spec(tables))])
        assert suite.sequences_tested == 8
        assert suite.violations == ()

    def test_pr_box_violated(self):
        design, tables = pr_box()
        suite = run_suite(design, tables, [OrderDistance(index_order_spec(tables))])
        assert suite.violations
        worst = min(v.residual for v in suite.violations)
        assert worst == F(-1, 2)

    def test_sign_system_violated(self):
        design, tables = sign_system()
        suite = run_suite(design, tables, [OrderDistance(index_order_spec(tables))])
        assert suite.violations
        assert min(v.residual for v in suite.violations) == F(-1, 4)

    def test_sound_systems_never_violate(self):
        rng = random.Random(53)
        for _ in range(15):
            design, tables, _ = system_from_joint(rng, 2, 2, 2)
            metrics = [
                OrderDistance(random_order_spec(rng, tables)),
                OrderDistance(index_order_spec(tables)),
            ]
            suite = run_suite(design, tables, metrics)
            assert suite.violations == ()

    def test_truncation_flag(self):
        # a cut report is marked truncated and counts the cap; no cut, no mark
        design, tables = product_system()
        metrics = [OrderDistance(index_order_spec(tables))]
        suite = run_suite(design, tables, metrics, cap=3)
        assert suite.truncated and suite.sequences_tested == 3
        whole = run_suite(design, tables, metrics, cap=8)
        assert not whole.truncated and whole.sequences_tested == 8


def random_full_system(rng, regime: str):
    """Full design over 2-4 inputs with 2-5 values each, one input with a
    single value; every table an independent random joint over outputs
    with 2 or 3 values, so chains fail often.  Each table has its own
    denominator; in the float regime its cells are floats."""
    names = [str(k + 1) for k in range(rng.randint(2, 4))]
    sizes = [rng.randint(2, 5) for _ in names]
    sizes[rng.randrange(len(names))] = 1
    # keep the oracle's per-tetrad cost affordable
    while sum(a * (a - 1) * b * (b - 1) for a in sizes for b in sizes) > 4000:
        sizes[sizes.index(max(sizes))] -= 1
    design = Design(names, {n: [f"w{k}" for k in range(s)] for n, s in zip(names, sizes)})
    axes = [("0", "1", "2")[: rng.randint(2, 3)] for _ in names]
    outcomes = list(itertools.product(*axes))
    tables = []
    for t in design.iter_treatments():
        cells = random_dist(rng, len(outcomes), den=rng.choice([5, 6, 8, 12, 35]))
        if regime == "float":
            cells = [float(c) for c in cells]
        tables.append(TreatmentTable(design, t, dict(zip(outcomes, cells)), axes=axes))
    return design, tables


class SomeFloat(Metric):
    """An order-distance served as a float from points with an odd value
    index and exactly from the rest, so that exact and float residuals mix
    within one metric."""

    def __init__(self, base):
        self.base = base

    def evaluate(self, m):
        d = self.base.evaluate(m)
        return float(d) if m.row_point.value in ("w1", "w3") else d

    def describe(self):
        return "some-float"


def suite_metrics(rng, tables):
    """An exact order-distance, an exact classification distance, a
    float-valued power of an order-distance (exact zero where the base
    distance vanishes) and an order-distance with exact and float values."""
    return [
        OrderDistance(random_order_spec(rng, tables)),
        ClassificationDistance(cells=(("0",), ("1", "2"))),
        PowerOf(OrderDistance(random_order_spec(rng, tables), "order-b"), F(1, 2)),
        SomeFloat(OrderDistance(random_order_spec(rng, tables))),
    ]


def oracle_suite(design, tables, metrics, max_len=6, cap=10**6, eps_test=EPS_TEST):
    """run_suite rebuilt from enumerate_irreducible plus chain_test: the
    violated reports in (sequence, metric) order, the sequence count, and
    whether enumerate_irreducible's CapExceeded cut it."""
    violations = []
    tested = 0
    truncated = False
    try:
        for w in enumerate_irreducible(design, max_len, cap):
            tested += 1
            for metric in metrics:
                report = chain_test(metric, w, tables, eps_test)
                if report.violated:
                    violations.append(report)
    except CapExceeded:
        truncated = True
    return violations, tested, truncated


def as_bytes(reports):
    return json.dumps([r.as_json() for r in reports]).encode()


def restricted_copy(rng, design, tables):
    """The same system on a random 40-90% of its treatments."""
    count = max(2, round(len(tables) * rng.uniform(0.4, 0.9)))
    kept = [tables[k] for k in sorted(rng.sample(range(len(tables)), count))]
    sub = Design(design.inputs, design.values, [t.treatment for t in kept])
    return sub, [TreatmentTable(sub, t.treatment, t.probs, axes=t.axes) for t in kept]


class TestSuiteAgreement:
    """The suite's distance table against the plain oracle."""

    @pytest.mark.parametrize("regime", ["rational", "float"])
    @pytest.mark.parametrize("eps_test", [EPS_TEST, 0.05])
    def test_random_full_designs(self, regime, eps_test):
        # a wide tolerance separates the float test (below -eps_test) from
        # the exact one (below 0) that residuals of exact terms still get;
        # each full design is also tested on a subset of its treatments
        rng = random.Random(f"suite-{regime}")
        subsets = random.Random(f"suite-restricted-{regime}")
        found = {True: 0, False: 0}
        for _ in range(10):
            full = random_full_system(rng, regime)
            metrics = suite_metrics(rng, full[1])
            for design, tables in (full, restricted_copy(subsets, *full)):
                suite = run_suite(design, tables, metrics, eps_test=eps_test)
                violations, tested, _ = oracle_suite(design, tables, metrics, eps_test=eps_test)
                assert suite.sequences_tested == tested
                assert not suite.truncated
                assert as_bytes(suite.violations) == as_bytes(violations)
                assert [v.covers for v in suite.violations] == [v.covers for v in violations]
                found[design.is_full] += len(violations)
        # the sample must exercise the reporting branch on both design kinds
        assert found[True] > 0 and found[False] > 0

    def test_every_metric_kind_violates(self):
        rng = random.Random("suite-kinds")
        names = set()
        for _ in range(10):
            design, tables = random_full_system(rng, "rational")
            suite = run_suite(design, tables, suite_metrics(rng, tables))
            names.update(v.metric for v in suite.violations)
        assert names == {"order", "classification", "(order-b)^1/2", "some-float"}

    def test_cap_truncates_in_tetrad_order(self):
        rng = random.Random("suite-cap")
        checked = 0
        while checked < 4:
            design, tables = random_full_system(rng, "rational")
            metrics = suite_metrics(rng, tables)
            total = sum(1 for _ in enumerate_irreducible(design, 4))
            if total < 8:
                continue
            cap = total // 3
            suite = run_suite(design, tables, metrics, cap=cap)
            violations, tested, truncated = oracle_suite(design, tables, metrics, cap=cap)
            assert suite.truncated and truncated
            assert suite.sequences_tested == tested == cap
            assert as_bytes(suite.violations) == as_bytes(violations)
            first = set(w.points for w in itertools.islice(enumerate_irreducible(design, 4), cap))
            assert all(v.sequence in first for v in suite.violations)
            exact = run_suite(design, tables, metrics, cap=total)
            assert exact.sequences_tested == total and not exact.truncated
            checked += 1

    def test_max_len_3_tests_nothing(self):
        design, tables = pr_box()
        suite = run_suite(design, tables, [OrderDistance(index_order_spec(tables))], max_len=3)
        assert suite.sequences_tested == 0
        assert suite.violations == ()
        assert not suite.truncated


class IntegralOf(Metric):
    """A metric's exact values times `scale`, the integral ones as ints, so
    that a chain's terms can be all ints, all Fractions or a mix."""

    def __init__(self, base, scale):
        self.base, self.scale = base, scale

    def evaluate(self, m):
        v = self.base.evaluate(m) * self.scale
        return v.numerator if v.denominator == 1 else v

    def describe(self):
        return f"integral-{self.scale}"


class TestReportsFromTables:
    """A violation reported from the screen's int tables equals chain_test
    on its witness, field by field and type by type."""

    def test_int_tables_match_chain_test(self):
        rng = random.Random("reports-from-tables")
        kinds = set()
        for _ in range(10):
            full = random_full_system(rng, "rational")
            base = OrderDistance(random_order_spec(rng, full[1]))
            metrics = [
                base,
                ClassificationDistance(cells=(("0",), ("1", "2"))),
                IntegralOf(base, 1),
                IntegralOf(base, 840),  # every table denominator divides 840
            ]
            by_name = {m.describe(): m for m in metrics}
            for design, tables in (full, restricted_copy(rng, *full)):
                suite = run_suite(design, tables, metrics)
                for v in suite.violations:
                    witness = SequenceWitness(v.sequence, v.covers)
                    want = chain_test(by_name[v.metric], witness, tables)
                    assert v.violated is want.violated is True
                    assert v.sequence == want.sequence and v.metric == want.metric
                    assert v.covers == want.covers
                    got_values = (v.lhs, *v.rhs_terms, v.residual)
                    want_values = (want.lhs, *want.rhs_terms, want.residual)
                    assert got_values == want_values
                    assert list(map(type, got_values)) == list(map(type, want_values))
                    kinds.add((design.is_full, type(v.residual)))
        assert kinds == {(True, F), (False, F), (True, int), (False, int)}


class Wrapped(Metric):
    """A metric that defines only evaluate and describe, as a plugin would:
    the suite evaluates it on marginals whatever it wraps."""

    def __init__(self, base):
        self.base = base

    def evaluate(self, m):
        return self.base.evaluate(m)

    def describe(self):
        return self.base.describe()


def flipped(rng, spec):
    """`spec` with each point's ranks reversed with probability 1/2."""
    return OrderSpec({}, {
        pt: {v: max(ranks.values()) + 1 - r for v, r in ranks.items()} if rng.random() < 0.5 else ranks
        for pt, ranks in spec.per_point.items()
    })


def random_partitions(rng, tables):
    """Per point, its axis shuffled and cut into 1 to len(axis) ordered cells."""
    per_point = {}
    for t in tables:
        for pos, name in enumerate(t.design.inputs):
            pt = P(name, t.treatment[pos])
            if pt not in per_point:
                axis = rng.sample(t.axes[pos], len(t.axes[pos]))
                cuts = sorted(rng.sample(range(1, len(axis)), rng.randint(0, len(axis) - 1)))
                bounds = [0, *cuts, len(axis)]
                per_point[pt] = tuple(tuple(axis[a:b]) for a, b in zip(bounds, bounds[1:]))
    return per_point


def kernel_metrics(rng, design, tables):
    """The order-distance family as the suite meets it: the index order,
    random per-point ranks with ties, the index order with random points
    reversed, and per-point partitions."""
    index = default_order_metric(point_axes(design, tables))
    return [
        index,
        OrderDistance(random_order_spec(rng, tables), "random-ranks"),
        OrderDistance(flipped(rng, index.order), "flips"),
        ClassificationDistance(per_point=random_partitions(rng, tables)),
    ]


def kernel_systems(rng, count):
    """Random exact systems, full and restricted: independent tables with
    their own denominators, and marginally selective coupled ones."""
    systems = []
    for _ in range(count):
        full = random_full_system(rng, "rational")
        systems += [full, restricted_copy(rng, *full)]
        systems.append(random_coupled_system(rng, rng.choice([2, 3]), restrict_phi=rng.random() < 0.7))
    return systems


def suite_pairs(design, C):
    """The point-index pairs run_suite screens at the default max_len."""
    pts = design.points()
    if design.is_full:
        multi = [i for i, p in enumerate(pts) if len(design.values[p.input]) >= 2]
        return [(i, j) for i in multi for j in multi if pts[i].input != pts[j].input]
    return [(i, j) for i, row in enumerate(C) for j, c in enumerate(row) if c is not None and j != i]


class TestIntKernel:
    """Order distances summed in a table's ints against evaluate on the
    marginals, and the reports both paths give."""

    def test_screen_matches_evaluate_on_marginals(self):
        rng = random.Random("int-kernel")
        kinds = set()
        for design, tables in kernel_systems(rng, 8):
            metrics = kernel_metrics(rng, design, tables)
            pts = design.points()
            C = design.pair_covers()[0]
            pairs = suite_pairs(design, C)
            by_t = {t.treatment: t for t in tables}
            for metric, (D, R, den) in zip(metrics, _distance_screen(metrics, pts, pairs, by_t, C)):
                raw = [metric.evaluate(bivariate(by_t[C[i][j]], pts[i].input, pts[j].input))
                       for i, j in pairs]
                ints, want_den = over_lcm(raw)
                assert R is None
                assert den == want_den
                assert [D[i][j] for i, j in pairs] == ints
                # the values a report reads, D over den, in value and type
                assert [F(D[i][j], den) for i, j in pairs] == raw
                assert all(type(v) is F for v in raw)
                assert all(D[i][j] is None for i in range(len(pts)) for j in range(len(pts))
                           if (i, j) not in set(pairs))
                kinds.add((design.is_full, min(raw, default=1) == 0))
        assert kinds == {(True, True), (False, True), (True, False), (False, False)}

    def test_wrapped_metrics_report_alike(self):
        # the wrappers take the marginal path: same violations, same
        # values and types, same covers; float tables take it either way
        rng = random.Random("int-kernel-reports")
        found = {True: 0, False: 0}
        for design, tables in kernel_systems(rng, 6):
            metrics = kernel_metrics(rng, design, tables)
            for tabs in (tables, floated(tables)):
                mine = run_suite(design, tabs, metrics)
                wrapped = run_suite(design, tabs, [Wrapped(m) for m in metrics])
                assert as_bytes(mine.violations) == as_bytes(wrapped.violations)
                assert mine.sequences_tested == wrapped.sequences_tested
                for v, w in zip(mine.violations, wrapped.violations):
                    assert v.covers == w.covers
                    got, want = (v.lhs, *v.rhs_terms, v.residual), (w.lhs, *w.rhs_terms, w.residual)
                    assert got == want and list(map(type, got)) == list(map(type, want))
                found[design.is_full] += len(mine.violations)
        assert found[True] > 0 and found[False] > 0


def with_dead_value(path, tmp_path):
    """The system at `path` with one more outcome value, "2", on every
    point's axis, of zero mass in every table."""
    doc = json.loads(path.read_text())
    for entry in doc["outcomes"]:
        entry["values"].append("2")
    out = tmp_path / f"dead-{path.name}"
    out.write_text(json.dumps(doc))
    return out


# a rank map and a partition that leave out outcome "1", which has mass
ORDER_WITHOUT_1 = '{"kind": "order", "rank": {"0": 1}}'
CELLS_WITHOUT_1 = '{"kind": "classification", "cells": [["0"]]}'


class TestErrorParity:
    """A value without a rank or partition cell raises the same error on
    the int path as chain_test on the marginals, and only if it has mass."""

    @pytest.mark.parametrize("sample", ["pr_restricted.json", "pr_full.json"])
    @pytest.mark.parametrize("config, error", [(ORDER_WITHOUT_1, UnrankedValue),
                                               (CELLS_WITHOUT_1, ValueNotInPartition)])
    def test_missing_value_with_mass(self, capsys, sample, config, error):
        loaded = load_system(SAMPLES / sample)
        metric = load_metric(config)
        with pytest.raises(error) as suite_error:
            run_suite(loaded.design, loaded.tables, [metric])
        witness = next(enumerate_irreducible(loaded.design))
        with pytest.raises(error) as chain_error:
            chain_test(metric, witness, loaded.tables)
        assert str(suite_error.value) == str(chain_error.value)
        assert main(["check", str(SAMPLES / sample), "--metric", config]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {chain_error.value}\n" and captured.out == ""

    @pytest.mark.parametrize("sample", ["pr_restricted.json", "pr_full.json"])
    def test_missing_value_without_mass(self, capsys, tmp_path, sample):
        path = with_dead_value(SAMPLES / sample, tmp_path)
        loaded = load_system(path)
        ranked = ['{"kind": "order", "rank": {"0": 1, "1": 2, "2": 3}}',
                  '{"kind": "classification", "cells": [["0"], ["1", "2"]]}']
        unranked = ['{"kind": "order", "rank": {"0": 1, "1": 2}}',
                    '{"kind": "classification", "cells": [["0"], ["1"]]}']
        want = run_suite(loaded.design, loaded.tables, list(map(load_metric, ranked)))
        got = run_suite(loaded.design, loaded.tables, list(map(load_metric, unranked)))
        assert got.violations and as_bytes(got.violations) == as_bytes(want.violations)
        assert main(["check", str(path), "--metric", unranked[0], "--metric", unranked[1]]) == 2
        assert capsys.readouterr().err == ""


def perturbed(rng, tables):
    """Move mass between two cells of one random table: its sum stays 1,
    some of its marginals change."""
    tables = list(tables)
    k = rng.randrange(len(tables))
    t = tables[k]
    outcomes = [o for o, p in t.probs.items() if p > 0]
    src = rng.choice(outcomes)
    dst = rng.choice([o for o in t.probs if o != src])
    delta = t.probs[src] / rng.choice([2, 3, 7])
    cells = dict(t.probs)
    cells[src] -= delta
    cells[dst] += delta
    tables[k] = TreatmentTable(t.design, t.treatment, cells, axes=t.axes)
    return tables


def floated(tables):
    return [
        TreatmentTable(t.design, t.treatment, {o: float(p) for o, p in t.probs.items()}, axes=t.axes)
        for t in tables
    ]


class TestMarginalSelectivityReference:
    """The integer-scaled check against the all-Fraction scan it replaced."""

    @staticmethod
    def assert_same(design, tables):
        got = check_marginal_selectivity(design, tables)
        want = reference_marginal_selectivity(design, tables)
        assert got.passed == want.passed
        assert got.max_discrepancy == want.max_discrepancy
        assert type(got.max_discrepancy) is type(want.max_discrepancy)
        assert got.witness == want.witness
        assert got.classes == want.classes
        assert json.dumps(got.as_json()) == json.dumps(want.as_json())
        return got

    def test_coupled_and_perturbed_systems(self):
        rng = random.Random("msel")
        verdicts = set()
        for _ in range(12):
            design, tables = random_coupled_system(
                rng, n_inputs=rng.choice([2, 3]), restrict_phi=rng.random() < 0.5
            )
            verdicts.add(self.assert_same(design, tables).passed)
            verdicts.add(self.assert_same(design, perturbed(rng, tables)).passed)
            self.assert_same(design, floated(tables))
            self.assert_same(design, floated(perturbed(rng, tables)))
        assert verdicts == {True, False}

    def test_independent_tables_with_mixed_denominators(self):
        # every table its own random joint and denominator: most classes
        # differ, and ties between equal discrepancies must break alike
        rng = random.Random("msel-mixed")
        for regime in ("rational", "float"):
            for _ in range(6):
                design, tables = random_full_system(rng, regime)
                report = self.assert_same(design, tables)
                assert not report.passed

    def test_equal_marginals_over_different_denominators(self):
        # the same margins written over 4ths and 8ths in different tables
        design = binary_design()
        quarter = {("0", "0"): F(1, 4), ("0", "1"): F(1, 4), ("1", "0"): F(1, 4), ("1", "1"): F(1, 4)}
        eighths = {("0", "0"): F(3, 8), ("0", "1"): F(1, 8), ("1", "0"): F(1, 8), ("1", "1"): F(3, 8)}
        tables = [
            TreatmentTable(design, t, cells, axes=[("0", "1"), ("0", "1")])
            for t, cells in zip(design.iter_treatments(), (quarter, eighths, eighths, quarter))
        ]
        report = self.assert_same(design, tables)
        assert report.passed
        assert report.max_discrepancy == 0


    def test_layouts_differ_at_a_non_kept_input(self):
        # the tables under y' have a third outcome for input 2: input 1's
        # classes mix two layouts and are scanned, and still agree
        design = binary_design()
        x_y, x_y2, x2_y, x2_y2 = design.iter_treatments()
        two, three = [("0", "1"), ("0", "1")], [("0", "1"), ("0", "1", "2")]
        cells = {
            x_y: ({("0", "0"): F(1, 4), ("0", "1"): F(1, 4), ("1", "0"): F(1, 4),
                   ("1", "1"): F(1, 4)}, two),
            x_y2: ({("0", "0"): F(1, 4), ("0", "2"): F(1, 4), ("1", "1"): F(1, 2)}, three),
            x2_y: ({("0", "0"): F(1, 6), ("0", "1"): F(1, 6), ("1", "0"): F(1, 3),
                    ("1", "1"): F(1, 3)}, two),
            x2_y2: ({("0", "1"): F(1, 3), ("1", "0"): F(1, 4), ("1", "1"): F(1, 6),
                     ("1", "2"): F(1, 4)}, three),
        }
        tables = [TreatmentTable(design, t, c, axes=a) for t, (c, a) in cells.items()]
        report = self.assert_same(design, tables)
        assert report.passed and len(report.classes) == 4
        self.assert_same(design, floated(tables))
        rng = random.Random("msel-layouts")
        for _ in range(6):
            assert not self.assert_same(design, perturbed(rng, tables)).passed

    def test_agreeing_class_over_mixed_denominators(self):
        # three tables over 4ths, 6ths and 10ths with one margin for input 1
        design = Design(["1", "2"], {"1": ["x"], "2": ["y", "y'", "y''"]})
        joints = (
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (F(1, 3), F(1, 6), F(1, 6), F(1, 3)),
            (F(1, 10), F(4, 10), F(3, 10), F(2, 10)),
        )
        outcomes = list(itertools.product("01", repeat=2))
        tables = [
            TreatmentTable(design, t, dict(zip(outcomes, joint)), axes=[("0", "1")] * 2)
            for t, joint in zip(design.iter_treatments(), joints)
        ]
        assert len({t.scaled()[1] for t in tables}) == 3
        report = self.assert_same(design, tables)
        assert report.passed and report.classes == ((("1",), ("x",), 0),)

    def test_two_member_classes(self):
        # two values per input: every class of a full design has two members
        rng = random.Random("msel-pairs")
        verdicts = set()
        for _ in range(10):
            design, tables = random_coupled_system(rng, max_input_values=2, restrict_phi=False)
            for variant in (tables, perturbed(rng, tables)):
                verdicts.add(self.assert_same(design, variant).passed)
                self.assert_same(design, floated(variant))
        assert verdicts == {True, False}



def restricted(rng, design, tables):
    """The tables of a random half or so of `design`'s treatments, on the
    restricted design of those treatments."""
    kept = sorted(rng.sample(range(len(tables)), max(2, len(tables) // 2)))
    sub = Design(design.inputs, design.values, [tables[k].treatment for k in kept])
    return sub, [TreatmentTable.from_ints(sub, tables[k].treatment, tables[k].axes, *tables[k].scaled()) for k in kept]


def relaid(rng, tables, factors=(1, 2, 3)):
    """The same distributions, each table's ints over its denominator times
    a factor from `factors`, and its axes in one of two orders: as given,
    or with one input's outcomes reversed.  So agreeing classes mix
    denominators and, on some subsets, layouts."""
    flip = rng.randrange(len(tables[0].axes))
    out = []
    for t in tables:
        axes = list(t.axes)
        if rng.random() < 0.5:
            axes[flip] = axes[flip][::-1]
        f = rng.choice(factors)
        ints, den = t.scaled()
        cell = dict(zip(itertools.product(*t.axes), ints))
        out.append(TreatmentTable.from_ints(
            t.design, t.treatment, axes, [cell[o] * f for o in itertools.product(*axes)], den * f))
    return out


def distinct_prime_system(n_values=10):
    """A full 3 x `n_values` binary design whose tables have distinct
    prime denominators from 101 up: every class is scanned."""
    names = ["1", "2", "3"]
    design = Design(names, {n: [f"w{k}" for k in range(n_values)] for n in names})
    rng = random.Random("distinct-primes")
    primes = (q for q in itertools.count(101) if all(q % d for d in range(2, math.isqrt(q) + 1)))
    tables = []
    for t, q in zip(design.iter_treatments(), primes):
        cuts = sorted(rng.randint(0, q) for _ in range(7))
        ints = [b - a for a, b in zip([0, *cuts], [*cuts, q])]
        tables.append(TreatmentTable.from_ints(design, t, [("0", "1")] * 3, ints, q))
    return design, tables


class TestOnePassMarginalSelectivity:
    """Each input subset decided in one pass on a shared denominator,
    against the every-proper-subset reference; only subsets that fail it,
    and every subset of a system with no shared denominator, are scanned
    class by class."""

    @staticmethod
    def scanned(monkeypatch):
        """The input subsets check_marginal_selectivity scans, as a list
        filled as it runs."""
        names = []
        scan = selectivity._scan_classes

        def counted(subset, *args):
            names.append(subset)
            return scan(subset, *args)

        monkeypatch.setattr(selectivity, "_scan_classes", counted)
        return names

    @staticmethod
    def joint_systems(rng):
        # a joint over all points makes every marginal treatment-free
        for n_inputs in (2, 3, 4, 5):
            for n_values in (2, 3) if n_inputs <= 3 else (2,):
                design, tables, _ = system_from_joint(rng, n_inputs, n_values, rng.choice([2, 3]) if n_inputs <= 3 else 2)
                yield design, tables
                yield restricted(rng, design, tables)

    def test_one_pass_alone_decides_one_layout(self, monkeypatch):
        # full and restricted designs of 2-5 inputs, the restricted ones
        # with singleton classes, which list no class
        rng = random.Random("one-pass")
        scanned = self.scanned(monkeypatch)
        singletons = 0
        for design, tables in self.joint_systems(rng):
            report = TestMarginalSelectivityReference.assert_same(design, tables)
            assert report.passed
            listed = {(names, values) for names, values, _ in report.classes}
            for size in range(1, max(2, len(design.inputs))):
                for names in itertools.combinations(design.inputs, size):
                    keys = [tuple(map(t.treatment.__getitem__, map(design.index, names))) for t in tables]
                    for key in set(keys):
                        assert ((names, key) in listed) is (keys.count(key) > 1)
                        singletons += keys.count(key) == 1
        assert scanned == []
        assert singletons > 0

    def test_two_layouts_agree(self, monkeypatch):
        # one input's outcomes reversed in about half the tables: the
        # subsets holding it mix two layouts and are scanned, the rest not
        rng = random.Random("one-pass-two-layouts")
        scanned = self.scanned(monkeypatch)
        for design, tables in self.joint_systems(rng):
            del scanned[:]
            variant = relaid(rng, tables, factors=(1,))
            assert TestMarginalSelectivityReference.assert_same(design, variant).passed
            mixed = {n for pos, n in enumerate(design.inputs) if len({t.axes[pos] for t in variant}) > 1}
            assert all(mixed & set(names) for names in scanned)

    def test_layouts_and_denominators(self):
        rng = random.Random("one-pass-relaid")
        for design, tables in self.joint_systems(rng):
            for variant in (relaid(rng, tables), relaid(rng, perturbed(rng, tables))):
                TestMarginalSelectivityReference.assert_same(design, variant)
                assert len({t.scaled()[1] for t in variant}) > 1

    def test_perturbed_systems_scan_only_failing_subsets(self, monkeypatch):
        rng = random.Random("one-pass-perturbed")
        scanned = self.scanned(monkeypatch)
        failed = 0
        for design, tables in self.joint_systems(rng):
            del scanned[:]
            report = TestMarginalSelectivityReference.assert_same(design, perturbed(rng, tables))
            differ = {names for names, _, worst in report.classes if worst}
            assert differ <= set(scanned)
            failed += not report.passed
        assert failed > 0

    def test_float_systems_keep_the_scan(self, monkeypatch):
        # a system labelled "float" scans every subset, passing or not
        rng = random.Random("one-pass-float")
        scanned = self.scanned(monkeypatch)
        for design, tables in self.joint_systems(rng):
            subsets = [names for size in range(1, len(design.inputs))
                       for names in itertools.combinations(design.inputs, size)]
            for variant in (floated(tables), floated(perturbed(rng, tables))):
                del scanned[:]
                TestMarginalSelectivityReference.assert_same(design, variant)
                assert sorted(scanned) == sorted(subsets)

    def test_distinct_prime_denominators_are_scanned(self, monkeypatch):
        design, tables = distinct_prime_system()
        dens = [t.scaled()[1] for t in tables]
        assert len(set(dens)) == 1000 and min(dens) > 100 and max(dens) < 8200
        assert _shared_scale(dens) is None
        scanned = self.scanned(monkeypatch)
        report = TestMarginalSelectivityReference.assert_same(design, tables)
        assert not report.passed
        assert sorted(scanned) == sorted([(n,) for n in design.inputs] + list(itertools.combinations(design.inputs, 2)))

    def test_shared_scale_rule(self):
        assert _shared_scale([4, 6, 8]) == 24
        assert _shared_scale([1536, 768, 1152]) == 4608
        assert _shared_scale([2**53, 2**60, 2]) == 2**60
        # 7 * 11 * 13 > 13 * 13
        assert _shared_scale([7, 11, 13]) is None
        assert _shared_scale([5]) == 5


class TestRealizableIrreducibleEquivalence:
    def test_violation_in_realizable_iff_in_irreducible(self):
        rng = random.Random(59)
        checked_any = 0
        for _ in range(12):
            n_inputs = rng.choice([2, 2, 3])
            design, tables = random_coupled_system(
                rng,
                n_inputs=n_inputs,
                max_input_values=3 if n_inputs == 2 else 2,
                out_sizes=(2, 2),
            )
            low, rev = canonical_order_specs(tables)
            metrics = [
                OrderDistance(low),
                OrderDistance(rev),
                OrderDistance(random_order_spec(rng, tables)),
            ]
            max_len = 5
            cache = [dict() for _ in metrics]
            by_t = {t.treatment: t for t in tables}

            def dist(mi, x, y, cover):
                key = (x, y)
                if key not in cache[mi]:
                    from ordist.selectivity import _pair_marginal

                    cache[mi][key] = metrics[mi].evaluate(
                        _pair_marginal(by_t[cover], x, y)
                    )
                return cache[mi][key]

            def violated_over(stream):
                found = [False] * len(metrics)
                for w in stream:
                    pts = w.points
                    for mi in range(len(metrics)):
                        lhs = dist(mi, pts[0], pts[-1], w.covers[0])
                        rhs = sum(
                            dist(mi, pts[i - 1], pts[i], w.covers[i])
                            for i in range(1, len(pts))
                        )
                        if rhs - lhs < 0:
                            found[mi] = True
                return found

            real = violated_over(enumerate_realizable(design, max_len, cap=400_000))
            irr = violated_over(enumerate_irreducible(design, max_len, cap=400_000))
            assert real == irr
            checked_any += sum(real)
        assert checked_any > 0  # the sample must exercise the violating branch


class TestTransformOutputs:
    def test_identity_relabeling_keeps_tables(self):
        design, tables = pr_box()
        new = transform_outputs(tables, lambda name, w, v: v)
        for old, fresh in zip(tables, new):
            assert old.probs == fresh.probs

    def test_float_tables_keep_their_label(self):
        # merged cells are exact sums of the binary fractions; the tables
        # stay "float", so their chains keep the float tolerance
        design, tables = pr_box()
        new = transform_outputs(floated(tables), lambda name, w, v: "z" if v == "1" else v)
        assert [t.regime() for t in new] == ["float"] * 4
        assert [t.probs for t in new] == [t.probs for t in transform_outputs(tables, lambda name, w, v: "z" if v == "1" else v)]

    def test_constant_relabeling_kills_every_metric(self):
        design, tables = pr_box()
        new = transform_outputs(tables, lambda name, w, v: "z")
        metric = OrderDistance(OrderSpec({"z": 1}))
        suite = run_suite(design, new, [metric])
        assert suite.violations == ()

    def test_marginal_selectivity_preserved(self):
        rng = random.Random(61)
        design, tables = random_coupled_system(rng, n_inputs=2)
        relabel = lambda name, w, v: f"{v[-1] if v[-1] in '01' else v}-merged" if v.endswith("1") else v
        new = transform_outputs(tables, relabel)
        assert check_marginal_selectivity(design, new).passed

    def test_point_specific_flip_changes_p1_residuals(self):
        from test_probspace import symbolic_tables

        design = binary_design()
        tables = symbolic_tables(design)
        embed_plain = {"0": F(0), "1": F(1)}
        witness = next(iter(enumerate_irreducible(design, max_len=4)))
        before = chain_test(PDistance(embed_plain, 1), witness, tables).residual
        assert before == F(1)

        def flip(name, w, v):
            if (name, w) == ("1", "x"):
                return "1" if v == "0" else "0"
            return v

        flipped = transform_outputs(tables, flip)
        after = chain_test(PDistance(embed_plain, 1), witness, flipped).residual
        assert after == F(6, 5)
        assert before != after


class TestFloatTolerances:
    def test_jittered_sound_system_stays_clean(self):
        # float rounding noise far below the tolerance must not create
        # spurious violations or selectivity failures
        rng = random.Random(83)
        for _ in range(10):
            design, tables, _ = system_from_joint(rng, 2, 2, 2)
            noisy = []
            for t in tables:
                cells = {
                    o: float(p) * (1.0 + rng.uniform(-1e-13, 1e-13))
                    for o, p in t.probs.items()
                }
                noisy.append(
                    TreatmentTable(design, t.treatment, cells, axes=t.axes)
                )
            report = check_marginal_selectivity(design, noisy, eps=1e-9)
            assert report.passed
            assert 0 < report.max_discrepancy < 1e-11
            low, rev = canonical_order_specs(noisy)
            suite = run_suite(design, noisy, [OrderDistance(low), OrderDistance(rev)])
            assert suite.violations == ()


def treatment_centric_irreducible(points, design):
    """Independent oracle: scan treatments instead of index subsets.

    A sequence is reducible exactly when some treatment contains three or
    more of its members, or contains a member pair that is neither the
    closing pair nor adjacent.
    """
    l = len(points)
    if points[0] == points[-1]:
        return False
    allowed = {frozenset((0, l - 1))} | {
        frozenset((i - 1, i)) for i in range(1, l)
    }
    for t in design.iter_treatments():
        covered = [
            i
            for i, p in enumerate(points)
            if design.value_of(t, p.input) == p.value
        ]
        if len(covered) >= 3:
            return False
        if len(covered) == 2 and frozenset(covered) not in allowed:
            return False
    return True


class TestIrreducibleOracle:
    def test_subset_filter_matches_treatment_scan(self):
        rng = random.Random(89)
        total = irreducible_count = 0
        for _ in range(8):
            design, _ = random_coupled_system(
                rng, n_inputs=rng.choice([2, 3]), max_input_values=2
            )
            for w in enumerate_realizable(design, max_len=5, cap=200_000):
                total += 1
                mine = is_irreducible(w.points, design)
                oracle = treatment_centric_irreducible(w.points, design)
                assert mine == oracle, w.points
                assert mine == subset_scan_irreducible(w.points, design), w.points
                irreducible_count += mine
        assert total > 100 and irreducible_count > 0


def random_restricted_design(rng):
    """2-4 inputs of 1-3 values each, keeping 30-80% of the treatments."""
    names = [str(k + 1) for k in range(rng.randint(2, 4))]
    values = {name: [f"w{k}" for k in range(rng.randint(1, 3))] for name in names}
    full = list(Design(names, values).iter_treatments())
    keep = max(1, round(len(full) * rng.uniform(0.3, 0.8)))
    chosen = sorted(rng.sample(range(len(full)), keep))
    return Design(names, values, [full[i] for i in chosen])


# Random restricted designs of up to 4 inputs rarely hold an irreducible
# sequence longer than 4, so two designs are built around one: a hexagon
# x0 y0 x1 y1 x2 y2 over two inputs and a pentagon a0 b0 c0 a1 b1 over
# three, each pair of it in one treatment and no chord in any.
CYCLE_DESIGNS = (
    Design(
        ["1", "2"],
        {"1": ["x0", "x1", "x2"], "2": ["y0", "y1", "y2"]},
        [("x0", "y0"), ("x1", "y0"), ("x1", "y1"), ("x2", "y1"), ("x2", "y2"), ("x0", "y2")],
    ),
    Design(
        ["1", "2", "3"],
        {"1": ["a0", "a1", "a2"], "2": ["b0", "b1", "b2"], "3": ["c0", "c1", "c2"]},
        [("a0", "b0", "c1"), ("a2", "b0", "c0"), ("a1", "b2", "c0"), ("a1", "b1", "c1"), ("a0", "b1", "c2")],
    ),
)


def realizable_sample(rng, count, cap=3_000):
    """`count` random restricted designs with max_len drawn from 3-6 and
    their realizable sequences, then the cycle designs at max_len 6.  A
    random design with more than `cap` sequences at the drawn max_len is
    walked at the longest length that stays under."""
    sample = [(d, 6, list(enumerate_realizable(d, 6))) for d in CYCLE_DESIGNS]
    while len(sample) < len(CYCLE_DESIGNS) + count:
        design = random_restricted_design(rng)
        for max_len in range(rng.randint(3, 6), 2, -1):
            try:
                realizable = list(enumerate_realizable(design, max_len, cap=cap))
            except CapExceeded:
                continue
            sample.append((design, max_len, realizable))
            break
    return sample


class TestPrunedWalk:
    """The pruned irreducible walk and the pair rule against the
    exhaustive subset scan."""

    def test_walk_matches_filtered_realizable(self):
        rng = random.Random("pruned-walk")
        lengths = set()
        inputs = set()
        found = 0
        for design, max_len, realizable in realizable_sample(rng, 120):
            expected = [w for w in realizable if subset_scan_irreducible(w.points, design)]
            # same points, same covers, same order
            assert list(enumerate_irreducible(design, max_len)) == expected
            lengths.update(len(w) for w in expected)
            inputs.add(len(design.inputs))
            found += len(expected)
        assert lengths == {3, 4, 5, 6} and inputs == {2, 3, 4} and found > 1_000

    def test_pair_rule_matches_both_oracles(self):
        rng = random.Random("pair-rule")
        verdicts = set()
        for design, _, realizable in realizable_sample(rng, 60):
            for w in realizable:
                mine = is_irreducible(w.points, design)
                assert mine == subset_scan_irreducible(w.points, design), w.points
                assert mine == treatment_centric_irreducible(w.points, design), w.points
                verdicts.add((len(w), len(set(w.points)) < len(w), mine))
        # irreducible sequences of every length, and repeated points in
        # sequences of every length, which are never irreducible
        assert {(l, False, True) for l in (3, 4, 5, 6)} <= verdicts
        assert {(l, True, False) for l in (3, 4, 5, 6)} <= verdicts

    def test_triangles_and_repeats(self):
        # the design of test_triangle_irreducible_on_restricted_design, and
        # the same with the triangle's triple added as a treatment
        values = {"1": ["a", "a'"], "2": ["b", "b'"], "3": ["c", "c'"]}
        triangle = Design(
            ["1", "2", "3"], values, [("a", "b", "c'"), ("a", "b'", "c"), ("a'", "b", "c")]
        )
        closed = Design(["1", "2", "3"], values, [*triangle.treatments, ("a", "b", "c")])
        a, b, c = P("1", "a"), P("2", "b"), P("3", "c")
        ap, bp = P("1", "a'"), P("2", "b'")
        cases = [
            (triangle, (a, b, c), True),  # every pair covered, the triple not
            (closed, (a, b, c), False),  # the triple lies in one treatment
            (triangle, (a, a, b), False),  # an adjacent repeat covers the triple
            (triangle, (a, b, a), False),  # equal endpoints
            (triangle, (a, bp, a, b), False),  # a repeat two apart
            (triangle, (a, bp, c, b), False),  # only (0, 2) covered off the cycle
            (triangle, (ap, b, a, c), False),  # only (1, 3) covered off the cycle
        ]
        for design, seq, verdict in cases:
            assert is_irreducible(seq, design) is verdict, seq
            assert subset_scan_irreducible(seq, design) is verdict, seq
            assert treatment_centric_irreducible(seq, design) is verdict, seq


# An 8-cycle x0 y0 x1 y1 x2 y2 x3 y3 over two inputs of 4 values: its
# chordless cycle is an irreducible sequence of length 8.
EIGHT_CYCLE = Design(
    ["1", "2"],
    {"1": ["x0", "x1", "x2", "x3"], "2": ["y0", "y1", "y2", "y3"]},
    [("x0", "y0"), ("x1", "y0"), ("x1", "y1"), ("x2", "y1"),
     ("x2", "y2"), ("x3", "y2"), ("x3", "y3"), ("x0", "y3")],
)


def shuffled_design(rng, design):
    """`design` with each input's values declared in a random order and its
    treatments listed in another, so file order is not value-index order."""
    values = {name: rng.sample(vs, len(vs)) for name, vs in design.values.items()}
    treatments = rng.sample(design.treatments, len(design.treatments))
    return Design(design.inputs, values, treatments)


class TestMaskWalk:
    """The bit-mask walk and the one-pass cover table against the per-pair
    references they replaced."""

    def test_walk_matches_pair_rule_walk(self):
        # the first `cap` sequences of each walk: a realizable walk to length
        # 8 is far longer, and both walks are shortest first
        rng = random.Random("mask-walk")
        cases = [(d, l) for d in (*CYCLE_DESIGNS, EIGHT_CYCLE) for l in range(3, 9)]
        cases += [(random_restricted_design(rng), rng.randint(3, 8)) for _ in range(120)]
        cap = 3_000
        lengths = set()
        inputs = set()
        for design, max_len in cases:
            _, near, third = design.pair_covers()
            for irreducible in (True, False):
                if irreducible:
                    walk = _in_suite_order(_chordless_cycles(near, third, max_len, cap))
                else:
                    walk = _realizable_walk(near, max_len)
                mine = list(itertools.islice(walk, cap))
                reference = pair_rule_walk(design, max_len, irreducible)
                assert mine == list(itertools.islice(reference, cap)), (design.treatments, max_len)
                if irreducible:
                    lengths.update(map(len, mine))
            inputs.add(len(design.inputs))
        assert lengths == {3, 4, 5, 6, 8} and inputs == {2, 3, 4}

    def test_pair_covers_match_cover(self):
        rng = random.Random("pair-covers")
        designs = [shuffled_design(rng, random_restricted_design(rng)) for _ in range(120)]
        designs += [shuffled_design(rng, d) for d in (*CYCLE_DESIGNS, EIGHT_CYCLE)]
        designs += [random_tetrad_design(rng) for _ in range(10)]
        pairs = not_file_order = 0
        for design in designs:
            C, near, _ = design.pair_covers()
            pts = design.points()
            for i, x in enumerate(pts):
                for j, y in enumerate(pts):
                    cover = design.cover((x, y))
                    assert C[i][j] == cover, (design.treatments, x, y)
                    assert near[i] >> j & 1 == (cover is not None)
                    pairs += cover is not None
                    if cover is not None and not design.is_full:
                        holds = (t for t in design.treatments if t[design.index(x.input)] == x.value
                                 and t[design.index(y.input)] == y.value)
                        not_file_order += next(holds) != cover
            assert all(mask >> len(pts) == 0 for mask in near)
        # the table follows cover's value-index order, not the file's
        assert pairs > 3_000 and not_file_order > 500

    def test_third_masks_match_cover(self):
        rng = random.Random("third-masks")
        designs = [shuffled_design(rng, random_restricted_design(rng)) for _ in range(120)]
        designs += [*CYCLE_DESIGNS, EIGHT_CYCLE]
        designs += [random_tetrad_design(rng) for _ in range(4)]
        covered = 0
        for design in designs:
            _, _, third = design.pair_covers()
            pts = design.points()
            for i, j, k in itertools.product(range(len(pts)), repeat=3):
                cover = design.cover((pts[i], pts[j], pts[k]))
                assert (third[i][j] >> k & 1) == (cover is not None), (design.treatments, i, j, k)
                covered += cover is not None
            assert all(mask >> len(pts) == 0 for row in third for mask in row)
        assert covered > 5_000

    def test_suite_asks_no_cover(self, monkeypatch):
        loaded = load_system(SAMPLES / "pr_restricted.json")
        calls = []
        cover = Design.cover

        def counted(self, points):
            calls.append(points)
            return cover(self, points)

        monkeypatch.setattr(Design, "cover", counted)
        suite = run_suite(loaded.design, loaded.tables, [default_order_metric(point_axes(loaded.design, loaded.tables))])
        assert suite.sequences_tested == 190 and suite.violations
        assert calls == []
        # nor do the witnesses of enumerate_irreducible, which read the table
        witnesses = list(enumerate_irreducible(loaded.design))
        assert len(witnesses) == 190 and calls == []
        # the counter counts: is_irreducible asks cover
        assert is_irreducible(witnesses[0].points, loaded.design) and calls

    def test_witness_covers_match_cover(self):
        # each witness's closing cover, then its step covers, as cover gives
        # them, repeated points (realizable walks) and full designs included
        rng = random.Random("witness-covers")
        designs = [shuffled_design(rng, random_restricted_design(rng)) for _ in range(60)]
        designs += [*CYCLE_DESIGNS, EIGHT_CYCLE]
        designs += [random_tetrad_design(rng) for _ in range(6)]
        seen = {"repeated": 0, "full": 0, "irreducible": 0}
        for design in designs:
            for irreducible, walk in ((False, enumerate_realizable), (True, enumerate_irreducible)):
                for w in itertools.islice(walk(design, 6), 1_500):
                    p = w.points
                    steps = [design.cover((p[i - 1], p[i])) for i in range(1, len(p))]
                    assert w.covers == (design.cover((p[0], p[-1])), *steps), (design.treatments, p)
                    seen["repeated"] += len(set(p)) < len(p)
                    seen["full"] += design.is_full
                    seen["irreducible"] += irreducible
        assert min(seen.values()) > 1_000, seen

    def test_is_irreducible_unknown_input(self):
        x0, y0, x1 = P("1", "x0"), P("2", "y0"), P("1", "x1")
        stranger = P("3", "x0")
        for seq in [(stranger, x0, y0), (x0, stranger, y0, x1), (x0, y0, x1, stranger)]:
            with pytest.raises(UnknownInput, match="'3'"):
                is_irreducible(seq, CYCLE_DESIGNS[0])


class TestRestrictedCap:
    def test_cap_bounds_irreducible_sequences(self):
        # more realizable sequences than the cap, fewer irreducible ones:
        # the suite completes and finds the oracle's violations
        loaded = load_system(SAMPLES / "pr_restricted.json")
        design, tables = loaded.design, loaded.tables
        metrics = [OrderDistance(OrderSpec({"0": 1, "1": 2}))]
        realizable = list(enumerate_realizable(design, 6))
        irreducible = [w for w in realizable if subset_scan_irreducible(w.points, design)]
        cap = 1_000
        assert len(irreducible) <= cap < len(realizable)
        expected = [
            report
            for w in irreducible
            for metric in metrics
            if (report := chain_test(metric, w, tables)).violated
        ]
        suite = run_suite(design, tables, metrics, cap=cap)
        assert not suite.truncated
        assert suite.sequences_tested == len(irreducible)
        assert expected and as_bytes(suite.violations) == as_bytes(expected)

        below = len(irreducible) - 1
        truncated = run_suite(design, tables, metrics, cap=below)
        assert truncated.truncated and truncated.sequences_tested == below
        first = set(w.points for w in irreducible[:below])
        kept = [report for report in expected if report.sequence in first]
        assert as_bytes(truncated.violations) == as_bytes(kept)
        nothing = run_suite(design, tables, metrics, cap=0)
        assert nothing.truncated and nothing.sequences_tested == 0 and not nothing.violations
        with pytest.raises(CapExceeded, match=f"more than {below} irreducible sequences"):
            list(enumerate_irreducible(design, 6, cap=below))
        assert list(enumerate_irreducible(design, 6, cap=len(irreducible))) == irreducible


def random_tables(rng, design):
    """An independent random joint per treatment of `design`, over two or
    three outcomes per input and a denominator of its own, so that chains
    fail often."""
    axes = [("0", "1", "2")[: rng.randint(2, 3)] for _ in design.inputs]
    outcomes = list(itertools.product(*axes))
    return [
        TreatmentTable(design, t, dict(zip(outcomes, random_dist(rng, len(outcomes)))), axes=axes)
        for t in design.iter_treatments()
    ]


def flipped_edge(design):
    """Binary outputs equal in every table but the first, where the first
    input's output is the others' flipped: the cycles through that table's
    pairs violate the index order's chains."""
    axes = [("0", "1")] * len(design.inputs)
    k = len(design.inputs)
    same = {("0",) * k: F(1, 2), ("1",) * k: F(1, 2)}
    flip = {("1",) + ("0",) * (k - 1): F(1, 2), ("0",) + ("1",) * (k - 1): F(1, 2)}
    return [TreatmentTable(design, t, flip if n == 0 else same, axes=axes)
            for n, t in enumerate(design.iter_treatments())]


def cycle_systems(rng, count):
    """The cycle designs with random tables and with a flipped edge, then
    `count` random restricted designs holding a cycle, with random
    tables."""
    systems = [(d, random_tables(rng, d)) for d in (*CYCLE_DESIGNS, EIGHT_CYCLE)]
    systems += [(d, flipped_edge(d)) for d in (*CYCLE_DESIGNS, EIGHT_CYCLE)]
    while len(systems) < 6 + count:
        design = random_restricted_design(rng)
        _, near, third = design.pair_covers()
        if _chordless_cycles(near, third, max(3, len(near))):
            systems.append((design, random_tables(rng, design)))
    return systems


def pair_rule_chains(design, tables, metrics, max_len):
    """Per sequence of the reference walk `pair_rule_walk`, in its order,
    its length and the reports chain_test gives under each metric that it
    violates, the covers taken from Design.cover."""
    pts = design.points()
    out = []
    for seq in pair_rule_walk(design, max_len, True):
        p = [pts[i] for i in seq]
        covers = (design.cover((p[0], p[-1])), *(design.cover((p[i - 1], p[i])) for i in range(1, len(p))))
        witness = SequenceWitness(tuple(p), covers)
        out.append((len(seq), [r for m in metrics if (r := chain_test(m, witness, tables)).violated]))
    return out


class TestCycleKernel:
    """The chordless-cycle pass and its two-sum screen against chain_test
    on the reference walk's sequences."""

    def test_two_sums_give_every_traversal_residual(self):
        # F - s(e) and B - s(e) are the chain_test residuals of the two
        # traversals that leave out the edge e
        rng = random.Random("two-sums")
        lengths = set()
        for design, tables in cycle_systems(rng, 40):
            pts = design.points()
            by_t = {t.treatment: t for t in tables}
            C, near, third = design.pair_covers()
            metric = OrderDistance(random_order_spec(rng, tables))

            def d(u, v):
                return metric.evaluate(bivariate(by_t[C[u][v]], pts[u].input, pts[v].input))

            for length, group in _chordless_cycles(near, third, max(3, len(pts))).items():
                for cycle in group:
                    assert len(cycle) == length and cycle[0] == min(cycle) and cycle[1] < cycle[-1]
                    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
                    F = sum(d(u, v) for u, v in edges)
                    B = sum(d(v, u) for u, v in edges)
                    for i, (u, v) in enumerate(edges):
                        s = d(u, v) + d(v, u)
                        forward = cycle[i + 1:] + cycle[: i + 1]
                        backward = cycle[i::-1] + cycle[:i:-1]
                        for seq, want in ((forward, F - s), (backward, B - s)):
                            points = tuple(pts[k] for k in seq)
                            covers = (C[seq[0]][seq[-1]], *(C[a][b] for a, b in zip(seq, seq[1:])))
                            got = chain_test(metric, SequenceWitness(points, covers), tables).residual
                            assert got == want, (design.treatments, seq)
                    assert sorted(_traversals(cycle)) == sorted(
                        [cycle[i + 1:] + cycle[: i + 1] for i in range(length)]
                        + [cycle[i::-1] + cycle[:i:-1] for i in range(length)])
                    assert len(set(_traversals(cycle))) == 2 * length
                    lengths.add(length)
        assert lengths == {3, 4, 5, 6, 8}

    def test_suite_matches_the_reference_walk(self):
        # violations byte for byte, covers included, and the count, at
        # max_len 3-8
        rng = random.Random("cycle-suite")
        loaded = load_system(SAMPLES / "pr_restricted.json")
        systems = [(loaded.design, loaded.tables), *cycle_systems(rng, 12)]
        found = set()
        for design, tables in systems:
            metrics = kernel_metrics(rng, design, tables) + suite_metrics(rng, tables)[2:]
            longest = pair_rule_chains(design, tables, metrics, 8)
            for max_len in range(3, 9):
                # the reference walk is shortest first
                chains = [reports for length, reports in longest if length <= max_len]
                want = [r for reports in chains for r in reports]
                suite = run_suite(design, tables, metrics, max_len=max_len)
                assert suite.sequences_tested == len(chains) and not suite.truncated
                assert as_bytes(suite.violations) == as_bytes(want), (design.treatments, max_len)
                assert [v.covers for v in suite.violations] == [r.covers for r in want]
                found.update(len(v.sequence) for v in suite.violations)
        assert found == {3, 4, 5, 6, 8}

    def test_every_cap_on_pr_restricted(self):
        # run_suite, and enumerate_irreducible's witnesses up to its
        # CapExceeded, at every cap; oracle_suite, which runs chain_test on
        # every witness, at the caps around the ends
        loaded = load_system(SAMPLES / "pr_restricted.json")
        design, tables = loaded.design, loaded.tables
        rng = random.Random("cycle-caps")
        metrics = kernel_metrics(rng, design, tables)[:3]
        chains = [reports for _, reports in pair_rule_chains(design, tables, metrics, 6)]
        witnesses = list(enumerate_irreducible(design, 6))
        total = len(chains)
        assert total == len(witnesses) == 190
        for cap in range(total + 1):
            want = [r for reports in chains[:cap] for r in reports]
            suite = run_suite(design, tables, metrics, cap=cap)
            assert (suite.sequences_tested, suite.truncated) == (cap, cap < total)
            assert as_bytes(suite.violations) == as_bytes(want)
            walked = []
            try:
                walked.extend(enumerate_irreducible(design, 6, cap))
            except CapExceeded:
                assert cap < total
            assert walked == witnesses[:cap]
            if cap in (0, 1, 2, total - 1, total):
                violations, tested, truncated = oracle_suite(design, tables, metrics, cap=cap)
                assert (tested, truncated, as_bytes(violations)) == (cap, cap < total, as_bytes(want))

    def test_capped_walk_keeps_the_first_cap_plus_one(self):
        # past the cap the pass drops longer cycles and, at the length the
        # cap falls in, the cycles owning none of the sequences needed
        rng = random.Random("cycle-trim")
        loaded = load_system(SAMPLES / "pr_restricted.json")
        designs = [loaded.design, *(design for design, _ in cycle_systems(rng, 12))]
        dropped = 0
        for design in designs:
            _, near, third = design.pair_covers()
            reference = list(pair_rule_walk(design, 8, True))
            for cap in range(len(reference) + 2):
                walked = itertools.islice(_in_suite_order(_chordless_cycles(near, third, 8, cap)), cap + 1)
                assert list(walked) == reference[: cap + 1]
                kept = _chordless_cycles(near, third, 8, cap)
                dropped += sum(2 * l * len(g) for l, g in kept.items()) < len(reference)
        assert dropped > 100


def unrolled(D, tetrad):
    a, b, c, d = tetrad
    return D[a][b] + D[b][c] + D[c][d] - D[a][d]


def random_distance_tables(rng, design, bounds):
    """One int distance table per bound B in `bounds`, over the cross-input
    pairs of points of inputs with two or more values (None elsewhere, as
    _distance_screen leaves them), each with some tetrads tied at its
    bound: residual B, which the screen must leave out, or B - 1, which it
    must keep."""
    pts = design.points()
    multi = [len(design.values[p.input]) >= 2 for p in pts]
    tetrads = list(_tetrad_indices(design))
    tables = []
    for bound in bounds:
        D = [
            [rng.randint(-2, 3) if multi[i] and multi[j] and p.input != q.input else None
             for j, q in enumerate(pts)]
            for i, p in enumerate(pts)
        ]
        for a, b, c, d in rng.sample(tetrads, min(len(tetrads), 6)):
            D[a][d] = D[a][b] + D[b][c] + D[c][d] - bound + rng.randint(0, 1)
        tables.append(D)
    return tables


def random_tetrad_design(rng):
    """A full design over 2-4 inputs of 1-4 values, at least two inputs
    with two or more."""
    names = [str(k + 1) for k in range(rng.randint(2, 4))]
    sizes = [rng.randint(1, 4) for _ in names]
    sizes[0], sizes[-1] = max(sizes[0], 2), max(sizes[-1], 2)
    rng.shuffle(sizes)
    return Design(names, {n: [f"w{k}" for k in range(s)] for n, s in zip(names, sizes)})


def tetrad_pairs(design):
    """The point-index pairs run_suite evaluates on a full design."""
    pts = design.points()
    multi = [i for i, p in enumerate(pts) if len(design.values[p.input]) >= 2]
    return [(i, j) for i in multi for j in multi if pts[i].input != pts[j].input]


class TestTetradScreen:
    """_tetrad_hits against _tetrad_indices plus the unrolled residual, and
    run_suite's cut of the hits at the cap."""

    def expected(self, design, tables, cap):
        # the hits are exactly the tetrads below each table's bound
        return [
            (t, k)
            for t in itertools.islice(_tetrad_indices(design), cap)
            for k, (G, bound) in enumerate(tables)
            if unrolled(G, t) < bound
        ]

    def test_int_tables_yield_exactly_the_negative_tetrads(self):
        # at bound 0 the hits are the negative tetrads; other bounds too,
        # with ties at B (left out) and B - 1 (kept)
        rng = random.Random("tetrad-screen")
        ties = {0: 0, 1: 0}
        for _ in range(40):
            design = random_tetrad_design(rng)
            bounds = [rng.choice([0, 0, -2, 3]) for _ in range(rng.randint(1, 3))]
            tables = list(zip(random_distance_tables(rng, design, bounds), bounds))
            total = _tetrad_total(design)
            assert total == sum(1 for _ in _tetrad_indices(design))
            got = _tetrad_hits(design, tables)
            assert sorted(got) == self.expected(design, tables, total)
            for t in _tetrad_indices(design):
                for D, bound in tables:
                    gap = bound - unrolled(D, t)
                    if gap in ties:
                        ties[gap] += 1
        assert ties[0] > 0 and ties[1] > 0

    def test_screens_with_mixed_float_terms(self):
        # the screens run_suite builds, float, exact and mixed (SomeFloat,
        # and a power with exact zeros): the hits are every tetrad whose
        # int residual is below the screen's bound
        rng = random.Random("tetrad-screen-mixed")
        kinds = set()
        for n in range(8):
            design, tables = random_full_system(rng, ("float", "rational")[n % 2])
            pts, pairs = design.points(), tetrad_pairs(design)
            C = design.pair_covers()[0]
            screens = _distance_screen(suite_metrics(rng, tables), pts, pairs, {t.treatment: t for t in tables}, C)
            floats = [_float_terms(R, pairs) for _, R, _ in screens]
            bounds = [(D, _flag_bound(f, den, 0.05)) for (D, _, den), f in zip(screens, floats)]
            got = sorted(_tetrad_hits(design, bounds))
            want = self.expected(design, bounds, _tetrad_total(design))
            assert got == want
            kinds.update(floats[k] for _, k in want)
        # hits on float, exact and mixed screens
        assert kinds == {True, False, None}

    def test_cap_cuts_inside_a_triple(self):
        # run_suite keeps the hits of the first `cap` tetrads; on `every`
        # each tetrad is one, so most caps cut inside a triple x, y, x'
        rng = random.Random("tetrad-screen-cap")
        for _ in range(10):
            design = random_tetrad_design(rng)
            tables = random_tables(rng, design)
            pts, pairs = design.points(), tetrad_pairs(design)
            (D,) = random_distance_tables(rng, design, [0])
            # every tetrad's residual on `every` is -1 - 1 - 1 + 1
            every = [[-1] * len(pts) for _ in pts]
            named = [("lookup", D), ("every", every)]
            metrics = [Lookup({(pts[i], pts[j]): G[i][j] for i, j in pairs}, name) for name, G in named]
            total = _tetrad_total(design)
            for cap in sorted({0, 1, total - 1, total, total + 1, rng.randrange(total + 1)}):
                suite = run_suite(design, tables, metrics, max_len=4, cap=cap)
                want = [
                    (tuple(map(pts.__getitem__, t)), named[k][0], unrolled(named[k][1], t))
                    for t, k in self.expected(design, [(D, 0), (every, 0)], cap)
                ]
                assert [(v.sequence, v.metric, v.residual) for v in suite.violations] == want, cap
                assert (suite.sequences_tested, suite.truncated) == (min(cap, total), cap < total)

    def test_exact_and_power_metrics_interleave_by_tetrad(self):
        # an exact order-distance and its 9/10 power (floats, exact 0):
        # each tetrad's reports come together, the exact metric's first,
        # and within one triple x, y, x' the y' go in design order
        rng = random.Random("tetrad-screen-power")
        for _ in range(20):
            design, tables = random_full_system(rng, "rational")
            order = OrderDistance(random_order_spec(rng, tables))
            metrics = [order, PowerOf(order, F(9, 10))]
            suite = run_suite(design, tables, metrics)
            violations, tested, _ = oracle_suite(design, tables, metrics)
            assert suite.sequences_tested == tested
            assert as_bytes(suite.violations) == as_bytes(violations)
            seqs = [v.sequence for v in suite.violations]
            both = [s for s, t in zip(seqs, seqs[1:]) if s == t]
            triples = [s[:3] for s in dict.fromkeys(seqs)]
            if both and len(triples) > len(set(triples)):
                break
        else:
            pytest.fail("no sample with a tetrad violated under both metrics")
        pairs = [v for v in suite.violations if seqs.count(v.sequence) == 2]
        assert [v.metric for v in pairs] == ["order", "(order)^9/10"] * (len(pairs) // 2)

    def test_cap_th_tetrad_in_closed_form_on_small_designs(self):
        # every index of full designs over 2-4 inputs, some with an input
        # of a single value, and one past the last
        rng = random.Random("tetrad-at")
        shapes = [(2, 2), (1, 3), (3, 1, 2), (2, 2, 2), (1, 1, 2, 3), (4, 1, 1, 2), (2, 3, 2, 2)]
        designs = [Design([str(k) for k in range(len(sizes))],
                          {str(k): [f"w{j}" for j in range(m)] for k, m in enumerate(sizes)})
                   for sizes in shapes]
        designs += [random_tetrad_design(rng) for _ in range(10)]
        for design in designs:
            total = _tetrad_total(design)
            for cap in range(1, total + 1):
                assert _tetrad_at(design, cap - 1) == next(itertools.islice(_tetrad_indices(design), cap - 1, None))
            with pytest.raises(IndexError):
                _tetrad_at(design, total)

    def test_cap_th_tetrad_in_closed_form_on_a_2x32_design(self):
        design = Design(["1", "2"], {"1": [f"a{k}" for k in range(32)], "2": [f"b{k}" for k in range(32)]})
        total = _tetrad_total(design)
        rng = random.Random("tetrad-at-2x32")
        for cap in [1, total, *rng.sample(range(1, total + 1), 20)]:
            assert _tetrad_at(design, cap - 1) == next(itertools.islice(_tetrad_indices(design), cap - 1, None))

    def test_every_cap_on_a_three_input_design(self):
        rng = random.Random("tetrad-screen-every-cap")
        names = ["1", "2", "3"]
        design = Design(names, {"1": ["w0", "w1"], "2": ["w0", "w1", "w2"], "3": ["w0", "w1"]})
        outcomes = list(itertools.product("01", repeat=3))
        tables = [
            TreatmentTable(design, t, dict(zip(outcomes, random_dist(rng, 8, 12))),
                           axes=[("0", "1")] * 3)
            for t in design.iter_treatments()
        ]
        metrics = [
            OrderDistance(random_order_spec(rng, tables)),
            ClassificationDistance(cells=(("0",), ("1",))),
        ]
        total = _tetrad_total(design)
        assert total == 56
        for cap in range(total + 2):
            suite = run_suite(design, tables, metrics, cap=cap)
            violations, tested, truncated = oracle_suite(design, tables, metrics, cap=cap)
            assert suite.sequences_tested == tested == min(cap, total)
            assert suite.truncated is truncated is (cap < total)
            assert as_bytes(suite.violations) == as_bytes(violations)
            assert [v.covers for v in suite.violations] == [v.covers for v in violations]
        assert violations

    @pytest.mark.parametrize("sample", ["pr_restricted.json", "eight_cycle.json"])
    def test_every_cap_on_a_restricted_sample(self, sample):
        # the same cut on a restricted design's cycles, at every cap: the
        # oracle's report at cap c is its violations on the first c
        # witnesses, each tested once here, and oracle_suite itself at the
        # ends
        loaded = load_system(SAMPLES / sample)
        design, tables = loaded.design, loaded.tables
        metrics = kernel_metrics(random.Random(f"every-cap-{sample}"), design, tables)
        max_len = len(design.points())
        per_witness = [
            [report for metric in metrics if (report := chain_test(metric, w, tables)).violated]
            for w in enumerate_irreducible(design, max_len)
        ]
        total = len(per_witness)
        for cap in range(total + 2):
            want = [report for reports in per_witness[:cap] for report in reports]
            suite = run_suite(design, tables, metrics, max_len=max_len, cap=cap)
            assert (suite.sequences_tested, suite.truncated) == (min(cap, total), cap < total)
            assert as_bytes(suite.violations) == as_bytes(want)
            assert [v.covers for v in suite.violations] == [v.covers for v in want]
            if cap in (0, 1, total - 1, total + 1):
                violations, tested, truncated = oracle_suite(design, tables, metrics, max_len, cap=cap)
                assert (tested, truncated, as_bytes(violations)) == (min(cap, total), cap < total, as_bytes(want))
        assert want


def exact_oracle(design, tables, metrics, eps_test):
    """The violations of run_suite rebuilt from enumerate_irreducible and
    each metric's values on its covers' marginals, decided on the exact
    residual sum(map(Fraction, rhs)) - Fraction(lhs): below 0 when every
    term is exact, below -eps_test when one is a float or a table is
    labelled "float".  One (sequence, metric, covers, exact residual, float
    or not) per violation."""
    by_t = {t.treatment: t for t in tables}
    float_system = any(t.regime() == "float" for t in tables)
    out = []
    for w in enumerate_irreducible(design):
        steps = [(w.points[0], w.points[-1]), *zip(w.points, w.points[1:])]
        for metric in metrics:
            lhs, *rhs = [metric.evaluate(bivariate(by_t[c], x.input, y.input))
                         for c, (x, y) in zip(w.covers, steps)]
            exact = sum(map(F, rhs)) - F(lhs)
            floats = float_system or any(isinstance(v, float) for v in (lhs, *rhs))
            if exact < (-F(eps_test) if floats else 0):
                out.append((w.points, metric.describe(), w.covers, exact, floats))
    return out


class Lookup(Metric):
    """A fixed distance per ordered pair of points, whatever the marginal."""

    def __init__(self, values, name="lookup"):
        self.values, self.name = values, name

    def evaluate(self, m):
        return self.values[m.row_point, m.col_point]

    def describe(self):
        return self.name


class Scaled(Metric):
    """A metric's values as floats times `scale`, to reach subnormal and
    huge floats."""

    def __init__(self, base, scale):
        self.base, self.scale = base, scale

    def evaluate(self, m):
        return float(self.base.evaluate(m)) * self.scale

    def describe(self):
        return f"scaled-{self.scale}"


class TestExactResiduals:
    """Chains with float terms are decided and reported on their exact
    residuals, rounded once for the report."""

    @pytest.mark.parametrize("eps_test", [EPS_TEST, 0.05, 2.0**-30], ids=["1e-9", "0.05", "2^-30"])
    def test_float_and_mixed_tables_match_an_exact_oracle(self, eps_test):
        # float tables, exact and float values in one table (SomeFloat,
        # and a power with exact zeros), subnormal and huge floats, full
        # and restricted designs
        rng = random.Random(f"exact-residuals-{eps_test}")
        seen = set()
        for k in range(8):
            full = random_full_system(rng, ("float", "rational")[k % 2])
            tables = full[1]
            order = OrderDistance(random_order_spec(rng, tables))
            metrics = [
                order,
                PowerOf(OrderDistance(random_order_spec(rng, tables), "order-b"), F(1, 2)),
                SomeFloat(OrderDistance(random_order_spec(rng, tables))),
                Scaled(order, 2.0**-1060),
                Scaled(order, 1e300),
            ]
            for design, tabs in (full, restricted_copy(rng, *full)):
                suite = run_suite(design, tabs, metrics, eps_test=eps_test)
                want = exact_oracle(design, tabs, metrics, eps_test)
                assert [(v.sequence, v.metric, v.covers) for v in suite.violations] == [w[:3] for w in want]
                for v, (*_, exact, floats) in zip(suite.violations, want):
                    assert isinstance(v.residual, float) is floats
                    assert v.residual == (float(exact) if floats else exact)
                    seen.add((design.is_full, floats))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_float_bound_at_a_dyadic_eps(self):
        # float distances in 64ths, and closings that put tetrad residuals
        # at -eps exactly or 2^-40 to either side: only those below -eps
        # are flagged, and on an all-float table the screen's candidates
        # are exactly those
        eps = 2.0**-30
        rng = random.Random("dyadic-bound")
        ties = 0
        for _ in range(10):
            design, tables = random_full_system(rng, "float")
            pts = design.points()
            pairs = tetrad_pairs(design)
            tetrads = list(_tetrad_indices(design))
            values = {(pts[i], pts[j]): rng.randint(0, 64) / 64 for i, j in pairs}
            for a, b, c, d in rng.sample(tetrads, min(len(tetrads), 8)):
                x, y, x2, y2 = (pts[i] for i in (a, b, c, d))
                step = rng.choice([0.0, 2.0**-40, -(2.0**-40)])
                values[x, y2] = values[x, y] + values[y, x2] + values[x2, y2] + eps + step
            metric = Lookup(values)

            def exact(t):
                x, y, x2, y2 = (pts[i] for i in t)
                return F(values[x, y]) + F(values[y, x2]) + F(values[x2, y2]) - F(values[x, y2])

            flagged = [t for t in tetrads if exact(t) < -F(eps)]
            ties += sum(exact(t) == -F(eps) for t in tetrads)
            suite = run_suite(design, tables, [metric], eps_test=eps)
            assert [v.sequence for v in suite.violations] == [tuple(pts[i] for i in t) for t in flagged]
            assert [v.residual for v in suite.violations] == [float(exact(t)) for t in flagged]
            C = design.pair_covers()[0]
            ((D, R, den),) = _distance_screen([metric], pts, pairs, {t.treatment: t for t in tables}, C)
            bound = _flag_bound(_float_terms(R, pairs), den, eps)
            assert bound == -math.floor(F(eps) * den)
            got = sorted(t for t, _ in _tetrad_hits(design, [(D, bound)]))
            assert got == flagged
        assert ties > 0


class Constant(Metric):
    def __init__(self, value):
        self.value = value

    def evaluate(self, m):
        return self.value

    def describe(self):
        return "constant"


class TestNonFiniteDistances:
    """A library metric's NaN or infinity is an input error naming it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sample", ["pr_full.json", "pr_restricted.json"], ids=["full", "restricted"])
    def test_suite_and_chain_test_raise(self, bad, sample):
        loaded = load_system(SAMPLES / sample)
        metric = Constant(bad)
        message = "^constant gave a distance that is not finite$"
        with pytest.raises(MetricEvaluationError, match=message):
            run_suite(loaded.design, loaded.tables, [metric])
        witness = next(enumerate_irreducible(loaded.design))
        with pytest.raises(MetricEvaluationError, match=message):
            chain_test(metric, witness, loaded.tables)

    def test_residual_too_large_for_a_float(self):
        # 1.5e308 on every pair: the tetrad's residual is 3e308
        design, tables = pr_box()
        witness = next(enumerate_irreducible(design))
        with pytest.raises(MetricEvaluationError, match="^constant: a chain residual overflows a float$"):
            chain_test(Constant(1.5e308), witness, tables)
        assert run_suite(design, tables, [Constant(1.5e308)]).violations == ()

    @pytest.mark.parametrize("sample", ["pr_full.json", "pr_restricted.json"], ids=["full", "restricted"])
    def test_float_system_distance_beyond_the_float_range(self, sample):
        # a float-labelled system prints its distances as floats, and this
        # exact one has none; on the exact system it is reported as it is
        metric = Constant(F(10) ** 400)
        exact = load_system(SAMPLES / sample)
        assert run_suite(exact.design, exact.tables, [metric]).violations == ()
        loaded = load_system(SAMPLES / sample, "float")
        message = "^constant gave a distance that is not finite$"
        with pytest.raises(MetricEvaluationError, match=message):
            run_suite(loaded.design, loaded.tables, [metric])
        witness = next(enumerate_irreducible(loaded.design))
        with pytest.raises(MetricEvaluationError, match="^constant: a chain residual overflows a float$"):
            chain_test(metric, witness, loaded.tables)
