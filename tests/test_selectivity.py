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
    OrderDistance,
    OrderSpec,
    PDistance,
    PowerOf,
    SequenceWitness,
    SystemFormatError,
    TreatmentTable,
    chain_test,
    check_marginal_selectivity,
    enumerate_irreducible,
    enumerate_realizable,
    is_irreducible,
    run_suite,
    transform_outputs,
)
from irreducible_reference import subset_scan_irreducible
from msel_reference import reference_marginal_selectivity
from ordist.arith import EPS_TEST
from ordist.fileio import load_system
from ordist.selectivity import (
    _candidate_view,
    _tetrad_candidates,
    _tetrad_indices,
    _tetrad_total,
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
        design, tables = product_system()
        suite = run_suite(
            design,
            tables,
            [OrderDistance(index_order_spec(tables))],
            cap=3,
            on_cap="truncate",
        )
        assert suite.truncated
        with pytest.raises(CapExceeded):
            run_suite(design, tables, [OrderDistance(index_order_spec(tables))], cap=3)


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


def oracle_suite(design, tables, metrics, max_len=6, cap=10**6, on_cap="raise", eps_test=EPS_TEST):
    """run_suite rebuilt from enumerate_irreducible plus chain_test: the
    violated reports in (sequence, metric) order and the sequence count."""
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
        if on_cap != "truncate":
            raise
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
            suite = run_suite(design, tables, metrics, cap=cap, on_cap="truncate")
            violations, tested, truncated = oracle_suite(
                design, tables, metrics, cap=cap, on_cap="truncate"
            )
            assert suite.truncated and truncated
            assert suite.sequences_tested == tested == cap
            assert as_bytes(suite.violations) == as_bytes(violations)
            first = set(w.points for w in itertools.islice(enumerate_irreducible(design, 4), cap))
            assert all(v.sequence in first for v in suite.violations)
            with pytest.raises(CapExceeded, match=f"more than {cap} irreducible"):
                run_suite(design, tables, metrics, cap=cap)
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

    def test_float_sums_add_left_to_right(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit;
        # a compensated sum would round both to 0.6
        design = Design(["1", "2"], {"1": ["x"], "2": ["y", "y'"]})
        axes = [("0", "1"), ("a", "b", "c")]
        outcomes = list(itertools.product(*axes))
        first, second = design.iter_treatments()
        tables = [
            TreatmentTable(design, first, dict(zip(outcomes, (0.1, 0.2, 0.3, 0.2, 0.1, 0.1))),
                           axes=axes),
            TreatmentTable(design, second, dict(zip(outcomes, (0.3, 0.2, 0.1, 0.1, 0.1, 0.2))),
                           axes=axes),
        ]
        report = self.assert_same(design, tables)
        assert report.passed
        assert report.max_discrepancy == (0.1 + 0.2) + 0.3 - 0.6 > 0
        assert report.witness["outcome"] == ["0"]


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
        suite = run_suite(design, tables, metrics, cap=cap, on_cap="truncate")
        assert not suite.truncated
        assert suite.sequences_tested == len(irreducible)
        assert expected and as_bytes(suite.violations) == as_bytes(expected)

        below = len(irreducible) - 1
        truncated = run_suite(design, tables, metrics, cap=below, on_cap="truncate")
        assert truncated.truncated and truncated.sequences_tested == below
        first = set(w.points for w in irreducible[:below])
        kept = [report for report in expected if report.sequence in first]
        assert as_bytes(truncated.violations) == as_bytes(kept)
        nothing = run_suite(design, tables, metrics, cap=0, on_cap="truncate")
        assert nothing.truncated and nothing.sequences_tested == 0 and not nothing.violations
        with pytest.raises(CapExceeded, match="more than 0 irreducible sequences"):
            run_suite(design, tables, metrics, cap=0)
        with pytest.raises(CapExceeded, match=f"more than {below} irreducible sequences"):
            run_suite(design, tables, metrics, cap=below)
        with pytest.raises(CapExceeded, match=f"more than {below} irreducible sequences"):
            list(enumerate_irreducible(design, 6, cap=below))
        assert list(enumerate_irreducible(design, 6, cap=len(irreducible))) == irreducible


def unrolled(D, tetrad):
    a, b, c, d = tetrad
    return D[a][b] + D[b][c] + D[c][d] - D[a][d]


def random_distance_tables(rng, design, count):
    """`count` int distance tables over the cross-input pairs of points of
    inputs with two or more values (None elsewhere, as _distance_screen
    leaves them), each with some tetrads tied at residual exactly 0."""
    pts = design.points()
    multi = [len(design.values[p.input]) >= 2 for p in pts]
    tetrads = list(_tetrad_indices(design))
    tables = []
    for _ in range(count):
        D = [
            [rng.randint(-2, 3) if multi[i] and multi[j] and p.input != q.input else None
             for j, q in enumerate(pts)]
            for i, p in enumerate(pts)
        ]
        # residual 0: g(y') == -f(y), the tie the bisection must leave out
        for a, b, c, d in rng.sample(tetrads, min(len(tetrads), 6)):
            D[a][d] = D[a][b] + D[b][c] + D[c][d]
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


def candidate_sets(design, tables, cap):
    """_tetrad_candidates per table index, as sets of tetrads."""
    got = [set() for _ in tables]
    for *t, k in _tetrad_candidates(design, tables, cap):
        got[k].add(tuple(t))
    return got


def tie_tables(rng, design):
    """Raw-value distance tables whose left-to-right tetrad residuals sit on
    or next to a limit, in float and mixed Fraction/float values."""
    pairs = tetrad_pairs(design)
    tetrads = list(_tetrad_indices(design))
    n = len(design.points())

    def table(draw):
        D = [[None] * n for _ in range(n)]
        for i, j in pairs:
            D[i][j] = draw()
        return D

    scales = {
        "unit": lambda: rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, 0.6, 1 / 3]),
        "huge": lambda: rng.choice([1e300, 3e299, 7.5e298]) * rng.random(),
        "tiny": lambda: rng.choice([1e-300, 5e-324, 2.5e-310, 1e-308]) * rng.randint(0, 9),
        "mixed": lambda: rng.choice([F(1, 10), F(1, 3), 0.1, 0.2, F(3, 10), 0.3, F(0), 0.5]),
    }
    out = []
    for name, draw in scales.items():
        D = table(draw)
        # closing distances that put a residual at the limit, and one ulp
        # to either side of it
        for a, b, c, d in rng.sample(tetrads, min(len(tetrads), 8)):
            target = D[a][b] + D[b][c] + D[c][d] - rng.choice([0.0, -1e-9, -0.05])
            if isinstance(target, F):
                target = float(target)
            D[a][d] = rng.choice([target, math.nextafter(target, math.inf),
                                  math.nextafter(target, -math.inf)])
        out.append((name, D))
    return out


class TestTetradScreen:
    """_tetrad_candidates against _tetrad_indices plus the unrolled residual."""

    def expected(self, design, tables, cap):
        # on an int view (bound 0) and on the every-y' view (zeros, bound
        # inf) the candidates are exactly the tetrads below the bound
        return [
            (*t, k)
            for t in itertools.islice(_tetrad_indices(design), cap)
            for k, (G, bound) in enumerate(tables)
            if unrolled(G, t) < bound
        ]

    def test_int_tables_yield_exactly_the_negative_tetrads(self):
        rng = random.Random("tetrad-screen")
        ties = 0
        for _ in range(40):
            design = random_tetrad_design(rng)
            tables = [(D, 0) for D in random_distance_tables(rng, design, rng.randint(1, 3))]
            total = _tetrad_total(design)
            assert total == sum(1 for _ in _tetrad_indices(design))
            got = list(_tetrad_candidates(design, tables, total))
            assert got == self.expected(design, tables, total)
            ties += sum(unrolled(D, t) == 0 for t in _tetrad_indices(design) for D, _ in tables)
        assert ties > 0

    @pytest.mark.parametrize("eps_test", [0.0, 1e-9, 0.05])
    def test_raw_value_candidates_cover_every_tetrad_below_the_limit(self, eps_test):
        # every tetrad whose residual, added left to right over the raw
        # values, is below the limit is a candidate; the screen still
        # drops most of the others
        rng = random.Random(f"tetrad-screen-raw-{eps_test}")
        near, pruned = 0, 0
        for _ in range(12):
            design = random_tetrad_design(rng)
            pairs = tetrad_pairs(design)
            total = _tetrad_total(design)
            for name, D in tie_tables(rng, design):
                values = [D[i][j] for i, j in pairs]
                exact = any(isinstance(v, F) for v in values)
                lim = max(0, -eps_test) if exact else -eps_test
                view = _candidate_view(D, lim, None, pairs)
                assert view[1] < math.inf, name
                (got,) = candidate_sets(design, [view], total)
                below = {t for t in _tetrad_indices(design) if unrolled(D, t) < lim}
                assert below <= got, name
                near += sum(abs(unrolled(D, t) - lim) <= 1e-15 * max(map(abs, values))
                            for t in _tetrad_indices(design))
                pruned += len(got) < total
        assert near > 0 and pruned > 0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, F(10) ** 400])
    def test_non_finite_tables_keep_every_tetrad(self, bad):
        rng = random.Random("tetrad-screen-bad")
        for _ in range(5):
            design = random_tetrad_design(rng)
            pairs = tetrad_pairs(design)
            (_, D), *_ = tie_tables(rng, design)
            i, j = rng.choice(pairs)
            D[i][j] = bad
            ints = random_distance_tables(rng, design, 1)[0]
            tables = [(ints, 0), _candidate_view(D, -1e-9, None, pairs)]
            assert tables[1][1] == math.inf
            total = _tetrad_total(design)
            got = list(_tetrad_candidates(design, tables, total))
            assert got == self.expected(design, tables, total)
            assert sum(1 for *_, k in got if k == 1) == total

    def test_cap_cuts_inside_a_triple(self):
        rng = random.Random("tetrad-screen-cap")
        for _ in range(10):
            design = random_tetrad_design(rng)
            D, other = random_distance_tables(rng, design, 2)
            pairs = tetrad_pairs(design)
            i, j = rng.choice(pairs)
            other[i][j] = math.nan  # a table that keeps every tetrad
            tables = [(D, 0), _candidate_view(other, -1e-9, None, pairs)]
            total = _tetrad_total(design)
            caps = {0, 1, total - 1, total, total + 1, rng.randrange(total + 1)}
            for cap in sorted(caps):
                got = list(_tetrad_candidates(design, tables, cap))
                assert got == self.expected(design, tables, cap), cap

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
            suite = run_suite(design, tables, metrics, cap=cap, on_cap="truncate")
            violations, tested, truncated = oracle_suite(
                design, tables, metrics, cap=cap, on_cap="truncate"
            )
            assert suite.sequences_tested == tested == min(cap, total)
            assert suite.truncated is truncated is (cap < total)
            assert as_bytes(suite.violations) == as_bytes(violations)
            if cap < total:
                with pytest.raises(CapExceeded, match=f"more than {cap} irreducible"):
                    run_suite(design, tables, metrics, cap=cap)
            else:
                assert run_suite(design, tables, metrics, cap=cap).truncated is False
        assert violations
