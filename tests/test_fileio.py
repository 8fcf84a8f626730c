import io
import json
import math
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from load_reference import assert_loads_alike, load_both
from randsys import random_2x2_system, random_coupled_system, system_from_joint

from ordist import (
    SystemFormatError,
    arith,
    default_order_metric,
    dump_system,
    dumps_report,
    fileio,
    load_metric,
    load_system,
    point_axes,
    validate_system,
)
from ordist.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def minimal_doc(p="0.25"):
    return {
        "inputs": [
            {"name": "1", "values": ["x", "x'"]},
            {"name": "2", "values": ["y", "y'"]},
        ],
        "treatments": [["x", "y"]],
        "tables": [
            {
                "treatment": ["x", "y"],
                "probs": [
                    {"outcome": ["0", "0"], "p": p},
                    {"outcome": ["0", "1"], "p": p},
                    {"outcome": ["1", "0"], "p": p},
                    {"outcome": ["1", "1"], "p": p},
                ],
            }
        ],
    }


class TestLoadSystem:
    def test_sample_files_validate(self):
        for name in ("prbox.json", "product.json", "normal_sign.json"):
            loaded = load_system(SAMPLES / name)
            assert loaded.regime == "rational"
            report = validate_system(loaded.design, loaded.tables)
            assert report.ok, (name, report.issues)

    def test_fraction_strings_stay_exact(self):
        loaded = load_system(minimal_doc("1/4"))
        assert loaded.tables[0].prob(("0", "0")) == F(1, 4)

    def test_short_decimals_stay_exact_in_auto(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(minimal_doc(0.25)))
        loaded = load_system(path)
        assert loaded.regime == "rational"
        assert loaded.tables[0].prob(("1", "1")) == F(1, 4)

    def test_long_decimals_force_float_regime(self, tmp_path):
        doc = minimal_doc()
        doc["tables"][0]["probs"] = [
            {"outcome": ["0", "0"], "p": 0.2500000000001},
            {"outcome": ["0", "1"], "p": 0.2499999999999},
            {"outcome": ["1", "0"], "p": 0.25},
            {"outcome": ["1", "1"], "p": 0.25},
        ]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        loaded = load_system(path)
        assert loaded.regime == "float"
        assert all(t.regime() == "float" for t in loaded.tables)
        # each float held as the binary fraction it equals
        assert loaded.tables[0].prob(("0", "0")) == F(0.2500000000001) != F("0.2500000000001")
        assert loaded.tables[0].prob(("1", "1")) == F(1, 4)

    def test_float_mode_coerces_everything(self):
        loaded = load_system(minimal_doc("1/4"), arithmetic="float")
        assert loaded.regime == "float"
        assert loaded.tables[0].prob(("0", "0")) == 0.25

    def test_rational_mode_parses_decimal_text(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(minimal_doc(0.1)))
        doc = minimal_doc()
        loaded = load_system(path, arithmetic="rational")
        assert loaded.tables[0].prob(("0", "0")) == F(1, 10)

    def test_undeclared_outcome_value_rejected(self):
        doc = minimal_doc("1/4")
        doc["outcomes"] = [
            {"input": "1", "values": ["0", "1"]},
            {"input": "2", "values": ["0"]},
        ]
        with pytest.raises(SystemFormatError):
            load_system(doc)

    def test_outcome_declaration_fixes_axis_order(self):
        doc = minimal_doc("1/4")
        doc["outcomes"] = [
            {"input": "1", "values": ["1", "0"]},
            {"input": "2", "values": ["0", "1"]},
        ]
        loaded = load_system(doc)
        assert loaded.tables[0].axes[0] == ("1", "0")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemFormatError):
            load_system(path)

    def test_missing_keys_rejected(self):
        with pytest.raises(SystemFormatError):
            load_system({"inputs": []})
        with pytest.raises(SystemFormatError):
            load_system({"inputs": [{"name": "1", "values": ["x"]}]})


class TestFloatLiteralSize:
    """A float literal is held as the ratio it equals, so the digit guard
    counts that ratio's bits: a subnormal's denominator is 2^1074."""

    @staticmethod
    def write(path, cells_of):
        outcomes = [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        doc = minimal_doc()
        doc["treatments"] = "full"
        doc["tables"] = [
            {"treatment": t, "probs": [{"outcome": o, "p": p} for o, p in zip(outcomes, cells_of(t))]}
            for t in (["x", "y"], ["x", "y'"], ["x'", "y"], ["x'", "y'"])
        ]
        path.write_text(json.dumps(doc))
        return str(path)

    def test_bits_count_a_float_literal(self):
        literals = fileio._Literals("auto")
        assert literals[5e-324] == (1, 2**1074)
        assert literals[1e308] == (int(1e308), 1)
        assert literals.floats
        assert literals.bits == 1075

    def test_subnormal_and_huge_cells(self, tmp_path, capsys):
        huge = self.write(tmp_path / "huge.json", lambda t: [5e-324, 1e308, 0.25, 0.25] if t == ["x", "y"] else [0.25] * 4)
        tiny = self.write(tmp_path / "tiny.json", lambda t: [0.25, 0.25, 0.5, 5e-324])
        for arithmetic in ("auto", "float"):
            loaded = load_system(huge, arithmetic)
            assert loaded.regime == "float"
            assert loaded.tables[0].scaled()[1] == 2**1074
            report = validate_system(loaded.design, loaded.tables)
            assert report.as_json() == {"ok": False, "regime": "float", "issues": [{
                "code": "SumNotOne",
                "message": "probabilities in treatment ('x', 'y') sum to 1+1e+308",
                "treatment": ["x", "y"],
            }]}
            for command in ("check", "jdc"):
                assert main([command, huge, "--arithmetic", arithmetic]) == 1
                assert main([command, tiny, "--arithmetic", arithmetic]) == 0
        capsys.readouterr()

    def test_sums_beyond_the_float_range(self, tmp_path, capsys):
        # a float system prints its sum error rounded once, as float
        # addition gives it: beyond the largest float, an infinity
        big = self.write(tmp_path / "big.json", lambda t: [1.7e308, 1.7e308, 0, 0] if t == ["x", "y"]
                         else [-1.7e308, -1.7e308, 0.5, 0.5] if t == ["x'", "y"] else [0.25] * 4)
        loaded = load_system(big, "float")
        messages = [issue.message for issue in validate_system(loaded.design, loaded.tables).issues]
        assert messages == [
            "probabilities in treatment ('x', 'y') sum to 1+inf",
            "negative probability -1.7e+308 at ('0', '0') in treatment (\"x'\", 'y')",
            "probabilities in treatment (\"x'\", 'y') sum to 1-inf",
        ]
        for command in ("check", "jdc"):
            assert main([command, big, "--arithmetic", "float"]) == 1
        capsys.readouterr()


def two_table_doc(first, second):
    """minimal_doc with a second treatment; each list holds its table's
    four cell literals in outcome order."""
    doc = minimal_doc()
    doc["treatments"] = [["x", "y"], ["x'", "y"]]
    probs = [dict(cell) for cell in doc["tables"][0]["probs"]]
    doc["tables"].append({"treatment": ["x'", "y"], "probs": probs})
    for table, literals in zip(doc["tables"], (first, second)):
        for cell, p in zip(table["probs"], literals):
            cell["p"] = p
    return doc


class TestLiteralsParsedOnce:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """The string literals arith._text_ratio is called on, in order."""
        calls = []
        real = arith._text_ratio

        def counting(text, mode):
            calls.append(text)
            return real(text, mode)

        monkeypatch.setattr(arith, "_text_ratio", counting)
        return calls

    def test_each_distinct_literal_once(self, parsed):
        doc = two_table_doc(["1/4", "0.25", "1/4", "1/4"], ["0.25", "1/8", "3/8", "1/4"])
        loaded = load_system(doc)
        assert parsed == ["1/4", "0.25", "1/8", "3/8"]
        assert [t.prob(("1", "0")) for t in loaded.tables] == [F(1, 4), F(3, 8)]

    def test_repeated_malformed_literal_raises_its_message_once(self, parsed):
        doc = two_table_doc(["1/4", "oops", "1/4", "1/4"], ["oops", "1/x", "oops", "1/4"])
        with pytest.raises(SystemFormatError) as caught:
            load_system(doc)
        assert str(caught.value) == "bad system file: not a number: 'oops'"
        assert parsed == ["1/4", "oops"]


class TestLoadMetric:
    def test_order_config(self):
        metric = load_metric({"kind": "order", "rank": {"0": 1, "1": 2}})
        assert metric.describe() == "order"

    def test_per_point_order_config(self):
        metric = load_metric(
            {
                "kind": "order",
                "rank_per_point": [
                    {"input": "1", "value": "x", "rank": {"0": 1, "1": 2}}
                ],
            }
        )
        from ordist import InputPoint

        assert metric.order.rank_of("1", InputPoint("1", "x")) == 2

    def test_inline_json_text(self):
        metric = load_metric('{"kind": "entropy", "base": 2}')
        assert metric.describe() == "entropy(base=2)"

    def test_p_metric_with_infinity(self):
        metric = load_metric({"kind": "p", "p": "inf", "embed": "numeric"})
        assert metric.p == math.inf

    def test_expected_ground_matrix(self):
        metric = load_metric(
            {
                "kind": "expected_ground",
                "values": ["0", "1"],
                "ground": [["0", "1"], ["1", "0"]],
            }
        )
        assert metric.ground[("0", "1")] == 1

    def test_separation_config(self):
        metric = load_metric(
            {"kind": "separation", "u": {"0.5": "1/2", "1.5": "1/2"}, "embed": "numeric"}
        )
        assert metric.describe() == "separation"

    def test_transform_chain(self):
        metric = load_metric(
            {
                "kind": "p",
                "p": 1,
                "embed": {"0": 0, "1": 1},
                "transform": [
                    {"op": "power", "q": "1/2"},
                    {"op": "bounded"},
                    {"op": "sum", "other": {"kind": "order", "rank": {"0": 1, "1": 2}}},
                ],
            }
        )
        assert "sum(" in metric.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemFormatError):
            load_metric({"kind": "wasserstein"})

    @pytest.mark.parametrize(
        "config, named",
        [
            ('{"kind":"order","rank":{"0":2.7,"1":1}}', "rank Decimal('2.7') is not an integer"),
            ('{"kind":"order","rank":{"0":2.0,"1":1}}', "rank Decimal('2.0') is not an integer"),
            ('{"kind":"order","rank":{"0":true,"1":2}}', "rank True is not an integer"),
            ('{"kind":"order","rank":{"0":"2.5","1":1}}', "'2.5'"),
            ('{"kind":"order","rank_per_point":[{"input":"1","value":"x","rank":{"0":1.5}}]}',
             "bad per-point rank entry"),
            ('{"kind":"order","rank_per_point":[{"input":"1","value":"x","rank":{"0":false}}]}',
             "bad per-point rank entry"),
            ('{"kind":"classification","cells":"01"}', "cells must be a list, not '01'"),
            ('{"kind":"classification","cells":[["0"],"12"]}', "a cell must be a list, not '12'"),
            ('{"kind":"classification","cells_per_point":[{"input":"1","value":"x","cells":"01"}]}',
             "cells must be a list, not '01'"),
            ('{"kind":"expected_ground","values":"01","ground":[[0,1],[1,0]]}',
             "values must be a list, not '01'"),
            ('{"kind":"expected_ground","values":["0","1"],"ground":["01","10"]}',
             "a ground row must be a list, not '01'"),
            ('{"kind":"order","transform":[{"op":"mixture","others":[{"kind":"order"}],"weights":"11"}]}',
             "weights must be a list, not '11'"),
        ],
    )
    def test_coercion_is_rejected(self, config, named):
        # no rounding of a rank, no bool as a rank, no string split into cells
        with pytest.raises(SystemFormatError) as caught:
            load_metric(config)
        assert named in str(caught.value)

    def test_integer_ranks_and_lists_still_load(self):
        from ordist import InputPoint

        metric = load_metric('{"kind":"order","rank":{"0":"2","1":1},'
                             '"rank_per_point":[{"input":"1","value":"x","rank":{"0":" 3 ","1":1}}]}')
        assert metric.order.rank == {"0": 2, "1": 1}
        assert metric.order.per_point[InputPoint("1", "x")] == {"0": 3, "1": 1}
        metric = load_metric({"kind": "classification", "cells": (["0"], ("1", "2")),
                              "cells_per_point": [{"input": "1", "value": "x", "cells": [["1"], ["0"]]}]})
        assert metric.cells == (("0",), ("1", "2"))
        assert metric.per_point[InputPoint("1", "x")] == (("1",), ("0",))
        metric = load_metric('{"kind":"expected_ground","values":["0","1"],"ground":[["0","1"],["1","0"]]}')
        assert metric.values == ("0", "1")

    def test_default_metric_ranks_by_declared_order(self):
        loaded = load_system(SAMPLES / "prbox.json")
        metric = default_order_metric(point_axes(loaded.design, loaded.tables))
        from ordist import InputPoint

        assert metric.order.rank_of("0", InputPoint("1", "x")) == 1
        assert metric.order.rank_of("1", InputPoint("2", "y'")) == 2


def _str_of_decimal(value):
    if isinstance(value, Decimal):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def reference_dumps(report) -> str:
    """The stdlib encoding dumps_report must reproduce byte for byte."""
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False, default=_str_of_decimal) + "\n"


# quotes, backslashes, control characters, non-ASCII text and JSON's
# punctuation, among any other characters
REPORT_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\n\t[]{},: é€\u2028𝄞'), st.characters()))
REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**64), 10**100, -(10**100)]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e300, -1e300, 2.0**-1074]),
    st.decimals(),
    REPORT_TEXT,
)


def report_containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(REPORT_TEXT, inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats()), inner, max_size=4),
    )


REPORT_VALUES = st.recursive(REPORT_LEAVES, report_containers, max_leaves=30)


@st.composite
def deep_reports(draw):
    """A value wrapped in six to ten containers, empty ones among them."""
    value = draw(REPORT_VALUES)
    for kind in draw(st.lists(st.sampled_from(["list", "tuple", "dict", "empty"]), min_size=6, max_size=10)):
        if kind == "list":
            value = [value, *draw(st.lists(REPORT_LEAVES, max_size=2))]
        elif kind == "tuple":
            value = (value,)
        elif kind == "dict":
            value = {draw(REPORT_TEXT): value, **draw(st.dictionaries(REPORT_TEXT, REPORT_LEAVES, max_size=2))}
        else:
            value = {"value": value, "empty": draw(st.sampled_from([[], (), {}]))}
    return value


class TestDumpsReport:
    def test_key_order_independent_and_stable(self):
        a = dumps_report({"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": "1/2"}})
        b = dumps_report({"c": {"x": "1/2", "y": 0.5}, "a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(REPORT_VALUES, report_containers(REPORT_VALUES), deep_reports()))
    def test_bytes_are_the_stdlib_indent_encoding(self, report):
        assert dumps_report(report) == reference_dumps(report)

    def test_edge_values(self):
        report = {
            "": [[], (), {}, [[[[[[[]]]]]]]],
            "floats": [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf],
            "ints": [0, -1, 2**200, True, False, None],
            "labels": [Decimal("0.50"), Decimal("-1E+3")],
            "text": '"\\\x00\x1f é \u2028 [1, {"a": 2}]',
        }
        assert dumps_report(report) == reference_dumps(report)

    @pytest.mark.parametrize(
        "report", [{True: 1, False: [2]}, {None: {}}, {10: "a", 2: "b", -1.5: "c", 1e300: "d", math.nan: "e"}]
    )
    def test_keys_that_are_not_str(self, report):
        assert dumps_report(report) == reference_dumps(report)

    @pytest.mark.parametrize("report", [{Decimal(1): 0}, {(1, 2): 0}, {"a": 0, 1: 0}])
    def test_keys_json_cannot_spell_raise_type_error(self, report):
        with pytest.raises(TypeError):
            reference_dumps(report)
        with pytest.raises(TypeError):
            dumps_report(report)

    @pytest.mark.parametrize("value", [F(1, 2), {1, 2}, b"bytes", object()])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            reference_dumps({"x": [value]})
        with pytest.raises(TypeError):
            dumps_report({"x": [value]})


class TestRoundTrip:
    def test_random_systems_survive_dump_and_load(self):
        import random

        from ordist import dump_system
        from randsys import random_2x2_system, random_coupled_system

        rng = random.Random(123)
        for k in range(20):
            if k % 2:
                design, tables = random_2x2_system(rng)
            else:
                design, tables = random_coupled_system(
                    rng, n_inputs=rng.choice([2, 3]), max_input_values=2
                )
            doc = dump_system(design, tables)
            loaded = load_system(doc)
            assert loaded.regime == "rational"
            assert loaded.design.inputs == design.inputs
            assert list(loaded.design.iter_treatments()) == list(design.iter_treatments())
            by_t = {t.treatment: t for t in loaded.tables}
            for t in tables:
                back = by_t[t.treatment]
                assert back.axes == t.axes
                assert back.probs == t.probs

    def test_float_system_survives_dump_and_load(self):
        # the binary fractions of 0.1, 0.2, 0.3 and 0.4 do not sum to 1
        # exactly, so the system is valid only under its float label
        loaded = load_system(two_table_doc([0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.5, 0.0]))
        doc = dump_system(loaded.design, loaded.tables)
        assert [cell["p"] for cell in doc["tables"][0]["probs"]] == [0.1, 0.2, 0.3, 0.4]
        back = load_system(doc)
        assert loaded.regime == back.regime == "float"
        assert validate_system(back.design, back.tables).ok
        for t, u in zip(loaded.tables, back.tables):
            assert u.regime() == "float"
            assert u.scaled() == t.scaled()


def _literal(rng, p: F, style: str):
    """p written as a ratio string, a decimal string, a JSON number, or (in
    the "float" style, sometimes) a float with more places than auto mode
    keeps exact."""
    terminating = 10**9 % p.denominator == 0
    form = rng.choice(["ratio", "decimal", "number"]) if style == "mixed" else style
    if form == "decimal" and terminating:
        return str(float(p))
    if form == "number" and terminating:
        return float(p)
    if form == "float" and rng.random() < 0.5:
        return float(p) + 1e-12
    return f"{p.numerator}/{p.denominator}"


def _shuffled_doc(rng) -> str:
    """A random system as JSON text: zero cells mostly omitted, cells and
    tables shuffled, outcomes declared per point (in shuffled orders), per
    input or not at all, literals in one of several styles.  One document
    in ten lists a cell twice."""
    kind = rng.randrange(3)
    if kind == 0:
        design, tables = random_coupled_system(
            rng, n_inputs=rng.choice([2, 3]), max_input_values=3,
            restrict_phi=rng.random() < 0.5,
        )
    elif kind == 1:
        design, tables = random_2x2_system(rng)
    else:
        design, tables, _ = system_from_joint(
            rng, n_inputs=rng.choice([2, 3]), out_size=rng.choice([2, 3])
        )
    doc = dump_system(design, tables)
    declare = rng.choice(["point", "input", "none"])
    if declare == "none":
        del doc["outcomes"]
    elif declare == "input":
        union = {}
        for entry in doc["outcomes"]:
            union.setdefault(entry["input"], {}).update(dict.fromkeys(entry["values"]))
        doc["outcomes"] = [{"input": name, "values": list(vs)} for name, vs in union.items()]
    else:
        for entry in doc["outcomes"]:
            rng.shuffle(entry["values"])
    style = rng.choice(["ratio", "decimal", "number", "mixed", "float"])
    for spec, table in zip(doc["tables"], tables):
        spec["probs"] = [
            {"outcome": list(o), "p": _literal(rng, F(p), style)}
            for o, p in table.probs.items()
            if p != 0 or rng.random() < 0.2
        ]
        rng.shuffle(spec["probs"])
    rng.shuffle(doc["tables"])
    if rng.random() < 0.1:
        # a fault: one table lists a cell twice
        probs = rng.choice(doc["tables"])["probs"]
        if probs:
            probs.insert(rng.randrange(len(probs) + 1), dict(rng.choice(probs)))
    return json.dumps(doc)


class TestStringWhereAListBelongs:
    """A JSON string where a list belongs is refused, naming the entry;
    list() or tuple() would split it into its characters."""

    @pytest.mark.parametrize(
        "path, value, entry",
        [
            (("inputs", 0, "values"), "xz", "input"),
            (("outcomes", 1, "values"), "01", "outcomes"),
            (("tables", 0, "treatment"), "xy", "table"),
            (("tables", 0, "probs", 0, "outcome"), "00", "probability"),
            # the table lists its cells as the table before it does
            (("tables", 1, "probs", 1, "outcome"), "11", "probability"),
            (("tables", 3, "probs", 1, "outcome"), {"1": "0"}, "probability"),
        ],
        ids=["input-values", "outcomes-values", "treatment", "outcome",
             "outcome-in-a-repeated-order", "outcome-mapping"],
    )
    def test_refused_and_named(self, path, value, entry):
        doc = json.loads((SAMPLES / "prbox.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        loaded, reference = load_both(json.dumps(doc))
        assert isinstance(loaded, SystemFormatError), loaded
        assert str(loaded) == str(reference)
        assert str(loaded).startswith(f"bad {entry} entry ")
        assert repr(value) in str(loaded)


class TestAgainstReference:
    """The loader reads every document as tests/load_reference.py does."""

    @pytest.mark.parametrize("arithmetic", ["auto", "rational", "float"])
    def test_random_documents_load_alike(self, arithmetic):
        import random

        rng = random.Random(f"loader-{arithmetic}")
        for _ in range(120):
            assert_loads_alike(_shuffled_doc(rng), arithmetic)

    def test_samples_load_alike(self):
        for path in sorted(SAMPLES.glob("*.json")):
            for arithmetic in ("auto", "rational", "float"):
                assert_loads_alike(path.read_text(), arithmetic)

    def test_labels_that_compare_equal_keep_their_text(self):
        # 1, 1.0 and true compare equal, so these tables list equal cells;
        # each point keeps the labels its own table prints
        doc = {
            "inputs": [{"name": "1", "values": ["x", "x'", "x''"]}, {"name": "2", "values": ["y"]}],
            "tables": [
                {"treatment": [w, "y"], "probs": [{"outcome": [one, "0"], "p": "1/2"},
                                                  {"outcome": [0, "0"], "p": "1/2"}]}
                for w, one in (("x", 1), ("x'", "ONE"), ("x''", True))
            ],
        }
        text = json.dumps(doc).replace('"ONE"', "1.0")
        assert_loads_alike(text)
        loaded = load_system(io.StringIO(text))
        assert [repr(t.axes[0]) for t in loaded.tables] == [
            "(1, 0)", "(Decimal('1.0'), 0)", "(True, 0)"
        ]

    @pytest.mark.parametrize(
        "fault",
        [
            "repeated_first", "repeated_later", "arity", "undeclared", "short_treatment",
            "long_treatment", "unknown_treatment_value", "empty_axis", "repeated_axis_value",
            "too_many_digits", "bad_literal_after_repeat",
        ],
    )
    def test_faults_raise_the_reference_message(self, fault):
        doc = two_table_doc(["1/4"] * 4, ["1/4"] * 4)
        second = doc["tables"][1]
        if fault == "repeated_first":
            doc["tables"][0]["probs"].append(dict(doc["tables"][0]["probs"][0]))
        elif fault == "repeated_later":
            # the first table's cell order is sound, the second repeats it
            # with one cell twice
            second["probs"][3] = dict(second["probs"][1])
        elif fault == "arity":
            second["probs"][2]["outcome"] = ["1", "0", "1"]
        elif fault == "undeclared":
            doc["outcomes"] = [{"input": "1", "values": ["0", "1"]},
                               {"input": "2", "values": ["0"]}]
        elif fault == "short_treatment":
            second["treatment"] = ["x'"]
        elif fault == "long_treatment":
            second["treatment"] = ["x'", "y", "z"]
        elif fault == "unknown_treatment_value":
            second["treatment"] = ["x", "q"]
        elif fault == "empty_axis":
            doc["outcomes"] = [{"input": "1", "value": "x'", "values": []}]
            second["probs"] = []
        elif fault == "repeated_axis_value":
            doc["outcomes"] = [{"input": "2", "values": ["0", "1", "0"]}]
        elif fault == "too_many_digits":
            second["probs"][0]["p"] = "1/" + "7" * 2200
            second["probs"][1]["p"] = "1/" + "9" * 2199
        elif fault == "bad_literal_after_repeat":
            second["probs"][1]["p"] = "oops"
            second["probs"][3] = dict(second["probs"][0])
        loaded, reference = load_both(json.dumps(doc))
        assert isinstance(reference, SystemFormatError), reference
        assert type(loaded) is type(reference)
        assert str(loaded) == str(reference)

    @pytest.mark.parametrize(
        "faults, named",
        [
            ((("short_treatment",), ("undeclared",)), "tuple index out of range"),
            ((("undeclared",), ("arity",)), "not among declared outcomes"),
            ((("arity",), ("undeclared",)), "has wrong arity"),
            ((("short_treatment", "undeclared_first_input"), ()), "tuple index out of range"),
            ((("undeclared",), ("bad_literal",)), "not a number: 'oops'"),
        ],
        ids=["short-then-undeclared", "undeclared-then-arity", "arity-then-undeclared",
             "short-with-undeclared", "undeclared-then-bad-literal"],
    )
    def test_first_of_two_faults_is_named(self, faults, named):
        # each table of a two-table document holds its own faults; the
        # stages run in order (literals, axes, tables) and each names the
        # first fault in file order, checked per table as the reference does
        doc = two_table_doc(["1/4"] * 4, ["1/4"] * 4)
        doc["outcomes"] = [{"input": "1", "values": ["0", "1"]},
                           {"input": "2", "values": ["0", "1"]}]
        for table, table_faults in zip(doc["tables"], faults):
            for fault in table_faults:
                if fault == "short_treatment":
                    table["treatment"] = table["treatment"][:1]
                elif fault == "undeclared":
                    table["probs"][3]["outcome"] = ["1", "2"]
                elif fault == "undeclared_first_input":
                    table["probs"][2]["outcome"] = ["2", "0"]
                elif fault == "arity":
                    table["probs"][2]["outcome"] = ["1", "0", "1"]
                elif fault == "bad_literal":
                    table["probs"][1]["p"] = "oops"
        loaded, reference = load_both(json.dumps(doc))
        assert isinstance(reference, SystemFormatError), reference
        assert named in str(reference)
        assert type(loaded) is type(reference)
        assert str(loaded) == str(reference)

    def test_outcomes_for_unknown_value_rejected(self):
        doc = minimal_doc("1/4")
        doc["outcomes"] = [{"input": "1", "value": "X", "values": ["0", "1"]}]
        with pytest.raises(SystemFormatError, match="unknown value 'X' of input '1'"):
            load_system(doc)

    def test_tables_of_one_layout_share_their_axes(self):
        loaded = load_system(SAMPLES / "product.json")
        assert len({id(t.axes) for t in loaded.tables}) == 1
