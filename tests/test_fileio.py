import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from ordist import (
    SystemFormatError,
    arith,
    default_order_metric,
    dumps_report,
    load_metric,
    load_system,
    validate_system,
)

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
        assert isinstance(loaded.tables[0].prob(("1", "1")), float)

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

    def test_default_metric_ranks_by_declared_order(self):
        loaded = load_system(SAMPLES / "prbox.json")
        metric = default_order_metric(loaded.design, loaded.tables)
        from ordist import InputPoint

        assert metric.order.rank_of("0", InputPoint("1", "x")) == 1
        assert metric.order.rank_of("1", InputPoint("2", "y'")) == 2


class TestDumpsReport:
    def test_key_order_independent_and_stable(self):
        a = dumps_report({"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": "1/2"}})
        b = dumps_report({"c": {"x": "1/2", "y": 0.5}, "a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")


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
