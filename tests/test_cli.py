import json
import math
import time
from pathlib import Path

import pytest

from ordist.cli import _build_parser, main
from ordist.jdc import FineSystem

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_product_system_clean_exit(self, capsys):
        code, out, err = run(capsys, "check", str(SAMPLES / "product.json"))
        assert code == 0
        assert "0 violation(s)" in out

    def test_pr_box_violation_exit(self, capsys):
        code, out, err = run(capsys, "check", str(SAMPLES / "prbox.json"), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["sequences_tested"] == 8
        assert report["violations"]
        assert report["marginal_selectivity"]["passed"] is True
        worst = min(f_to_float(v["residual"]) for v in report["violations"])
        assert worst == -0.5

    def test_sign_system_violation(self, capsys):
        code, out, _ = run(capsys, "check", str(SAMPLES / "normal_sign.json"), "--json")
        assert code == 2
        report = json.loads(out)
        assert any(f_to_float(v["residual"]) == -0.25 for v in report["violations"])

    def test_extra_metric_config(self, capsys, tmp_path):
        cfg = tmp_path / "metric.json"
        cfg.write_text(json.dumps({"kind": "p", "p": 1, "embed": {"0": 0, "1": 1}}))
        code, out, _ = run(
            capsys, "check", str(SAMPLES / "prbox.json"), "--metric", str(cfg), "--json"
        )
        assert code == 2
        report = json.loads(out)
        assert "d^(1)" in report["metrics"]

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/system.json")
        assert code == 1
        assert "error" in err

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "config",
        [
            '{"kind":"classification","cells_per_point":[{}]}',
            '{"kind":"separation"}',
            '{"kind":"expected_ground","ground":[[0]]}',
            '{"kind":"order","transform":[{"op":"power"}]}',
            '{"kind":"order","transform":[{"op":"mixture","others":[{"kind":"order"}],'
            '"weights":["1/3","1/3"]}]}',
            '{"kind":"entropy","base":1}',
            '{"kind": bad json',
            '{"kind":"order","transform":[{"op":"power","q":2}]}',
            '{"kind":"order","rank":[1]}',
            '{"kind":"expected_ground","values":["0","1"],"ground":[[0]]}',
            '{"kind":"p","p":"1/0"}',
            '{"kind":"p","p":NaN}',
            '{"kind":"p","p":Infinity}',
            '{"kind":"p","p":-Infinity}',
        ],
    )
    def test_malformed_metric_is_input_error(self, capsys, config):
        code, _, err = run(capsys, "check", str(SAMPLES / "product.json"), "--metric", config)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("p", ["1e10000000", '"1e10000000"', "1e5000", '"-1e5000"'])
    def test_huge_metric_exponent_is_input_error(self, capsys, p):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "check", str(SAMPLES / "product.json"), "--metric", f'{{"kind":"p","p":{p}}}'
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err.startswith("error:") and "digits" in err

    def test_metric_undefined_on_an_untested_pair_is_input_error(self, capsys, tmp_path):
        # a restricted design holding no irreducible sequence: every covered
        # pair's distance is still evaluated before the walk, as on a full
        # design, so a metric with no rank for "1" is an input error
        doc = {
            "inputs": [{"name": "1", "values": ["x", "x'"]}, {"name": "2", "values": ["y", "y'"]}],
            "treatments": [["x", "y"], ["x'", "y'"]],
            "tables": [
                {"treatment": ["x", "y"], "probs": [{"outcome": ["0", "0"], "p": "1/2"},
                                                    {"outcome": ["1", "1"], "p": "1/2"}]},
                {"treatment": ["x'", "y'"], "probs": [{"outcome": ["0", "1"], "p": "1/2"},
                                                      {"outcome": ["1", "0"], "p": "1/2"}]},
            ],
        }
        path = tmp_path / "untested.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0 and json.loads(out)["sequences_tested"] == 0
        code, _, err = run(capsys, "check", str(path), "--metric", '{"kind":"order","rank":{"0":1}}')
        assert code == 1
        assert err.startswith("error:")

    def test_missing_metric_file_is_input_error(self, capsys, tmp_path):
        missing = str(tmp_path / "metric.json")
        code, _, err = run(capsys, "check", str(SAMPLES / "product.json"), "--metric", missing)
        assert code == 1
        assert err.startswith("error:")

    def test_invalid_probabilities_are_input_error(self, capsys, tmp_path):
        doc = json.loads((SAMPLES / "product.json").read_text())
        doc["tables"][0]["probs"][0]["p"] = "9/10"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1

    def test_marginal_selectivity_failure_is_verdict(self, capsys, tmp_path):
        doc = json.loads((SAMPLES / "product.json").read_text())
        # first output's margin depends on the second input: 3/5 under y
        # against 1/2 under y'
        doc["tables"][0]["probs"] = [
            {"outcome": ["0", "0"], "p": "3/10"},
            {"outcome": ["0", "1"], "p": "3/10"},
            {"outcome": ["1", "0"], "p": "1/5"},
            {"outcome": ["1", "1"], "p": "1/5"},
        ]
        path = tmp_path / "nosel.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["marginal_selectivity"]["passed"] is False


class TestJdc:
    def test_product_feasible(self, capsys):
        code, out, _ = run(capsys, "jdc", str(SAMPLES / "product.json"), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        assert report["witness"]
        assert report["certificate"] is None
        assert report["fine"]["satisfied"] is True
        assert report["theorem4_max_discrepancy"] == "0"

    def test_pr_box_infeasible_with_certificate(self, capsys):
        code, out, _ = run(capsys, "jdc", str(SAMPLES / "prbox.json"), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["certificate"]
        assert report["witness"] is None
        assert report["fine"]["violations"] == [3]
        assert report["variables"] == 16
        assert report["constraints"] == 16

    def test_sign_system_matches_chain_verdict(self, capsys):
        code, out, _ = run(capsys, "jdc", str(SAMPLES / "normal_sign.json"), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["fine"]["violations"]

    def test_fine_block_built_once(self, capsys, monkeypatch):
        built = []
        original = FineSystem.from_tables.__func__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(FineSystem, "from_tables", classmethod(counting))
        code, out, _ = run(capsys, "jdc", str(SAMPLES / "prbox.json"), "--json")
        assert code == 2
        assert json.loads(out)["theorem4_max_discrepancy"] == "0"
        assert len(built) == 1

    def test_hidden_space_cap_is_input_error(self, capsys):
        code, _, err = run(capsys, "jdc", str(SAMPLES / "product.json"), "--cap", "8")
        assert code == 1
        assert "cap" in err


class TestDemoNormal:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "demo-normal")
        assert code == 2
        assert "0.25" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "demo-normal", "--json")
        report = json.loads(out)
        assert report["lhs"] == 0.25
        assert report["rhs_total"] == 0.0
        assert report["residual"] == -0.25
        assert report["violated"] is True

    def test_rho_grid_monotone(self, capsys):
        code, out, _ = run(capsys, "demo-normal", "--json", "--rho-grid")
        report = json.loads(out)
        distances = [d for _, d in report["rho_grid"]]
        assert distances == sorted(distances, reverse=True)


GOLDEN = Path(__file__).resolve().parent / "golden"

# two extra metrics that between them use every transform op
POWER_BOUNDED = json.dumps(
    {
        "kind": "p",
        "p": 1,
        "embed": {"0": 0, "1": 1},
        "transform": [{"op": "power", "q": "1/2"}, {"op": "bounded"}],
    }
)
MIXED = json.dumps(
    {
        "kind": "order",
        "rank": {"0": 1, "1": 2},
        "transform": [
            {
                "op": "mixture",
                "others": [{"kind": "classification", "cells": [["0"], ["1"]]}],
                "weights": ["1/2", "1/2"],
            },
            {"op": "max", "other": {"kind": "frechet", "embed": {"0": 0, "1": 1}}},
            {"op": "sum", "other": {"kind": "entropy"}},
        ],
    }
)

TRANSFORM_METRICS = ("--metric", POWER_BOUNDED, "--metric", MIXED)

# the low-first order-distance and its square root, on a 3x3 full design
# with an embedded noisy PR box: violations under both, interleaved
PR_FULL_METRICS = (
    "--metric", '{"kind":"order","rank":{"0":1,"1":2}}',
    "--metric", '{"kind":"order","rank":{"0":1,"1":2},"transform":[{"op":"power","q":"1/2"}]}',
)

# sample -> (golden file, (command, *extra arguments), exit code); each
# golden file holds the exact --json output
SAMPLE_GOLDENS = {
    "prbox.json": (
        ("check_prbox", ("check",), 2),
        ("jdc_prbox", ("jdc",), 2),
        ("check_prbox_transforms", ("check", *TRANSFORM_METRICS), 2),
    ),
    "product.json": (
        ("check_product", ("check",), 0),
        ("jdc_product", ("jdc",), 0),
        ("check_product_transforms", ("check", *TRANSFORM_METRICS), 0),
    ),
    "normal_sign.json": (
        ("check_normal_sign", ("check",), 2),
        ("jdc_normal_sign", ("jdc",), 2),
    ),
    "pr_full.json": (
        ("check_pr_full", ("check", *PR_FULL_METRICS), 2),
    ),
    # 11 of pr_full.json's 27 treatments: the restricted-design walk
    "pr_restricted.json": (
        ("check_pr_restricted", ("check", *PR_FULL_METRICS), 2),
    ),
    # a table summing to 1 + 1/12, negative cells and a missing treatment:
    # the validation messages
    "invalid_exact.json": (
        ("check_invalid_exact", ("check",), 1),
    ),
}


def assert_golden(capsys, golden, argv, expected_code):
    code, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert code == expected_code
    assert first == second
    assert first == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SAMPLE_GOLDENS))
    def test_byte_identical_reports(self, capsys, name):
        for golden, (command, *extra), code in SAMPLE_GOLDENS[name]:
            argv = (command, str(SAMPLES / name), "--json", *extra)
            assert_golden(capsys, golden, argv, code)

    def test_byte_identical_demo_report(self, capsys):
        assert_golden(capsys, "demo_normal", ("demo-normal", "--json"), 2)

    def test_transform_goldens_name_every_op(self):
        names = json.loads((GOLDEN / "check_prbox_transforms.json").read_text())["metrics"]
        assert names == [
            "bounded((d^(1))^1/2)",
            "sum(max(mixture(order,classification),frechet),entropy(base=2))",
        ]


def f_to_float(value):
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/")
        return float(num) / float(den)
    return float(value)


class TestFloatRegime:
    def test_float_arithmetic_still_finds_violation(self, capsys):
        code, out, _ = run(
            capsys, "check", str(SAMPLES / "normal_sign.json"),
            "--arithmetic", "float", "--json",
        )
        assert code == 2
        report = json.loads(out)
        assert report["arithmetic"] == "float"
        assert any(abs(v["residual"] + 0.25) < 1e-12 for v in report["violations"])

    def test_float_arithmetic_jdc_feasible_product(self, capsys):
        code, out, _ = run(
            capsys, "jdc", str(SAMPLES / "product.json"),
            "--arithmetic", "float", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["arithmetic"] == "float"
        assert report["feasible"] is True
        assert report["witness"]


class TestLargerDesigns:
    def test_jdc_three_input_system_round_trip(self, capsys, tmp_path):
        import random
        import sys

        sys.path.insert(0, str(Path(__file__).parent))
        from randsys import system_from_joint

        design, tables, _ = system_from_joint(random.Random(8128), 3, 2, 2)
        doc = {
            "inputs": [
                {"name": n, "values": list(design.values[n])} for n in design.inputs
            ],
            "treatments": "full",
            "tables": [
                {
                    "treatment": list(t.treatment),
                    "probs": [
                        {"outcome": list(o), "p": str(p)}
                        for o, p in t.probs.items()
                        if p != 0
                    ],
                }
                for t in tables
            ],
            "outcomes": [{"input": n, "values": ["o0", "o1"]} for n in design.inputs],
        }
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "jdc", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["variables"] == 2 ** 6
        assert report["feasible"] is True
        assert report["witness"]
        assert report["fine"] is None  # not a 2x2 binary system


class TestUsageErrors:
    def test_bad_flag_value_is_input_error(self, capsys):
        code = main(["check", str(SAMPLES / "product.json"), "--max-len", "2"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("command", ["check", "jdc"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_input_error(self, capsys, command, cap):
        # a cap of 0 would test nothing and exit 0
        code, _, err = run(capsys, command, str(SAMPLES / "prbox.json"), "--cap", cap)
        assert code == 1
        assert "--cap: must be at least 1" in err

    def test_missing_argument_is_input_error(self, capsys):
        code = main(["check"])
        capsys.readouterr()
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        capsys.readouterr()
        assert code == 0

    def test_nonpositive_tolerance_rejected(self, capsys):
        code = main(["check", str(SAMPLES / "product.json"), "--tol-test", "0"])
        capsys.readouterr()
        assert code == 1

    def test_lp_tolerance_is_a_jdc_option(self, capsys):
        product = str(SAMPLES / "product.json")
        code, _, err = run(capsys, "check", product, "--tol-lp", "1e-6")
        assert code == 1
        assert "--tol-lp" in err
        assert run(capsys, "jdc", product, "--tol-lp", "1e-6")[0] == 0


class TestParserReuse:
    def test_in_process_calls_print_what_fresh_calls_print(self, capsys):
        # the parser is built once per process; one call's options must
        # not carry over into the next
        import subprocess
        import sys

        prbox = str(SAMPLES / "prbox.json")
        two_metrics = [
            "check", prbox, "--json",
            "--metric", '{"kind": "classification", "cells": [["0"], ["1"]]}',
            "--metric", '{"kind": "p", "p": 1, "embed": {"0": 0, "1": 1}}',
        ]
        no_metric = ["check", prbox, "--json"]
        for argv, metrics in ((two_metrics, 2), (no_metric, 1)):
            fresh = subprocess.run(
                [sys.executable, "-m", "ordist", *argv], capture_output=True, text=True
            )
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (fresh.returncode, fresh.stdout)
            assert len(json.loads(out)["metrics"]) == metrics
        assert _build_parser() is _build_parser()


class TestMalformedSystem:
    @pytest.mark.parametrize("command", ["check", "jdc"])
    @pytest.mark.parametrize(
        "path, value",
        [
            (("tables",), 5),
            (("outcomes",), 5),
            ((), []),
            (("treatments",), [["0"], 5]),
            (("tables", 0, "probs", 0, "p"), "1/0"),
            (("tables", 0, "probs", 0, "p"), [1]),
            # json.dumps writes these as the non-JSON literals NaN,
            # Infinity and -Infinity
            (("tables", 0, "probs", 0, "p"), math.nan),
            (("tables", 0, "probs", 0, "p"), math.inf),
            (("tables", 0, "probs", 0, "p"), -math.inf),
        ],
    )
    def test_malformed_system_is_input_error(self, capsys, tmp_path, command, path, value):
        # the product sample with the value at `path` replaced; () replaces
        # the whole document
        doc = json.loads((SAMPLES / "product.json").read_text())
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
        file = tmp_path / "malformed.json"
        file.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(file))
        assert code == 1
        assert err.startswith("error:")


    @pytest.mark.parametrize("command", ["check", "jdc"])
    @pytest.mark.parametrize(
        "literals, arithmetic",
        [
            (["1e5000"], "auto"),
            (['"1e5000"'], "auto"),
            (["1e10000000"], "auto"),
            (['"1e10000000"'], "float"),
            (['"-1e-5000"'], "rational"),
            # each within the digit limit, their sum not
            (['"1e4000"', '"1e-4000"'], "rational"),
        ],
    )
    def test_huge_exponent_is_input_error(self, capsys, tmp_path, command, literals, arithmetic):
        # a value with more digits than the interpreter converts to text
        # is rejected before its ints are built
        doc = json.loads((SAMPLES / "product.json").read_text())
        for k in range(len(literals)):
            doc["tables"][0]["probs"][k]["p"] = f"HUGE{k}"
        text = json.dumps(doc)
        for k, literal in enumerate(literals):
            text = text.replace(f'"HUGE{k}"', literal)
        file = tmp_path / "huge.json"
        file.write_text(text)
        start = time.perf_counter()
        code, _, err = run(capsys, command, str(file), "--arithmetic", arithmetic)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err.startswith("error:") and "digits" in err

    @pytest.mark.parametrize("command", ["check", "jdc"])
    @pytest.mark.parametrize(
        "content",
        [
            '{"inputs": "\u00ff"}'.encode("latin-1"),  # not UTF-8
            b"[" * 100_000 + b"]" * 100_000,  # deeper than the parser recurses
        ],
        ids=["latin-1", "deep"],
    )
    def test_unreadable_json_is_input_error(self, capsys, tmp_path, command, content):
        file = tmp_path / "unreadable.json"
        file.write_bytes(content)
        code, _, err = run(capsys, command, str(file))
        assert code == 1
        assert err.startswith("error:")

    def test_decimal_outcome_label_prints_as_text(self, capsys, tmp_path):
        # an outcome label written as a JSON decimal is read as a Decimal;
        # the report prints it as its text instead of failing to encode it
        doc = {
            "inputs": [{"name": "1", "values": ["x", "x'"]}, {"name": "2", "values": ["y", "y'"]}],
            "treatments": [["x", "y"], ["x'", "y'"]],
            "tables": [
                {"treatment": ["x", "y"], "probs": [{"outcome": ["0", "1"], "p": "1/4"},
                                                    {"outcome": [0.5, "1"], "p": "3/4"}]},
                {"treatment": ["x'", "y'"], "probs": [{"outcome": ["0", "0"], "p": "1"}]},
            ],
        }
        file = tmp_path / "decimal.json"
        file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "jdc", str(file), "--json")
        assert code == 0
        assert ["0.5", "0", "1", "0"] in [w["assignment"] for w in json.loads(out)["witness"]]


class TestNonSelectiveJdc:
    def test_broken_marginal_selectivity_is_lp_infeasible(self, capsys, tmp_path):
        # a system violating marginal selectivity can match no joint at
        # all, so the LP verdict is infeasible and the Fine block reports
        # why it cannot be computed
        doc = json.loads((SAMPLES / "product.json").read_text())
        doc["tables"][0]["probs"] = [
            {"outcome": ["0", "0"], "p": "3/10"},
            {"outcome": ["0", "1"], "p": "3/10"},
            {"outcome": ["1", "0"], "p": "1/5"},
            {"outcome": ["1", "1"], "p": "1/5"},
        ]
        path = tmp_path / "nosel.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "jdc", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["certificate"]
        assert "error" in report["fine"]

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "ordist", "demo-normal", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["residual"] == -0.25
