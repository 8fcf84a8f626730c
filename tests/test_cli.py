import gc
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lp_reference import jdc_rows
from ordist import build_jdc, cli, dump_system, load_system, witness_reproduces_tables
from ordist import jdc as jdc_mod
from ordist import probspace
from ordist.cli import _build_parser, main
from ordist.errors import SystemFormatError
from ordist.jdc import FineSystem
from ordist.lp import verify_certificate
from ordist.selectivity import check_marginal_selectivity
from randsys import pr_embedded_system

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

    @pytest.mark.parametrize("sample", ["product.json", "prbox.json", "pr_full.json"])
    def test_point_axes_walked_once(self, capsys, monkeypatch, sample):
        # validation's axes make the default metric; they are not walked again
        walks = []
        walk = probspace._point_axes

        def counted(design, tables):
            walks.append(design)
            return walk(design, tables)

        monkeypatch.setattr(probspace, "_point_axes", counted)
        code, out, _ = run(capsys, "check", str(SAMPLES / sample), "--json")
        assert len(walks) == 1
        monkeypatch.undo()
        assert run(capsys, "check", str(SAMPLES / sample), "--json")[:2] == (code, out)

    def test_huge_exact_power_is_input_error(self, capsys):
        # |1e308 - 0| to the power 1e308 would have about 3e310 digits: it
        # is refused before any of it is computed
        start = time.perf_counter()
        code, out, err = run(
            capsys, "check", str(SAMPLES / "product.json"),
            "--metric", '{"kind":"p","p":1e308,"embed":{"0":0,"1":1e308}}',
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error:") and "digits" in err

    def test_infinite_distance_is_input_error(self, capsys):
        # 1.5e308 + 1.5e308 overflows to inf without an OverflowError; the
        # report would print Infinity, which is not JSON
        ground = '{"kind":"expected_ground","values":["0","1"],"ground":[[0,1.5e308],[1.5e308,0]]'
        config = ground + ',"transform":[{"op":"sum","other":' + ground + '}}]}'
        code, out, err = run(
            capsys, "check", str(SAMPLES / "prbox.json"), "--arithmetic", "float",
            "--metric", config, "--json",
        )
        assert code == 1 and out == ""
        assert err == "error: sum(E[ground],E[ground]) gave a distance that is not finite\n"

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

    @pytest.mark.parametrize(
        "config, named",
        [
            ('{"kind":"order","rank":{"0":2.7,"1":1}}', "Decimal('2.7')"),
            ('{"kind":"order","rank":{"0":true,"1":2}}', "rank True"),
            ('{"kind":"order","rank_per_point":[{"input":"1","value":"x","rank":{"0":1.5,"1":2}}]}',
             "Decimal('1.5')"),
            ('{"kind":"classification","cells":"01"}', "'01'"),
            ('{"kind":"classification","cells":[["0"],"1"]}', "a cell must be a list, not '1'"),
            ('{"kind":"expected_ground","values":"01","ground":[[0,1],[1,0]]}', "'01'"),
        ],
    )
    def test_coerced_metric_config_is_input_error(self, capsys, config, named):
        # these ran before as rank 2, rank 1 and the cells ("0",), ("1",)
        code, out, err = run(capsys, "check", str(SAMPLES / "prbox.json"), "--metric", config)
        assert code == 1 and out == ""
        assert err.startswith("error: bad ") and named in err

    @pytest.mark.parametrize(
        "config", ['{"kind":"order","rank":{"0":"1","1":2}}', '{"kind":"classification","cells":[["0"],["1"]]}']
    )
    def test_integer_ranks_and_cell_lists_still_run(self, capsys, config):
        code, _, err = run(capsys, "check", str(SAMPLES / "prbox.json"), "--metric", config)
        assert code == 2 and err == ""

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

    def test_pr_box_refuted_by_a_chain(self, capsys):
        code, out, _ = run(capsys, "jdc", str(SAMPLES / "prbox.json"), "--json")
        assert code == 2
        report = json.loads(out)
        chain = report["certificate_chain"]
        assert chain["metric"] == "order:index"
        assert chain["residual"] == "-1/2" and chain["violated"] is True
        assert chain["sequence"] == [["1", "x'"], ["2", "y"], ["1", "x"], ["2", "y'"]]
        assert_certificate_verifies(SAMPLES / "prbox.json", report)

    def test_chain_free_refutation_goes_through_the_simplex(self, capsys, tmp_path, monkeypatch):
        # the PR box with its correlations flipped violates no chain of the
        # index order, so the simplex's certificate refutes it
        doc = json.loads((SAMPLES / "prbox.json").read_text())
        for table in doc["tables"]:
            for cell in table["probs"]:
                cell["outcome"][1] = "1" if cell["outcome"][1] == "0" else "0"
        path = tmp_path / "anti_prbox.json"
        path.write_text(json.dumps(doc))
        calls = []
        solve = jdc_mod.solve_equality_feasibility
        monkeypatch.setattr(
            jdc_mod, "solve_equality_feasibility",
            lambda rows, rhs, **kw: calls.append(len(rows)) or solve(rows, rhs, **kw),
        )
        code, out, _ = run(capsys, "jdc", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["certificate_chain"] is None
        assert report["fine"]["violations"]
        assert calls == [9]
        assert_certificate_verifies(path, report)
        code, out, _ = run(capsys, "jdc", str(path))
        assert code == 2 and "chain" not in out

    def test_hidden_space_cap_is_input_error(self, capsys):
        code, _, err = run(capsys, "jdc", str(SAMPLES / "product.json"), "--cap", "8")
        assert code == 1
        assert "cap" in err

    def test_tableau_guard_is_input_error(self, capsys, tmp_path, monkeypatch):
        # 7 binary inputs: 16,384 rows over 16,384 assignments, refused
        # before build_jdc builds a row
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(dump_system(*pr_embedded_system(7, 2))))

        def no_row(*args):
            raise AssertionError("a constraint row was built")

        monkeypatch.setattr(jdc_mod, "JdcConstraint", no_row)
        code, out, err = run(capsys, "jdc", str(path))
        assert (code, out) == (1, "")
        assert err == "error: dense rows 16384 x 16384 exceed the solver guard\n"

    def test_any_ordist_error_is_input_error(self, capsys, monkeypatch):
        # one error boundary for every command: an OrdistError from any
        # step ends in exit code 1 and a message, never a traceback
        def fail(*args, **kwargs):
            raise SystemFormatError("injected")

        monkeypatch.setattr(cli, "jdc_feasible", fail)
        code, out, err = run(capsys, "jdc", str(SAMPLES / "prbox.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


def assert_certificate_verifies(path, report):
    """The report's certificate refutes every build_jdc row of the system."""
    loaded = load_system(path)
    problem = build_jdc(loaded.design, loaded.tables)
    y = {(tuple(e["treatment"]), tuple(e["outcome"])): Fraction(e["y"]) for e in report["certificate"]}
    rows, rhs = jdc_rows(problem)
    assert len(y) == len(rows)
    assert verify_certificate(rows, rhs, [y[c.treatment, c.outcome] for c in problem.constraints])


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
FLOAT = ("--arithmetic", "float")

# the low-first order-distance and its square root, on a 3x3 full design
# with an embedded noisy PR box: violations under both, interleaved
PR_FULL_METRICS = (
    "--metric", '{"kind":"order","rank":{"0":1,"1":2}}',
    "--metric", '{"kind":"order","rank":{"0":1,"1":2},"transform":[{"op":"power","q":"1/2"}]}',
)

# per-point orders on the restricted design: an order-distance whose ranks
# reverse (1,a1), (2,b2) and (3,c0), and a classification distance whose
# partitions reverse (1,a0) and (2,b1) and merge (3,c2) into one cell
PER_POINT_METRICS = (
    "--metric",
    json.dumps(
        {
            "kind": "order",
            "rank": {"0": 1, "1": 2},
            "rank_per_point": [
                {"input": "1", "value": "a1", "rank": {"0": 2, "1": 1}},
                {"input": "2", "value": "b2", "rank": {"0": 2, "1": 1}},
                {"input": "3", "value": "c0", "rank": {"0": 2, "1": 1}},
            ],
        }
    ),
    "--metric",
    json.dumps(
        {
            "kind": "classification",
            "cells": [["0"], ["1"]],
            "cells_per_point": [
                {"input": "1", "value": "a0", "cells": [["1"], ["0"]]},
                {"input": "2", "value": "b1", "cells": [["1"], ["0"]]},
                {"input": "3", "value": "c2", "cells": [["0", "1"]]},
            ],
        }
    ),
)

# sample -> (golden file, (command, *extra arguments), exit code); each
# golden file holds the exact --json output
SAMPLE_GOLDENS = {
    "prbox.json": (
        ("check_prbox", ("check",), 2),
        ("jdc_prbox", ("jdc",), 2),
        ("check_prbox_transforms", ("check", *TRANSFORM_METRICS), 2),
        ("check_prbox_transforms_float", ("check", *FLOAT, *TRANSFORM_METRICS), 2),
        ("jdc_prbox_float", ("jdc", *FLOAT), 2),
    ),
    "product.json": (
        ("check_product", ("check",), 0),
        ("jdc_product", ("jdc",), 0),
        ("check_product_transforms", ("check", *TRANSFORM_METRICS), 0),
    ),
    "normal_sign.json": (
        ("check_normal_sign", ("check",), 2),
        ("jdc_normal_sign", ("jdc",), 2),
        ("jdc_normal_sign_float", ("jdc", *FLOAT), 2),
    ),
    "pr_full.json": (
        ("check_pr_full", ("check", *PR_FULL_METRICS), 2),
        ("check_pr_full_float", ("check", *FLOAT, *PR_FULL_METRICS), 2),
    ),
    # 11 of pr_full.json's 27 treatments: the restricted-design walk
    "pr_restricted.json": (
        ("check_pr_restricted", ("check", *PR_FULL_METRICS), 2),
        ("check_pr_restricted_float", ("check", *FLOAT, *PR_FULL_METRICS), 2),
        ("check_pr_restricted_per_point", ("check", *PER_POINT_METRICS), 2),
        ("check_pr_restricted_per_point_float", ("check", *FLOAT, *PER_POINT_METRICS), 2),
    ),
    # eight_cycle_doc(): one chordless 8-cycle, refuted at the default
    # --max-len, the design's number of points
    "eight_cycle.json": (
        ("check_eight_cycle", ("check",), 2),
        ("jdc_eight_cycle", ("jdc",), 2),
    ),
    # parity4_doc(): every 1- and 2-input marginal agrees, two 3-input
    # marginals differ by 1/4
    "parity4.json": (
        ("check_parity4", ("check",), 2),
        ("jdc_parity4", ("jdc",), 2),
    ),
    # a table summing to 1 + 1/12, negative cells and a missing treatment:
    # the validation messages
    "invalid_exact.json": (
        ("check_invalid_exact", ("check",), 1),
        ("check_invalid_exact_float", ("check", *FLOAT), 1),
    ),
}

INVALID = "invalid system; see issues above\n"

# (golden file, (command, sample, *extra arguments), exit code, stderr);
# each golden .txt file holds the exact output without --json
TEXT_GOLDENS = (
    ("text_check_prbox", ("check", "prbox.json"), 2, ""),
    ("text_jdc_prbox", ("jdc", "prbox.json"), 2, ""),
    ("text_check_product", ("check", "product.json"), 0, ""),
    ("text_jdc_product", ("jdc", "product.json"), 0, ""),
    # 15 violations, of which the first 10 are printed
    ("text_check_pr_full", ("check", "pr_full.json", *PR_FULL_METRICS), 2, ""),
    # 12 violations under the per-point metrics, of which the first 10 are printed
    ("text_check_pr_restricted_per_point", ("check", "pr_restricted.json", *PER_POINT_METRICS), 2, ""),
    ("text_check_invalid_exact", ("check", "invalid_exact.json"), 1, INVALID),
)


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

    @pytest.mark.parametrize("golden, argv, code, stderr", TEXT_GOLDENS, ids=[g[0] for g in TEXT_GOLDENS])
    def test_byte_identical_text_output(self, capsys, golden, argv, code, stderr):
        command, name, *extra = argv
        result = run(capsys, command, str(SAMPLES / name), *extra)
        expected = (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")
        assert result == (code, expected, stderr)

    def test_byte_identical_demo_report(self, capsys):
        assert_golden(capsys, "demo_normal", ("demo-normal", "--json"), 2)

    @pytest.mark.parametrize(
        "golden, extra", [("text_demo_normal", ()), ("text_demo_normal_rho_grid", ("--rho-grid",))]
    )
    def test_byte_identical_demo_text(self, capsys, golden, extra):
        expected = (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")
        assert run(capsys, "demo-normal", *extra) == (2, expected, "")

    def test_transform_goldens_name_every_op(self):
        names = json.loads((GOLDEN / "check_prbox_transforms.json").read_text())["metrics"]
        assert names == [
            "bounded((d^(1))^1/2)",
            "sum(max(mixture(order,classification),frechet),entropy(base=2))",
        ]


# (sample, golden file, extra arguments) of every jdc --json golden
JDC_GOLDENS = [
    (name, golden, tuple(extra))
    for name, entries in sorted(SAMPLE_GOLDENS.items())
    for golden, (command, *extra), _ in entries
    if command == "jdc"
]


@pytest.mark.parametrize("name, golden, extra", JDC_GOLDENS, ids=[g[1] for g in JDC_GOLDENS])
def test_jdc_golden_verdict_verifies_on_all_rows(name, golden, extra):
    # a golden pins one witness or certificate of several valid ones; each
    # must prove its verdict on every build_jdc row of the sample
    floats = "float" in extra
    loaded = load_system(SAMPLES / name, "float" if floats else "auto")
    problem = build_jdc(loaded.design, loaded.tables)
    report = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    num = float if floats else Fraction
    if report["feasible"]:
        witness = {tuple(e["assignment"]): num(e["p"]) for e in report["witness"]}
        assert all(p >= 0 for p in witness.values())
        assert witness_reproduces_tables(problem, witness, loaded.tables, eps=1e-8 if floats else 0.0)
    else:
        # printed as floats or not, every certificate verifies exactly
        y = {(tuple(e["treatment"]), tuple(e["outcome"])): Fraction(e["y"]) for e in report["certificate"]}
        rows, rhs = jdc_rows(problem)
        assert len(y) == len(rows)
        assert verify_certificate(rows, rhs, [y[c.treatment, c.outcome] for c in problem.constraints])


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


def eight_cycle_doc():
    """An 8-cycle design x0 y0 x1 y1 x2 y2 x3 y3 (4x4 values, 8 treatments)
    with binary outputs, perfectly correlated on seven edges and perfectly
    anticorrelated on the closing edge (x0, y3)."""
    edges = [("x0", "y0"), ("x1", "y0"), ("x1", "y1"), ("x2", "y1"),
             ("x2", "y2"), ("x3", "y2"), ("x3", "y3"), ("x0", "y3")]
    same = [{"outcome": ["0", "0"], "p": "1/2"}, {"outcome": ["1", "1"], "p": "1/2"}]
    flip = [{"outcome": ["0", "1"], "p": "1/2"}, {"outcome": ["1", "0"], "p": "1/2"}]
    return {
        "inputs": [
            {"name": "1", "values": ["x0", "x1", "x2", "x3"]},
            {"name": "2", "values": ["y0", "y1", "y2", "y3"]},
        ],
        "treatments": [list(e) for e in edges],
        "outcomes": [{"input": n, "values": ["0", "1"]} for n in ("1", "2")],
        "tables": [
            {"treatment": list(e), "probs": flip if e == ("x0", "y3") else same} for e in edges
        ],
    }


class TestLongCycle:
    """The 8-cycle's only irreducible sequences are its 16 traversals."""

    def test_check_at_max_len_8_finds_the_flipped_edge(self, capsys, tmp_path):
        path = tmp_path / "cycle8.json"
        path.write_text(json.dumps(eight_cycle_doc()))
        code, out, _ = run(capsys, "check", str(path), "--max-len", "8", "--json")
        assert code == 2
        report = json.loads(out)
        assert report["marginal_selectivity"]["passed"] is True
        assert report["sequences_tested"] == 16 and report["truncated"] is False
        violations = report["violations"]
        assert len(violations) == 2
        for v in violations:
            seq = v["sequence"]
            assert len(seq) == 8
            assert {tuple(seq[0]), tuple(seq[-1])} == {("1", "x0"), ("2", "y3")}
            assert f_to_float(v["residual"]) < 0

    def test_check_at_the_default_length_finds_the_flipped_edge(self, capsys, tmp_path):
        # on a restricted design --max-len defaults to the number of points
        path = tmp_path / "cycle8.json"
        path.write_text(json.dumps(eight_cycle_doc()))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["sequences_tested"] == 16 and report["truncated"] is False
        assert len(report["violations"]) == 2
        assert report == json.loads(run(capsys, "check", str(path), "--max-len", "8", "--json")[1])
        # an explicit shorter limit still hides the cycle
        code, out, _ = run(capsys, "check", str(path), "--max-len", "7", "--json")
        assert code == 0
        assert json.loads(out)["sequences_tested"] == 0

    def test_sample_is_the_doc(self):
        assert json.loads((SAMPLES / "eight_cycle.json").read_text()) == eight_cycle_doc()

    def test_jdc_refutes(self, capsys, tmp_path):
        path = tmp_path / "cycle8.json"
        path.write_text(json.dumps(eight_cycle_doc()))
        code, out, _ = run(capsys, "jdc", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["feasible"] is False
        # refuted by one of the two violated 8-chains
        assert len(report["certificate_chain"]["sequence"]) == 8
        assert report["certificate_chain"]["residual"] == "-1/2"


def parity4_doc():
    """A full design of 4 binary inputs A-D with binary outputs: under each
    treatment every outcome with X_C = X_A xor X_B xor [D = d1] has mass
    1/8.  Every marginal over one or two inputs is uniform under every
    treatment, while the (A, B, C) marginal under d0 and under d1 sit on
    disjoint halves of its outcomes."""
    values = {n: [f"{n.lower()}0", f"{n.lower()}1"] for n in "ABCD"}
    tables = []
    for t in itertools.product(*values.values()):
        flip = t[3] == "d1"
        outcomes = [o for o in itertools.product("01", repeat=4) if int(o[2]) == int(o[0]) ^ int(o[1]) ^ flip]
        tables.append({"treatment": list(t), "probs": [{"outcome": list(o), "p": "1/8"} for o in outcomes]})
    return {
        "inputs": [{"name": n, "values": v} for n, v in values.items()],
        "treatments": "full",
        "outcomes": [{"input": n, "values": ["0", "1"]} for n in values],
        "tables": tables,
    }


class TestParity4:
    """Marginal selectivity over every proper subset: only a 3-input
    marginal refutes the parity system."""

    def test_sample_is_the_doc(self):
        assert json.loads((SAMPLES / "parity4.json").read_text()) == parity4_doc()

    def test_check_names_a_three_input_class(self, capsys):
        code, out, _ = run(capsys, "check", str(SAMPLES / "parity4.json"), "--json")
        assert code == 2
        msel = json.loads(out)["marginal_selectivity"]
        assert msel["passed"] is False
        assert msel["max_discrepancy"] == "1/4"
        assert msel["witness"] == {
            "inputs": ["A", "B", "C"],
            "assignment": ["a0", "b0", "c0"],
            "treatments": [["a0", "b0", "c0", "d0"], ["a0", "b0", "c0", "d1"]],
            "outcome": ["0", "0", "0"],
            "discrepancy": "1/4",
        }

    def test_only_three_input_classes_differ(self):
        loaded = load_system(SAMPLES / "parity4.json")
        classes = check_marginal_selectivity(loaded.design, loaded.tables).classes
        # 4 x 2 one-input, 6 x 4 two-input and 4 x 8 three-input classes
        assert len(classes) == 8 + 24 + 32
        assert all(worst == 0 for names, _, worst in classes if len(names) < 3)
        differ = {names for names, _, worst in classes if worst}
        assert differ == {("A", "B", "C")}

    def test_jdc_refutes(self, capsys):
        code, out, _ = run(capsys, "jdc", str(SAMPLES / "parity4.json"), "--json")
        assert code == 2
        assert json.loads(out)["feasible"] is False


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

    @pytest.mark.parametrize(
        "command, option",
        [("check", "--tol-test"), ("check", "--tol-sum"), ("jdc", "--tol-test"), ("jdc", "--tol-sum"),
         ("jdc", "--tol-lp")],
    )
    @pytest.mark.parametrize("value", ["inf", "Infinity", "nan"])
    def test_non_finite_tolerance_is_input_error(self, capsys, command, option, value):
        # every tolerance is compared exactly, as a Fraction, which no
        # infinity has; on exact data too, an infinite one once ended in a
        # traceback
        code, out, err = run(capsys, command, str(SAMPLES / "prbox.json"), option, value)
        assert (code, out) == (1, "")
        assert f"{option}: must be positive and finite" in err

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
    def test_string_outcome_is_input_error(self, capsys, tmp_path, command):
        # "01" read as the list of its characters would be a valid cell
        doc = json.loads((SAMPLES / "prbox.json").read_text())
        doc["tables"][3]["probs"][0]["outcome"] = "01"
        file = tmp_path / "string_outcome.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(file), "--json")
        assert (code, out) == (1, "")
        assert err == "error: bad probability entry {'outcome': '01', 'p': '1/2'}\n"

    @pytest.mark.parametrize("command", ["check", "jdc"])
    def test_outcomes_for_unknown_value_is_input_error(self, capsys, tmp_path, command):
        # a per-point declaration for a value input 1 does not have
        doc = json.loads((SAMPLES / "product.json").read_text())
        doc["outcomes"].insert(0, {"input": "1", "value": "X", "values": ["1", "0"]})
        file = tmp_path / "unknown_value.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(file), "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "unknown value 'X' of input '1'" in err

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


@pytest.fixture
def collector_state():
    """Restores the cyclic garbage collector's state after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPaused:
    """main runs the command with the cyclic garbage collector paused and
    leaves the collector as it found it, however the command ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check", str(SAMPLES / "product.json")], 0),
            (["check", str(SAMPLES / "prbox.json"), "--json"], 2),
            (["jdc", str(SAMPLES / "product.json"), "--cap", "8"], 1),  # OrdistError
            (["check", str(SAMPLES / "no_such_file.json")], 1),  # OSError
            (["check", str(SAMPLES / "invalid_exact.json")], 1),  # invalid system
            (["check", "--max-len", "2", str(SAMPLES / "product.json")], 1),  # usage
        ],
        ids=["exit-0", "exit-2", "ordist-error", "os-error", "invalid", "usage"],
    )
    def test_state_restored(self, capsys, monkeypatch, collector_state, argv, code, enabled):
        during = []
        command = {"check": "cmd_check", "jdc": "cmd_jdc"}[argv[0]]
        inner = getattr(cli, command)

        def spy(args):
            during.append(gc.isenabled())
            return inner(args)

        monkeypatch.setattr(cli, command, spy)
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled
        # a usage error ends before any command runs
        assert during == ([] if argv[1] == "--max-len" else [False])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored_after_an_unexpected_exception(self, monkeypatch, collector_state, enabled):
        def fail(args):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "cmd_check", fail)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="injected"):
            main(["check", str(SAMPLES / "product.json")])
        assert gc.isenabled() is enabled


#: the benchmark's two extra metrics (perfbench/workloads.py EXTRA_METRICS)
EXTRA_METRICS = (
    "--metric", '{"kind": "p", "p": 1, "transform": [{"op": "power", "q": "1/2"}]}',
    "--metric", '{"kind": "classification", "cells": [["0"], ["1"]]}',
)
LARGE_PR = "large_pr.json"


def _garbage_cases():
    """argv lists naming system files by their names in samples/, or
    LARGE_PR for the large system the test class writes."""
    for path in sorted(SAMPLES.glob("*.json")):
        for command in ("check", "jdc"):
            for extra in ([], ["--json"], ["--arithmetic", "float", "--json"]):
                yield [command, path.name, *extra]
        yield ["check", path.name, *EXTRA_METRICS, "--json"]
    yield ["demo-normal", "--json", "--rho-grid"]
    yield ["check", "no_such_file.json"]
    for command in ("check", "jdc"):  # jdc exceeds its hidden-space cap
        for extra in ([], ["--json"]):
            yield [command, LARGE_PR, *extra]
    yield ["check", LARGE_PR, *EXTRA_METRICS, "--json"]


def _case_id(argv) -> str:
    return " ".join("{...}" if a.startswith("{") else a for a in argv)


class TestNoCyclicGarbage:
    """The premise of main's pause: a command builds no reference cycles,
    so reference counting frees all it drops and, after a warm-up call,
    gc.collect() finds nothing left by the next call."""

    @pytest.fixture(scope="class")
    def large_pr(self, tmp_path_factory):
        # 625 tables of 16 cells: a JSON tree of tens of thousands of containers
        design, tables = pr_embedded_system(4, 5)
        path = tmp_path_factory.mktemp("large") / "large_pr.json"
        path.write_text(json.dumps(dump_system(design, tables)))
        return str(path)

    @pytest.mark.parametrize("argv", list(_garbage_cases()), ids=_case_id)
    def test_command_leaves_no_cycles(self, capsys, collector_state, large_pr, argv):
        argv = [
            large_pr if a == LARGE_PR else str(SAMPLES / a) if a.endswith(".json") else a
            for a in argv
        ]
        code = main(argv)
        capsys.readouterr()
        gc.collect()
        gc.disable()
        assert main(argv) == code
        assert gc.collect() == 0
        capsys.readouterr()
